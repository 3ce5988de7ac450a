"""Tests for tiled (memory-bounded) comparison (repro.core.tiled)."""

import numpy as np
import pytest

from repro.core import OrisEngine, OrisParams, compare_tiled, iter_subject_tiles
from repro.data.synthetic import Transcriptome, make_est_bank, mutate, random_dna
from repro.io.bank import Bank


class TestTileIteration:
    def test_short_sequences_packed(self, rng):
        b = Bank.from_strings([(f"s{i}", random_dna(rng, 100)) for i in range(10)])
        tiles = list(iter_subject_tiles(b, tile_nt=350, overlap=50))
        assert len(tiles) >= 3
        names = [n for t in tiles for n in t.bank.names]
        assert names == [f"s{i}" for i in range(10)]  # order preserved

    def test_long_sequence_windowed_with_overlap(self, rng):
        seq = random_dna(rng, 1000)
        b = Bank.from_strings([("chr", seq)])
        tiles = list(iter_subject_tiles(b, tile_nt=400, overlap=100))
        assert len(tiles) >= 3
        # windows reconstruct the sequence
        rebuilt = {}
        for t in tiles:
            off = t.offsets["chr"]
            rebuilt[off] = t.bank.sequence_str(0)
        covered = set()
        for off, w in rebuilt.items():
            assert seq[off : off + len(w)] == w
            covered.update(range(off, off + len(w)))
        assert covered == set(range(1000))

    def test_ownership_partition(self, rng):
        seq = random_dna(rng, 1000)
        b = Bank.from_strings([("chr", seq)])
        tiles = list(iter_subject_tiles(b, tile_nt=400, overlap=100))
        owned = sorted(
            (t.owned_from["chr"], t.owned_until["chr"]) for t in tiles
        )
        # owned regions tile [0, 1000) without gaps or overlap
        assert owned[0][0] == 0
        assert owned[-1][1] == 1000
        for (a1, b1), (a2, b2) in zip(owned, owned[1:]):
            assert b1 == a2

    def test_owned_region_has_edge_margins(self, rng):
        seq = random_dna(rng, 1000)
        b = Bank.from_strings([("chr", seq)])
        tiles = list(iter_subject_tiles(b, tile_nt=400, overlap=100))
        for t in tiles:
            off = t.offsets["chr"]
            if off > 0:  # interior left edge keeps a margin
                assert t.owned_from["chr"] == off + 50

    def test_validation(self, rng):
        b = Bank.from_strings([("a", random_dna(rng, 100))])
        with pytest.raises(ValueError):
            list(iter_subject_tiles(b, tile_nt=0, overlap=0))
        with pytest.raises(ValueError):
            list(iter_subject_tiles(b, tile_nt=100, overlap=100))


class TestCompareTiled:
    def test_matches_monolithic_on_est_bank(self, est_pair):
        b1, b2 = est_pair
        mono = OrisEngine(OrisParams()).compare(b1, b2)
        tiled = compare_tiled(b1, b2, OrisParams(), tile_nt=8_000, overlap=2_000)
        assert tiled.records == mono.records

    def test_matches_monolithic_on_long_sequence(self, rng):
        # homologies implanted at tile borders included
        genome = random_dna(rng, 12_000)
        mut = mutate(rng, genome, sub_rate=0.03, indel_rate=0.002)
        b1 = Bank.from_strings([("q", genome[2_000:2_600]),
                                ("q2", genome[5_800:6_400])])
        b2 = Bank.from_strings([("chr", mut)])
        mono = OrisEngine(OrisParams()).compare(b1, b2)
        tiled = compare_tiled(b1, b2, OrisParams(), tile_nt=3_000, overlap=1_000)
        assert tiled.records == mono.records

    def test_matches_monolithic_on_divergent_genome_with_decoys(self):
        # Per-tile S1 thresholds and e-value lengths used to drop real
        # alignments and admit others here; the whole bank's profile
        # makes every tile agree with the uncut run.
        rng = np.random.default_rng(0)
        genome = random_dna(rng, 40_000)
        subject = mutate(rng, genome, 0.12, 0.01)
        decoys = [(f"d{i}", random_dna(rng, 500)) for i in range(30)]
        b2 = Bank.from_strings([("chr", subject), *decoys])
        b1 = Bank.from_strings(
            [
                (f"q{pos}", mutate(rng, genome[pos : pos + 700], 0.08, 0.01))
                for pos in range(500, len(genome) - 700, 1_900)
            ]
        )
        mono = OrisEngine(OrisParams()).compare(b1, b2)
        tiled = compare_tiled(b1, b2, OrisParams(), tile_nt=6_000, overlap=2_000)
        assert tiled.counters.n_tiles > 1
        assert tiled.records == mono.records

    def test_counters_accumulate(self, est_pair):
        b1, b2 = est_pair
        tiled = compare_tiled(b1, b2, OrisParams(), tile_nt=8_000, overlap=2_000)
        assert tiled.counters.n_pairs > 0
        assert tiled.counters.n_records == len(tiled.records)

    def test_both_strand_rejected(self, est_pair):
        with pytest.raises(ValueError):
            compare_tiled(*est_pair, OrisParams(strand="both"))


class TestTiledFunnelMetrics:
    def test_funnel_consistent_after_ownership_restatement(self, rng):
        # Border duplicates are dropped by the ownership rule *after* the
        # per-tile display stage; compare_tiled restates step 4 so the
        # funnel identities describe the final output.
        from repro.obs import check_funnel, funnel_dict

        qs = [(f"q{i}", random_dna(rng, 600)) for i in range(3)]
        subject = "".join(mutate(rng, s, 0.04) for _, s in qs) * 3
        b1 = Bank.from_strings(qs)
        b2 = Bank.from_strings([("chr", subject)])
        res = compare_tiled(
            b1, b2, OrisParams(filter_kind="none"), tile_nt=2000, overlap=400
        )
        assert res.counters.n_tiles > 1
        f = funnel_dict(res.metrics)
        assert check_funnel(res.metrics) == []
        assert f["step4.records"] == len(res.records)
        assert f["step4.ownership_filtered"] > 0
        assert res.metrics.value("tile.tiles") == res.counters.n_tiles
