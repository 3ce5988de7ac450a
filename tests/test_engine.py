"""End-to-end tests for the ORIS engine (repro.core.engine)."""

import numpy as np
import pytest

from repro.core import OrisEngine, OrisParams
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank


def record_keys(result):
    return set(
        (r.query_id, r.subject_id, r.q_start, r.q_end, r.s_start, r.s_end)
        for r in result.records
    )


class TestBasicPipeline:
    def test_finds_implanted_homology(self, rng):
        core = random_dna(rng, 120)
        b1 = Bank.from_strings([("q", random_dna(rng, 50) + core + random_dna(rng, 50))])
        b2 = Bank.from_strings([("s", random_dna(rng, 80) + core + random_dna(rng, 20))])
        res = OrisEngine(OrisParams()).compare(b1, b2)
        assert len(res.records) >= 1
        top = res.records[0]
        assert top.length >= 110
        assert top.pident >= 99.0
        # coordinates point at the implanted core
        assert abs(top.q_start - 51) <= 10
        assert abs(top.s_start - 81) <= 10

    def test_no_homology_no_records(self, rng):
        b1 = Bank.from_strings([("q", random_dna(rng, 2000))])
        rng2 = np.random.default_rng(999)
        b2 = Bank.from_strings([("s", random_dna(rng2, 2000))])
        res = OrisEngine(OrisParams()).compare(b1, b2)
        assert res.records == []

    def test_diverged_homology_found(self, rng):
        core = random_dna(rng, 300)
        mut = mutate(rng, core, sub_rate=0.05, indel_rate=0.005)
        b1 = Bank.from_strings([("q", core)])
        b2 = Bank.from_strings([("s", mut)])
        res = OrisEngine(OrisParams()).compare(b1, b2)
        assert len(res.records) >= 1
        assert res.records[0].pident > 90

    def test_counters_populated(self, est_pair):
        res = OrisEngine(OrisParams()).compare(*est_pair)
        c = res.counters
        assert c.n_pairs > 0
        assert c.n_hsps > 0
        assert c.n_cut > 0
        assert c.n_alignments >= c.n_records
        assert res.timings.total > 0

    def test_records_sorted_by_evalue(self, est_pair):
        res = OrisEngine(OrisParams()).compare(*est_pair)
        evs = [r.evalue for r in res.records]
        assert evs == sorted(evs)

    def test_deterministic(self, est_pair):
        r1 = OrisEngine(OrisParams()).compare(*est_pair)
        r2 = OrisEngine(OrisParams()).compare(*est_pair)
        assert [x.to_line() for x in r1.records] == [x.to_line() for x in r2.records]


class TestSchedulingParity:
    """The production step-3 schedule approximates the paper's serial loop."""

    def test_single_matches_serial(self, est_pair):
        serial = OrisEngine(OrisParams(gapped_scheduling="serial")).compare(*est_pair)
        single = OrisEngine(OrisParams(gapped_scheduling="single")).compare(*est_pair)
        a, b = record_keys(serial), record_keys(single)
        assert len(a ^ b) <= max(2, len(a) // 20)  # within 5%

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            OrisParams(gapped_scheduling="bogus")


class TestOrderedCutoffAblation:
    """Disabling the cutoff + explicit dedup gives the same HSP set."""

    def test_same_records_without_cutoff(self, est_pair):
        on = OrisEngine(OrisParams()).compare(*est_pair)
        off = OrisEngine(OrisParams(ordered_cutoff=False)).compare(*est_pair)
        assert record_keys(on) == record_keys(off)

    def test_cutoff_saves_work(self, est_pair):
        on = OrisEngine(OrisParams()).compare(*est_pair)
        off = OrisEngine(OrisParams(ordered_cutoff=False)).compare(*est_pair)
        # without the rule the kernel completes every duplicate extension
        assert off.counters.ungapped_steps > on.counters.ungapped_steps

    def test_hsps_unique_even_without_cutoff_due_to_dedup(self, est_pair):
        off = OrisEngine(OrisParams(ordered_cutoff=False)).compare(*est_pair)
        on = OrisEngine(OrisParams()).compare(*est_pair)
        assert off.counters.n_hsps == on.counters.n_hsps


class TestStrandSearch:
    def test_minus_strand_found(self, rng):
        from repro.encoding import decode, encode, reverse_complement

        core = random_dna(rng, 150)
        rc_core = decode(reverse_complement(encode(core)))
        b1 = Bank.from_strings([("q", random_dna(rng, 40) + core + random_dna(rng, 40))])
        b2 = Bank.from_strings([("s", random_dna(rng, 30) + rc_core + random_dna(rng, 30))])
        plus = OrisEngine(OrisParams(strand="plus")).compare(b1, b2)
        both = OrisEngine(OrisParams(strand="both")).compare(b1, b2)
        assert len(plus.records) == 0
        assert len(both.records) >= 1
        rec = both.records[0]
        assert rec.minus_strand
        # minus-strand subject coordinates point at the rc core
        lo, hi = rec.s_span
        assert abs(lo - 30) <= 8 and abs(hi - 180) <= 8

    def test_both_strand_superset_of_plus(self, est_pair):
        plus = OrisEngine(OrisParams(strand="plus")).compare(*est_pair)
        both = OrisEngine(OrisParams(strand="both")).compare(*est_pair)
        assert record_keys(plus) <= record_keys(both)


class TestAsymmetricMode:
    def test_asymmetric_finds_what_w11_finds(self, rng):
        # Diverged homology: 10-nt asymmetric indexing should be at least
        # comparable to 11-nt (paper: "a little bit more efficient").
        core = random_dna(rng, 400)
        mut = mutate(rng, core, sub_rate=0.08, indel_rate=0.0)
        b1 = Bank.from_strings([("q", core)])
        b2 = Bank.from_strings([("s", mut)])
        w11 = OrisEngine(OrisParams(w=11)).compare(b1, b2)
        asym = OrisEngine(OrisParams(asymmetric=True)).compare(b1, b2)
        cov11 = sum(r.length for r in w11.records)
        cov10 = sum(r.length for r in asym.records)
        assert cov10 >= cov11 * 0.8

    def test_effective_w(self):
        assert OrisParams(asymmetric=True).effective_w == 10
        assert OrisParams().effective_w == 11


class TestThresholds:
    def test_explicit_s1(self, est_pair):
        low = OrisEngine(OrisParams(hsp_min_score=12)).compare(*est_pair)
        high = OrisEngine(OrisParams(hsp_min_score=40)).compare(*est_pair)
        assert low.counters.n_hsps >= high.counters.n_hsps

    def test_s2_floor(self, est_pair):
        none = OrisEngine(OrisParams()).compare(*est_pair)
        floored = OrisEngine(OrisParams(min_align_score=100)).compare(*est_pair)
        assert floored.counters.n_alignments <= none.counters.n_alignments

    def test_evalue_threshold_monotone(self, est_pair):
        strict = OrisEngine(OrisParams(max_evalue=1e-10)).compare(*est_pair)
        loose = OrisEngine(OrisParams(max_evalue=1e-1)).compare(*est_pair)
        assert len(strict.records) <= len(loose.records)
        assert all(r.evalue <= 1e-10 for r in strict.records)


class TestFilters:
    def test_filter_suppresses_low_complexity_hits(self, rng):
        junk = "AT" * 200
        b1 = Bank.from_strings([("q", random_dna(rng, 200) + junk)])
        b2 = Bank.from_strings([("s", random_dna(rng, 200) + junk)])
        with_filter = OrisEngine(OrisParams(filter_kind="dust")).compare(b1, b2)
        without = OrisEngine(OrisParams(filter_kind="none")).compare(b1, b2)
        assert without.counters.n_pairs > with_filter.counters.n_pairs

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OrisParams(filter_kind="sponge")
        with pytest.raises(ValueError):
            OrisParams(strand="minus")
        with pytest.raises(ValueError):
            OrisParams(w=2)
        with pytest.raises(ValueError):
            OrisParams(chunk_pairs=0)

    def test_with_updates(self):
        p = OrisParams().with_(w=9)
        assert p.w == 9 and OrisParams().w == 11
