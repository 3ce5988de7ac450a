"""Tests for alignment display, result summaries, and index persistence."""

import numpy as np
import pytest

from repro.align.classic import gotoh_local
from repro.align.display import render_alignment, render_record
from repro.core import OrisEngine, OrisParams
from repro.data.synthetic import mutate, random_dna
from repro.eval import best_hits, query_coverage, summarize
from repro.index import CsrSeedIndex, load_index, save_index
from repro.io.bank import Bank
from repro.io.m8 import M8Record


class TestRenderAlignment:
    def test_blocks_and_gutters(self, rng, scoring):
        core = random_dna(rng, 100)
        path = gotoh_local(core, core, scoring)
        text = render_alignment(path, q_offset=10, s_offset=20, width=40)
        lines = text.splitlines()
        assert lines[0].startswith("Query  11")
        assert lines[2].startswith("Sbjct  21")
        # match line all pipes on identical sequences
        assert set(lines[1].split()[-1]) == {"|"}
        # three blocks of 40/40/20
        assert sum(1 for l in lines if l.startswith("Query")) == 3

    def test_mismatch_column_blank(self, scoring):
        s1 = "ACGTACGTACGTACGTACGT"
        s2 = "ACGTACGTTCGTACGTACGT"
        path = gotoh_local(s1, s2, scoring)
        text = render_alignment(path)
        match_line = text.splitlines()[1]
        assert " " in match_line.strip("| ") or match_line.count("|") == 19

    def test_coordinates_advance_across_blocks(self, rng, scoring):
        core = random_dna(rng, 90)
        path = gotoh_local(core, core, scoring)
        text = render_alignment(path, width=30)
        q_lines = [l for l in text.splitlines() if l.startswith("Query")]
        starts = [int(l.split()[1]) for l in q_lines]
        assert starts == [1, 31, 61]


class TestRenderRecord:
    def test_end_to_end(self, rng):
        core = random_dna(rng, 150)
        b1 = Bank.from_strings([("q", random_dna(rng, 30) + core)])
        b2 = Bank.from_strings([("s", core + random_dna(rng, 30))])
        res = OrisEngine(OrisParams()).compare(b1, b2)
        text = render_record(res.records[0], b1, b2)
        assert "Score =" in text
        assert "Query" in text and "Sbjct" in text
        assert core[:30] in text.replace("\n", " ")

    def test_minus_strand_record(self, rng):
        from repro.encoding import decode, encode, reverse_complement

        core = random_dna(rng, 120)
        rc = decode(reverse_complement(encode(core)))
        b1 = Bank.from_strings([("q", core)])
        b2 = Bank.from_strings([("s", rc)])
        res = OrisEngine(OrisParams(strand="both")).compare(b1, b2)
        rec = res.records[0]
        assert rec.minus_strand
        text = render_record(rec, b1, b2)
        assert "Minus" in text


def make_rec(q="q", qs=1, qe=100, e=1e-10, bits=100.0, minus=False):
    return M8Record(
        query_id=q, subject_id="s", pident=95.0, length=qe - qs + 1,
        mismatches=2, gap_openings=0, q_start=qs, q_end=qe,
        s_start=qe if minus else qs, s_end=qs if minus else qe,
        evalue=e, bit_score=bits,
    )


class TestSummaries:
    def test_summary_fields(self):
        recs = [make_rec(), make_rec(q="b", qs=11, qe=60)]
        s = summarize(recs)
        assert s.n_records == 2
        assert s.n_query_ids == 2
        assert s.n_subject_ids == 1
        assert s.total_aligned_columns == 100 + 50
        assert s.mean_pident == pytest.approx(95.0)
        assert "records" in s.format()

    def test_empty_summary(self):
        s = summarize([])
        assert s.n_records == 0
        assert s.min_evalue == float("inf")

    def test_minus_count(self):
        s = summarize([make_rec(minus=True), make_rec()])
        assert s.n_minus_strand == 1

    def test_best_hits(self):
        a = make_rec(e=1e-5)
        b = make_rec(e=1e-20)
        assert best_hits([a, b])["q"] is b

    def test_best_hits_tie_breaks_on_bits(self):
        a = make_rec(e=1e-5, bits=50.0)
        b = make_rec(e=1e-5, bits=80.0)
        assert best_hits([a, b])["q"] is b

    def test_query_coverage_merges_overlaps(self):
        recs = [make_rec(qs=1, qe=100), make_rec(qs=51, qe=150)]
        assert query_coverage(recs)["q"] == 150

    def test_query_coverage_disjoint(self):
        recs = [make_rec(qs=1, qe=50), make_rec(qs=101, qe=150)]
        assert query_coverage(recs)["q"] == 100


def _array_span(path, name: str) -> tuple[int, int]:
    """File offsets ``[lo, hi)`` of one array of an index archive."""
    import json
    import struct

    blob = path.read_bytes()
    header_len, _crc = struct.unpack_from("<II", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    data_start = -(-(16 + header_len) // 64) * 64
    entry = next(e for e in header["arrays"] if e["name"] == name)
    lo = data_start + entry["offset"]
    return lo, lo + entry["nbytes"]


class TestIndexPersistence:
    @pytest.mark.parametrize("w", [9, 16])  # int32 and int64 codes
    def test_round_trip(self, tmp_path, rng, w):
        bank = Bank.from_strings(
            [("a", random_dna(rng, 400)), ("b", random_dna(rng, 300))]
        )
        idx = CsrSeedIndex(bank, w)
        path = tmp_path / "bank.idx"
        save_index(path, idx)
        loaded = load_index(path, verify=True)
        assert loaded.w == w
        assert loaded.bank.names == bank.names
        assert np.array_equal(loaded.bank.seq, bank.seq)
        for name in CsrSeedIndex.ARRAY_FIELDS:
            got, want = getattr(loaded, name), getattr(idx, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert np.array_equal(loaded.indexed_mask, idx.indexed_mask)

    @pytest.mark.parametrize(
        "mask", ["spaced:1101011", "subset:#@-@#", "subset:##@#"]
    )
    def test_seed_mask_round_trip(self, tmp_path, rng, mask):
        from repro.encoding.spaced import SpacedSeedMask
        from repro.encoding.subset import SubsetSeedMask

        kind, pattern = mask.split(":")
        cls = {"spaced": SpacedSeedMask, "subset": SubsetSeedMask}[kind]
        bank = Bank.from_strings(
            [("a", random_dna(rng, 400)), ("b", random_dna(rng, 300))]
        )
        idx = CsrSeedIndex(bank, 0, mask=cls(pattern))
        path = tmp_path / "masked.idx"
        save_index(path, idx)
        loaded = load_index(path, verify=True)
        assert type(loaded.mask) is cls and loaded.mask.pattern == pattern
        assert loaded.span == idx.span
        for name in CsrSeedIndex.ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(idx, name)), name
        assert np.array_equal(loaded.cutoff_codes, idx.cutoff_codes)

    @pytest.mark.parametrize(
        "mask, kind",
        [("#x#", None), ("#@#", "spaced"), ("101", "subset"), ("101", "gapped")],
    )
    def test_invalid_seed_mask_is_corrupt(self, tmp_path, rng, mask, kind):
        from repro.index.persist import _write_archive
        from repro.runtime.errors import IndexCorrupt

        bank = Bank.from_strings([("a", random_dna(rng, 100))])
        idx = CsrSeedIndex(bank, 6)
        arrays = {"seq": bank.seq, "starts": bank.starts, "lengths": bank.lengths}
        arrays.update((n, getattr(idx, n)) for n in idx.ARRAY_FIELDS)
        meta = {"w": 6, "span": 6, "mask": mask, "names": bank.names}
        if kind is not None:
            meta["mask_kind"] = kind
        path = tmp_path / "x.scoris3"
        _write_archive(path, 4, meta, arrays)
        with pytest.raises(IndexCorrupt, match="seed mask"):
            load_index(path)

    def test_loaded_index_is_usable(self, tmp_path, rng):
        core = random_dna(rng, 200)
        b1 = Bank.from_strings([("q", core)])
        b2 = Bank.from_strings([("s", core)])
        i2 = CsrSeedIndex(b2, 11)
        path = tmp_path / "i2.scoris3"
        save_index(path, i2)
        i2b = load_index(path)
        i1 = CsrSeedIndex(b1, 11)
        cc = i1.common_codes(i2b)
        assert cc.n_pairs > 0
        # cutoff helpers work on the reloaded instance
        assert i2b.indexed_mask.any()
        assert i2b.cutoff_codes.shape == b2.seq.shape

    def test_version_check(self, tmp_path, rng):
        from repro.index.persist import _write_archive

        bank = Bank.from_strings([("a", random_dna(rng, 100))])
        idx = CsrSeedIndex(bank, 6)
        path = tmp_path / "x.scoris3"
        arrays = {"seq": bank.seq, "starts": bank.starts, "lengths": bank.lengths}
        arrays.update((n, getattr(idx, n)) for n in idx.ARRAY_FIELDS)
        meta = {"w": 6, "span": 6, "mask": None, "names": bank.names}
        _write_archive(path, 999, meta, arrays)
        with pytest.raises(ValueError, match="version"):
            load_index(path)

    def test_outdated_archive_keeps_its_bank(self, tmp_path, rng):
        """A v3 archive is named outdated, not loaded as an index, and
        its bank still reads for a rebuild."""
        from repro.index.persist import load_archived_bank
        from repro.runtime.errors import IndexOutdated

        from tests.v3_archive import write_v3_archive

        bank = Bank.from_strings(
            [("a", random_dna(rng, 300)), ("b", random_dna(rng, 200))]
        )
        path = tmp_path / "old.scoris3"
        write_v3_archive(path, CsrSeedIndex(bank, 9))
        with pytest.raises(IndexOutdated, match="v3"):
            load_index(path)
        old = load_archived_bank(path, verify=True)
        assert old.names == bank.names
        assert np.array_equal(old.seq, bank.seq)
        assert np.array_equal(old.starts, bank.starts)


class TestIndexArchiveVerification:
    """load_index must reject damaged archives, never deserialise garbage."""

    def _saved(self, tmp_path, rng):
        bank = Bank.from_strings(
            [("a", random_dna(rng, 400)), ("b", random_dna(rng, 250))]
        )
        idx = CsrSeedIndex(bank, 8)
        path = tmp_path / "bank.scoris3"
        save_index(path, idx)
        return path

    def test_truncated_archive(self, tmp_path, rng):
        from repro.runtime.errors import IndexCorrupt

        path = self._saved(tmp_path, rng)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexCorrupt):
            load_index(path)

    def test_bit_flipped_archive(self, tmp_path, rng):
        from repro.runtime.errors import IndexCorrupt

        path = self._saved(tmp_path, rng)
        clean = path.read_bytes()
        # One flipped byte inside any stored array fails its checksum.
        for name in ("seq",) + CsrSeedIndex.ARRAY_FIELDS:
            lo, hi = _array_span(path, name)
            blob = bytearray(clean)
            blob[(lo + hi) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
            with pytest.raises(IndexCorrupt, match="checksum"):
                load_index(path, verify=True)

    def test_checksum_mismatch_after_array_tamper(self, tmp_path, rng):
        from repro.runtime.errors import IndexCorrupt

        path = self._saved(tmp_path, rng)
        loaded = load_index(path)
        pos = loaded.positions.copy()
        pos[0] += 1  # one shifted position, written back in place
        del loaded
        lo, hi = _array_span(path, "positions")
        blob = bytearray(path.read_bytes())
        blob[lo:hi] = pos.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexCorrupt, match="checksum"):
            load_index(path, verify=True)

    def test_missing_array_member(self, tmp_path, rng):
        from repro.index.persist import _write_archive
        from repro.runtime.errors import IndexCorrupt

        bank = Bank.from_strings([("a", random_dna(rng, 100))])
        idx = CsrSeedIndex(bank, 6)
        arrays = {"seq": bank.seq, "starts": bank.starts, "lengths": bank.lengths}
        arrays.update((n, getattr(idx, n)) for n in idx.ARRAY_FIELDS)
        del arrays["positions"]
        path = tmp_path / "x.scoris3"
        meta = {"w": 6, "span": 6, "mask": None, "names": bank.names}
        _write_archive(path, 4, meta, arrays)
        with pytest.raises(IndexCorrupt, match="missing"):
            load_index(path)

    def test_index_corrupt_is_a_value_error(self):
        from repro.runtime.errors import IndexCorrupt, OrisRuntimeError

        assert issubclass(IndexCorrupt, ValueError)
        assert issubclass(IndexCorrupt, OrisRuntimeError)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nope.scoris3")


class TestV3Archive:
    """The mmap-able single-file container (introduced by v3, holding the
    v4 arrays): zero-copy load + checksummed damage rejection."""

    def _saved(self, tmp_path, rng, w=8):
        bank = Bank.from_strings(
            [("a", random_dna(rng, 400)), ("b", random_dna(rng, 250))]
        )
        idx = CsrSeedIndex(bank, w)
        path = tmp_path / "bank.scoris3"
        save_index(path, idx)
        return path, idx

    def test_loaded_arrays_are_readonly_views(self, tmp_path, rng):
        path, idx = self._saved(tmp_path, rng)
        loaded = load_index(path)
        assert not loaded.positions.flags.writeable
        assert not loaded.bank.seq.flags.writeable
        # zero-copy: the arrays are views onto one mmap buffer, not copies
        assert loaded.positions.base is not None
        with pytest.raises((ValueError, RuntimeError)):
            loaded.positions[0] = 1

    def test_header_tamper_rejected(self, tmp_path, rng):
        from repro.runtime.errors import IndexCorrupt

        path, _ = self._saved(tmp_path, rng)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexCorrupt, match="header checksum"):
            load_index(path)

    def test_content_tamper_rejected_with_verify(self, tmp_path, rng):
        from repro.runtime.errors import IndexCorrupt

        path, _ = self._saved(tmp_path, rng)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # inside the last array segment
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexCorrupt, match="content checksum"):
            load_index(path, verify=True)

    def test_truncation_rejected(self, tmp_path, rng):
        from repro.runtime.errors import IndexCorrupt

        path, _ = self._saved(tmp_path, rng)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexCorrupt, match="truncated"):
            load_index(path)

    def test_unrecognised_signature_rejected(self, tmp_path):
        from repro.runtime.errors import IndexCorrupt

        path = tmp_path / "junk"
        path.write_bytes(b"not an index archive at all")
        with pytest.raises(IndexCorrupt, match="signature"):
            load_index(path)
        path.write_bytes(b"")
        with pytest.raises(IndexCorrupt, match="signature"):
            load_index(path)


class TestIndexCache:
    def _bank(self, rng, n=300):
        return Bank.from_strings([("a", random_dna(rng, n))])

    def test_miss_then_hit(self, tmp_path, rng):
        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache")
        bank = self._bank(rng)
        first = cache.get(bank, 9)
        second = cache.get(bank, 9)
        assert (cache.misses, cache.hits) == (1, 1)
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(first.positions, CsrSeedIndex(bank, 9).positions)

    def test_key_depends_on_content_and_params(self, tmp_path, rng):
        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache")
        bank = self._bank(rng)
        other = self._bank(rng)
        keys = {
            cache.key(bank, 9, None),
            cache.key(bank, 11, None),
            cache.key(bank, 9, "dust"),
            cache.key(other, 9, None),
        }
        assert len(keys) == 4

    def test_corrupt_entry_self_heals(self, tmp_path, rng):
        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache")
        bank = self._bank(rng)
        cache.get(bank, 9)
        path = cache.path_for(cache.key(bank, 9, None))
        path.write_bytes(b"ruined")
        rebuilt = cache.get(bank, 9)
        assert cache.misses == 2 and cache.hits == 0
        assert np.array_equal(rebuilt.positions, CsrSeedIndex(bank, 9).positions)
        load_index(path, verify=True)  # the healed file is valid again

    def test_v3_archive_is_a_miss(self, tmp_path, rng):
        """An archive left by the v3 cache is never loaded: the key's
        format prefix changed, so the lookup builds and stores anew."""
        import hashlib

        from repro.index import IndexCache

        from tests.v3_archive import write_v3_archive

        cache = IndexCache(tmp_path / "cache")
        bank = self._bank(rng)
        h = hashlib.sha256()  # the v3 cache's key of (bank, 9, None)
        h.update(b"scoris-index/v3|w=9|filter=None|")
        h.update(bank.seq.tobytes())
        h.update(np.ascontiguousarray(bank.starts).tobytes())
        h.update("\x00".join(bank.names).encode("utf-8", "surrogateescape"))
        old = cache.path_for(h.hexdigest())
        write_v3_archive(old, CsrSeedIndex(bank, 9))
        index = cache.get(bank, 9)
        assert (cache.misses, cache.hits) == (1, 0)
        assert cache.path_for(cache.key(bank, 9, None)) != old
        for name in CsrSeedIndex.ARRAY_FIELDS:
            assert np.array_equal(
                getattr(index, name), getattr(CsrSeedIndex(bank, 9), name)
            )
        cache.get(bank, 9)
        assert cache.hits == 1

    def test_record_metrics(self, tmp_path, rng):
        from repro.index import IndexCache
        from repro.obs import MetricsRegistry

        cache = IndexCache(tmp_path / "cache")
        bank = self._bank(rng)
        cache.get(bank, 9)
        cache.get(bank, 9)
        registry = MetricsRegistry()
        cache.record_metrics(registry)
        assert registry.value("index.cache_hit") == 1
        assert registry.value("index.cache_miss") == 1

    def test_engine_results_identical_with_cache(self, tmp_path, rng):
        from repro.index import IndexCache
        from repro.io.m8 import format_m8

        core = random_dna(rng, 300)
        b1 = Bank.from_strings([("q", core + random_dna(rng, 50))])
        b2 = Bank.from_strings([("s", random_dna(rng, 50) + core)])
        base = OrisEngine(OrisParams()).compare(b1, b2)
        cache = IndexCache(tmp_path / "cache")
        cold = OrisEngine(OrisParams(), index_cache=cache).compare(b1, b2)
        warm = OrisEngine(OrisParams(), index_cache=cache).compare(b1, b2)
        assert format_m8(cold.records) == format_m8(base.records)
        assert format_m8(warm.records) == format_m8(base.records)
        assert cache.hits == 2 and cache.misses == 2


class TestIndexCacheEviction:
    def _bank(self, rng, n=300):
        return Bank.from_strings([("a", random_dna(rng, n))])

    def _fill(self, cache, rng, n_banks):
        banks = [self._bank(rng) for _ in range(n_banks)]
        for bank in banks:
            cache.get(bank, 9)
        return banks

    def test_unbounded_by_default(self, tmp_path, rng):
        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache")
        self._fill(cache, rng, 4)
        assert cache.evicted == 0
        assert len(list((tmp_path / "cache").glob("*.scoris3"))) == 4

    def test_evicts_oldest_access_first(self, tmp_path, rng):
        import os
        import time

        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache")
        banks = self._fill(cache, rng, 3)
        paths = [cache.path_for(cache.key(b, 9, None)) for b in banks]
        one_archive = paths[0].stat().st_size
        # Order access explicitly (atime granularity can be coarse).
        now = time.time()
        for i, path in enumerate(paths):
            os.utime(path, (now + i, now + i))
        # Cap fits exactly two archives; storing a fourth must evict the
        # least recently used one (banks[0]) and only that one.
        cache.max_bytes = 2 * one_archive + one_archive // 2
        fourth = self._bank(rng)
        cache.get(fourth, 9)
        assert cache.evicted == 2  # down to cap: the two oldest went
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists()
        assert cache.path_for(cache.key(fourth, 9, None)).exists()

    def test_hit_refreshes_recency(self, tmp_path, rng):
        import os
        import time

        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache")
        banks = self._fill(cache, rng, 2)
        paths = [cache.path_for(cache.key(b, 9, None)) for b in banks]
        now = time.time()
        os.utime(paths[0], (now - 100, now - 100))
        os.utime(paths[1], (now - 50, now - 50))
        cache.get(banks[0], 9)  # hit: banks[0] becomes most recent
        # Cap fits two and a half archives: storing a third evicts
        # exactly one -- the least recently *accessed*.
        cache.max_bytes = int(paths[0].stat().st_size * 2.5)
        cache.get(self._bank(rng), 9)
        assert paths[0].exists()  # survived: recently used
        assert not paths[1].exists()

    def test_oversized_store_keeps_the_new_archive(self, tmp_path, rng):
        from repro.index import IndexCache

        cache = IndexCache(tmp_path / "cache", max_bytes=1)
        bank = self._bank(rng)
        index = cache.get(bank, 9)
        assert index is not None
        # The just-built archive survives its own store even though it
        # exceeds the cap; everything else would be evicted.
        assert cache.path_for(cache.key(bank, 9, None)).exists()
        other = self._bank(rng)
        cache.get(other, 9)
        assert cache.evicted == 1
        assert not cache.path_for(cache.key(bank, 9, None)).exists()

    def test_eviction_metric_recorded(self, tmp_path, rng):
        from repro.index import IndexCache
        from repro.obs import MetricsRegistry

        cache = IndexCache(tmp_path / "cache", max_bytes=1)
        self._fill(cache, rng, 2)
        registry = MetricsRegistry()
        cache.record_metrics(registry)
        assert registry.value("index.cache_evicted") == cache.evicted >= 1

    def test_rejects_nonsense_cap(self, tmp_path):
        from repro.index import IndexCache

        with pytest.raises(ValueError, match="max_bytes"):
            IndexCache(tmp_path / "cache", max_bytes=0)
