"""Cross-runtime equivalence: every execution mode is byte-identical.

The paper's ordered-seed cutoff makes step 2 embarrassingly parallel
*and exactly decomposable*: any partition of the common-code space must
reproduce the serial engine's output bit for bit.  This module drives
the same inputs through every runtime the repo offers --

* the serial engine (``OrisEngine.compare``),
* the resilient scheduler's fork workers over the shared-memory arena,
* its spawn workers over the shared-memory arena (payload crosses an
  exec boundary, so nothing can leak through fork-inherited state),
* the resilient scheduler resumed from a truncated checkpoint journal,

-- and asserts byte-identical ``.m8`` output plus matching funnel
counters.  A hypothesis sweep does the same on adversarial random banks,
and a skew stress test pins the balanced splitter's max/min chunk-cost
ratio.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrisEngine, OrisParams
from repro.core.pairs import pair_costs
from repro.core.parallel import plan_ranges
from repro.data.synthetic import random_dna
from repro.index import CsrSeedIndex
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.obs import MetricsRegistry, funnel_dict
from repro.runtime.scheduler import RuntimeConfig, compare_resilient


@pytest.fixture(scope="module")
def serial(est_pair):
    return OrisEngine(OrisParams()).compare(*est_pair)


def _m8_bytes(result) -> bytes:
    return format_m8(result.records).encode("utf-8")


class TestGoldenEquivalence:
    """One corpus, four runtimes, one output."""

    def test_fork_shm_is_byte_identical(self, est_pair, serial):
        par = compare_resilient(
            *est_pair, OrisParams(), RuntimeConfig(n_workers=2)
        )
        assert _m8_bytes(par) == _m8_bytes(serial)
        assert funnel_dict(par.metrics) == funnel_dict(serial.metrics)

    def test_spawn_shm_is_byte_identical(self, est_pair, serial):
        with pytest.warns(RuntimeWarning, match="spawn"):
            par = compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(n_workers=2, start_method="spawn"),
            )
        assert _m8_bytes(par) == _m8_bytes(serial)
        assert funnel_dict(par.metrics) == funnel_dict(serial.metrics)

    def test_resumed_run_is_byte_identical(self, est_pair, serial, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(n_workers=2, checkpoint_dir=str(ckpt)),
        )
        assert _m8_bytes(first) == _m8_bytes(serial)

        # Simulate a mid-run kill: keep the header plus one completed
        # task, discard the rest, and resume.
        journal = next(ckpt.glob("*.jsonl"))
        lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) > 3, "journal too short to truncate meaningfully"
        journal.write_text("".join(lines[:2]), encoding="utf-8")

        resumed = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(n_workers=2, checkpoint_dir=str(ckpt), resume=True),
        )
        assert resumed.counters.n_resumed == 1
        assert _m8_bytes(resumed) == _m8_bytes(serial)
        assert funnel_dict(resumed.metrics) == funnel_dict(serial.metrics)

    def test_output_is_nontrivial(self, serial):
        # Empty output would make every byte comparison above vacuous.
        assert len(serial.records) > 0
        assert funnel_dict(serial.metrics)["step2.hsps_kept"] > 0


class TestHypothesisEquivalence:
    """Adversarial random banks: fork+shm still matches serial."""

    @settings(max_examples=8, deadline=None)
    @given(
        seqs1=st.lists(
            st.text(alphabet="ACGT", min_size=20, max_size=120),
            min_size=1,
            max_size=3,
        ),
        seqs2=st.lists(
            st.text(alphabet="ACGT", min_size=20, max_size=120),
            min_size=1,
            max_size=3,
        ),
    )
    def test_fork_shm_matches_serial(self, seqs1, seqs2):
        b1 = Bank.from_strings([(f"q{i}", s) for i, s in enumerate(seqs1)])
        b2 = Bank.from_strings([(f"s{i}", s) for i, s in enumerate(seqs2)])
        params = OrisParams(w=7, filter_kind="none")
        seq = OrisEngine(params).compare(b1, b2)
        par = compare_resilient(b1, b2, params, RuntimeConfig(n_workers=2))
        assert _m8_bytes(par) == _m8_bytes(seq)
        assert funnel_dict(par.metrics) == funnel_dict(seq.metrics)


class TestSkewStress:
    """A pathologically repetitive bank must still split near-evenly."""

    def _skewed_common(self):
        rng = np.random.default_rng(5150)
        # A dominant low-complexity code ("ACAC...") among ordinary ones;
        # filtering disabled so the skew actually reaches the planner.
        s1 = "AC" * 300 + random_dna(rng, 2000)
        s2 = "AC" * 300 + random_dna(rng, 2000)
        i1 = CsrSeedIndex(Bank.from_strings([("a", s1)]), 6, None)
        i2 = CsrSeedIndex(Bank.from_strings([("b", s2)]), 6, None)
        return i1.common_codes(i2)

    def test_costs_are_genuinely_skewed(self):
        common = self._skewed_common()
        costs = pair_costs(common)
        nz = costs[costs > 0]
        assert nz.max() > 20 * np.median(nz), "fixture lost its skew"

    def test_balanced_chunk_cost_ratio_bounded(self):
        common = self._skewed_common()
        registry = MetricsRegistry()
        ranges = plan_ranges(common, 8, OrisParams(), registry)
        csum = np.concatenate(([0], np.cumsum(pair_costs(common))))
        chunk = np.array([csum[hi] - csum[lo] for lo, hi in ranges])
        nz = chunk[chunk > 0]
        assert nz.max() / nz.min() <= 1.5
        assert registry.value("sched.chunk_cost_ratio") <= 1.5

    def test_legacy_split_is_worse_on_skew(self):
        # Why the planner balances pair cost: on the same skew an
        # equal-code-count split concentrates cost in one chunk.
        common = self._skewed_common()
        csum = np.concatenate(([0], np.cumsum(pair_costs(common))))
        bounds = np.linspace(0, common.n_codes, 9).astype(int)
        chunk = np.array([csum[hi] - csum[lo] for lo, hi in zip(bounds, bounds[1:])])
        nz = chunk[chunk > 0]
        assert nz.max() / nz.min() > 1.5
