"""Parallel intensive comparison (the paper's section-4 parallelism).

Demonstrates ``compare_resilient``: step 2's seed space partitioned across
worker processes, with bit-identical results to the sequential engine --
the property the paper derives from the ordered-seed cutoff ("the outer
loop ... can be run in parallel since seed order prevents identical HSPs
to be generated").

Run:  python examples/parallel_scan.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import OrisEngine, OrisParams
from repro.data.synthetic import Transcriptome, make_est_bank
from repro.runtime.scheduler import RuntimeConfig, compare_resilient


def main() -> None:
    rng = np.random.default_rng(5)
    tx = Transcriptome.generate(rng, n_genes=60, mean_len=900)
    bank1 = make_est_bank(rng, tx, 200)
    bank2 = make_est_bank(rng, tx, 200)
    print(f"banks: {bank1.size_nt/1e3:.0f} kbp vs {bank2.size_nt/1e3:.0f} kbp "
          f"(machine has {os.cpu_count()} cpu)")

    t0 = time.perf_counter()
    seq = OrisEngine(OrisParams()).compare(bank1, bank2)
    t_seq = time.perf_counter() - t0
    print(f"sequential: {t_seq:.2f}s, {len(seq.records)} records")

    for workers in (2, 4):
        t0 = time.perf_counter()
        par = compare_resilient(
            bank1, bank2, OrisParams(), RuntimeConfig(n_workers=workers)
        )
        t_par = time.perf_counter() - t0
        identical = [r.to_line() for r in par.records] == [
            r.to_line() for r in seq.records
        ]
        print(
            f"parallel x{workers}: {t_par:.2f}s, {len(par.records)} records, "
            f"{'bit-identical' if identical else 'MISMATCH!'}"
        )
        assert identical

    print("\nseed-space partitioning is exact: no cross-worker coordination,"
          "\nno duplicate HSPs -- the ordered-seed rule guarantees it.")


if __name__ == "__main__":
    main()
