"""A writer of the previous (v3) index archive layout, for upgrade tests."""

import numpy as np

from repro.encoding import seed_codes
from repro.index.persist import _write_archive


def write_v3_archive(path, index) -> None:
    """Write a contiguous-seed ``index`` as the v3 format did: the bank
    and six int64 index arrays, the sorted and the per-position codes
    among them."""
    counts = index.code_counts
    bank = index.bank
    arrays = {
        "seq": bank.seq,
        "starts": bank.starts,
        "lengths": bank.lengths,
        "positions": index.positions.astype(np.int64),
        "sorted_codes": np.repeat(index.unique_codes, counts).astype(np.int64),
        "unique_codes": index.unique_codes.astype(np.int64),
        "code_starts": index.code_starts[:-1].astype(np.int64),
        "code_counts": counts.astype(np.int64),
        "codes_at": seed_codes(bank.seq, index.w).astype(np.int64),
    }
    meta = {"w": index.w, "span": index.span, "mask": None, "names": bank.names}
    _write_archive(path, 3, meta, arrays)
