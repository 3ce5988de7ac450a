"""repro: reproduction of the ORIS intensive DNA comparison algorithm.

Reimplements Lavenier, *Ordered Index Seed Algorithm for Intensive DNA
Sequence Comparison* (HiCOMB 2008) as a Python library:

* :mod:`repro.core` -- the ORIS engine (the paper's contribution);
* :mod:`repro.baselines` -- BLASTN-like and BLAT-like comparison engines;
* :mod:`repro.encoding`, :mod:`repro.io`, :mod:`repro.index`,
  :mod:`repro.filters`, :mod:`repro.align` -- the substrates;
* :mod:`repro.data` -- synthetic banks mirroring the paper's Table 1;
* :mod:`repro.eval` -- the paper's sensitivity metric and table harness.

Quickstart::

    from repro import Bank, OrisEngine, OrisParams

    bank1 = Bank.from_fasta("a.fa")
    bank2 = Bank.from_fasta("b.fa")
    result = OrisEngine(OrisParams()).compare(bank1, bank2)
    for record in result.records:
        print(record.to_line())
"""

from .io.bank import Bank
from .io.m8 import M8Record, read_m8, write_m8
from .core.params import OrisParams
from .core.engine import ComparisonResult, OrisEngine
from .baselines.blastn import BlastnEngine, BlastnParams
from .baselines.blat import BlatEngine, BlatParams
from .align.scoring import ScoringScheme

__version__ = "0.1.0"

__all__ = [
    "Bank",
    "M8Record",
    "read_m8",
    "write_m8",
    "OrisParams",
    "OrisEngine",
    "ComparisonResult",
    "BlastnEngine",
    "BlastnParams",
    "BlatEngine",
    "BlatParams",
    "ScoringScheme",
    "__version__",
]
