"""Engine parameters (the knobs of the paper's SCORIS-N prototype).

Collects every tunable of the 4-step pipeline in one frozen dataclass so
runs are reproducible and benches can sweep one knob at a time.  Values the
paper states are used as defaults (W = 11, the asymmetric 10-nt variant,
the ``-e 0.001`` evaluation threshold, single-strand search); values the
paper leaves unspecified get BLASTN-flavoured defaults documented in
:mod:`repro.align.scoring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..align.scoring import DEFAULT_SCORING, ScoringScheme

__all__ = ["OrisParams", "DEFAULT_W"]

#: The paper's seed width.
DEFAULT_W: int = 11


@dataclass(frozen=True, slots=True)
class OrisParams:
    """Parameters of an ORIS comparison.

    Attributes
    ----------
    w:
        Seed width (the paper's ``W``; 11 by default, 10 in asymmetric
        mode).
    scoring:
        Match/mismatch/gap scores and x-drop thresholds.
    filter_kind:
        Low-complexity filter applied before indexing: ``"dust"``
        (default, as in the paper), ``"entropy"`` or ``"none"``.
    asymmetric:
        Enable the paper's section-3.4 mode: width forced to
        ``asymmetric_w`` and one bank indexed at stride 2.
    asymmetric_w:
        Word width of the asymmetric mode (paper: 10).
    spaced_seed:
        Optional spaced-seed mask (e.g. PatternHunter's
        ``"111010010100110111"``).  Overrides ``w``: codes become the
        mask's weight-wide spaced codes and the ordered cutoff switches
        to code-equality semantics.  An extension beyond the paper,
        demonstrating that ORIS ordering composes with the spaced-seed
        sensitivity line of work its introduction surveys; incompatible
        with ``asymmetric``.
    subset_seed:
        Optional subset-seed mask over ``#``/``@``/``-`` (exact /
        transition-tolerant / don't-care positions), the paper's
        reference [12]; same mechanics as ``spaced_seed``.  Exclusive
        with ``spaced_seed`` and ``asymmetric``.
    max_evalue:
        Report threshold on alignment e-values (the benches use the
        paper's ``1e-3``).
    hsp_min_score:
        The paper's ``S1``: minimum raw ungapped score for an HSP to enter
        step 3.  ``None`` derives it from ``hsp_evalue`` and the bank
        sizes at run time (BLAST-style preliminary threshold).
    hsp_evalue:
        E-value used to derive ``S1`` when ``hsp_min_score`` is ``None``.
        The default 0.05 sits where NCBI BLAST's 22-bit "gap trigger"
        lands at this reproduction's bank sizes: on EST workloads it
        admits >99.9 % of the alignments the loosest setting finds while
        cutting step-3 work several-fold.
    min_align_score:
        The paper's ``S2``: optional raw-score floor for gapped alignments
        (``None`` = rely on the e-value threshold only).
    band_radius:
        Half-width (in diagonals) of the gapped-extension band.
    strand:
        ``"plus"`` (the paper's prototype searches a single strand,
        section 3.3) or ``"both"`` (the announced future feature).
    chunk_pairs:
        Target number of hit pairs per vectorised step-2 batch.
    max_occurrences:
        Optional cap on per-code occurrence counts: codes occurring more
        often than this in *either* bank are skipped in step 2 (repeat
        protection; ``None`` = paper behaviour, no cap).
    ordered_cutoff:
        The paper's key invariant.  Disable only in ablation benches; the
        engine then deduplicates HSPs explicitly, which is the
        counterfactual the paper argues against.
    kernel:
        Step-2 extension kernel: ``"vector"`` (default; the tile-sweep
        kernel over 2-bit packed banks) or ``"scalar"`` (the historical
        one-column-per-pass lane kernel).  Both produce byte-identical
        HSP tables -- asserted by the differential harness and the golden
        corpus -- so ``"scalar"`` exists for differential testing and as
        a fallback, not as a behavioural switch.
    exclude_self:
        Drop trivial self-hits from the output (bank-vs-self workloads).
    sort_key:
        Step-4 sort criterion (``"evalue"``, ``"score"``, ``"coords"``).
    """

    w: int = DEFAULT_W
    scoring: ScoringScheme = field(default_factory=lambda: DEFAULT_SCORING)
    filter_kind: str = "dust"
    asymmetric: bool = False
    asymmetric_w: int = 10
    spaced_seed: str | None = None
    subset_seed: str | None = None
    max_evalue: float | None = 1e-3
    hsp_min_score: int | None = None
    hsp_evalue: float = 0.05
    min_align_score: int | None = None
    band_radius: int = 16
    strand: str = "plus"
    chunk_pairs: int = 1 << 16
    max_occurrences: int | None = None
    ordered_cutoff: bool = True
    kernel: str = "vector"
    exclude_self: bool = False
    sort_key: str = "evalue"
    gapped_scheduling: str = "single"

    # gapped_scheduling:
    #   "single" -- one lane-parallel batch over all HSPs + contained-
    #               alignment post-filter (default: fastest, within a
    #               fraction of a percent of "serial" output)
    #   "serial" -- the paper's exact one-HSP-at-a-time diagonal-order loop
    #               (the scheduling oracle in tests and ablations)

    def __post_init__(self) -> None:
        if self.strand not in ("plus", "both"):
            raise ValueError("strand must be 'plus' or 'both'")
        if self.filter_kind not in ("dust", "entropy", "none"):
            raise ValueError("filter_kind must be dust/entropy/none")
        if self.w < 4 or self.asymmetric_w < 4:
            raise ValueError("seed widths below 4 are not supported")
        if self.chunk_pairs < 1:
            raise ValueError("chunk_pairs must be positive")
        if self.sort_key not in ("evalue", "score", "coords"):
            raise ValueError("sort_key must be evalue/score/coords")
        if self.kernel not in ("vector", "scalar"):
            raise ValueError("kernel must be 'vector' or 'scalar'")
        if self.gapped_scheduling not in ("serial", "single"):
            raise ValueError("gapped_scheduling must be 'serial' or 'single'")
        if self.spaced_seed is not None and self.subset_seed is not None:
            raise ValueError("spaced_seed and subset_seed are exclusive")
        if self.spaced_seed is not None:
            from ..encoding.spaced import SpacedSeedMask

            SpacedSeedMask(self.spaced_seed)  # validates the pattern
            if self.asymmetric:
                raise ValueError("spaced_seed and asymmetric are exclusive")
        if self.subset_seed is not None:
            from ..encoding.subset import SubsetSeedMask

            SubsetSeedMask(self.subset_seed)  # validates the pattern
            if self.asymmetric:
                raise ValueError("subset_seed and asymmetric are exclusive")

    @property
    def effective_w(self) -> int:
        """Seed weight actually used (asymmetric/spaced/subset override)."""
        if self.spaced_seed is not None:
            return self.spaced_seed.count("1")
        if self.subset_seed is not None:
            from ..encoding.subset import SubsetSeedMask

            return int(SubsetSeedMask(self.subset_seed).weight)
        return self.asymmetric_w if self.asymmetric else self.w

    @property
    def seed_mask(self):
        """Parsed spaced/subset mask object, or None."""
        if self.spaced_seed is not None:
            from ..encoding.spaced import SpacedSeedMask

            return SpacedSeedMask(self.spaced_seed)
        if self.subset_seed is not None:
            from ..encoding.subset import SubsetSeedMask

            return SubsetSeedMask(self.subset_seed)
        return None

    def with_(self, **changes) -> "OrisParams":
        """Functional update (convenience for sweeps in benches)."""
        return replace(self, **changes)
