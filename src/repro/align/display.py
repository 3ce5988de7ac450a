"""Full pairwise alignment display (beyond the paper's ``-m 8``-only output).

Section 3.1: "the output format -- in the current version -- does not
report full the alignments.  It only displays the alignment features as it
is done in the -m 8 option of BLASTN."  This module supplies the missing
full display: given an ``-m 8`` record (or a coordinate box) and the two
banks, it re-aligns the referenced subsequences with the affine-gap Gotoh
DP and renders BLAST-style alignment blocks::

    Query  301  ACGTACGTACGT...TACG  360
                |||||||||| |...||||
    Sbjct  151  ACGTACGTACAT...TACG  210

The re-alignment is exact (optimal affine local alignment of the two
boxed regions), so the rendered identities can differ by a column or two
from the engine's linear-gap extension statistics; for display purposes
that is the right trade (the engine's gapped kernel keeps only one-bit
move masks for the length of one call, enough to count gaps, and keeps no
alignment columns).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..io.bank import Bank
from ..io.m8 import M8Record
from .classic import AlignmentPath, gotoh_local
from .scoring import DEFAULT_SCORING, ScoringScheme

__all__ = ["render_alignment", "render_record", "AlignmentBlock"]


@dataclass(frozen=True, slots=True)
class AlignmentBlock:
    """One rendered block of a pairwise alignment display."""

    q_start: int  # 1-based
    q_line: str
    match_line: str
    s_line: str
    s_start: int


def _match_line(a: str, b: str) -> str:
    return "".join("|" if (x == y and x != "-") else " " for x, y in zip(a, b))


def render_alignment(
    path: AlignmentPath,
    q_offset: int = 0,
    s_offset: int = 0,
    width: int = 60,
    minus_subject_length: int | None = None,
) -> str:
    """Render an :class:`AlignmentPath` as BLAST-style blocks.

    ``q_offset``/``s_offset`` are 0-based positions of the aligned
    region's first character within the full sequences (used for the
    coordinate gutters).  For minus-strand displays pass the subject
    sequence length; subject coordinates then count downward.
    """
    out = []
    q_pos = q_offset + path.start1
    s_pos = s_offset + path.start2
    a1, a2 = path.aligned1, path.aligned2
    for lo in range(0, len(a1), width):
        qa = a1[lo : lo + width]
        sa = a2[lo : lo + width]
        q_consumed = sum(1 for c in qa if c != "-")
        s_consumed = sum(1 for c in sa if c != "-")
        q_from = q_pos + 1
        q_to = q_pos + q_consumed
        if minus_subject_length is None:
            s_from = s_pos + 1
            s_to = s_pos + s_consumed
        else:
            s_from = minus_subject_length - s_pos
            s_to = minus_subject_length - (s_pos + s_consumed) + 1
        gutter = max(len(str(q_to)), len(str(s_from)), len(str(s_to)))
        out.append(f"Query  {q_from:>{gutter}}  {qa}  {q_to}")
        out.append(f"       {'':>{gutter}}  {_match_line(qa, sa)}")
        out.append(f"Sbjct  {s_from:>{gutter}}  {sa}  {s_to}")
        out.append("")
        q_pos += q_consumed
        s_pos += s_consumed
    return "\n".join(out)


def render_record(
    record: M8Record,
    bank1: Bank,
    bank2: Bank,
    scoring: ScoringScheme = DEFAULT_SCORING,
    width: int = 60,
) -> str:
    """Render one ``-m 8`` record as a full alignment display.

    Looks the record's sequences up by name, slices the boxed regions,
    re-aligns them with Gotoh, and renders.  Handles minus-strand records
    (the subject slice is reverse-complemented before aligning, and its
    coordinates are displayed descending, as BLAST does).
    """
    q_idx = bank1.names.index(record.query_id)
    s_idx = bank2.names.index(record.subject_id)
    q_lo, q_hi = record.q_span
    s_lo, s_hi = record.s_span
    q_seq = bank1.sequence_str(q_idx)[q_lo:q_hi]
    s_full = bank2.sequence_str(s_idx)
    s_seq = s_full[s_lo:s_hi]
    minus_len = None
    if record.minus_strand:
        from ..encoding import decode, encode, reverse_complement

        s_seq = decode(reverse_complement(encode(s_seq)))
        minus_len = None  # coordinates handled below

    path = gotoh_local(q_seq, s_seq, scoring)
    header = (
        f" Score = {record.bit_score:.1f} bits, Expect = {record.evalue:.2g}\n"
        f" Identities = {record.length - record.mismatches - 0}/{record.length}"
        f" ({record.pident:.0f}%), Gaps = {record.gap_openings} opening(s)\n"
        f" Strand = Plus / {'Minus' if record.minus_strand else 'Plus'}\n"
    )
    if record.minus_strand:
        # Within the rc'd subject slice, position p corresponds to
        # plus-strand coordinate (s_hi - p); render with descending gutter
        # by passing the slice-relative transform through
        # minus_subject_length = s_hi + ... we display descending from
        # s_hi - path.start2 down.
        body = render_alignment(
            path,
            q_offset=q_lo,
            s_offset=0,
            width=width,
            minus_subject_length=s_hi - 0,
        )
        # adjust: positions inside slice are offset from s_hi
        return header + "\n" + body
    body = render_alignment(path, q_offset=q_lo, s_offset=s_lo, width=width)
    return header + "\n" + body
