"""2-bit nucleotide encoding and seed-code arithmetic (paper section 2.1)."""

from .codes import (
    A,
    C,
    G,
    T,
    INVALID,
    ALPHABET,
    encode,
    decode,
    complement_codes,
    reverse_complement,
    is_valid,
)
from .seeds import (
    MAX_SEED_WIDTH,
    invalid_code,
    code_dtype,
    n_seed_codes,
    seed_codes,
    code_of_word,
    word_of_code,
)
from .packed import PAD, PackedBank, bit_columns, match_columns, packed_bank_cached
from .spaced import PATTERNHUNTER_11_18, SpacedSeedMask, spaced_seed_codes
from .subset import TRANSITION_EXAMPLE_9_3, SubsetSeedMask, subset_seed_codes

__all__ = [
    "A",
    "C",
    "G",
    "T",
    "INVALID",
    "ALPHABET",
    "encode",
    "decode",
    "complement_codes",
    "reverse_complement",
    "is_valid",
    "MAX_SEED_WIDTH",
    "invalid_code",
    "code_dtype",
    "n_seed_codes",
    "seed_codes",
    "code_of_word",
    "word_of_code",
    "PAD",
    "PackedBank",
    "packed_bank_cached",
    "match_columns",
    "bit_columns",
    "PATTERNHUNTER_11_18",
    "SpacedSeedMask",
    "spaced_seed_codes",
    "TRANSITION_EXAMPLE_9_3",
    "SubsetSeedMask",
    "subset_seed_codes",
]
