"""polysum: exact sieves, screens and certificates for weighted polygonal
sums and diagonal ternary quadratic forms."""

from .polycore import (
    SumDomain,
    Term,
    TripleSum,
    Witness,
    is_generalized_polygonal,
    parse_sum,
    parse_terms,
    poly_value,
    poly_values_upto,
    square_completion,
)
from .sumset import (
    ExceptionReport,
    RangeBitset,
    exceptions,
    member_with_witness,
    offset_universal_check,
    range_sieve,
)

__version__ = "0.1.0"

__all__ = [
    "ExceptionReport",
    "RangeBitset",
    "SumDomain",
    "Term",
    "TripleSum",
    "Witness",
    "exceptions",
    "is_generalized_polygonal",
    "member_with_witness",
    "offset_universal_check",
    "parse_sum",
    "parse_terms",
    "poly_value",
    "poly_values_upto",
    "range_sieve",
    "square_completion",
]
