"""Derivations of upper-triangular matrices over additively idempotent semirings."""

from .derivations import (
    DecompositionExpr,
    DecompositionTerm,
    MaskDerivation,
    ZeroPattern,
    d_m,
    decompose,
    delta_k,
    enumerate_family_derivations,
    enumerate_interval_derivations,
    format_pattern,
    format_zero_set,
    leibniz_check,
    linearity_check,
    parse_pattern,
    parse_zero_set,
    pointwise_sum,
    strip_diagonal,
    theorem2_predicate,
)
from .matrices import (
    MatrixMismatchError,
    TriangularityError,
    UTMatrix,
    diag_head,
    diag_tail,
    format_matrix,
    iter_positions,
    jordan,
    matrix_unit,
    parse_matrix,
    random_matrix,
    triangle_size,
)
from .oracle import (
    CapacityError,
    brute_force_classify,
    enumerate_matrices,
    exhaustive_leibniz_witness,
    format_report,
    matrix_bits,
)
from .semirings import (
    BOOLEAN,
    FUZZY,
    MAXPLUS,
    MINPLUS,
    MINUS_INF,
    PLUS_INF,
    CarrierError,
    Semiring,
    check_axioms,
    get_semiring,
    natural_leq,
)
from .shifts import HereditaryShift, ShiftDerivation

__version__ = "0.1.0"
