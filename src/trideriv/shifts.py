"""Scalar shift derivations of the max-plus semiring and their matrix lift.

A shift by x sends a to a + x.  Shifts are derivations of
(R u {-inf}, max, +): additive because max commutes with translation,
Leibniz because (a + b) + x = max((a + x) + b, a + (b + x)).  Finite
shifts form an Abelian group under composition (x composes additively);
the shift by -inf is the constant-bottom map and has no inverse.

Note the asymmetry between the two operator structures: sums of shifts
are idempotent (shift x + shift x = shift x, pointwise max), but
composition doubles the shift (x then x = shift by 2x), so the identity
shift x = 0 is the only compositionally idempotent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .matrices import MatrixMismatchError, UTMatrix
from .semirings import MAXPLUS, MINUS_INF


@dataclass(frozen=True)
class ShiftDerivation:
    """The max-plus scalar map a -> a + x."""

    x: Any

    def __post_init__(self) -> None:
        MAXPLUS.check(self.x)

    @property
    def is_identity(self) -> bool:
        return self.x == 0

    def __call__(self, a: Any) -> Any:
        return MAXPLUS.mul(MAXPLUS.check(a), self.x)

    def compose(self, other: "ShiftDerivation") -> "ShiftDerivation":
        """Apply ``self`` then ``other``; shifts compose by adding offsets."""
        return ShiftDerivation(MAXPLUS.mul(self.x, other.x))

    def __add__(self, other: "ShiftDerivation") -> "ShiftDerivation":
        """Pointwise max of the two maps, again a shift (by the larger offset)."""
        return ShiftDerivation(MAXPLUS.add(self.x, other.x))

    def inverse(self) -> "ShiftDerivation":
        if self.x == MINUS_INF:
            raise ValueError("the constant-bottom shift has no compositional inverse")
        return ShiftDerivation(-self.x)

    def hereditary(self) -> "HereditaryShift":
        return HereditaryShift(self)


@dataclass(frozen=True)
class HereditaryShift:
    """Entrywise lift of a scalar shift to max-plus upper-triangular matrices."""

    shift: ShiftDerivation

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        if matrix.semiring is not MAXPLUS:
            raise MatrixMismatchError(
                f"hereditary shifts act on maxplus matrices, got {matrix.semiring.name}"
            )
        # A max-plus product of carrier elements stays in the carrier.
        x = self.shift.x
        mul = MAXPLUS.mul
        return UTMatrix._trusted(matrix.n, MAXPLUS, tuple(mul(v, x) for v in matrix.entries))
