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

from .derivations import Witness
from .matrices import MatrixMismatchError, UTMatrix, _mul_plan, ensure_compatible, iter_positions
from .semirings import MAXPLUS, MINUS_INF, _Frozen


class ShiftDerivation(_Frozen):
    """The max-plus scalar map a -> a + x."""

    _fields = ("x",)

    def __init__(self, x: object) -> None:
        MAXPLUS.check(x)
        object.__setattr__(self, "x", x)

    @property
    def is_identity(self) -> bool:
        return self.x == 0

    def __call__(self, a: object) -> object:
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
        return HereditaryShift._trusted(shift=self)


class HereditaryShift(_Frozen):
    """Entrywise lift of a scalar shift to max-plus upper-triangular matrices."""

    _fields = ("shift",)

    def __init__(self, shift: ShiftDerivation) -> None:
        if not isinstance(shift, ShiftDerivation):
            raise TypeError(f"a hereditary shift lifts a ShiftDerivation, got {shift!r}")
        object.__setattr__(self, "shift", shift)

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        if matrix.semiring is not MAXPLUS:
            raise MatrixMismatchError(
                f"hereditary shifts act on maxplus matrices, got {matrix.semiring.name}"
            )
        # A max-plus product of carrier elements stays in the carrier.
        x = self.shift.x
        mul = MAXPLUS.mul
        return UTMatrix._trusted(matrix.n, MAXPLUS, tuple([mul(v, x) for v in matrix.entries]))

    def first_witness(self, a: UTMatrix, b: UTMatrix) -> Witness | None:
        """``leibniz_check(self, a, b) or linearity_check(self, a, b)``, the
        reference, in one pass.

        A and B are lifted once, which refuses any matrix not over ``MAXPLUS``,
        whose ``add`` is ``_max`` and ``mul`` is ``operator.add``.  Each cell of
        ``_mul_plan(n)``, row-major, folds AB, f(A)B and Af(B) together in
        ``UTMatrix.__mul__``'s order; then f(A + B) is compared with f(A) + f(B)
        cell by cell.  The calls are written as those functions' own expressions,
        ``u + v`` and ``b if b > a else a`` (what ``_max(a, b)`` and the builtin
        ``max`` return), on the operands the two checks use, so the first
        differing cell and its values are theirs.
        """
        ensure_compatible(a, b)
        n, fa, fb = a.n, self(a).entries, self(b).entries
        zero, x = MAXPLUS.zero, self.shift.x
        a, b = a.entries, b.entries
        for t, pairs in enumerate(_mul_plan(n)):
            ab = left = right = zero
            for p, q in pairs:
                u, v = a[p], b[q]
                s = u + v
                if s > ab:
                    ab = s
                s = fa[p] + v
                if s > left:
                    left = s
                s = u + fb[q]
                if s > right:
                    right = s
            lhs, rhs = ab + x, right if right > left else left
            if lhs != rhs:
                return Witness(list(iter_positions(n))[t], lhs, rhs)
        for t, (u, v, fu, fv) in enumerate(zip(a, b, fa, fb)):
            lhs, rhs = (v if v > u else u) + x, fv if fv > fu else fu
            if lhs != rhs:
                return Witness(list(iter_positions(n))[t], lhs, rhs)
        return None
