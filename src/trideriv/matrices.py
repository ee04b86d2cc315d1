"""Upper-triangular matrices over a semiring, with the Jordan product.

Storage is triangular: positions below the main diagonal do not exist,
so closure under sums and products is a structural fact rather than a
runtime check.  Positions are 1-based ``(i, j)`` with ``i <= j``.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable, Iterator, Mapping
from itertools import islice

from .semirings import Semiring, _Frozen, _is_index, format_element, get_semiring


class TriangularityError(ValueError):
    """A position below the main diagonal was addressed."""


class MatrixMismatchError(ValueError):
    """Operands differ in dimension or in scalar semiring."""


def triangle_size(n: int) -> int:
    return n * (n + 1) // 2


def iter_positions(n: int) -> Iterator[tuple[int, int]]:
    """All stored positions in row-major order."""
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            yield (i, j)


def _offset(n: int, i: int, j: int) -> int:
    return (i - 1) * n - (i - 1) * (i - 2) // 2 + (j - i)


@functools.lru_cache(maxsize=64)
def _mul_plan(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per stored cell (i, j), row-major: the offsets of a_ik and b_kj for k = i..j."""
    return tuple(
        tuple((_offset(n, i, k), _offset(n, k, j)) for k in range(i, j + 1))
        for i, j in iter_positions(n)
    )


class UTMatrix(_Frozen):
    """Immutable n x n upper-triangular matrix over ``semiring``.

    ``entries`` holds the upper triangle row-major:
    ``(1,1) .. (1,n), (2,2) .. (2,n), ..., (n,n)``.
    Equality is entrywise exact equality.  The public constructor checks
    every entry against the carrier; results of the library's own
    arithmetic, sampling and parsing go through :meth:`_trusted`.
    """

    _fields = ("n", "semiring", "entries")

    def __init__(self, n: int, semiring: Semiring, entries: tuple) -> None:
        ensure_positive_dimension(n)
        if not isinstance(entries, tuple):
            entries = tuple(entries)
        if len(entries) != triangle_size(n):
            raise ValueError(
                f"expected {triangle_size(n)} entries for n={n}, got {len(entries)}"
            )
        for value in entries:
            semiring.check(value)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "entries", entries)

    # -- constructors

    @classmethod
    def _trusted(cls, n: int, semiring: Semiring, entries: tuple) -> "UTMatrix":
        """Skip validation: ``entries`` must be a tuple of the right length,
        every value already in the carrier."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(n=n, semiring=semiring, entries=entries)
        return matrix

    @classmethod
    def zeros(cls, n: int, semiring: Semiring) -> "UTMatrix":
        return cls(n, semiring, (semiring.zero,) * triangle_size(n))

    @classmethod
    def identity(cls, n: int, semiring: Semiring) -> "UTMatrix":
        zero, one = semiring.zero, semiring.one
        return cls(
            n, semiring, tuple(one if i == j else zero for i, j in iter_positions(n))
        )

    @classmethod
    def from_dict(
        cls, n: int, semiring: Semiring, values: Mapping[tuple[int, int], object]
    ) -> "UTMatrix":
        """Build from a sparse {(i, j): value} mapping; missing entries are zero."""
        ensure_positive_dimension(n)
        cells = [semiring.zero] * triangle_size(n)
        for (i, j), value in values.items():
            _check_position(n, i, j)
            cells[_offset(n, i, j)] = value
        return cls(n, semiring, tuple(cells))

    @classmethod
    def from_rows(cls, semiring: Semiring, rows: Iterable[Iterable[object]]) -> "UTMatrix":
        """Build from upper rows: row i lists a_ii .. a_in (so lengths n, n-1, .., 1)."""
        rows = [list(row) for row in rows]
        n = len(rows)
        cells: list[object] = []
        for i, row in enumerate(rows, start=1):
            if len(row) != n - i + 1:
                raise ValueError(f"row {i}: expected {n - i + 1} entries, got {len(row)}")
            cells.extend(row)
        return cls(n, semiring, tuple(cells))

    # -- access

    def __getitem__(self, pos: tuple[int, int]) -> object:
        i, j = pos
        _check_position(self.n, i, j)
        return self.entries[_offset(self.n, i, j)]

    # -- arithmetic

    def __add__(self, other: "UTMatrix") -> "UTMatrix":
        ensure_compatible(self, other)
        return UTMatrix._trusted(
            self.n, self.semiring, tuple(map(self.semiring.add, self.entries, other.entries))
        )

    def __mul__(self, other: "UTMatrix") -> "UTMatrix":
        ensure_compatible(self, other)
        add, mul, zero = self.semiring.add, self.semiring.mul, self.semiring.zero
        a, b = self.entries, other.entries
        cells = []
        # Inlined (a call per cell costs ~15% at n <= 5); the trial runner's
        # keyed fold, derivations._masked_fold, folds in this same order.
        for pairs in _mul_plan(self.n):
            acc = zero
            for p, q in pairs:
                acc = add(acc, mul(a[p], b[q]))
            cells.append(acc)
        return UTMatrix._trusted(self.n, self.semiring, tuple(cells))


def ensure_positive_dimension(n: int) -> None:
    """The one positivity rule for a dimension: an int (not a bool) >= 1."""
    if not (_is_index(n) and n >= 1):
        raise ValueError("dimension must be >= 1")


def ensure_same_dimension(n: int, m: int) -> None:
    """The one dimension check shared by every operation on two operands."""
    if n != m:
        raise MatrixMismatchError(f"dimension mismatch: {n} vs {m}")


def ensure_compatible(a: UTMatrix, b: UTMatrix) -> None:
    ensure_same_dimension(a.n, b.n)
    if a.semiring is not b.semiring:
        raise MatrixMismatchError(
            f"semiring mismatch: {a.semiring.name} vs {b.semiring.name}"
        )


def _check_position(n: int, i: int, j: int) -> None:
    if not (_is_index(i) and _is_index(j) and 1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"position ({i}, {j}) outside 1..{n}")
    if i > j:
        raise TriangularityError(f"position ({i}, {j}) is below the diagonal")


def jordan(a: UTMatrix, b: UTMatrix) -> UTMatrix:
    """Jordan product A∘B = AB + BA (idempotent addition, no halving)."""
    return a * b + b * a


def matrix_unit(n: int, i: int, j: int, semiring: Semiring) -> UTMatrix:
    """E_ij: the matrix with the multiplicative one at (i, j) and zero elsewhere."""
    _check_position(n, i, j)
    cells = [semiring.zero] * triangle_size(n)
    cells[_offset(n, i, j)] = semiring.one
    return UTMatrix(n, semiring, tuple(cells))


def diag_head(n: int, k: int, semiring: Semiring) -> UTMatrix:
    """Diagonal (0,1)-matrix with ones at positions 1..k."""
    if not (_is_index(k) and 1 <= k <= n):
        raise ValueError(f"k={k} outside 1..{n}")
    return UTMatrix.from_dict(n, semiring, {(i, i): semiring.one for i in range(1, k + 1)})


def diag_tail(n: int, m: int, semiring: Semiring) -> UTMatrix:
    """Diagonal (0,1)-matrix with ones at positions n-m+1..n."""
    if not (_is_index(m) and 1 <= m <= n):
        raise ValueError(f"m={m} outside 1..{n}")
    return UTMatrix.from_dict(
        n, semiring, {(i, i): semiring.one for i in range(n - m + 1, n + 1)}
    )


def random_matrix(n: int, semiring: Semiring, rng: random.Random) -> UTMatrix:
    """Matrix with every stored entry drawn from the semiring's sampler."""
    sample = semiring.sample
    return UTMatrix._trusted(n, semiring, tuple([sample(rng) for _ in range(triangle_size(n))]))


# --- text format ---------------------------------------------------------------
# Line 1:      utm n=<n> semiring=<name>
# Lines 2..n+1: row i = (i-1) '.' placeholders, then a_ii .. a_in.

def format_matrix(matrix: UTMatrix) -> str:
    n = matrix.n
    cells = map(format_element, matrix.entries)  # row-major
    lines = [f"utm n={n} semiring={matrix.semiring.name}"]
    for i in range(n):
        lines.append(" ".join(["."] * i + list(islice(cells, n - i))))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> UTMatrix:
    """Strict inverse of :func:`format_matrix`."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if (
        len(head) != 3
        or head[0] != "utm"
        or not head[1].startswith("n=")
        or not head[2].startswith("semiring=")
    ):
        raise ValueError(f"bad header {lines[0]!r}")
    try:
        n = int(head[1][2:])
    except ValueError:
        raise ValueError(f"bad dimension {head[1]!r}") from None
    if n < 1:
        raise ValueError(f"bad dimension n={n}")
    semiring = get_semiring(head[2][len("semiring="):])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    cells: list[object] = []
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"row {i}: expected {n} tokens, found {len(tokens)}")
        for tok in tokens[: i - 1]:
            if tok != ".":
                raise ValueError(f"row {i}: sub-diagonal token {tok!r} must be '.'")
        cells.extend(semiring.parse_element(tok) for tok in tokens[i - 1 :])
    return UTMatrix._trusted(n, semiring, tuple(cells))
