"""Derivations of upper-triangular matrices given by zeroing positions.

Two representations coexist.  A :class:`MaskDerivation` is canonically a
set of diagonal indices forced to zero: entry (r, c) dies iff every
diagonal index in r..c belongs to the set, which zeroes a family of
dense diagonal blocks and always yields a derivation.  A
:class:`ZeroPattern` is an arbitrary set of upper positions; it is the
right shape for compositions, whose patterns are usually not of the
diagonal form, and being a derivation becomes a predicate
(:meth:`ZeroPattern.is_derivation`) instead of a type guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Any, Callable, Iterable, Union

from .matrices import UTMatrix, ensure_same_dimension, iter_positions

MatrixMap = Callable[[UTMatrix], UTMatrix]


def _is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@lru_cache(maxsize=256)
def _mask_offsets(n: int, zero_set: frozenset) -> tuple[int, ...]:
    """Row-major offsets of the entries (r, c) with every index of r..c in ``zero_set``."""
    return tuple(
        t
        for t, (r, c) in enumerate(iter_positions(n))
        if all(i in zero_set for i in range(r, c + 1))
    )


def _apply_zeroed(n: int, offsets: tuple[int, ...], matrix: UTMatrix) -> UTMatrix:
    """Send the entries at row-major ``offsets`` to zero: the one apply path of
    :class:`MaskDerivation` and :class:`ZeroPattern`."""
    ensure_same_dimension(matrix.n, n)
    cells = list(matrix.entries)
    zero = matrix.semiring.zero
    for t in offsets:
        cells[t] = zero
    return UTMatrix._trusted(n, matrix.semiring, tuple(cells))


@dataclass(frozen=True)
class MaskDerivation:
    """Zero the dense diagonal blocks spanned by ``zero_set``.

    ``zero_set = {}`` is the identity map; ``zero_set = {1..n}`` the
    constant-zero map.  The blocks (maximal runs of consecutive indices)
    are derived on demand.
    """

    n: int
    zero_set: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        zs = frozenset(self.zero_set)
        object.__setattr__(self, "zero_set", zs)
        if not all(_is_index(i) and 1 <= i <= self.n for i in zs):
            raise ValueError(f"zero set {sorted(zs)} outside 1..{self.n}")

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Maximal runs of consecutive zeroed indices, as (start, end) pairs."""
        runs = []
        start = None
        for i in range(1, self.n + 2):
            if i <= self.n and i in self.zero_set:
                if start is None:
                    start = i
            elif start is not None:
                runs.append((start, i - 1))
                start = None
        return tuple(runs)

    @cached_property
    def pattern(self) -> "ZeroPattern":
        positions = tuple(iter_positions(self.n))
        zeroed = _mask_offsets(self.n, self.zero_set)
        return ZeroPattern(self.n, frozenset(positions[t] for t in zeroed))

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        return _apply_zeroed(self.n, _mask_offsets(self.n, self.zero_set), matrix)

    def __add__(self, other: "MaskDerivation") -> "MaskDerivation":
        """Pointwise sum of the two maps (an entry survives if either side keeps it)."""
        ensure_same_dimension(self.n, other.n)
        return MaskDerivation(self.n, self.zero_set & other.zero_set)

    def compose(self, other: Union["MaskDerivation", "ZeroPattern"]) -> "ZeroPattern":
        """Apply ``self`` then ``other``; the composed map zeroes the union."""
        return self.pattern.compose(_as_pattern(other))

    def __le__(self, other: "MaskDerivation") -> bool:
        """Natural order of idempotent addition: self <= other iff self + other = other."""
        ensure_same_dimension(self.n, other.n)
        return self.zero_set >= other.zero_set


@dataclass(frozen=True)
class ZeroPattern:
    """The linear map sending the entries at ``positions`` to zero."""

    n: int
    positions: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        pos = frozenset((i, j) for i, j in self.positions)
        object.__setattr__(self, "positions", pos)
        for i, j in pos:
            if not (_is_index(i) and _is_index(j)):
                raise ValueError(f"position ({i!r}, {j!r}) must be a pair of ints")
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"position ({i}, {j}) not upper-triangular in 1..{self.n}")

    @cached_property
    def _zeroed(self) -> tuple[int, ...]:
        pos = self.positions
        return tuple(t for t, p in enumerate(iter_positions(self.n)) if p in pos)

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        return _apply_zeroed(self.n, self._zeroed, matrix)

    def __add__(self, other: "ZeroPattern") -> "ZeroPattern":
        """Pointwise sum of the mask maps: zero only where both sides zero."""
        ensure_same_dimension(self.n, other.n)
        return ZeroPattern(self.n, self.positions & other.positions)

    def compose(self, other: Union["ZeroPattern", MaskDerivation]) -> "ZeroPattern":
        other = _as_pattern(other)
        ensure_same_dimension(self.n, other.n)
        return ZeroPattern(self.n, self.positions | other.positions)

    def diagonal_zero_set(self) -> frozenset:
        return frozenset(i for i in range(1, self.n + 1) if (i, i) in self.positions)

    def interval_form(self) -> MaskDerivation | None:
        """The MaskDerivation with the same action, if one exists."""
        mask = MaskDerivation(self.n, self.diagonal_zero_set())
        return mask if mask.pattern == self else None

    def is_derivation(self) -> bool:
        """Local characterization of the Leibniz rule for mask maps.

        A zeroed (i, j) must have every (i, k) and (k, j), i <= k <= j,
        zeroed too (otherwise the right-hand side keeps a term the left
        kills); a kept (i, j) must, for every k, keep (i, k) or (k, j)
        (otherwise the right-hand side misses the k-th summand).
        Sufficiency holds over any additively idempotent semiring by
        termwise expansion; necessity is the boolean brute-force result.
        """
        pos = self.positions
        for i, j in iter_positions(self.n):
            if (i, j) in pos:
                for k in range(i, j + 1):
                    if (i, k) not in pos or (k, j) not in pos:
                        return False
            else:
                for k in range(i, j + 1):
                    if (i, k) in pos and (k, j) in pos:
                        return False
        return True


def _as_pattern(f: Union[MaskDerivation, ZeroPattern]) -> ZeroPattern:
    return f.pattern if isinstance(f, MaskDerivation) else f


# --- the two basic chains ------------------------------------------------------

def delta_k(n: int, k: int) -> MaskDerivation:
    """Keep the first k rows, zero the rest; k = n is the identity, k = 0 the zero map."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    return MaskDerivation(n, frozenset(range(k + 1, n + 1)))


def d_m(n: int, m: int) -> MaskDerivation:
    """Keep the last m columns, zero the rest; m = n is the identity, m = 0 the zero map."""
    if not 0 <= m <= n:
        raise ValueError(f"m={m} outside 0..{n}")
    return MaskDerivation(n, frozenset(range(1, n - m + 1)))


def strip_diagonal(n: int) -> ZeroPattern:
    """Replace every diagonal entry by zero; the sum of all complementary products."""
    return ZeroPattern(n, frozenset((i, i) for i in range(1, n + 1)))


def theorem2_predicate(n: int, k: int, m: int) -> bool:
    """Whether the composition of delta_k and d_m is a derivation: k + m >= n."""
    if not (1 <= k <= n and 1 <= m <= n):
        raise ValueError(f"(k, m)=({k}, {m}) outside 1..{n}")
    return k + m >= n


# --- executable law checks ------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """First differing position of two matrices, with both entry values."""

    position: tuple[int, int]
    lhs: Any
    rhs: Any


def first_difference(left: UTMatrix, right: UTMatrix) -> Witness | None:
    """Lexicographically first (row-major) position where the matrices differ."""
    ensure_same_dimension(left.n, right.n)
    if left.entries == right.entries:
        return None
    for pos, a, b in zip(iter_positions(left.n), left.entries, right.entries):
        if a != b:
            return Witness(pos, a, b)
    return None


def leibniz_check(f: MatrixMap, a: UTMatrix, b: UTMatrix) -> Witness | None:
    """Compare f(AB) with f(A)B + Af(B); None when the Leibniz rule holds."""
    return first_difference(f(a * b), f(a) * b + a * f(b))


def linearity_check(f: MatrixMap, a: UTMatrix, b: UTMatrix) -> Witness | None:
    """Compare f(A+B) with f(A) + f(B); None when the map is additive."""
    return first_difference(f(a + b), f(a) + f(b))


def pointwise_sum(*maps: MatrixMap) -> MatrixMap:
    """The map A -> f1(A) + f2(A) + ...; sums of derivations stay derivations."""
    if not maps:
        raise ValueError("need at least one map")

    def combined(matrix: UTMatrix) -> UTMatrix:
        return reduce(lambda acc, f: acc + f(matrix), maps[1:], maps[0](matrix))

    return combined


# --- enumeration -----------------------------------------------------------------

def enumerate_interval_derivations(n: int) -> list[MaskDerivation]:
    """The identity plus every single-block mask of span 1..n-1.

    The full-span block (the constant-zero map) is deliberately left out,
    which makes the count exactly n(n+1)/2; it still appears in
    :func:`enumerate_family_derivations`.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    masks = [MaskDerivation(n, frozenset())]
    for span in range(1, n):
        for start in range(1, n - span + 2):
            masks.append(MaskDerivation(n, frozenset(range(start, start + span))))
    return masks


def enumerate_family_derivations(n: int) -> list[MaskDerivation]:
    """One mask per subset of {1..n}, in binary-counter order; 2^n of them."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return [
        MaskDerivation(n, frozenset(i + 1 for i in range(n) if bits >> i & 1))
        for bits in range(1 << n)
    ]


# --- decomposition into delta/d products ------------------------------------------

@dataclass(frozen=True)
class DecompositionTerm:
    """One summand: delta_k, d_m, or the product delta_k . d_m.

    ``k=0`` / ``m=0`` denote the constant-zero map, so ``delta_n . d_0``
    is a legitimate spelling of the zero map.
    """

    k: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.k is None and self.m is None:
            raise ValueError("term needs at least one factor")
        for v in (self.k, self.m):
            if v is not None and v < 0:
                raise ValueError("factor indices must be >= 0")

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        out = matrix
        if self.k is not None:
            out = delta_k(matrix.n, self.k)(out)
        if self.m is not None:
            out = d_m(matrix.n, self.m)(out)
        return out

    def __str__(self) -> str:
        parts = []
        if self.k is not None:
            parts.append(f"δ{self.k}")
        if self.m is not None:
            parts.append(f"d{self.m}")
        return "·".join(parts)

    def ascii(self) -> str:
        parts = []
        if self.k is not None:
            parts.append(f"delta{self.k}")
        if self.m is not None:
            parts.append(f"d{self.m}")
        return "*".join(parts)


@dataclass(frozen=True)
class DecompositionExpr:
    """A sum of terms whose pointwise evaluation equals a mask derivation."""

    n: int
    terms: tuple[DecompositionTerm, ...]

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        ensure_same_dimension(matrix.n, self.n)
        return pointwise_sum(*self.terms)(matrix)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)

    def ascii(self) -> str:
        return " + ".join(t.ascii() for t in self.terms)


def decompose(mask: MaskDerivation) -> DecompositionExpr:
    """Rewrite a mask derivation as a sum of delta/d terms.

    Blocks strictly inside the diagonal become products: the block after
    a gap contributes ``delta_{start-1} . d_{n-prev_end}``.  A kept
    leading run contributes a bare delta, a kept trailing run a bare d.
    The two degenerate masks get one-term spellings: identity ``delta_n``
    and the all-covering block ``delta_n . d_0``.
    """
    n = mask.n
    runs = mask.blocks
    if not runs:
        return DecompositionExpr(n, (DecompositionTerm(k=n),))
    if runs[0] == (1, n):
        return DecompositionExpr(n, (DecompositionTerm(k=n, m=0),))
    terms = []
    first_start = runs[0][0]
    if first_start > 1:
        terms.append(DecompositionTerm(k=first_start - 1))
    for (_, prev_end), (start, _) in zip(runs, runs[1:]):
        terms.append(DecompositionTerm(k=start - 1, m=n - prev_end))
    last_end = runs[-1][1]
    if last_end < n:
        terms.append(DecompositionTerm(m=n - last_end))
    return DecompositionExpr(n, tuple(terms))


# --- zero-set / pattern text syntax ------------------------------------------------

def format_zero_set(zero_set: Iterable[int]) -> str:
    return ",".join(str(i) for i in sorted(zero_set))


def parse_zero_set(text: str, n: int) -> frozenset:
    """Comma-separated 1-based diagonal indices; empty text is the empty set."""
    text = text.strip()
    if not text:
        return frozenset()
    indices = set()
    for token in text.split(","):
        try:
            i = int(token)
        except ValueError:
            raise ValueError(f"bad zero-set index {token!r}") from None
        if not 1 <= i <= n:
            raise ValueError(f"zero-set index {i} outside 1..{n}")
        indices.add(i)
    return frozenset(indices)


def format_pattern(pattern: ZeroPattern) -> str:
    return ";".join(f"{i},{j}" for i, j in sorted(pattern.positions))


def parse_pattern(text: str, n: int) -> ZeroPattern:
    """Semicolon-separated ``i,j`` pairs; empty text is the identity map."""
    text = text.strip()
    if not text:
        return ZeroPattern(n, frozenset())
    positions = set()
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad pattern position {chunk!r} (expected i,j)")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad pattern position {chunk!r}") from None
        positions.add((i, j))
    return ZeroPattern(n, frozenset(positions))
