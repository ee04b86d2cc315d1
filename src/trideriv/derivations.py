"""Derivations of upper-triangular matrices by zeroing, and their trial runner.

Two representations coexist.  A :class:`MaskDerivation` is canonically a
set of diagonal indices forced to zero: entry (r, c) dies iff every
diagonal index in r..c belongs to the set, which zeroes a family of
dense diagonal blocks and always yields a derivation.  A
:class:`ZeroPattern` is an arbitrary set of upper positions; it is the
right shape for compositions, whose patterns are usually not of the
diagonal form, and being a derivation becomes a predicate
(:meth:`ZeroPattern.is_derivation`) instead of a type guarantee.  The
runner :func:`first_failures` tries many mask maps on shared seeded pairs.

Every derivation acts entrywise.  Let S be additively idempotent (so
x ⊕ y = 0 forces x = y = 0) and f additive and Leibniz on UT_n(S).
E_ii = E_ii·E_ii puts f(E_ii) on row and column i, and for j ≠ i,
0 = f(E_ii·E_jj) = f(E_ii)E_jj ⊕ E_ii f(E_jj) empties column j of f(E_ii) and
row i of f(E_jj): f(E_ii) ∈ S·E_ii.  Then λE_ij = E_ii·λE_ij = λE_ij·E_jj
gives f(λE_ij) = δ_ij(λ)E_ij with δ_ij additive, so f(A) = (δ_ij(a_ij)), and
by additivity Leibniz holds iff δ_il(ab) = δ_ik(a)b ⊕ aδ_kl(b) for all
i ≤ k ≤ l and a, b in S.  So, for weights u_ij that commute with S (zero and
one do; take a = b = one), A ↦ (a_ij ⊗ u_ij) is a derivation iff
u(i,l) = u(i,k) ⊕ u(k,l) for all i ≤ k ≤ l; the 0/1 weights are the mask maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Any, Callable, Iterable, Union

from .matrices import (
    UTMatrix,
    _fold_cell,
    _mul_plan,
    _offset,
    ensure_positive_dimension,
    ensure_same_dimension,
    iter_positions,
    random_matrix,
)
from .semirings import _ranked, seeded_trials

MatrixMap = Callable[[UTMatrix], UTMatrix]


def _is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _runs(zero_set: frozenset) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive indices in ``zero_set``, as (start, end) pairs."""
    runs: list[list[int]] = []
    for i in sorted(zero_set):
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return tuple((s, e) for s, e in runs)


@lru_cache(maxsize=256)
def _mask_offsets(n: int, zero_set: frozenset) -> tuple[int, ...]:
    """Row-major offsets of the entries (r, c) with every index of r..c in ``zero_set``:
    row r of the run (s, e) loses (r, r..e)."""
    return tuple(
        t
        for s, e in _runs(zero_set)
        for r in range(s, e + 1)
        for t in range(_offset(n, r, r), _offset(n, r, e) + 1)
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
        ensure_positive_dimension(self.n)
        zs = frozenset(self.zero_set)
        object.__setattr__(self, "zero_set", zs)
        if not all(_is_index(i) and 1 <= i <= self.n for i in zs):
            raise ValueError(f"zero set {sorted(zs)} outside 1..{self.n}")

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Maximal runs of consecutive zeroed indices, as (start, end) pairs."""
        return _runs(self.zero_set)

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
        ensure_positive_dimension(self.n)
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
        """Local characterization of Leibniz for mask maps, the module's weight
        identity at 0/1: (i, l) is zeroed iff (i, k) and (k, l) are, for i <= k <= l."""
        pos = self.positions
        for i, l in iter_positions(self.n):
            zeroed = (i, l) in pos
            for k in range(i, l + 1):
                if zeroed != ((i, k) in pos and (k, l) in pos):
                    return False
        return True


def _as_pattern(f: Union[MaskDerivation, ZeroPattern]) -> ZeroPattern:
    return f.pattern if isinstance(f, MaskDerivation) else f


def _check_mask_map(f: Any, caller: str) -> None:
    """Raise TypeError, naming ``caller``, unless ``f`` is a mask map."""
    if not isinstance(f, (MaskDerivation, ZeroPattern)):
        raise TypeError(f"{caller} needs a mask map, got {type(f).__name__}")


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


# --- the seeded trial runner -------------------------------------------------------

@lru_cache(maxsize=64)
def _segments(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per cell (i, j), row-major: the starts of its row segment (i, i..j) in a
    row-major and its column segment (i..j, j) in a column-major bitmask, and
    their width as ones."""
    return tuple(
        (_offset(n, i, i), j * (j - 1) // 2 + i - 1, (1 << (j - i + 1)) - 1)
        for i, j in iter_positions(n)
    )


def _zero_masks(f: Any, n: int, caller: str) -> tuple[int, int]:
    """The entries a mask map zeroes, as a row-major and a column-major bitmask;
    any other map raises TypeError, naming ``caller``."""
    _check_mask_map(f, caller)
    ensure_same_dimension(f.n, n)
    zeroed = _mask_offsets(n, f.zero_set) if isinstance(f, MaskDerivation) else f._zeroed
    segments = _segments(n)
    rows = cols = 0
    for t in zeroed:
        rows |= 1 << t
        cols |= 1 << segments[t][1]  # cell t's column segment starts at cell t
    return rows, cols


def first_failures(maps, n, semiring, trials, seed):
    """Each map's first failing (trial, check-name, witness), else None.

    Trial t draws (A, B) from :func:`seeded_trials` once for all mask
    maps (any other map raises TypeError), so AB and A + B are computed
    once per trial; each map still unfailed is checked for Leibniz, then
    linearity.  Stops early once every map has failed.

    The right-hand side f(A)B + Af(B) is built cell by cell from two
    memos that live for one trial.  Cell (i, j) of f(A)B depends on the
    map only through its zero bits in the row segment (i, i..j), and of
    Af(B) only through those in the column segment (i..j, j); these bits,
    cut from :func:`_zero_masks`, key the memos, and the empty key holds
    AB's own cell.  A miss runs the product's own fold
    (:func:`~trideriv.matrices._fold_cell`) on the same operand objects in
    the same order, so every value, verdict and witness equals the one
    the two full products give, with no semiring axiom assumed.

    Over a max/min carrier each trial runs on the int ranks of its drawn
    entries (:func:`~trideriv.semirings._ranked`), and a witness's values
    are mapped back to the drawn ones.
    """
    masks = [_zero_masks(fn, n, "trial runner") for fn in maps]
    plan, segments, add = _mul_plan(n), _segments(n), semiring.add
    size = len(plan)
    failures = [None] * len(maps)
    unfailed = list(range(len(maps)))
    for trial, rng in seeded_trials(trials, seed):
        if not unfailed:
            break
        a, b = random_matrix(n, semiring, rng), random_matrix(n, semiring, rng)
        carrier, entries, values = _ranked(semiring, a.entries + b.entries)
        a = UTMatrix._trusted(n, carrier, entries[:size])
        b = UTMatrix._trusted(n, carrier, entries[size:])
        ab, a_plus_b = a * b, a + b
        left = [{0: x} for x in ab.entries]  # f(A)B by row-segment zero bits
        right = [{0: x} for x in ab.entries]  # Af(B) by column-segment zero bits
        still = []
        for index in unfailed:
            fn = maps[index]
            rows, cols = masks[index]
            fa, fb = fn(a), fn(b)
            rhs = []
            for (row_start, col_start, width), pairs, left_memo, right_memo in zip(
                segments, plan, left, right
            ):
                key = rows >> row_start & width
                try:
                    x = left_memo[key]
                except KeyError:
                    x = left_memo[key] = _fold_cell(carrier, pairs, fa.entries, b.entries)
                key = cols >> col_start & width
                try:
                    y = right_memo[key]
                except KeyError:
                    y = right_memo[key] = _fold_cell(carrier, pairs, a.entries, fb.entries)
                rhs.append(add(x, y))
            check = "leibniz"
            witness = first_difference(fn(ab), UTMatrix._trusted(n, carrier, tuple(rhs)))
            if witness is None:
                check, witness = "linearity", first_difference(fn(a_plus_b), fa + fb)
            if witness is None:
                still.append(index)
                continue
            if values is not None:
                witness = Witness(witness.position, values[witness.lhs], values[witness.rhs])
            failures[index] = trial, check, witness
        unfailed = still
    return failures


# --- enumeration -----------------------------------------------------------------

def enumerate_interval_derivations(n: int) -> list[MaskDerivation]:
    """The identity plus every single-block mask of span 1..n-1.

    The full-span block (the constant-zero map) is deliberately left out,
    which makes the count exactly n(n+1)/2; it still appears in
    :func:`enumerate_family_derivations`.
    """
    ensure_positive_dimension(n)
    masks = [MaskDerivation(n, frozenset())]
    for span in range(1, n):
        for start in range(1, n - span + 2):
            masks.append(MaskDerivation(n, frozenset(range(start, start + span))))
    return masks


def enumerate_family_derivations(n: int) -> list[MaskDerivation]:
    """One mask per subset of {1..n}, in binary-counter order; 2^n of them."""
    ensure_positive_dimension(n)
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
        return self.ascii().replace("delta", "δ").replace("*", "·")

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
