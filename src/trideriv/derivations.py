"""Derivations of upper-triangular matrices by zeroing, and their trial runner.

One representation serves every mask map.  A :class:`ZeroPattern` is an
arbitrary set of upper positions sent to zero; it is the right shape for
compositions, whose patterns are usually not of the diagonal form, and
being a derivation is a predicate (:meth:`ZeroPattern.is_derivation`)
instead of a type guarantee.  A :class:`MaskDerivation` is the zero
pattern named by a set of diagonal indices: entry (r, c) dies iff every
index in r..c belongs to the set, which zeroes a family of dense diagonal
blocks and always yields a derivation.  It applies, sums, composes and
answers the predicate as a pattern, with its cells and their offsets
shared per (n, zero set).  The runner :func:`first_failures` tries many
mask maps on shared seeded pairs.

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

Over a commutative S, additive maps obeying the Jordan rule
f(A∘B) = f(A)∘B ⊕ A∘f(B), A∘B = AB ⊕ BA, are derivations (a Herstein-type
theorem); every derivation obeys it by additivity.  0∘0 = 0 gives f(0) = 0.
E_ii∘E_ii = E_ii puts f(E_ii) = f(E_ii)E_ii ⊕ E_ii f(E_ii) on row and column
i, and for j ≠ i, E_ii∘E_jj = 0 makes each of the four terms vanish:
f(E_ii)E_jj = E_jj f(E_ii) = 0, so f(E_ii) ∈ S·E_ii, and likewise
f(λE_ii) ∈ S·E_ii.  For i < j, E_ii∘λE_ij = λE_ij = λE_ij∘E_jj puts
f(λE_ij) on (row i ∪ column i) ∩ (row j ∪ column j) = {(i, j)}, so f acts
entrywise.  ∘ is bi-additive, and on a pair (λE_ij, μE_kl) with j = k or
l = i, but not i = j = k = l, the rule is the Leibniz condition above (on
other pairs both sides are 0).  At i = j = k = l it reads
δ(λμ ⊕ μλ) = δ(λ)μ ⊕ μδ(λ) ⊕ λδ(μ) ⊕ δ(μ)λ, which is Leibniz once λμ = μλ:
only there is commutativity used, and all four shipped carriers are
commutative.  It cannot be dropped: over the power set of {e, p, q}, e the
identity and p, q left zeros, δ(x) = {p, q} if q ∈ x else ∅ obeys the Jordan
rule on UT_1 but breaks Leibniz at ({p}, {q}) (tests/test_entrywise.py pins
it).  The square form f(A²) = f(A)A ⊕ Af(A)
is weaker, since ⊕ does not cancel: f(A) = a₁₁E₁₁ ⊕ (a₁₂ ∨ a₂₂)E₁₂ on
UT_2(B) obeys it and breaks Leibniz at (E₁₁, E₂₂)
(tests/test_entrywise.py pins it).

A sum of δ_k/d_m terms (:class:`DecompositionExpr`) and a mask are the same
map iff they agree on J, the all-one matrix.  Both act entrywise, each term
writing one on J where it keeps a cell and zero elsewhere; with ⊕ idempotent,
zero neutral and one ≠ zero, a cell of the sum on J is one iff some term keeps
it, so J shows every cell either map keeps.  A sampled A hides every cell
where its entry is already zero.  Over a carrier whose ⊕ is not idempotent,
one ⊕ one may differ from one, and then the check fails at every cell two
terms keep (:meth:`DecompositionExpr.acts_as`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, lru_cache, reduce

from .matrices import (
    UTMatrix,
    _mul_plan,
    ensure_positive_dimension,
    ensure_same_dimension,
    iter_positions,
    random_matrix,
    triangle_size,
)
from .semirings import Semiring, _Frozen, _is_index, _ranked, seeded_trials

MatrixMap = Callable[[UTMatrix], UTMatrix]


def _runs(zero_set: frozenset) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive indices in ``zero_set``, as (start, end) pairs."""
    runs: list[list[int]] = []
    for i in sorted(zero_set):
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return tuple((s, e) for s, e in runs)


def _offsets(n: int, cells: frozenset) -> tuple[int, ...]:
    """The row-major offsets of ``cells`` among the upper positions of order n."""
    return tuple(t for t, p in enumerate(iter_positions(n)) if p in cells)


class ZeroPattern(_Frozen):
    """A mask map: the linear map sending the entries at ``positions`` to zero."""

    _fields = ("n", "positions")

    def __init__(self, n: int, positions: frozenset) -> None:
        ensure_positive_dimension(n)
        positions = frozenset((i, j) for i, j in positions)
        for i, j in positions:
            if not (_is_index(i) and _is_index(j) and 1 <= i <= j <= n):
                raise ValueError(f"position ({i!r}, {j!r}) not upper-triangular in 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", positions)

    @cached_property
    def _zeroed(self) -> tuple[int, ...]:
        """The row-major offsets of ``positions``."""
        return _offsets(self.n, self.positions)

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        ensure_same_dimension(matrix.n, self.n)
        cells = list(matrix.entries)
        zero = matrix.semiring.zero
        for t in self._zeroed:
            cells[t] = zero
        return UTMatrix._trusted(self.n, matrix.semiring, tuple(cells))

    def __add__(self, other: "ZeroPattern") -> "ZeroPattern":
        """Pointwise sum of the mask maps: zero only where both sides zero."""
        ensure_same_dimension(self.n, other.n)
        return ZeroPattern(self.n, self.positions & other.positions)

    def compose(self, other: ZeroPattern) -> "ZeroPattern":
        """Apply ``self`` then ``other``; the composed map zeroes the union."""
        ensure_same_dimension(self.n, other.n)
        return ZeroPattern(self.n, self.positions | other.positions)

    def __le__(self, other: ZeroPattern) -> bool:
        """Natural order of idempotent addition: self <= other iff self + other = other."""
        ensure_same_dimension(self.n, other.n)
        return self.positions >= other.positions

    def interval_form(self) -> MaskDerivation | None:
        """The MaskDerivation with the same action, if one exists: the one
        zeroing this pattern's diagonal cells."""
        diagonal = frozenset(i for i in range(1, self.n + 1) if (i, i) in self.positions)
        mask = MaskDerivation(self.n, diagonal)
        return mask if mask.positions == self.positions else None

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


@lru_cache(maxsize=256)
def _mask_cells(n: int, zero_set: frozenset) -> tuple[frozenset, tuple[int, ...]]:
    """The cells (r, c) with every index of r..c in ``zero_set``, and their offsets:
    shared by every mask of this key, so fresh ``delta_k``/``d_m`` objects reuse them."""
    cells = frozenset(
        (r, c) for s, e in _runs(zero_set) for r in range(s, e + 1) for c in range(r, e + 1)
    )
    return cells, _offsets(n, cells)


class MaskDerivation(ZeroPattern):
    """The zero pattern of the dense diagonal blocks spanned by ``zero_set``.

    ``zero_set = {}`` is the identity map; ``zero_set = {1..n}`` the
    constant-zero map.  The blocks (maximal runs of consecutive indices),
    ``positions`` and their offsets are derived on demand; equality and hash
    read ``(n, zero_set)`` alone, and a mask never equals a plain pattern.
    """

    _fields = ("n", "zero_set")

    def __init__(self, n: int, zero_set: frozenset) -> None:
        ensure_positive_dimension(n)
        zero_set = frozenset(zero_set)
        if not all(_is_index(i) and 1 <= i <= n for i in zero_set):
            raise ValueError(f"zero set {sorted(zero_set)} outside 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "zero_set", zero_set)

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Maximal runs of consecutive zeroed indices, as (start, end) pairs."""
        return _runs(self.zero_set)

    @cached_property
    def positions(self) -> frozenset:
        """The cells this mask zeroes, from the cache keyed by (n, zero_set)."""
        return _mask_cells(self.n, self.zero_set)[0]

    @cached_property
    def _zeroed(self) -> tuple[int, ...]:
        """The row-major offsets of ``positions``, from the same cache."""
        return _mask_cells(self.n, self.zero_set)[1]

    def __add__(self, other: ZeroPattern) -> ZeroPattern:
        """Pointwise sum (an entry survives if either side keeps it): a mask if both are."""
        if not isinstance(other, MaskDerivation):
            return super().__add__(other)
        ensure_same_dimension(self.n, other.n)
        return MaskDerivation(self.n, self.zero_set & other.zero_set)


def _check_mask_map(f: object, caller: str) -> None:
    """Raise TypeError, naming ``caller``, unless ``f`` is a mask map."""
    if not isinstance(f, ZeroPattern):
        raise TypeError(f"{caller} needs a mask map, got {type(f).__name__}")


# --- the two basic chains ------------------------------------------------------

def delta_k(n: int, k: int) -> MaskDerivation:
    """Keep the first k rows, zero the rest; k = n is the identity, k = 0 the zero map."""
    if not (_is_index(k) and 0 <= k <= n):
        raise ValueError(f"k={k!r} outside 0..{n}")
    return MaskDerivation(n, frozenset(range(k + 1, n + 1)))


def d_m(n: int, m: int) -> MaskDerivation:
    """Keep the last m columns, zero the rest; m = n is the identity, m = 0 the zero map."""
    if not (_is_index(m) and 0 <= m <= n):
        raise ValueError(f"m={m!r} outside 0..{n}")
    return MaskDerivation(n, frozenset(range(1, n - m + 1)))


def strip_diagonal(n: int) -> ZeroPattern:
    """Replace every diagonal entry by zero; the sum of all complementary products."""
    return ZeroPattern(n, frozenset((i, i) for i in range(1, n + 1)))


def theorem2_predicate(n: int, k: int, m: int) -> bool:
    """Whether the composition of delta_k and d_m is a derivation: k + m >= n."""
    if not (all(map(_is_index, (n, k, m))) and 1 <= k <= n and 1 <= m <= n):
        raise ValueError(f"(k, m)=({k}, {m}) outside 1..{n}")
    return k + m >= n


# --- executable law checks ------------------------------------------------------

class Witness(_Frozen):
    """First differing position of two matrices, with both entry values."""

    _fields = ("position", "lhs", "rhs")


def first_difference(left: UTMatrix, right: UTMatrix) -> Witness | None:
    """Lexicographically first (row-major) position where the matrices differ,
    compared cell by cell: a tuple ``==`` would pass one shared NaN."""
    ensure_same_dimension(left.n, right.n)
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

def _zeroing(maps: list, n: int) -> list[int]:
    """Per cell, row-major: the bitset of the indices of the maps that zero it.

    A mask zeroes (r, c) iff its zero set holds every index of r..c, so the
    masks that zero (r, c) are D_r & ... & D_c, with D_t the bitset of the
    masks whose zero set holds t: one running AND per cell, and no mask's
    cells are built.  Any other :class:`ZeroPattern` sets its bits offset by offset.
    """
    width = len(maps) // 8 + 1
    held = [bytearray(width) for _ in range(n + 1)]  # D_t at index t
    cells = [bytearray(width) for _ in range(triangle_size(n))]
    for index, fn in enumerate(maps):
        _check_mask_map(fn, "trial runner")
        ensure_same_dimension(fn.n, n)
        byte, bit = index >> 3, 1 << (index & 7)
        if isinstance(fn, MaskDerivation):
            for t in fn.zero_set:
                held[t][byte] |= bit
        else:
            for t in fn._zeroed:
                cells[t][byte] |= bit
    held_bits = [int.from_bytes(d, "little") for d in held]
    zeroing = []
    for r in range(1, n + 1):
        run = held_bits[r]
        for c in range(r, n + 1):
            run &= held_bits[c]
            zeroing.append(run | int.from_bytes(cells[len(zeroing)], "little"))
    return zeroing


def _members(bits: int) -> Iterator[int]:
    """The indices of the set bits of ``bits``, lowest first."""
    digits = bin(bits)[:1:-1]
    index = digits.find("1")
    while index >= 0:
        yield index
        index = digits.find("1", index + 1)


def _split(members: int, bitsets: list[int]) -> list[tuple[int, int]]:
    """Cut ``members`` by each of ``bitsets`` in turn: the nonempty parts, each
    with a key whose bit k says that the part lies in ``bitsets[k]``."""
    parts = [(0, members)]
    for k, bitset in enumerate(bitsets):
        parts = [
            (key | bit, cut)
            for key, part in parts
            for bit, cut in ((0, part & ~bitset), (1 << k, part & bitset))
            if cut
        ]
    return parts


def _leibniz_groups(zeroing: list[int], n: int, count: int) -> list[list[tuple]]:
    """Per cell (i, j), row-major: the ``count`` maps grouped by which cells of
    the row segment (i, i..j) and the column segment (i..j, j) they zero (key
    bit k - i for (i, k) or (k, j)), as (row key, column key, whether (i, j)
    is zeroed, members as a bitset).  A group's verdict depends on its keys
    alone, so the groups of a cell come in no particular order."""
    return [
        [
            (row_key, col_key, row_key >> (len(pairs) - 1) & 1, members)
            for row_key, part in _split((1 << count) - 1, [zeroing[p] for p, _ in pairs])
            for col_key, members in _split(part, [zeroing[q] for _, q in pairs])
        ]
        for pairs in _mul_plan(n)
    ]


def _masked_fold(
    carrier: Semiring, pairs: tuple, a: tuple, b: tuple, a_key: int, b_key: int
) -> object:
    """One cell of f(A)B (``a_key`` the row key, ``b_key`` 0) or of Af(B) (0 and
    the column key): the fold of ``UTMatrix.__mul__`` over ``pairs``, in its
    order, reading operand k of ``a`` (``b``) as ``carrier.zero``, the object
    f writes, where bit k of ``a_key`` (``b_key``) is set."""
    add, mul, zero = carrier.add, carrier.mul, carrier.zero
    acc = zero
    for k, (p, q) in enumerate(pairs):
        acc = add(acc, mul(zero if a_key >> k & 1 else a[p], zero if b_key >> k & 1 else b[q]))
    return acc


def first_failures(maps, n, semiring, trials, seed):
    """Each map's first failing (trial, check-name, witness), else None.

    Trial t draws (A, B) from :func:`seeded_trials` once for all mask
    maps (any other map raises TypeError), so AB and A + B are computed
    once per trial; each map still unfailed is checked for Leibniz, then
    linearity.  Stops early once every map has failed.

    Each cell holds the bitset of the maps that zero it (:func:`_zeroing`).
    A map's Leibniz verdict at cell (i, j) depends on the map only through
    the cells it zeroes in the row segment (i, i..j) and the column segment
    (i..j, j): f(AB)'s cell is zero or AB's by (i, j) itself, f(A)B's cell
    is the fold over the row segment and Af(B)'s over the column segment.
    So the maps are grouped once per call, cell by cell, by cutting the
    set of all maps with those cells' bitsets (:func:`_leibniz_groups`),
    and each trial walks the cells in row-major order computing one
    verdict per group with a member still live; a differing group fails
    all its live members at that cell, which is the first difference the
    full matrices would show.  The folds are memoised per cell and side by
    the side's key, the empty key holding AB's own cell; a miss folds the
    cell straight from A's and B's entries, with the operands the key names
    read as zero (:func:`_masked_fold`), so no map is applied and f(A) and
    f(B) are never built.  Linearity needs two facts per trial: the cells
    where A + B differs from add(a, b), which fail the maps keeping them,
    and whether add(zero, zero) differs from zero, which fails the maps
    zeroing them.  Every value is computed by the same carrier calls on the
    same operand objects as f(AB), f(A)B + Af(B), f(A + B) and f(A) + f(B)
    would be, so every verdict and witness equals theirs, with no semiring
    axiom assumed.

    Over a max/min carrier each trial runs on int keys of its drawn
    entries (:func:`~trideriv.semirings._ranked`), and a witness's values
    are mapped back to the drawn ones.
    """
    zeroing = _zeroing(maps, n)
    groups = _leibniz_groups(zeroing, n, len(maps))
    plan, positions = _mul_plan(n), tuple(iter_positions(n))
    size = len(plan)
    failures = [None] * len(maps)
    unfailed = (1 << len(maps)) - 1
    for trial, rng in seeded_trials(trials, seed):
        if not unfailed:
            break
        a, b = random_matrix(n, semiring, rng), random_matrix(n, semiring, rng)
        carrier, entries, values = _ranked(semiring, a.entries + b.entries)
        a_cells, b_cells = entries[:size], entries[size:]
        a, b = UTMatrix._trusted(n, carrier, a_cells), UTMatrix._trusted(n, carrier, b_cells)
        add, zero = carrier.add, carrier.zero
        ab, a_plus_b = a * b, a + b

        def fail(hit: int, check: str, position: tuple[int, int], lhs: object, rhs: object) -> None:
            if values is not None:
                lhs, rhs = values[lhs], values[rhs]
            failure = trial, check, Witness(position, lhs, rhs)
            for index in _members(hit):
                failures[index] = failure

        live = unfailed
        for position, cell_groups, pairs, ab_cell in zip(positions, groups, plan, ab.entries):
            left, right = {0: ab_cell}, {0: ab_cell}  # f(A)B and Af(B) folds by key
            for row_key, col_key, own, members in cell_groups:
                hit = members & live
                if not hit:
                    continue
                try:
                    x = left[row_key]
                except KeyError:
                    x = left[row_key] = _masked_fold(carrier, pairs, a_cells, b_cells, row_key, 0)
                try:
                    y = right[col_key]
                except KeyError:
                    y = right[col_key] = _masked_fold(carrier, pairs, a_cells, b_cells, 0, col_key)
                lhs, rhs = zero if own else ab_cell, add(x, y)
                if lhs != rhs:
                    live ^= hit
                    fail(hit, "leibniz", position, lhs, rhs)
            if not live:
                break

        # f(A + B) against f(A) + f(B): (A + B)_t against add(a_t, b_t) at a
        # kept cell t, zero against add(zero, zero) at a zeroed one.
        sums = tuple(map(add, a_cells, b_cells))
        zero_sum = add(zero, zero)
        zeroed_differ = zero_sum != zero
        for position, zeroed, x, y in zip(positions, zeroing, a_plus_b.entries, sums):
            if x != y and live & ~zeroed:  # cell by cell: a tuple != passes x is y
                fail(live & ~zeroed, "linearity", position, x, y)
                live &= zeroed
            if zeroed_differ and live & zeroed:
                fail(live & zeroed, "linearity", position, zero, zero_sum)
                live &= ~zeroed
        unfailed = live
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

class DecompositionTerm(_Frozen):
    """One summand: delta_k, d_m, or the product delta_k . d_m.

    ``k=0`` / ``m=0`` denote the constant-zero map, so ``delta_n . d_0``
    is a legitimate spelling of the zero map.
    """

    _fields = ("k", "m")

    def __init__(self, k: int | None = None, m: int | None = None) -> None:
        if k is None and m is None:
            raise ValueError("term needs at least one factor")
        for v in (k, m):
            if v is not None and not (_is_index(v) and v >= 0):
                raise ValueError(f"factor index {v!r} is not an int >= 0")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

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


class DecompositionExpr(_Frozen):
    """A sum of terms whose pointwise evaluation equals a mask derivation."""

    _fields = ("n", "terms")

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        ensure_same_dimension(matrix.n, self.n)
        return pointwise_sum(*self.terms)(matrix)

    def acts_as(self, mask: MaskDerivation, semiring: Semiring) -> bool:
        """Whether ``self(J) == mask(J)``, J the all-``one`` matrix over
        ``semiring``, without building J or any term's image.

        On J each term writes ``one`` where it keeps a cell and ``zero``
        elsewhere: term (k, m) keeps rows <= k and columns >= n - m + 1, an
        omitted factor being delta_n or d_n.  So a cell of self(J) is the
        fold of ``add`` over the terms, in ``pointwise_sum``'s order, of
        ``one`` for the terms in the cell's key (the bitset of the terms
        keeping it) and ``zero`` for the rest; it is folded once per
        distinct key and compared with mask(J): ``zero`` where the mask
        zeroes the cell, ``one`` elsewhere.
        """
        n = self.n
        ensure_same_dimension(mask.n, n)
        if not self.terms:
            raise ValueError("need at least one map")
        rows, cols = [0] * (n + 2), [0] * (n + 2)  # the terms keeping row r / column c
        for index, term in enumerate(self.terms):
            k = n if term.k is None else term.k
            m = n if term.m is None else term.m
            if k > n or m > n:
                raise ValueError(f"term {term.ascii()} outside 0..{n}")
            rows[k] |= 1 << index  # for now: the terms whose last kept row is k
            cols[n - m + 1] |= 1 << index
        for r in range(n - 1, 0, -1):
            rows[r] |= rows[r + 1]
        for c in range(2, n + 1):
            cols[c] |= cols[c - 1]
        keys = [rows[r] & cols[c] for r in range(1, n + 1) for c in range(r, n + 1)]
        add, zero, one = semiring.add, semiring.zero, semiring.one
        terms = range(len(self.terms))
        folds = {
            key: reduce(add, [one if key >> index & 1 else zero for index in terms])
            for key in set(keys)
        }
        want = [one] * triangle_size(n)
        for t in mask._zeroed:
            want[t] = zero
        return [folds[key] for key in keys] == want

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
