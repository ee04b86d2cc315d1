"""Derivations of upper-triangular matrices by zeroing, and their trial runner.

One representation serves every mask map.  A :class:`ZeroPattern` is an
arbitrary set of upper positions sent to zero; it is the right shape for
compositions, whose patterns are usually not of the diagonal form, and
being a derivation is a predicate (:meth:`ZeroPattern.is_derivation`)
instead of a type guarantee.  A :class:`MaskDerivation` is the zero
pattern named by a set of diagonal indices: entry (r, c) dies iff every
index in r..c belongs to the set, which zeroes a family of dense diagonal
blocks and always yields a derivation.  It applies, sums, composes and
answers the predicate as a pattern: its cells are cached per zero set, and
its offsets come from the one :attr:`ZeroPattern._zeroed`.  The runner
:func:`first_failures` tries many mask maps on shared seeded pairs.

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
entrywise.  This half needs no commutativity: it uses only E_ii∘E_ii = E_ii,
E_ii∘E_jj = 0 (i ≠ j), E_ii∘λE_ij = λE_ij = λE_ij∘E_jj (i < j),
zero-sum-freeness and additivity, so over any additively idempotent S an
additive Jordan map acts entrywise.  ∘ is bi-additive, and on a pair
(λE_ij, μE_kl) with j = k or l = i, but not i = j = k = l, the rule is the
Leibniz condition above (on other pairs both sides are 0).
At i = j = k = l it reads
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

import operator
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, lru_cache, reduce

from .matrices import (
    UTMatrix,
    _mul_plan,
    _offset,
    ensure_positive_dimension,
    ensure_same_dimension,
    iter_positions,
    random_matrix,
    triangle_size,
)
from .semirings import Semiring, _Frozen, _is_index, _max, _min, _ranked, _read_index, seeded_trials

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
        """The row-major offsets of ``positions``, ascending."""
        return tuple(sorted([_offset(self.n, i, j) for i, j in self.positions]))

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
        return ZeroPattern._trusted(n=self.n, positions=self.positions & other.positions)

    def compose(self, other: ZeroPattern) -> "ZeroPattern":
        """Apply ``self`` then ``other``; the composed map zeroes the union."""
        ensure_same_dimension(self.n, other.n)
        return ZeroPattern._trusted(n=self.n, positions=self.positions | other.positions)

    def __le__(self, other: ZeroPattern) -> bool:
        """Natural order of idempotent addition: self <= other iff self + other = other."""
        ensure_same_dimension(self.n, other.n)
        return self.positions >= other.positions

    def interval_form(self) -> MaskDerivation | None:
        """The MaskDerivation with the same action, if one exists: the one
        zeroing this pattern's diagonal cells, built only if :meth:`_is_interval`."""
        diagonal = frozenset(i for i, j in self.positions if i == j)
        interval = self._is_interval(self.n, sum(1 << t for t in self._zeroed))
        return MaskDerivation._trusted(n=self.n, zero_set=diagonal) if interval else None

    def is_derivation(self) -> bool:
        """Local characterization of Leibniz for mask maps, the module's weight
        identity at 0/1: :meth:`_cell_obeys` at every cell."""
        zeroed = sum(1 << t for t in self._zeroed)
        return all(self._cell_obeys(zeroed, pairs) for pairs in _mul_plan(self.n))

    @staticmethod
    def _cell_obeys(zeroed: int, pairs: tuple[tuple[int, int], ...]) -> bool:
        """The rule at one cell (i, l), by its ``_mul_plan`` pairs and a pattern's
        bitmask of offsets: (i, l) is zeroed iff (i, k) and (k, l) are, each k."""
        own = zeroed >> pairs[0][1] & 1  # (i, l) is the second of the k = i pair
        for p, q in pairs:
            if zeroed >> p & zeroed >> q & 1 != own:
                return False
        return True

    @staticmethod
    def _is_interval(n: int, zeroed: int) -> bool:
        """Whether bitmask ``zeroed`` is its diagonal's mask (the interval rule, :mod:`.oracle`)."""
        for width in range(n, 1, -1):  # row i: n - i + 1 cells, bit k for (i, i+k)
            row, zeroed = zeroed & (1 << width) - 1, zeroed >> width
            if row >> 1 != row & zeroed & (1 << width - 1) - 1:  # (i, l) by (i, l-1), (i+1, l)
                return False
        return True


@lru_cache(maxsize=256)
def _mask_cells(zero_set: frozenset) -> frozenset:
    """The cells (r, c) with every index of r..c in ``zero_set``: they do not
    depend on n, so fresh ``delta_k``/``d_m`` objects of any order share them."""
    return frozenset(
        (r, c) for s, e in _runs(zero_set) for r in range(s, e + 1) for c in range(r, e + 1)
    )


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
        """The cells this mask zeroes, from the cache keyed by the zero set."""
        return _mask_cells(self.zero_set)

    def __add__(self, other: ZeroPattern) -> ZeroPattern:
        """Pointwise sum (an entry survives if either side keeps it): a mask if both are."""
        if not isinstance(other, MaskDerivation):
            return super().__add__(other)
        ensure_same_dimension(self.n, other.n)
        return MaskDerivation._trusted(n=self.n, zero_set=self.zero_set & other.zero_set)


def _check_mask_map(f: object, caller: str) -> None:
    """Raise TypeError, naming ``caller``, unless ``f`` is a mask map."""
    if not isinstance(f, ZeroPattern):
        raise TypeError(f"{caller} needs a mask map, got {type(f).__name__}")


# --- the two basic chains ------------------------------------------------------

def delta_k(n: int, k: int) -> MaskDerivation:
    """Keep the first k rows, zero the rest; k = n is the identity, k = 0 the zero map."""
    if not (_is_index(k) and 0 <= k <= n):
        raise ValueError(f"k={k!r} outside 0..{n}")
    ensure_positive_dimension(n)
    return MaskDerivation._trusted(n=n, zero_set=frozenset(range(k + 1, n + 1)))


def d_m(n: int, m: int) -> MaskDerivation:
    """Keep the last m columns, zero the rest; m = n is the identity, m = 0 the zero map."""
    if not (_is_index(m) and 0 <= m <= n):
        raise ValueError(f"m={m!r} outside 0..{n}")
    ensure_positive_dimension(n)
    return MaskDerivation._trusted(n=n, zero_set=frozenset(range(1, n - m + 1)))


def strip_diagonal(n: int) -> ZeroPattern:
    """Replace every diagonal entry by zero; the sum of all complementary products."""
    ensure_positive_dimension(n)
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

def map_zeroing(maps: list, n: int) -> list[int]:
    """Per cell, row-major: the bitset of the indices of ``maps`` that zero
    it, set offset by offset from each map's ``_zeroed`` (:func:`family_zeroing`
    and :func:`theorem2_zeroing` build it for their lists with no map).  A map
    that is not a mask map raises TypeError, one of another order MatrixMismatchError."""
    width = len(maps) // 8 + 1
    cells = [bytearray(width) for _ in range(triangle_size(n))]
    for index, fn in enumerate(maps):
        _check_mask_map(fn, "trial runner")
        ensure_same_dimension(fn.n, n)
        byte, bit = index >> 3, 1 << (index & 7)
        for t in fn._zeroed:
            cells[t][byte] |= bit
    return [int.from_bytes(cell, "little") for cell in cells]


def family_zeroing(n: int) -> list[int]:
    """``map_zeroing(enumerate_family_derivations(n), n)``, with no mask built.

    Mask m holds index t iff bit t - 1 of m is set, so D_t, the bitset of
    the masks holding t, is h clear bits then h set ones, h = 2^(t - 1),
    repeated across the 2^n masks.  A mask zeroes (r, c) iff it holds every
    index of r..c, so cell (r, c) is D_r & ... & D_c: one running AND per cell.
    """
    ensure_positive_dimension(n)
    everyone = (1 << (1 << n)) - 1
    held = [0]  # D_t at index t
    for t in range(1, n + 1):
        h = 1 << (t - 1)
        held.append((((1 << h) - 1) << h) * (everyone // ((1 << 2 * h) - 1)))
    zeroing, run = [], 0
    for r, c in iter_positions(n):
        run = held[c] if r == c else run & held[c]
        zeroing.append(run)
    return zeroing


def theorem2_zeroing(n: int) -> list[int]:
    """``map_zeroing`` of ``delta_k(n, k).compose(d_m(n, m))``, k then m = 1..n, with
    no pattern built: map (k - 1)·n + m - 1 zeroes (r, c) iff r > k or c <= n - m, so
    (r, c) ORs the low (r - 1)·n bits (k < r) and the low n - c bits of each k's block."""
    ensure_positive_dimension(n)
    first_bits = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit (k - 1)·n for each k
    return [(1 << (r - 1) * n) - 1 | ((1 << n - c) - 1) * first_bits for r, c in iter_positions(n)]


def _members(bits: int) -> Iterator[int]:
    """The indices of the set bits of ``bits``, lowest first."""
    digits = bin(bits)[:1:-1]
    index = digits.find("1")
    while index >= 0:
        yield index
        index = digits.find("1", index + 1)


def _fold_programs(zeroing: list[int], n: int, count: int) -> list[tuple[tuple, tuple]]:
    """Per cell (i, j), row-major: the ``count`` maps' folds as one program,
    (steps, groups).

    Step s is ``(parent, x, y)`` and makes ``vals[s + 1] = add(vals[parent],
    mul(ops[x], ops[y]))``, with ``ops = a + b + (zero,)`` and ``vals[0] =
    zero``.  The first L steps are the spine, AB's own fold in
    ``UTMatrix.__mul__``'s order, so ``vals[L]`` is AB's cell.  The row
    trie cuts the maps by whether they zero (i, k), for k = i..j in turn:
    each nonempty part is a node that folds pair k onto its parent part's
    value, reading a's operand as ``zero`` where the part zeroes (i, k), and
    a part that has zeroed nothing yet is the spine node.  The column trie
    cuts by (k, j) and reads b's operand as ``zero``.  A group ``(left,
    right, own, members)`` is a nonempty intersection of a row leaf and a
    column leaf: the nodes of its f(A)B and Af(B) cells, and whether its
    members zero (i, j).  Groups come in no particular order.
    """
    size, everyone = triangle_size(n), (1 << count) - 1
    programs = []
    for pairs in _mul_plan(n):
        steps = [(k, p, size + q) for k, (p, q) in enumerate(pairs)]
        leaves = []
        for side in (0, 1):  # the row trie, then the column trie
            parts = [(0, everyone)]  # (node, members)
            for k, (p, q) in enumerate(pairs):
                cut = zeroing[(p, q)[side]]
                masked = (2 * size, size + q) if side == 0 else (p, 2 * size)
                grown = []
                for node, part in parts:
                    kept, zeroed = part & ~cut, part & cut
                    if kept and node == k:  # nothing zeroed yet: the spine
                        grown.append((k + 1, kept))
                    elif kept:
                        steps.append((node, p, size + q))
                        grown.append((len(steps), kept))
                    if zeroed:
                        steps.append((node, *masked))
                        grown.append((len(steps), zeroed))
                parts = grown
            leaves.append(parts)
        own = zeroing[pairs[0][1]]  # (i, j) is the second of the k = i pair
        groups = [
            (left, right, members & own != 0, members)
            for left, row_part in leaves[0]
            for right, col_part in leaves[1]
            if (members := row_part & col_part)
        ]
        programs.append((tuple(steps), tuple(groups)))
    return programs


# first_failures' step loop per shipped (add, mul) pair, each call as its function's expression.
def _steps_max_plus(steps, ops, vals):
    for parent, x, y in steps:
        u, v = vals[parent], ops[x] + ops[y]
        vals.append(v if v > u else u)


def _steps_min_plus(steps, ops, vals):
    for parent, x, y in steps:
        u, v = vals[parent], ops[x] + ops[y]
        vals.append(v if v < u else u)


def _steps_max_min(steps, ops, vals):
    for parent, x, y in steps:
        u, p, q = vals[parent], ops[x], ops[y]
        v = q if q < p else p
        vals.append(v if v > u else u)


_STEP_LOOPS = ((_max, operator.add, _steps_max_plus), (_min, operator.add, _steps_min_plus),
               (_max, _min, _steps_max_min))


def first_failures(zeroing, count, n, semiring, trials, seed):
    """Each of ``count`` mask maps' first failing (trial, check-name,
    witness), else None, read from ``zeroing``: per cell, row-major, the
    bitset of the maps that zero it (:func:`map_zeroing` of a list of mask
    maps, :func:`family_zeroing` or :func:`theorem2_zeroing`).

    Trial t draws (A, B) from :func:`seeded_trials` once for all the maps;
    each map still unfailed is checked for Leibniz, then linearity, until all fail.

    A map's Leibniz verdict at cell (i, j) depends on the map only through
    the cells it zeroes in the row segment (i, i..j) and the column segment
    (i..j, j): f(AB)'s cell is zero or AB's by (i, j) itself, f(A)B's cell
    is the fold over the row segment and Af(B)'s over the column segment.
    Maps that zero the same first cells of a segment share that prefix of
    its fold.  So each cell gets one program per call
    (:func:`_fold_programs`): AB's fold, then a trie of the f(A)B prefixes
    and one of the Af(B) prefixes, each prefix one step on its parent's
    value, and the groups of maps with the same pair of leaves.  Each
    trial makes one operand tuple, walks the cells in row-major order,
    runs a cell's steps into one list of values and computes one verdict
    per group with a member still live; a differing group fails all its
    live members at that cell, the first difference the full matrices
    would show.  No map is seen, and f(A), f(B) and AB are never built.
    A trial still folds the prefixes only failed maps share, which is
    exact while the carrier's functions are pure.  Linearity needs two
    facts per trial: the cells where add(a, b) is not equal to itself,
    which fail the maps keeping them (f(A + B) and f(A) + f(B) both hold
    that one call's value there), and whether add(zero, zero) differs from
    zero, which fails the maps zeroing them.  Every compared value is
    computed by the same carrier calls on the same operand objects as
    f(AB), f(A)B + Af(B), f(A + B) and f(A) + f(B) would be, so every
    verdict and witness equals theirs, with no semiring axiom assumed.  The
    steps of a shipped (add, mul) pair, matched by identity, write each call
    as its function's expression (``_STEP_LOOPS``); other carriers run the
    generic loop, the reference.

    Over a max/min carrier each trial runs on int keys of its drawn
    entries (:func:`~trideriv.semirings._ranked`), and a witness's values
    are mapped back to the drawn ones through a key -> value dict built
    only when a map fails.
    """
    programs = _fold_programs(zeroing, n, count)
    plan, positions = _mul_plan(n), tuple(iter_positions(n))
    size = len(plan)
    add, mul = semiring.add, semiring.mul
    steps_of = next((loop for f, g, loop in _STEP_LOOPS if add is f and mul is g), None)
    failures = [None] * count
    unfailed = (1 << count) - 1
    for trial, rng in seeded_trials(trials, seed):
        if not unfailed:
            break
        a, b = random_matrix(n, semiring, rng), random_matrix(n, semiring, rng)
        drawn = a.entries + b.entries
        keys = _ranked(semiring, drawn)
        zero, entries = (semiring.zero, drawn) if keys is None else (keys[0], keys[2:])
        a_cells, b_cells = entries[:size], entries[size:]
        ops = entries + (zero,)

        def fail(hit: int, check: str, position: tuple[int, int], lhs: object, rhs: object) -> None:
            if keys is not None:
                values = dict(zip(keys, (semiring.zero, semiring.one, *drawn)))
                lhs, rhs = values[lhs], values[rhs]
            failure = trial, check, Witness(position, lhs, rhs)
            for index in _members(hit):
                failures[index] = failure

        live = unfailed
        for position, (steps, groups), pairs in zip(positions, programs, plan):
            vals = [zero]
            if steps_of is not None:
                steps_of(steps, ops, vals)
            else:  # the reference: the carrier's own calls
                for parent, x, y in steps:
                    vals.append(add(vals[parent], mul(ops[x], ops[y])))
            ab_cell = vals[len(pairs)]
            for left, right, own, members in groups:
                hit = members & live
                if not hit:
                    continue
                lhs, rhs = zero if own else ab_cell, add(vals[left], vals[right])
                if lhs != rhs:
                    live ^= hit
                    fail(hit, "leibniz", position, lhs, rhs)
            if not live:
                break

        # f(A + B) against f(A) + f(B): at a kept cell t both sides are
        # add(a_t, b_t), one call, unequal only to itself (a NaN); at a
        # zeroed one, zero against add(zero, zero).
        sums = tuple(map(add, a_cells, b_cells))
        zero_sum = add(zero, zero)
        zeroed_differ = zero_sum != zero
        for position, zeroed, y in zip(positions, zeroing, sums):
            if y != y and live & ~zeroed:  # cell by cell: a tuple != passes y is y
                fail(live & ~zeroed, "linearity", position, y, y)
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
    zero_sets = [frozenset()]
    for span in range(1, n):
        zero_sets += [frozenset(range(start, start + span)) for start in range(1, n - span + 2)]
    return [MaskDerivation._trusted(n=n, zero_set=z) for z in zero_sets]


def enumerate_family_derivations(n: int) -> list[MaskDerivation]:
    """One mask per subset of {1..n}, in binary-counter order (index i is bit
    i - 1); 2^n of them.  Doubling the list once per index keeps that order."""
    ensure_positive_dimension(n)
    zero_sets = [frozenset()]
    for i in range(1, n + 1):
        zero_sets += [z | {i} for z in zero_sets]
    return [MaskDerivation._trusted(n=n, zero_set=z) for z in zero_sets]


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

    def __init__(self, n: int, terms: tuple) -> None:
        ensure_positive_dimension(n)
        if not (isinstance(terms, tuple) and all(isinstance(t, DecompositionTerm) for t in terms)):
            raise TypeError(f"terms must be a tuple of DecompositionTerm, got {terms!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    def __call__(self, matrix: UTMatrix) -> UTMatrix:
        ensure_same_dimension(matrix.n, self.n)
        return pointwise_sum(*self.terms)(matrix)

    def acts_as(self, mask: MaskDerivation, semiring: Semiring) -> bool:
        """Whether ``self(J) == mask(J)``, J the all-``one`` matrix over
        ``semiring``, without building any term's image.

        On J each term writes ``one`` where it keeps a cell and ``zero``
        elsewhere: term (k, m) keeps rows <= k and columns >= n - m + 1, an
        omitted factor being delta_n or d_n.  So a cell of self(J) is the
        fold of ``add`` over the terms, in ``pointwise_sum``'s order, of
        ``one`` for the terms in the cell's key (the bitset of the terms
        keeping it) and ``zero`` for the rest; it is folded once per
        distinct key and compared with mask(J), which the mask's own apply
        loop (:meth:`ZeroPattern.__call__`) writes.
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
        keys = [rows[r] & cols[c] for r, c in iter_positions(n)]
        add, zero, one = semiring.add, semiring.zero, semiring.one
        terms = range(len(self.terms))
        folds = {
            key: reduce(add, [one if key >> index & 1 else zero for index in terms])
            for key in set(keys)
        }
        ones = UTMatrix._trusted(n, semiring, (one,) * triangle_size(n))
        return tuple([folds[key] for key in keys]) == mask(ones).entries

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
    return ",".join(map(str, sorted(zero_set)))


def parse_zero_set(text: str, n: int) -> frozenset:
    """Comma-separated 1-based diagonal indices; empty text is the empty set."""
    text = text.strip()
    if not text:
        return frozenset()
    indices = set()
    for token in text.split(","):
        i = _read_index(token, "zero-set index", token)
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
    positions, what = set(), "pattern position"
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad {what} {chunk!r} (expected i,j)")
        i, j = parts
        positions.add((_read_index(i, what, chunk), _read_index(j, what, chunk)))
    return ZeroPattern(n, frozenset(positions))
