"""Mask derivations: application, operator algebra, checks, enumeration,
and the rewriting into delta/d terms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_cli_bytes import NATURALS

from trideriv import (
    BOOLEAN,
    FUZZY,
    MAXPLUS,
    MINPLUS,
    MINUS_INF,
    DecompositionExpr,
    DecompositionTerm,
    MaskDerivation,
    MatrixMismatchError,
    UTMatrix,
    ZeroPattern,
    brute_force_classify,
    d_m,
    decompose,
    delta_k,
    diag_head,
    diag_tail,
    enumerate_family_derivations,
    enumerate_interval_derivations,
    format_pattern,
    format_zero_set,
    iter_positions,
    jordan,
    leibniz_check,
    linearity_check,
    parse_pattern,
    parse_zero_set,
    pointwise_sum,
    random_matrix,
    strip_diagonal,
    theorem2_predicate,
    triangle_size,
)
from trideriv.derivations import _fold_programs, _zeroing, first_difference, first_failures
from trideriv.matrices import _mul_plan, _offset

INSTANCES = [BOOLEAN, MAXPLUS, MINPLUS, FUZZY]


def distinct_maxplus(n):
    """A matrix whose stored entries are pairwise distinct (1, 2, 3, ...)."""
    return UTMatrix(n, MAXPLUS, tuple(range(1, triangle_size(n) + 1)))


# --- construction and application ------------------------------------------------

def test_delta_k_zero_sets():
    assert delta_k(3, 2).zero_set == frozenset({3})
    assert delta_k(3, 3).zero_set == frozenset()          # identity
    assert delta_k(3, 0).zero_set == frozenset({1, 2, 3})  # constant-zero map
    with pytest.raises(ValueError):
        delta_k(3, 4)
    with pytest.raises(ValueError):
        delta_k(3, -1)


def test_d_m_zero_sets():
    assert d_m(3, 1).zero_set == frozenset({1, 2})
    assert d_m(3, 3).zero_set == frozenset()
    assert d_m(3, 0).zero_set == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        d_m(3, 5)


def test_delta_k_keeps_first_rows():
    a = distinct_maxplus(3)
    result = delta_k(3, 2)(a)
    for i, j in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]:
        assert result[i, j] == a[i, j]
    assert result[3, 3] == MINUS_INF


def test_d_m_keeps_last_columns():
    a = distinct_maxplus(3)
    result = d_m(3, 1)(a)
    for i, j in [(1, 3), (2, 3), (3, 3)]:
        assert result[i, j] == a[i, j]
    for i, j in [(1, 1), (1, 2), (2, 2)]:
        assert result[i, j] == MINUS_INF


def test_apply_single_diagonal_zero():
    a = distinct_maxplus(3)
    result = MaskDerivation(3, {2})(a)
    assert result[2, 2] == MINUS_INF
    changed = [p for p in [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)] if result[p] != a[p]]
    assert changed == []


def test_apply_identity_and_zero_map():
    a = distinct_maxplus(3)
    assert MaskDerivation(3, frozenset())(a) == a
    assert MaskDerivation(3, {1, 2, 3})(a) == UTMatrix.zeros(3, MAXPLUS)


def test_apply_block_rule():
    # Z = {2, 3} zeroes the dense block on rows/columns 2..3 and nothing else.
    a = distinct_maxplus(4)
    result = MaskDerivation(4, {2, 3})(a)
    expected_zero = {(2, 2), (2, 3), (3, 3)}
    for i in range(1, 5):
        for j in range(i, 5):
            if (i, j) in expected_zero:
                assert result[i, j] == MINUS_INF
            else:
                assert result[i, j] == a[i, j]


def test_mask_dimension_mismatch():
    with pytest.raises(MatrixMismatchError):
        MaskDerivation(3, {1})(UTMatrix.identity(2, BOOLEAN))


def test_mask_validates_indices():
    with pytest.raises(ValueError):
        MaskDerivation(3, {0})
    with pytest.raises(ValueError):
        MaskDerivation(3, {4})
    with pytest.raises(ValueError):
        MaskDerivation(3, {True})


@pytest.mark.parametrize("position", [(1.7, 2.2), (1.0, 2), (True, 2), (1, False), ("1", 2)])
def test_pattern_rejects_non_int_positions(position):
    with pytest.raises(ValueError):
        ZeroPattern(3, {position})


@settings(max_examples=200)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, n)), st.integers(0, 2**32))
    ),
    st.sampled_from(INSTANCES),
)
def test_mask_application_matches_definition(case, semiring):
    n, zero_set, seed = case
    a = random_matrix(n, semiring, random.Random(seed))
    mask = MaskDerivation(n, zero_set)
    result = mask(a)
    for r, c in iter_positions(n):
        dies = all(t in zero_set for t in range(r, c + 1))
        assert result[r, c] == (semiring.zero if dies else a[r, c])
    assert ZeroPattern(n, mask.positions)(a) == result


def test_blocks_are_maximal_runs():
    assert MaskDerivation(6, {1, 2, 4, 6}).blocks == ((1, 2), (4, 4), (6, 6))
    assert MaskDerivation(3, frozenset()).blocks == ()
    for n in range(1, 9):
        for mask in enumerate_family_derivations(n):
            blocks = mask.blocks
            # Non-empty runs that tile the zero set in order, with a gap between any two.
            assert all(start <= end for start, end in blocks)
            assert [i for s, e in blocks for i in range(s, e + 1)] == sorted(mask.zero_set)
            assert all(end + 1 < start for (_, end), (start, _) in zip(blocks, blocks[1:]))


def reference_offsets(pattern):
    """The row-major offsets of the pattern's cells, by a scan of every position."""
    return tuple(t for t, p in enumerate(iter_positions(pattern.n)) if p in pattern.positions)


def test_zeroed_offsets_match_a_scan_of_the_positions():
    for n in range(1, 4):
        cells = list(iter_positions(n))
        for bits in range(1 << len(cells)):
            pattern = ZeroPattern(n, {p for t, p in enumerate(cells) if bits >> t & 1})
            assert pattern._zeroed == reference_offsets(pattern)
    for n in range(1, 9):
        for mask in enumerate_family_derivations(n):
            assert mask._zeroed == reference_offsets(mask)


def test_masks_of_one_zero_set_share_their_cells_across_dimensions():
    small, large = MaskDerivation(3, {1, 2}), MaskDerivation(6, {1, 2})
    assert small.positions is large.positions
    assert small._zeroed == (0, 1, 3) and large._zeroed == (0, 1, 6)


# --- agreement with the Jordan-product definition ---------------------------------

@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_delta_agrees_with_jordan_and_projection(semiring):
    rng = random.Random(29)
    for n in (1, 3, 5):
        for _ in range(10):
            a = random_matrix(n, semiring, rng)
            for k in range(1, n + 1):
                head = diag_head(n, k, semiring)
                assert delta_k(n, k)(a) == jordan(a, head) == head * a
            for m in range(1, n + 1):
                tail = diag_tail(n, m, semiring)
                assert d_m(n, m)(a) == jordan(a, tail) == a * tail


# --- operator sum, composition, order ----------------------------------------------

def test_sum_intersects_zero_sets():
    s = MaskDerivation(4, {2, 3}) + MaskDerivation(4, {3, 4})
    assert s.zero_set == frozenset({3})


def test_sum_is_pointwise_sum():
    rng = random.Random(31)
    for semiring in INSTANCES:
        a = random_matrix(4, semiring, rng)
        d1 = MaskDerivation(4, {1, 2})
        d2 = MaskDerivation(4, {2, 4})
        assert (d1 + d2)(a) == d1(a) + d2(a)


def test_mixed_sums_are_the_patterns_of_the_pointwise_sums():
    """pattern + mask and mask + pattern are the pattern zeroing what both
    sides zero, and act as pointwise_sum in the same order; mask + mask
    stays a mask."""
    n = 2
    positions = list(iter_positions(n))
    patterns = [ZeroPattern(n, {p for t, p in enumerate(positions) if bits >> t & 1})
                for bits in range(1 << len(positions))]
    masks = enumerate_family_derivations(n)
    rng = random.Random(41)
    samples = [random_matrix(n, semiring, rng) for semiring in INSTANCES for _ in range(8)]
    for p in patterns:
        for m in masks:
            for left, right in ((p, m), (m, p)):
                total = left + right
                assert type(total) is ZeroPattern
                assert total == ZeroPattern(n, p.positions & m.positions)
                for a in samples:
                    assert total(a) == pointwise_sum(left, right)(a)
    for m in masks:
        for other in masks:
            assert type(m + other) is MaskDerivation


def test_order_compares_masks_and_patterns_in_both_orders():
    """<= is the natural order of + on every pair of mask maps at n = 2,
    masks and plain patterns mixed either way round."""
    n = 2
    positions = list(iter_positions(n))
    patterns = [ZeroPattern(n, {p for t, p in enumerate(positions) if bits >> t & 1})
                for bits in range(1 << len(positions))]
    maps = patterns + enumerate_family_derivations(n)
    for left in maps:
        for right in maps:
            assert (left <= right) == ((left + right).positions == right.positions)
            assert (left <= right) == (right >= left)
    assert MaskDerivation(2, {1}) <= ZeroPattern(2, {(1, 1)})
    assert ZeroPattern(2, {(1, 1)}) >= MaskDerivation(2, {1})
    assert not ZeroPattern(2, {(1, 1)}) <= MaskDerivation(2, {1, 2})


def test_pointwise_sum_needs_a_map():
    with pytest.raises(ValueError, match=r"^need at least one map$"):
        pointwise_sum()


def test_delta_chain_sum_and_composition():
    n = 5
    for k in range(n + 1):
        for l in range(n + 1):
            assert delta_k(n, k) + delta_k(n, l) == delta_k(n, max(k, l))
            assert d_m(n, k) + d_m(n, l) == d_m(n, max(k, l))
            composed = delta_k(n, k).compose(delta_k(n, l))
            assert composed == ZeroPattern(n, delta_k(n, min(k, l)).positions)
            assert d_m(n, k).compose(d_m(n, l)) == ZeroPattern(n, d_m(n, min(k, l)).positions)


def test_compose_example_all_but_corner():
    composed = delta_k(3, 1).compose(d_m(3, 1))
    everything = {(i, j) for i in range(1, 4) for j in range(i, 4)}
    assert composed.positions == frozenset(everything - {(1, 3)})


def test_compose_complementary_keeps_top_right_block():
    composed = delta_k(4, 2).compose(d_m(4, 2))
    kept = {(i, j) for i in range(1, 5) for j in range(i, 5)} - set(composed.positions)
    assert kept == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_compose_agreement_with_sequential_application():
    rng = random.Random(37)
    for semiring in INSTANCES:
        a = random_matrix(4, semiring, rng)
        d1 = MaskDerivation(4, {1, 2})
        d2 = MaskDerivation(4, {2, 3, 4})
        assert d1.compose(d2)(a) == d2(d1(a))


def test_order_examples():
    assert delta_k(4, 1) <= delta_k(4, 2) + d_m(4, 1)
    assert d_m(4, 1) <= delta_k(4, 2) + d_m(4, 1)
    assert delta_k(5, 1) + d_m(5, 1) <= delta_k(5, 2) + d_m(5, 2)
    assert not delta_k(4, 2) <= delta_k(4, 1)


def test_order_matches_natural_order_of_sum():
    for z1, z2 in [({1, 2}, {2}), ({2}, {1, 2}), ({1}, {3}), (set(), {1})]:
        d1, d2 = MaskDerivation(3, z1), MaskDerivation(3, z2)
        assert (d1 <= d2) == (d1 + d2 == d2)


def masks_of(n):
    return st.frozensets(st.integers(1, n)).map(lambda zs: MaskDerivation(n, zs))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(masks_of(n), masks_of(n), masks_of(n))))
def test_mask_sum_and_order_form_a_join_semilattice(masks):
    a, b, c = masks
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + a == a
    assert (a <= b) == (a + b == b)
    assert (b >= a) == (a <= b)
    assert a <= a and a >= a
    if a <= b and b <= a:
        assert a == b
    if a <= b and b <= c:
        assert a <= c
    assert a <= a + b and b <= a + b
    if a <= c and b <= c:
        assert a + b <= c


def test_delta_chain_extremes():
    n = 4
    chain = [delta_k(n, k) for k in range(1, n + 1)]
    assert all(chain[0] <= d for d in chain)       # delta_1 is least
    assert all(d <= chain[-1] for d in chain)      # delta_n (identity) is greatest


# --- derivation predicate -----------------------------------------------------------

def test_interval_masks_are_derivation_patterns():
    for n in range(1, 6):
        for mask in enumerate_family_derivations(n):
            assert mask.is_derivation()
            assert ZeroPattern(n, mask.positions).is_derivation()


def test_a_mask_is_the_zero_pattern_of_its_zero_set():
    assert issubclass(MaskDerivation, ZeroPattern)
    assert not {"__call__", "compose", "pattern"} & set(vars(MaskDerivation))
    for n in range(1, 6):
        for mask in enumerate_family_derivations(n):
            form = mask.interval_form()
            assert form == mask and type(form) is MaskDerivation


def test_lone_offdiagonal_zero_is_not_a_derivation():
    assert not ZeroPattern(2, {(1, 2)}).is_derivation()


def test_pattern_application_extremes():
    a = distinct_maxplus(3)
    assert ZeroPattern(3, frozenset())(a) == a
    everything = frozenset((i, j) for i in range(1, 4) for j in range(i, 4))
    assert ZeroPattern(3, everything)(a) == UTMatrix.zeros(3, MAXPLUS)
    stripped = strip_diagonal(3)(a)
    assert all(stripped[i, i] == MINUS_INF for i in range(1, 4))
    assert stripped[1, 2] == a[1, 2]


def test_strip_diagonal_is_a_derivation():
    assert strip_diagonal(2).positions == frozenset({(1, 1), (2, 2)})
    for n in range(1, 7):
        assert strip_diagonal(n).is_derivation()


def test_theorem2_predicate_examples():
    assert theorem2_predicate(3, 1, 1) is False
    assert theorem2_predicate(3, 1, 2) is True
    assert theorem2_predicate(5, 5, 5) is True
    with pytest.raises(ValueError):
        theorem2_predicate(3, 0, 1)
    for n, k, m in [(3, True, 2), (3, 1.5, 2), (2.5, 1, 2)]:
        with pytest.raises(ValueError, match=rf"^\(k, m\)=\({k}, {m}\) outside 1\.\.{n}$"):
            theorem2_predicate(n, k, m)


def test_theorem2_predicate_matches_pattern_condition():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                pattern = delta_k(n, k).compose(d_m(n, m))
                assert pattern.is_derivation() == theorem2_predicate(n, k, m)


# --- Leibniz and linearity checks ---------------------------------------------------

@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_mask_derivations_satisfy_leibniz(semiring):
    rng = random.Random(41)
    for n in (1, 2, 4):
        for mask in enumerate_family_derivations(n):
            for _ in range(5):
                a = random_matrix(n, semiring, rng)
                b = random_matrix(n, semiring, rng)
                assert leibniz_check(mask, a, b) is None
                assert linearity_check(mask, a, b) is None


def test_leibniz_witness_for_composed_corner_map():
    ones = {p: 0 for p in [(i, j) for i in range(1, 4) for j in range(i, 4)]}
    a = UTMatrix.from_dict(3, MAXPLUS, {**ones, (1, 2): 5})
    b = UTMatrix.from_dict(3, MAXPLUS, {**ones, (2, 3): 5})
    witness = leibniz_check(delta_k(3, 1).compose(d_m(3, 1)), a, b)
    assert witness is not None
    assert witness.position == (1, 3)
    assert witness.lhs == 10
    assert witness.rhs == 0


def test_identity_mask_trivially_passes():
    rng = random.Random(43)
    a = random_matrix(3, MAXPLUS, rng)
    b = random_matrix(3, MAXPLUS, rng)
    assert leibniz_check(MaskDerivation(3, frozenset()), a, b) is None


def test_linearity_of_masks_and_patterns():
    rng = random.Random(47)
    a = random_matrix(4, MAXPLUS, rng)
    b = random_matrix(4, MAXPLUS, rng)
    assert linearity_check(MaskDerivation(4, {1, 4}), a, b) is None
    assert linearity_check(MaskDerivation(4, {1, 2, 3, 4}), a, b) is None
    assert linearity_check(strip_diagonal(4), a, b) is None


# --- the trial runner's set-up -------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_trial_runner_zeroing_from_diagonal_bitsets(n):
    # Masks go through running ANDs of diagonal bitsets, patterns offset by
    # offset; in a mixed list both must give each cell the maps zeroing it.
    patterns = [delta_k(n, k).compose(d_m(n, m)) for k in range(n + 1) for m in range(n + 1)]
    maps = [x for pair in zip(enumerate_family_derivations(n), patterns) for x in pair]
    zeroed = [  # a mask kills (r, c) iff all of r..c is in its zero set
        {(r, c) for r, c in iter_positions(n) if all(x in fn.zero_set for x in range(r, c + 1))}
        if isinstance(fn, MaskDerivation) else fn.positions
        for fn in maps
    ]
    assert _zeroing(maps, n) == [
        sum(1 << index for index, cells in enumerate(zeroed) if position in cells)
        for position in iter_positions(n)
    ]


def test_trial_runner_checks_each_masks_dimension():
    with pytest.raises(MatrixMismatchError, match="^dimension mismatch: 2 vs 3$"):
        first_failures([delta_k(3, 1), MaskDerivation(2, {1})], 3, MAXPLUS, 1, 0)


def program_chain(steps, node):
    """The ``(x, y)`` operand indices folded into ``node``, from the first pair on."""
    chain = []
    while node:
        parent, x, y = steps[node - 1]
        chain.append((x, y))
        node = parent
    return chain[::-1]


def segment_patterns(n):
    """For every cell (i, j), one pattern per subset of its row segment and one
    per subset of its column segment, so every trie key occurs at every cell."""
    for i, j in iter_positions(n):
        for bits in range(1 << (j - i + 1)):
            ks = [i + x for x in range(j - i + 1) if bits >> x & 1]
            yield ZeroPattern(n, {(i, k) for k in ks})
            yield ZeroPattern(n, {(k, j) for k in ks})


@pytest.mark.parametrize("n", range(1, 6))
def test_fold_program_nodes_are_product_cells_with_keyed_operands_zeroed(n):
    # mul is not commutative and its zero absorbs nothing, and add is neither
    # idempotent nor commutative, so a swapped side, order, operand or parent
    # changes the value.
    carrier = MAXPLUS._replace(
        zero=Fraction(1, 2), add=lambda u, v: u + 3 * v, mul=lambda u, v: 2 * u + v
    )
    size = triangle_size(n)
    a, b = tuple(range(1, size + 1)), tuple(range(size + 1, 2 * size + 1))
    ops, zero_at = a + b + (carrier.zero,), 2 * size
    maps = list(segment_patterns(n))
    programs = _fold_programs(_zeroing(maps, n), n, len(maps))
    checked = 0
    for (i, j), (steps, _), pairs in zip(iter_positions(n), programs, _mul_plan(n)):
        vals = [carrier.zero]
        for parent, x, y in steps:
            vals.append(carrier.add(vals[parent], carrier.mul(ops[x], ops[y])))
        assert [program_chain(steps, k + 1)[-1] for k in range(len(pairs))] == [
            (p, size + q) for p, q in pairs  # the spine: AB's own fold
        ]
        for node in range(1, len(steps) + 1):
            chain = program_chain(steps, node)
            # A node that folds d pairs is cell (i, l), l = i + d - 1, of the
            # product whose column l reads column j over rows i..l.
            l = i + len(chain) - 1
            a_read, b_read = list(a), list(b)
            for (p, q), (x, y) in zip(pairs, chain):
                if x == zero_at:
                    a_read[p] = carrier.zero
                if y == zero_at:
                    b_read[q] = carrier.zero
            for k in range(i, l + 1):
                b_read[_offset(n, k, l)] = b_read[_offset(n, k, j)]
            product = UTMatrix(n, carrier, tuple(a_read)) * UTMatrix(n, carrier, tuple(b_read))
            want, got = product[i, l], vals[node]
            assert (got, type(got)) == (want, type(want)), ((i, j), node)
            checked += 1
    # Every key of every prefix has its own node: a cell of width L has
    # 2^(L+1) - 2 prefixes per side, and the L unmasked ones are the shared spine.
    assert checked == sum(
        2 * (2 ** (j - i + 2) - 2) - (j - i + 1) for i, j in iter_positions(n)
    )


# --- enumeration ---------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 6), (4, 10)])
def test_interval_enumeration_count(n, count):
    masks = enumerate_interval_derivations(n)
    assert len(masks) == count == n * (n + 1) // 2
    assert len(set(masks)) == count


def test_interval_enumeration_members():
    zero_sets = {m.zero_set for m in enumerate_interval_derivations(2)}
    assert zero_sets == {frozenset(), frozenset({1}), frozenset({2})}
    # the full-span zero map is excluded here but present among the families
    assert frozenset({1, 2}) in {m.zero_set for m in enumerate_family_derivations(2)}


def test_interval_enumeration_zero_sets_are_intervals():
    for mask in enumerate_interval_derivations(6):
        assert len(mask.blocks) <= 1


@pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 8)])
def test_family_enumeration_count(n, count):
    masks = enumerate_family_derivations(n)
    assert len(masks) == count == 2 ** n
    assert len({m.zero_set for m in masks}) == count


def test_family_enumeration_small_members():
    assert [m.zero_set for m in enumerate_family_derivations(2)] == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]


# --- trusted construction: each library-built map equals its checked rebuild ------------

def same_object(got, want):
    """Same class and the same ``__dict__``, value types included (a set equals
    a frozenset): the fields, and no cached value on either side."""
    fields = vars(want)
    return (
        type(got) is type(want)
        and vars(got) == fields
        and all(type(value) is type(fields[name]) for name, value in vars(got).items())
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerations_equal_the_checked_masks_in_order(n):
    families = [
        MaskDerivation(n, {i + 1 for i in range(n) if bits >> i & 1}) for bits in range(1 << n)
    ]
    intervals = [MaskDerivation(n, set())] + [
        MaskDerivation(n, set(range(start, start + span)))
        for span in range(1, n)
        for start in range(1, n - span + 2)
    ]
    for got, want in ((enumerate_family_derivations(n), families),
                      (enumerate_interval_derivations(n), intervals)):
        assert len(got) == len(want)
        assert all(map(same_object, got, want))


@pytest.mark.parametrize("n", range(1, 6))
def test_library_built_masks_and_patterns_equal_their_checked_rebuilds(n):
    deltas = [delta_k(n, k) for k in range(n + 1)]
    ds = [d_m(n, m) for m in range(n + 1)]
    for k, mask in enumerate(deltas):
        assert same_object(mask, MaskDerivation(n, set(range(k + 1, n + 1))))
    for m, mask in enumerate(ds):
        assert same_object(mask, MaskDerivation(n, set(range(1, n - m + 1))))
    for left in deltas:
        for right in ds:
            assert same_object(left + right, MaskDerivation(n, left.zero_set & right.zero_set))
            composed = left.compose(right)
            assert same_object(composed, ZeroPattern(n, left.positions | right.positions))
            pattern = ZeroPattern(n, right.positions)
            assert same_object(composed + pattern, ZeroPattern(n, composed.positions & pattern.positions))
            assert same_object(left + pattern, ZeroPattern(n, left.positions & pattern.positions))
            diagonal = {i for i in range(1, n + 1) if (i, i) in composed.positions}
            rebuilt = MaskDerivation(n, diagonal)
            form = composed.interval_form()
            if rebuilt.positions == composed.positions:  # caches positions on rebuilt only
                assert same_object(form, MaskDerivation(n, diagonal))
                assert form.positions == composed.positions
            else:
                assert form is None


def test_public_constructors_and_parsers_still_refuse_bad_input():
    with pytest.raises(ValueError, match=r"^zero set \[4\] outside 1..3$"):
        MaskDerivation(3, {4})
    with pytest.raises(ValueError, match=r"^position \(2, 1\) not upper-triangular in 1..2$"):
        ZeroPattern(2, {(2, 1)})
    with pytest.raises(ValueError, match=r"^k=4 outside 0..3$"):
        delta_k(3, 4)
    with pytest.raises(ValueError, match=r"^m=4 outside 0..3$"):
        d_m(3, 4)
    for build in (delta_k, d_m):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1$"):
            build(0, 0)
    with pytest.raises(ValueError, match=r"^zero-set index 4 outside 1..3$"):
        parse_zero_set("1,4", 3)
    with pytest.raises(ValueError, match=r"^position \(2, 1\) not upper-triangular in 1..2$"):
        parse_pattern("1,1;2,1", 2)
    for terms in (("x",), [DecompositionTerm(k=1)], DecompositionTerm(k=1)):
        with pytest.raises(TypeError, match="^terms must be a tuple of DecompositionTerm"):
            DecompositionExpr(3, terms)


# --- strip diagonal as the sum of complementary products ----------------------------

def test_strip_diagonal_equals_sum_of_complementary_products():
    for n in range(2, 9):
        patterns = [delta_k(n, k).compose(d_m(n, n - k)) for k in range(1, n)]
        total = patterns[0]
        for p in patterns[1:]:
            total = total + p
        assert total == strip_diagonal(n)


def test_strip_diagonal_pointwise_on_matrices():
    rng = random.Random(53)
    for n in (2, 4, 6):
        maps = [delta_k(n, k).compose(d_m(n, n - k)) for k in range(1, n)]
        combined = pointwise_sum(*maps)
        for _ in range(20):
            a = random_matrix(n, MAXPLUS, rng)
            assert combined(a) == strip_diagonal(n)(a)


def test_strip_diagonal_kills_diagonal_matrices():
    a = UTMatrix.from_dict(2, MAXPLUS, {(1, 1): 7, (2, 2): 9})
    assert strip_diagonal(2)(a) == UTMatrix.zeros(2, MAXPLUS)


# --- decomposition -------------------------------------------------------------------

def test_decompose_gap_block():
    assert decompose(MaskDerivation(3, {2})) == DecompositionExpr(
        3, (DecompositionTerm(k=1), DecompositionTerm(m=1))
    )


def test_decompose_two_blocks():
    assert decompose(MaskDerivation(4, {1, 2, 4})) == DecompositionExpr(
        4, (DecompositionTerm(k=3, m=2),)
    )


def test_decompose_full_cover_is_zero_map_term():
    assert decompose(MaskDerivation(3, {1, 2, 3})) == DecompositionExpr(
        3, (DecompositionTerm(k=3, m=0),)
    )


def test_decompose_identity():
    expr = decompose(MaskDerivation(3, frozenset()))
    assert expr == DecompositionExpr(3, (DecompositionTerm(k=3),))
    a = distinct_maxplus(3)
    assert expr(a) == a


def test_decompose_rendering():
    assert str(decompose(MaskDerivation(3, {2}))) == "δ1 + d1"
    assert decompose(MaskDerivation(3, {2})).ascii() == "delta1 + d1"
    assert decompose(MaskDerivation(4, {1, 2, 4})).ascii() == "delta3*d2"


def test_decompose_exact_on_indicator_matrices():
    # Mask maps act entrywise, so the all-ones boolean matrix determines them.
    for n in range(1, 7):
        ones = UTMatrix(n, BOOLEAN, (1,) * triangle_size(n))
        for mask in enumerate_family_derivations(n):
            assert decompose(mask)(ones) == mask(ones)


def test_decompose_matches_mask_on_random_matrices():
    rng = random.Random(59)
    for n in (2, 5, 8):
        for _ in range(40):
            zero_set = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
            mask = MaskDerivation(n, zero_set)
            expr = decompose(mask)
            a = random_matrix(n, MAXPLUS, rng)
            assert expr(a) == mask(a)


def near_expressions(expr):
    """``expr``, and each spelling with one factor index moved by one."""
    yield expr
    for index, term in enumerate(expr.terms):
        for field in ("k", "m"):
            value = getattr(term, field)
            for moved in (() if value is None else (value - 1, value + 1)):
                if 0 <= moved <= expr.n:
                    terms = list(expr.terms)
                    terms[index] = term._replace(**{field: moved})
                    yield expr._replace(terms=tuple(terms))


@pytest.mark.parametrize("semiring", [*INSTANCES, NATURALS], ids=lambda s: s.name)
def test_acts_as_compares_on_the_all_one_matrix(semiring):
    verdicts = set()
    for n in range(1, 8):
        ones = UTMatrix(n, semiring, (semiring.one,) * triangle_size(n))
        for mask in enumerate_family_derivations(n):
            for expr in near_expressions(decompose(mask)):
                verdict = expr.acts_as(mask, semiring)
                assert verdict == (expr(ones) == mask(ones))
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_acts_as_rejects_what_evaluation_rejects():
    mask = MaskDerivation(3, {2})
    with pytest.raises(ValueError, match="outside 0..3"):
        DecompositionExpr(3, (DecompositionTerm(k=4),)).acts_as(mask, BOOLEAN)
    with pytest.raises(ValueError, match="at least one"):
        DecompositionExpr(3, ()).acts_as(mask, BOOLEAN)
    with pytest.raises(MatrixMismatchError):
        decompose(mask).acts_as(MaskDerivation(4, {2}), BOOLEAN)


def test_acts_as_applies_the_mask_once_through_the_one_apply_loop(monkeypatch):
    applied = []
    apply = ZeroPattern.__call__

    def counted(self, matrix):
        applied.append((self, matrix))
        return apply(self, matrix)

    monkeypatch.setattr(ZeroPattern, "__call__", counted)
    mask = MaskDerivation(4, {2, 3})
    assert decompose(mask).acts_as(mask, MAXPLUS)
    assert [(f, m.entries) for f, m in applied] == [(mask, (MAXPLUS.one,) * triangle_size(4))]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, n)), st.integers(0, 2**32))
    ),
    st.sampled_from(INSTANCES),
)
def test_decompose_property(case, semiring):
    n, zero_set, seed = case
    mask = MaskDerivation(n, zero_set)
    a = random_matrix(n, semiring, random.Random(seed))
    assert decompose(mask)(a) == mask(a)


def test_decomposition_term_validation():
    with pytest.raises(ValueError):
        DecompositionTerm()
    with pytest.raises(ValueError):
        DecompositionTerm(k=-1)


# --- text syntaxes -------------------------------------------------------------------

def test_zero_set_syntax():
    assert parse_zero_set("2,3,5", 6) == frozenset({2, 3, 5})
    assert parse_zero_set("", 4) == frozenset()
    assert format_zero_set(frozenset({5, 2, 3})) == "2,3,5"
    with pytest.raises(ValueError):
        parse_zero_set("0", 4)
    with pytest.raises(ValueError):
        parse_zero_set("2,x", 4)


def test_pattern_syntax():
    pattern = parse_pattern("1,1;2,2", 3)
    assert pattern == ZeroPattern(3, {(1, 1), (2, 2)})
    assert format_pattern(pattern) == "1,1;2,2"
    assert parse_pattern("", 3) == ZeroPattern(3, frozenset())
    with pytest.raises(ValueError):
        parse_pattern("2,1", 3)  # below the diagonal
    with pytest.raises(ValueError):
        parse_pattern("1;2", 3)


def test_pattern_syntax_rejects_a_non_integer_coordinate():
    with pytest.raises(ValueError, match=r"^bad pattern position '1,x'$"):
        parse_pattern("1,x", 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, n)))))
def test_zero_set_text_roundtrip(case):
    n, zero_set = case
    assert parse_zero_set(format_zero_set(zero_set), n) == zero_set


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.frozensets(st.sampled_from(list(iter_positions(n)))))
    )
)
def test_pattern_text_roundtrip(case):
    n, positions = case
    pattern = ZeroPattern(n, positions)
    assert parse_pattern(format_pattern(pattern), n) == pattern


@pytest.mark.parametrize(
    "site",
    [
        lambda: distinct_maxplus(2) + distinct_maxplus(3),
        lambda: MaskDerivation(2, {1})(distinct_maxplus(3)),
        lambda: first_difference(distinct_maxplus(2), distinct_maxplus(3)),
        lambda: decompose(MaskDerivation(2, {1}))(distinct_maxplus(3)),
        lambda: MaskDerivation(2, {1}) + MaskDerivation(3, {1}),
        lambda: ZeroPattern(2, {(1, 1)}) + ZeroPattern(3, {(1, 1)}),
    ],
    ids=["matrix-sum", "mask-apply", "compare", "decomposition", "mask-sum", "pattern-sum"],
)
def test_every_dimension_check_reports_alike(site):
    with pytest.raises(MatrixMismatchError, match=r"^dimension mismatch: (2 vs 3|3 vs 2)$"):
        site()


@pytest.mark.parametrize("n", [0, -2, True, 2.5])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: UTMatrix(n, MAXPLUS, ()),
        lambda n: MaskDerivation(n, frozenset()),
        lambda n: ZeroPattern(n, frozenset()),
        enumerate_interval_derivations,
        enumerate_family_derivations,
        brute_force_classify,
        lambda n: random_matrix(n, BOOLEAN, random.Random(0)),
        lambda n: DecompositionExpr(n, (DecompositionTerm(k=1),)),
        strip_diagonal,
        iter_positions,  # at the call, not at the first next()
        triangle_size,
    ],
    ids=[
        "matrix", "mask", "pattern", "intervals", "families", "oracle",
        "random-matrix", "decomposition", "strip-diagonal", "positions", "triangle-size",
    ],
)
def test_every_dimension_positivity_check_reports_alike(build, n):
    with pytest.raises(ValueError, match=r"^dimension must be >= 1$") as caught:
        build(n)
    assert type(caught.value) is ValueError


def test_a_bool_dimension_is_refused_past_a_cache_and_an_index_check():
    """``oracle._cells``, the engine's per-n memo, holds n = 1, but
    ``brute_force_classify`` runs the dimension rule before it, and
    ``delta_k``'s range check reads True as 1: the dimension rule refuses
    True in each."""
    brute_force_classify(1)
    for build in (brute_force_classify, lambda n: delta_k(n, 1), strip_diagonal):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1$"):
            build(True)
