"""Every derivation acts entrywise: the weighted local rule on all four
carriers, and a search over all additive maps at tiny dimensions.

The ``derivations`` module docstring carries the proof.  These tests check
its two conclusions without it: weight maps obey Leibniz exactly when their
weights satisfy u(i,l) = u(i,k) ⊕ u(k,l), and a search over every additive
map of UT_n finds only entrywise maps among the derivations.  A last
section checks the Jordan rule f(A∘B) = f(A)∘B ⊕ A∘f(B) on zero patterns
and in the same search, counts the additive maps that obey the square form
f(A²) = f(A)A ⊕ Af(A), and pins one of them that is not a derivation.
The last shows that the Jordan theorem needs a commutative carrier.
"""

import itertools
import operator
import random
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings, strategies as st

from trideriv import (
    BOOLEAN,
    FUZZY,
    MAXPLUS,
    MINPLUS,
    UTMatrix,
    Semiring,
    ZeroPattern,
    brute_force_classify,
    check_axioms,
    enumerate_matrices,
    iter_positions,
    jordan,
    leibniz_check,
    linearity_check,
    matrix_bits,
    matrix_unit,
    random_matrix,
    triangle_size,
)
from trideriv.derivations import Witness

INSTANCES = [BOOLEAN, MAXPLUS, MINPLUS, FUZZY]


# --- weight maps ---------------------------------------------------------------------

def weight_map(n, u, semiring):
    """The map A -> (a_ij ⊗ u_ij) on UT_n, for weights ``u`` keyed by position."""
    weights = [u[p] for p in iter_positions(n)]
    mul = semiring.mul
    return lambda a: UTMatrix._trusted(n, semiring, tuple(map(mul, a.entries, weights)))


def word_weights(n, semiring, rng):
    """Weights from a drawn diagonal d and superdiagonal s with s_i ≥ d_i ⊕ d_{i+1}:
    u(i,i) = d_i and u(i,l) = s_i ⊕ ... ⊕ s_{l-1}."""
    add, sample = semiring.add, semiring.sample
    d = [sample(rng) for _ in range(n)]
    s = [add(add(d[i], d[i + 1]), sample(rng)) for i in range(n - 1)]
    return {
        (i, l): d[i - 1] if i == l else reduce(add, s[i - 1 : l - 1])
        for i, l in iter_positions(n)
    }


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INSTANCES), st.integers(1, 6), st.integers(0, 2**32))
def test_weight_maps_follow_the_local_rule_on_every_carrier(semiring, n, seed):
    rng = random.Random(seed)
    add = semiring.add
    u = word_weights(n, semiring, rng)
    assert all(
        u[i, l] == add(u[i, k], u[k, l]) for i, l in iter_positions(n) for k in range(i, l + 1)
    )
    f = weight_map(n, u, semiring)
    for _ in range(3):
        a, b = random_matrix(n, semiring, rng), random_matrix(n, semiring, rng)
        assert leibniz_check(f, a, b) is None
        assert linearity_check(f, a, b) is None
    if n == 1:
        return
    # Break the identity at one (i, k, l): the pair (E_ik, E_kl) must show it at (i, l).
    i, l = sorted(rng.sample(range(1, n + 1), 2))
    k = rng.randint(i, l)
    for wrong in (semiring.sample(rng), semiring.zero, semiring.one):
        w = {**u, (i, l): wrong}
        target = add(w[i, k], w[k, l])  # k = i or l reads the replaced weight too
        if wrong != target:
            break
    else:  # k = i (or l) with u(k,k) = zero: every u(i,l) keeps the identity
        return
    pair = matrix_unit(n, i, k, semiring), matrix_unit(n, k, l, semiring)
    witness = leibniz_check(weight_map(n, w, semiring), *pair)
    assert witness is not None
    assert (witness.position, witness.lhs, witness.rhs) == ((i, l), wrong, target)


# --- every additive map ----------------------------------------------------------------

def generators(n, semiring, scalars):
    """The generators λE_ij (λ a nonzero scalar) as ((i, j), λ) keys, diagonal
    positions first and λ ascending, with their matrices."""
    positions = sorted(iter_positions(n), key=lambda p: p[0] != p[1])
    keys = [(p, lam) for p in positions for lam in scalars[1:]]
    return keys, [UTMatrix.from_dict(n, semiring, {p: lam}) for p, lam in keys]


def all_matrices(n, semiring, scalars):
    """Every matrix of UT_n with entries in ``scalars``."""
    cells = itertools.product(scalars, repeat=triangle_size(n))
    return [UTMatrix(n, semiring, c) for c in cells]


def additive_map(n, semiring, keys, images):
    """The additive map with f(0) = 0 sending the generator ``keys[t]`` to
    ``images[t]``: f(A) is the sum of the images of A's nonzero entries."""
    index = {key: t for t, key in enumerate(keys)}
    zero = UTMatrix.zeros(n, semiring)
    return lambda a: sum(
        (images[index[p, a[p]]] for p in iter_positions(n) if a[p] != semiring.zero), zero
    )


def derivations_by_search(n, semiring, scalars, op=operator.mul):
    """Every derivation of UT_n over the chain ``scalars`` (ascending from
    ``zero``, closed under add and mul) for the product ``op``, as its tuple
    of generator images; ``op=None`` prunes nothing and gives every
    additive map.

    An additive map with f(0) = 0 (Leibniz at A = B = 0 forces it) is fixed
    by its images of the generators λE_ij, monotone in λ, and every such
    choice extends additively, since A = ⊕ a_ij E_ij.  The search draws each
    image from all of UT_n, diagonal generators first (E_ij = E_ii·E_ij·E_jj),
    and prunes by the rule f(op(A, B)) = op(f(A), B) ⊕ op(A, f(B)) on a
    generator pair once the images of both factors and of each generator in
    op(A, B) are set.  A pruning condition is necessary, never sufficient,
    so each caller confirms what survives on its own.
    """
    keys, units = generators(n, semiring, scalars)
    index = {key: t for t, key in enumerate(keys)}
    zero = UTMatrix.zeros(n, semiring)
    candidates = all_matrices(n, semiring, scalars)
    smaller = [  # per generator t = μE: the generators λE with λ < μ
        [index[p, x] for x in scalars[1:] if x < lam] for p, lam in keys
    ]
    rules = [[] for _ in keys]  # per generator t: pairs (s, r, terms of op) decided at t
    for s, r in itertools.product(range(len(keys)), repeat=2) if op else ():
        product = op(units[s], units[r])
        terms = [index[p, product[p]] for p in iter_positions(n) if product[p] != scalars[0]]
        rules[max(s, r, *terms)].append((s, r, terms))

    found = []

    def extend(images):
        t = len(images)
        if t == len(keys):
            found.append(tuple(images))
            return
        for image in candidates:
            images.append(image)
            if all(images[x] + image == image for x in smaller[t]) and all(
                sum((images[p] for p in terms), zero)
                == op(images[s], units[r]) + op(units[s], images[r])
                for s, r, terms in rules[t]
            ):
                extend(images)
            images.pop()

    extend([])
    return found


def test_boolean_derivations_are_the_zero_pattern_maps():
    """2, 5 and 13 derivations of UT_n(B) for n = 1..3, each the map of one of
    the oracle's derivation patterns, which the oracle confirmed on all pairs."""
    for n, count in ((1, 2), (2, 5), (3, 13)):
        _, units = generators(n, BOOLEAN, (0, 1))
        found = derivations_by_search(n, BOOLEAN, (0, 1))
        patterns = brute_force_classify(n).derivation_patterns
        assert len(found) == len(set(found)) == count
        assert set(found) == {tuple(map(p, units)) for p in patterns}


def test_chain_derivations_are_entrywise_weight_maps():
    """UT_2 over the sub-chain {0, 1/2, 1} of FUZZY: 14 derivations, exactly the
    maps a ↦ a ∧ u_ij with u_12 ≥ u_11 ∨ u_22, each confirmed on all 729 pairs."""
    chain = (Fraction(0), Fraction(1, 2), Fraction(1))
    keys, _ = generators(2, FUZZY, chain)
    found = derivations_by_search(2, FUZZY, chain)
    weights = [
        dict(zip(iter_positions(2), w))
        for w in itertools.product(chain, repeat=3)
        if w[1] >= max(w[0], w[2])  # row-major: u_11, u_12, u_22
    ]
    expected = {
        tuple(UTMatrix.from_dict(2, FUZZY, {p: min(lam, u[p])}) for p, lam in keys)
        for u in weights
    }
    assert len(found) == len(set(found)) == len(expected) == 14
    assert set(found) == expected
    everything = [UTMatrix(2, FUZZY, c) for c in itertools.product(chain, repeat=3)]
    for u in weights:
        f = weight_map(2, u, FUZZY)
        for a in everything:
            for b in everything:
                assert leibniz_check(f, a, b) is None
                assert linearity_check(f, a, b) is None


# --- the Jordan rule ---------------------------------------------------------------------

def test_jordan_rule_selects_the_derivation_patterns():
    """Over all boolean pairs, the zero patterns f with f(A∘B) = f(A)∘B ⊕ A∘f(B),
    A∘B = AB ⊕ BA, are exactly the derivation ones: 2, 5 and 13 for n = 1..3.
    Matrices are the oracle's bitmask indices, so f(X) is ``X & keep``."""
    for n, count in ((1, 2), (2, 5), (3, 13)):
        mats = list(enumerate_matrices(n))
        product = [[matrix_bits(a * b) for b in mats] for a in mats]
        size = len(mats)
        circ = [[ab | product[b][a] for b, ab in enumerate(row)] for a, row in enumerate(product)]
        for a, row in enumerate(circ):
            assert row == [matrix_bits(jordan(mats[a], m)) for m in mats]
        positions = list(iter_positions(n))
        obeying, derivations = set(), set()
        for bits in range(size):  # one zero pattern per bitmask of its cells
            keep = ~bits & (size - 1)
            if all(
                circ_ab & keep == circ[a & keep][b] | circ[a][b & keep]
                for a, row in enumerate(circ)
                for b, circ_ab in enumerate(row)
            ):
                obeying.add(bits)
            pattern = ZeroPattern(n, {p for t, p in enumerate(positions) if bits >> t & 1})
            if pattern.is_derivation():
                derivations.add(bits)
        assert obeying == derivations
        assert len(obeying) == count


def test_jordan_pruning_finds_exactly_the_derivations():
    """Pruning by the Jordan rule on generator pairs, which suffices since ∘ is
    bi-additive, keeps exactly the maps the Leibniz search keeps: 2, 5 and 13
    for UT_n(B), n = 1..3, and 14 for UT_2 over {0, 1/2, 1}.  Over B they are
    the maps of the oracle's derivation patterns, which obey the Jordan rule
    on all pairs (``test_jordan_rule_selects_the_derivation_patterns``);
    over the chain each survivor is checked on all pairs here."""
    for n, count in ((1, 2), (2, 5), (3, 13)):
        _, units = generators(n, BOOLEAN, (0, 1))
        found = derivations_by_search(n, BOOLEAN, (0, 1), jordan)
        patterns = brute_force_classify(n).derivation_patterns
        assert len(found) == len(set(found)) == count
        assert set(found) == set(derivations_by_search(n, BOOLEAN, (0, 1)))
        assert set(found) == {tuple(map(p, units)) for p in patterns}
    chain = (Fraction(0), Fraction(1, 2), Fraction(1))
    found = derivations_by_search(2, FUZZY, chain, jordan)
    assert len(found) == len(set(found)) == 14
    assert set(found) == set(derivations_by_search(2, FUZZY, chain))
    keys, _ = generators(2, FUZZY, chain)
    everything = all_matrices(2, FUZZY, chain)
    # The rule is symmetric in A and B, as ∘ is commutative.
    circ = {(a, b): jordan(a, b) for a, b in itertools.combinations_with_replacement(everything, 2)}
    for images in found:
        f = dict(zip(everything, map(additive_map(2, FUZZY, keys, images), everything)))
        assert all(f[ab] == jordan(f[a], b) + jordan(a, f[b]) for (a, b), ab in circ.items())


def test_square_form_counts():
    """Every additive map, then those obeying the square form
    f(A²) = f(A)A ⊕ Af(A) on every A, then the derivations (Leibniz on every
    pair): 512, 25 and 5 on UT_2(B), and 6, 5 and 3 on UT_1 over {0, 1/2, 1}."""
    chain = (Fraction(0), Fraction(1, 2), Fraction(1))
    cases = ((2, BOOLEAN, (0, 1), (512, 25, 5)), (1, FUZZY, chain, (6, 5, 3)))
    for n, semiring, scalars, counts in cases:
        keys, _ = generators(n, semiring, scalars)
        everything = all_matrices(n, semiring, scalars)
        maps = [
            additive_map(n, semiring, keys, images)
            for images in derivations_by_search(n, semiring, scalars, op=None)
        ]
        square = [f for f in maps if all(f(a * a) == f(a) * a + a * f(a) for a in everything)]
        derivations = [
            f for f in maps
            if all(leibniz_check(f, a, b) is None for a in everything for b in everything)
        ]
        assert (len(maps), len(square), len(derivations)) == counts
        assert set(derivations) <= set(square)


def test_square_form_admits_a_non_derivation():
    """f(A) = a₁₁E₁₁ ⊕ (a₁₂ ∨ a₂₂)E₁₂ on UT_2(B) is additive and obeys the square
    form on every matrix, yet breaks Leibniz at (E₁₁, E₂₂): with no cancellation,
    the square form does not polarise to the bilinear rule."""
    add = BOOLEAN.add

    def f(a):
        return UTMatrix.from_dict(2, BOOLEAN, {(1, 1): a[1, 1], (1, 2): add(a[1, 2], a[2, 2])})

    mats = list(enumerate_matrices(2))
    assert all(linearity_check(f, a, b) is None for a in mats for b in mats)
    assert all(f(a * a) == f(a) * a + a * f(a) for a in mats)
    e11, e22 = matrix_unit(2, 1, 1, BOOLEAN), matrix_unit(2, 2, 2, BOOLEAN)
    assert leibniz_check(f, e11, e22) == Witness((1, 2), 0, 1)


# --- commutativity is needed ---------------------------------------------------------

# T = {e, p, q}: e is the identity and p, q are left zeros (px = p, qx = q).
T_PRODUCT = {(s, t): t if s == "e" else s for s in "epq" for t in "epq"}
SUBSETS = [frozenset(c) for r in range(4) for c in itertools.combinations("epq", r)]


def setwise(x, y):
    return frozenset(T_PRODUCT[s, t] for s in x for t in y)


# S = P(T): union as ⊕, the setwise product as ⊗; unital, additively
# idempotent, and not commutative.
POWER_SET = Semiring(
    name="P(T)",
    add=operator.or_,
    mul=setwise,
    zero=frozenset(),
    one=frozenset("e"),
    contains=SUBSETS.__contains__,
    parse_element=frozenset,
    sample=lambda rng: rng.choice(SUBSETS),
)


def test_jordan_rule_without_commutativity_admits_a_non_derivation():
    """Over S = P(T) the Jordan rule does not force Leibniz.  S is free on its
    atoms {e}, {p}, {q}, so an additive map is fixed by their images: 8³ = 512
    maps of UT_1(S) = S.  21 obey the Jordan rule on all 64 pairs and 19 are
    derivations, all among the 21.  δ(x) = {p, q} when q ∈ x, else ∅, is one of
    the other two: δ({p}{q}) = ∅, but δ({p}){q} ⊕ {p}δ({q}) = {p}."""
    p, q = frozenset("p"), frozenset("q")
    assert check_axioms(POWER_SET, 2000, 0) is None
    assert (setwise(p, q), setwise(q, p)) == (p, q)
    mats = {x: UTMatrix(1, POWER_SET, (x,)) for x in SUBSETS}

    def additive(images):
        """The map sending each atom {t} to ``images[t]``, extended by unions."""
        table = {
            x: frozenset().union(*(image for t, image in zip("epq", images) if t in x))
            for x in SUBSETS
        }
        return lambda a: mats[table[a.entries[0]]]

    pairs = list(itertools.product(mats.values(), repeat=2))
    jordan_maps, derivations = set(), set()
    for images in itertools.product(SUBSETS, repeat=3):
        f = additive(images)
        if all(f(jordan(a, b)) == jordan(f(a), b) + jordan(a, f(b)) for a, b in pairs):
            jordan_maps.add(images)
        if all(leibniz_check(f, a, b) is None for a, b in pairs):
            derivations.add(images)
    assert (len(jordan_maps), len(derivations)) == (21, 19)
    assert derivations < jordan_maps
    delta = (frozenset(), frozenset(), frozenset("pq"))  # the images of e, p, q
    assert delta in jordan_maps - derivations
    assert leibniz_check(additive(delta), mats[p], mats[q]) == Witness((1, 1), frozenset(), p)


def test_the_non_derivation_lifts_to_ut2():
    """On UT_2(S) the entrywise map δ₁₁ = δ, δ₁₂(x) = x ⊕ {p}x, δ₂₂ = 0 is
    additive, since each δ_ij is, and obeys the Jordan rule: both sides of
    f(A∘B) = f(A)∘B ⊕ A∘f(B) are additive in A and in B, and every matrix is a
    union of generators λE_ij with λ an atom, so the 81 pairs of generators
    carry the rule to every pair.  Leibniz fails at (pE₁₁, qE₁₁), as on UT_1."""
    p, pq = frozenset("p"), frozenset("pq")
    entry_maps = (  # row-major: (1, 1), (1, 2), (2, 2)
        lambda x: pq if "q" in x else frozenset(),
        lambda x: x | setwise(p, x),
        lambda x: frozenset(),
    )
    for g in entry_maps:
        assert all(g(x | y) == g(x) | g(y) for x in SUBSETS for y in SUBSETS)

    def f(a):
        return UTMatrix(2, POWER_SET, tuple(g(x) for g, x in zip(entry_maps, a.entries)))

    def unit(position, value):
        return UTMatrix.from_dict(2, POWER_SET, {position: value})

    generators = [unit(pos, frozenset(t)) for pos in iter_positions(2) for t in "epq"]
    pairs = list(itertools.product(generators, repeat=2))
    assert len(pairs) == 81
    assert all(f(jordan(a, b)) == jordan(f(a), b) + jordan(a, f(b)) for a, b in pairs)
    assert leibniz_check(f, unit((1, 1), p), unit((1, 1), frozenset("q"))) == Witness(
        (1, 1), frozenset(), p
    )
