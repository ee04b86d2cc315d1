"""Semiring instances, literals, and the executable axiom check."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trideriv import (
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
from trideriv.semirings import AxiomViolation, _ranked, format_element, seeded_trials

INSTANCES = [BOOLEAN, MAXPLUS, MINPLUS, FUZZY]


def elements(semiring):
    """Hypothesis strategy drawing from the same domain the sampler uses."""
    if semiring is BOOLEAN:
        return st.sampled_from([0, 1])
    if semiring is MAXPLUS:
        return st.just(MINUS_INF) | st.integers(-20, 20).map(Fraction)
    if semiring is MINPLUS:
        return st.just(PLUS_INF) | st.integers(-20, 20).map(Fraction)
    return st.integers(0, 16).map(lambda k: Fraction(k, 16))


def test_maxplus_add_is_max():
    assert MAXPLUS.add(3, 5) == 5


def test_maxplus_mul_is_plus():
    assert MAXPLUS.mul(3, 5) == 8


def test_maxplus_bottom_neutral_and_absorbing():
    assert MAXPLUS.add(MINUS_INF, 7) == 7
    assert MAXPLUS.mul(MINUS_INF, 7) == MINUS_INF


def test_boolean_idempotent_and_absorbing():
    assert BOOLEAN.add(1, 1) == 1
    assert BOOLEAN.mul(1, 0) == 0


def test_mixed_operands_rejected():
    with pytest.raises(CarrierError):
        MAXPLUS.check(PLUS_INF)
    with pytest.raises(CarrierError):
        BOOLEAN.check(2)
    with pytest.raises(CarrierError):
        FUZZY.check(Fraction(3, 2))
    with pytest.raises(CarrierError):
        MAXPLUS.check(0.5)  # inexact floats are not carrier elements


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_carriers_reject_bool(semiring, value):
    assert not semiring.contains(value)
    with pytest.raises(CarrierError):
        semiring.check(value)


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_check_axioms_passes(semiring):
    violation = check_axioms(semiring, 1000, seed=42)
    assert violation is None, violation


def naturals():
    """Ordinary (N, +, *): a semiring, but not additively idempotent."""
    return Semiring(
        name="naturals",
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        zero=0,
        one=1,
        contains=lambda v: isinstance(v, int) and v >= 0,
        parse_element=int,
        sample=lambda rng: rng.randint(0, 9),
    )


def test_check_axioms_catches_non_idempotent_addition():
    violation = check_axioms(naturals(), 10, seed=1)
    assert violation is not None
    assert violation.law == "add-idempotent"
    a = violation.elements[0]
    assert a + a != a  # the witness really violates the law


# (max, min) on the chain 0..3: a semiring.  Each entry of LAW_BREAKERS changes
# it so that exactly one law breaks on 0..3, so check_axioms must name that law.
CHAIN = Semiring(
    name="chain",
    add=max,
    mul=min,
    zero=0,
    one=3,
    contains=lambda v: v in range(4),
    parse_element=int,
    sample=lambda rng: rng.randint(0, 3),
)


def band(pick):
    """A product where 0 absorbs, 1 is neutral, and any other a * b is pick(a, b)."""
    return lambda a, b: 0 if 0 in (a, b) else b if a == 1 else a if b == 1 else pick(a, b)


LAW_BREAKERS = {
    # 0 is neutral and two distinct elements of 1..3 add to the third; the cyclic
    # group on 1..3 (1 neutral, 0 absorbing) permutes 1..3, so it distributes.
    "add-associative": dict(
        add=lambda a, b: a if a == b else a + b if 0 in (a, b) else 6 - a - b,
        mul=lambda a, b: 0 if 0 in (a, b) else (a + b - 2) % 3 + 1,
        one=1,
    ),
    "add-commutative": dict(add=lambda a, b: a),
    "add-idempotent": dict(add=lambda a, b: a + b),
    "add-zero-neutral": dict(zero=2),
    # monotone, with 3 neutral and 0 absorbing, but (2 * 2) * 2 = 0 != 2 * (2 * 2) = 1
    "mul-associative": dict(mul=lambda a, b: min(a, b) if {a, b} & {0, 3} else a - 1),
    "mul-one-neutral": dict(one=1),
    "mul-zero-absorbing": dict(mul=max, one=0),
    # 3 * 2 = 2 < 3 * 1 = 3: a * x is not monotone in x, but x * a is
    "mul-distributes-left": dict(mul=band(lambda a, b: b), one=1),
    # 2 * 3 = 2 < 1 * 3 = 3: x * a is not monotone in x, but a * x is
    "mul-distributes-right": dict(mul=band(lambda a, b: a), one=1),
}


def test_chain_passes_every_law():
    assert check_axioms(CHAIN, 200, seed=0) is None


@pytest.mark.parametrize("law", LAW_BREAKERS)
def test_check_axioms_names_each_broken_law(law):
    violation = check_axioms(CHAIN._replace(**LAW_BREAKERS[law]), 200, seed=0)
    assert violation is not None and violation.law == law


def test_check_axioms_deterministic():
    first = check_axioms(naturals(), 10, seed=1)
    second = check_axioms(naturals(), 10, seed=1)
    assert first == second


def test_check_axioms_pinned_violation():
    violation = check_axioms(naturals(), 10, seed=1)
    assert violation == AxiomViolation("add-idempotent", 0, (2, 9, 1))


# A lambda add fails ``add is max``, so each twin checks its carrier without ranks.
OFF_BOTTOM_FUZZY = FUZZY._replace(zero=Fraction(1, 2))  # ranked, with zero above the bottom
RANKED_TWINS = [
    (FUZZY, FUZZY._replace(add=lambda a, b: max(a, b))),
    (OFF_BOTTOM_FUZZY, OFF_BOTTOM_FUZZY._replace(add=lambda a, b: max(a, b))),
]


def element_types(violation):
    return None if violation is None else tuple(map(type, violation.elements))


@pytest.mark.parametrize("ranked, twin", RANKED_TWINS, ids=["fuzzy", "off-bottom-zero"])
def test_check_axioms_on_ranks_matches_unranked_twin(ranked, twin):
    drawn = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    assert _ranked(ranked, drawn)[2] is not None and _ranked(twin, drawn)[2] is None
    got, expected = check_axioms(ranked, 500, seed=631), check_axioms(twin, 500, seed=631)
    assert got == expected
    assert element_types(got) == element_types(expected)
    if ranked is OFF_BOTTOM_FUZZY:  # a < 1/2 gives max(a, zero) = 1/2 != a
        assert got.law == "add-zero-neutral"


def test_ranks_skip_int_carriers_and_keep_the_order():
    assert _ranked(MAXPLUS, (1, 2)) == (MAXPLUS, (1, 2), None)
    assert _ranked(BOOLEAN, (0, 1, 1)) == (BOOLEAN, (0, 1, 1), None)
    drawn = (Fraction(3, 4), Fraction(1, 4))
    carrier, keys, values = _ranked(OFF_BOTTOM_FUZZY, drawn)
    assert values == {1: Fraction(1, 4), 2: Fraction(1, 2), 3: Fraction(3, 4), 4: Fraction(1)}
    assert keys == (3, 1) and tuple(values[k] for k in keys) == drawn
    assert all(type(k) is int for k in values)
    assert (carrier.add, carrier.mul, carrier.zero, carrier.one) == (max, min, 2, 4)


def test_ranks_scale_mixed_denominators_to_order_keeping_ints():
    drawn = (Fraction(2, 3), Fraction(5, 7), Fraction(1, 2), Fraction(2, 3), Fraction(0))
    carrier, keys, values = _ranked(FUZZY, drawn)
    assert (carrier.zero, carrier.one) == (0, 42)  # lcm(1, 3, 7, 2) = 42
    assert keys == (28, 30, 21, 28, 0)
    assert tuple(values[k] for k in keys) == drawn
    assert all(type(values[k]) is Fraction for k in keys)
    for x, kx in zip(drawn, keys):  # an order embedding: < and == are kept
        for y, ky in zip(drawn, keys):
            assert (x < y, x == y) == (kx < ky, kx == ky)


@pytest.mark.parametrize(
    "semiring, values",
    [(FUZZY, (0.5, Fraction(1, 4))), (FUZZY, (True, Fraction(1, 4))), (CHAIN, (0, 2, 3))],
    ids=["float", "bool", "all-int"],
)
def test_ranks_only_for_int_and_fraction_not_all_int(semiring, values):
    assert _ranked(semiring, values) == (semiring, values, None)


# Thirds, fifths, sevenths and twelfths: the keys need a scale, not only a sort.
MIXED_FUZZY = FUZZY._replace(
    sample=lambda rng: Fraction(rng.randint(0, 105), 105)
    if rng.random() < 0.5 else Fraction(rng.randint(0, 12), 12),
)


@pytest.mark.parametrize("zero", [Fraction(0), Fraction(2, 7)], ids=["fuzzy", "off-bottom-zero"])
def test_check_axioms_on_mixed_denominators_matches_unranked_twin(zero):
    ranked = MIXED_FUZZY._replace(zero=zero)
    twin = ranked._replace(add=lambda a, b: max(a, b))
    got, expected = check_axioms(ranked, 300, seed=5), check_axioms(twin, 300, seed=5)
    assert got == expected
    assert element_types(got) == element_types(expected)
    assert (got is None) == (zero == 0)


@pytest.mark.parametrize("trials", [0, -3, True, 2.5])
def test_seeded_trials_rejects_fewer_than_one(trials):
    with pytest.raises(ValueError):
        seeded_trials(trials, seed=5)


# The randrange and randint expressions whose streams the samplers must reproduce.
REPLACED_SAMPLERS = {
    "boolean": lambda rng: rng.randrange(2),
    "fuzzy": lambda rng: Fraction(rng.randint(0, 16), 16),
    "maxplus": lambda rng: MINUS_INF if rng.random() < 0.05 else rng.randint(-20, 20),
    "minplus": lambda rng: PLUS_INF if rng.random() < 0.05 else rng.randint(-20, 20),
}


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_samplers_draw_the_randrange_stream(semiring):
    replaced = REPLACED_SAMPLERS[semiring.name]
    for seed in range(1000):
        rng, twin = random.Random(seed), random.Random(seed)
        drawn = [semiring.sample(rng) for _ in range(50)]
        expected = [replaced(twin) for _ in range(50)]
        assert drawn == expected, seed
        assert list(map(type, drawn)) == list(map(type, expected)), seed
        assert rng.getstate() == twin.getstate(), seed


@pytest.mark.parametrize("seed", [0, 17, -4])
def test_seeded_trials_stream(seed):
    trials = list(seeded_trials(4, seed))
    assert [t for t, _ in trials] == [0, 1, 2, 3]
    for t, rng in trials:
        assert rng.getstate() == random.Random(seed + t).getstate()


def test_check_axioms_rejects_zero_trials():
    with pytest.raises(ValueError):
        check_axioms(BOOLEAN, 0, seed=0)


def test_get_semiring():
    assert get_semiring("minplus") is MINPLUS
    with pytest.raises(ValueError):
        get_semiring("tropical")


# --- literals ---------------------------------------------------------------

@pytest.mark.parametrize(
    "semiring,token,value",
    [
        (BOOLEAN, "1", 1),
        (MAXPLUS, "-inf", MINUS_INF),
        (MAXPLUS, "3.5", Fraction(7, 2)),
        (MAXPLUS, "-7/2", Fraction(-7, 2)),
        (MINPLUS, "+inf", PLUS_INF),
        (FUZZY, "3/16", Fraction(3, 16)),
    ],
)
def test_parse_element(semiring, token, value):
    assert semiring.parse_element(token) == value


@pytest.mark.parametrize(
    "semiring,token",
    [
        (BOOLEAN, "2"),
        (BOOLEAN, "true"),
        (MAXPLUS, "+inf"),
        (MAXPLUS, "oops"),
        (MINPLUS, "-inf"),
        (FUZZY, "9/8"),
        (FUZZY, "-1"),
    ],
)
def test_parse_element_rejects(semiring, token):
    with pytest.raises(ValueError):
        semiring.parse_element(token)


def test_shipped_semirings_share_one_formatter():
    assert [format_element(v) for v in (MINUS_INF, PLUS_INF, 0, 1, Fraction(-7, 2))] == [
        "-inf", "+inf", "0", "1", "-7/2"
    ]


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_format_parse_roundtrip_on_samples(semiring):
    rng = random.Random(7)
    for _ in range(200):
        v = semiring.sample(rng)
        assert semiring.parse_element(format_element(v)) == v


# --- sampled laws (the same invariants check_axioms replays) -----------------

@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_semiring_laws(semiring, data):
    a = data.draw(elements(semiring))
    b = data.draw(elements(semiring))
    c = data.draw(elements(semiring))
    add, mul = semiring.add, semiring.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert add(a, a) == a
    assert add(a, semiring.zero) == a
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, semiring.one) == a == mul(semiring.one, a)
    assert mul(a, semiring.zero) == semiring.zero == mul(semiring.zero, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_natural_order_is_a_partial_order(semiring, data):
    a = data.draw(elements(semiring))
    b = data.draw(elements(semiring))
    c = data.draw(elements(semiring))
    assert natural_leq(semiring, a, a)
    if natural_leq(semiring, a, b) and natural_leq(semiring, b, a):
        assert a == b
    if natural_leq(semiring, a, b) and natural_leq(semiring, b, c):
        assert natural_leq(semiring, a, c)
