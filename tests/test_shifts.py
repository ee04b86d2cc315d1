"""Max-plus scalar shifts: the derivation laws, the group structure of the
finite shifts, and the entrywise lift to matrices."""

import operator
import random
import sys
from fractions import Fraction

import pytest

from trideriv import (
    BOOLEAN,
    MAXPLUS,
    MINUS_INF,
    HereditaryShift,
    MaskDerivation,
    MatrixMismatchError,
    CarrierError,
    ShiftDerivation,
    UTMatrix,
    leibniz_check,
    linearity_check,
    pointwise_sum,
    random_matrix,
)
from trideriv.semirings import _max


def finite_shift(rng):
    return ShiftDerivation(rng.randint(-20, 20))


def test_shift_apply():
    assert ShiftDerivation(3)(5) == 8
    assert ShiftDerivation(0)(7) == 7
    assert ShiftDerivation(3)(MINUS_INF) == MINUS_INF


def test_the_lift_holds_only_a_shift():
    with pytest.raises(TypeError, match="^a hereditary shift lifts a ShiftDerivation, got 3$"):
        HereditaryShift(3)
    shift = ShiftDerivation(Fraction(-3, 2))
    lifted = shift.hereditary()
    assert type(lifted) is HereditaryShift and vars(lifted) == vars(HereditaryShift(shift))


def test_shift_rejects_non_carrier_values():
    with pytest.raises(CarrierError):
        ShiftDerivation(0.5)
    with pytest.raises(CarrierError):
        ShiftDerivation(3)(0.25)


def test_compose_adds_offsets():
    assert ShiftDerivation(3).compose(ShiftDerivation(4)) == ShiftDerivation(7)
    assert ShiftDerivation(3).compose(ShiftDerivation(-3)).is_identity
    assert ShiftDerivation(0).compose(ShiftDerivation(5)) == ShiftDerivation(5)


def test_compose_with_bottom_is_constant_bottom():
    bottom = ShiftDerivation(MINUS_INF)
    assert ShiftDerivation(3).compose(bottom) == bottom
    assert bottom(17) == MINUS_INF
    with pytest.raises(ValueError):
        bottom.inverse()


def test_sum_takes_larger_offset():
    lhs = ShiftDerivation(3) + ShiftDerivation(5)
    assert lhs == ShiftDerivation(5)
    rng = random.Random(2)
    for _ in range(50):  # pointwise check: max(a+3, a+5) = a+5
        a = MAXPLUS.sample(rng)
        assert MAXPLUS.add(ShiftDerivation(3)(a), ShiftDerivation(5)(a)) == lhs(a)


def test_sum_idempotent_and_bottom_neutral():
    rng = random.Random(3)
    for _ in range(50):
        s = ShiftDerivation(MAXPLUS.sample(rng))
        assert s + s == s
        assert ShiftDerivation(MINUS_INF) + s == s


def test_scalar_leibniz_and_additivity():
    rng = random.Random(5)
    for _ in range(500):
        x, a, b = (MAXPLUS.sample(rng) for _ in range(3))
        shift = ShiftDerivation(x)
        add, mul = MAXPLUS.add, MAXPLUS.mul
        assert shift(add(a, b)) == add(shift(a), shift(b))
        assert shift(mul(a, b)) == add(mul(shift(a), b), mul(a, shift(b)))


def test_finite_shifts_form_abelian_group():
    rng = random.Random(7)
    identity = ShiftDerivation(0)
    for _ in range(300):
        x, y, z = (finite_shift(rng) for _ in range(3))
        assert x.compose(y).compose(z) == x.compose(y.compose(z))
        assert x.compose(y) == y.compose(x)
        assert x.compose(identity) == x
        assert x.compose(x.inverse()) == identity


def test_only_the_identity_is_compositionally_idempotent():
    assert ShiftDerivation(0).compose(ShiftDerivation(0)) == ShiftDerivation(0)
    doubled = ShiftDerivation(3).compose(ShiftDerivation(3))
    assert doubled == ShiftDerivation(6) != ShiftDerivation(3)


# --- hereditary lift -----------------------------------------------------------------

def test_hereditary_zero_shift_is_identity():
    rng = random.Random(11)
    a = random_matrix(4, MAXPLUS, rng)
    assert ShiftDerivation(0).hereditary()(a) == a


def test_hereditary_entrywise_example():
    a = UTMatrix.from_rows(MAXPLUS, [[1, MINUS_INF], [3]])
    lifted = ShiftDerivation(2).hereditary()
    assert lifted(a) == UTMatrix.from_rows(MAXPLUS, [[3, MINUS_INF], [5]])
    b = UTMatrix.from_rows(MAXPLUS, [[0, 2], [1]])
    assert leibniz_check(lifted, a, b) is None


def test_hereditary_rejects_other_semirings():
    with pytest.raises(MatrixMismatchError):
        ShiftDerivation(1).hereditary()(UTMatrix.identity(2, BOOLEAN))


def test_hereditary_leibniz_on_random_matrices():
    rng = random.Random(13)
    for n in (1, 2, 4):
        for _ in range(30):
            lifted = ShiftDerivation(MAXPLUS.sample(rng)).hereditary()
            a = random_matrix(n, MAXPLUS, rng)
            b = random_matrix(n, MAXPLUS, rng)
            assert leibniz_check(lifted, a, b) is None
            assert linearity_check(lifted, a, b) is None


def test_sums_of_verified_derivations_stay_derivations():
    rng = random.Random(17)
    n = 3
    candidates = [
        MaskDerivation(n, {2}),
        MaskDerivation(n, {1, 2}),
        ShiftDerivation(4).hereditary(),
        ShiftDerivation(-2).hereditary(),
    ]
    for f in candidates:
        for g in candidates:
            combined = pointwise_sum(f, g)
            for _ in range(10):
                a = random_matrix(n, MAXPLUS, rng)
                b = random_matrix(n, MAXPLUS, rng)
                assert leibniz_check(combined, a, b) is None
                assert linearity_check(combined, a, b) is None


def test_hereditary_shift_dataclass_exposes_shift():
    lifted = HereditaryShift(ShiftDerivation(Fraction(5, 2)))
    assert lifted.shift.x == Fraction(5, 2)


# --- the one-pass check ------------------------------------------------------------

def _fields(witness):
    """A witness with its value types, so a Fraction(3) never passes for a 3."""
    if witness is None:
        return None
    return witness.position, witness.lhs, witness.rhs, type(witness.lhs), type(witness.rhs)


def _quarter(value):
    """A finite value v as the Fraction v/4; the bottom is kept."""
    return value if isinstance(value, float) else Fraction(value, 4)


def _witness_draws(seed, draws, quarters=False):
    """``(draw, n, x, a, b)``: ``draws`` seeded pairs at n = 1..8 over ``MAXPLUS``
    and a shift x, the bottom every tenth draw.

    With ``quarters``, finite entries of A and B become the Fractions v/4:
    all of them on even draws, those at even offsets on odd draws, where the
    rest stay ints, so that the folds meet equal ints and Fractions.  The
    shift is 3/4, as in ``apply --shift=3/4``, every third draw, else a
    quarter on even draws and the drawn int on odd ones.
    """
    rng = random.Random(seed)
    for draw in range(draws):
        n = draw % 8 + 1
        x = MINUS_INF if draw % 10 == 0 else MAXPLUS.sample(rng)
        a, b = random_matrix(n, MAXPLUS, rng), random_matrix(n, MAXPLUS, rng)
        if quarters:
            mixed = draw % 2
            x = Fraction(3, 4) if draw % 3 == 1 else x if mixed else _quarter(x)
            a, b = (
                UTMatrix(n, MAXPLUS, tuple(
                    v if mixed and t % 2 else _quarter(v) for t, v in enumerate(m.entries)
                ))
                for m in (a, b)
            )
        yield draw, n, x, a, b


def _first_witness_agrees(seed, draws, quarters=False):
    """Compare ``first_witness`` with the two generic checks on
    ``_witness_draws(seed, draws, quarters)``; return how often
    each check fired."""
    fired = {"leibniz": 0, "linearity": 0}
    for draw, n, x, a, b in _witness_draws(seed, draws, quarters):
        lifted = ShiftDerivation(x).hereditary()
        leibniz = leibniz_check(lifted, a, b)
        expected = leibniz or linearity_check(lifted, a, b)
        assert _fields(lifted.first_witness(a, b)) == _fields(expected), (draw, n, x)
        if expected is not None:
            fired["leibniz" if leibniz else "linearity"] += 1
    return fired


def test_first_witness_is_the_generic_checks_on_maxplus():
    assert _first_witness_agrees(seed=23, draws=400) == {"leibniz": 0, "linearity": 0}


def test_first_witness_is_the_generic_checks_on_quarters():
    fired = _first_witness_agrees(seed=37, draws=400, quarters=True)
    assert fired == {"leibniz": 0, "linearity": 0}


def test_first_witness_rejects_what_the_generic_checks_reject():
    lifted = ShiftDerivation(1).hereditary()
    with pytest.raises(MatrixMismatchError, match="dimension mismatch"):
        lifted.first_witness(UTMatrix.zeros(2, MAXPLUS), UTMatrix.zeros(3, MAXPLUS))
    with pytest.raises(MatrixMismatchError, match="act on maxplus"):
        lifted.first_witness(UTMatrix.identity(2, BOOLEAN), UTMatrix.identity(2, BOOLEAN))


def _float_draws(seed, draws):
    """``(n, x, a, b)`` with entries off every carrier, where float rounding
    parts (a + b) + x from (a + x) + b, so both checks fire: float tenths on
    even draws; on odd ones ints and floats near 2^53, where equal values of
    the two types meet in every fold and the side ``_max`` keeps shows."""
    rng = random.Random(seed)
    shifts_ = (0.1, 3, 0.3, 1, 1.7, MINUS_INF, float("nan"))

    def entry(near):
        if rng.random() < 0.05:
            return MINUS_INF
        if near:
            v = 2**53 + rng.randint(-4, 4)
            return v if rng.random() < 0.5 else float(v)
        return rng.randint(-20, 20) / 10

    for draw in range(draws):
        n = draw % 8 + 1
        a, b = (
            UTMatrix._trusted(n, MAXPLUS, tuple(entry(draw % 2) for _ in range(n * (n + 1) // 2)))
            for _ in range(2)
        )
        yield n, shifts_[draw % len(shifts_)], a, b


def _max_calls(call):
    """How often ``call()`` calls ``_max``, a Python function before 3.13 and
    the builtin ``max`` from 3.13 on."""
    calls = 0
    code = getattr(_max, "__code__", None)

    def profile(frame, event, arg):
        nonlocal calls
        if (event == "call" and frame.f_code is code) or (event == "c_call" and arg is _max):
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def test_first_witness_inline_fold_matches_its_generic_twin():
    """The inline max-plus fold gives the witnesses of the reference,
    ``leibniz_check(...) or linearity_check(...)``, in value and type, on the
    draws above (ints, quarters, the bottom; shifts -inf and 3/4) and on float
    entries, where the witness branches run."""
    assert MAXPLUS.add is _max and MAXPLUS.mul is operator.add
    pairs = [
        (x, a, b) for quarters in (False, True) for _, _, x, a, b in _witness_draws(41, 400, quarters)
    ]
    pairs += _float_draws(43, 200)
    # Two ties the draws seldom reach.  At (1, 2), f(A)B folds to the int
    # 2^53 + 6 and Af(B) to the float of that value, and the sum keeps
    # f(A)B's.  In the linearity check, max(nan, 1) is the nan, and the
    # sum of the lifted cells keeps nan + 3, not 1 + 3.
    big = 2**53
    pairs += [
        (3, UTMatrix._trusted(2, MAXPLUS, (float(big + 2), big, 0)),
         UTMatrix._trusted(2, MAXPLUS, (0, 1, 3))),
        (3, UTMatrix._trusted(1, MAXPLUS, (float("nan"),)), UTMatrix._trusted(1, MAXPLUS, (1,))),
    ]
    inline, generic = [], []
    for *_, x, a, b in pairs:
        lifted = ShiftDerivation._trusted(x=x).hereditary()
        inline.append(_fields(lifted.first_witness(a, b)))
        generic.append(_fields(leibniz_check(lifted, a, b) or linearity_check(lifted, a, b)))
    assert _max_calls(lambda: lifted.first_witness(a, b)) == 0  # the NaN pair, inline
    assert repr(inline) == repr(generic)  # a NaN is not equal to itself
    assert not any(inline[:800])  # a shift is a derivation on the carrier
    fired = {w[3:] for w in inline[800:-2] if w is not None}
    assert fired == {(float, float), (int, float), (float, int)}
    (_, _, tie, _, tie_type), (_, _, nan, _, _) = inline[-2:]
    assert (tie, tie_type) == (2**53 + 6, int) and nan != nan
