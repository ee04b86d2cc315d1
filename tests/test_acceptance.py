"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Budgets are wall-clock bounds asserted with ``time.perf_counter``.  All
value comparisons are exact; every random draw is reconstructible from
the explicit integer seed of its trial.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from trideriv import (
    BOOLEAN,
    FUZZY,
    MAXPLUS,
    MINPLUS,
    MaskDerivation,
    ShiftDerivation,
    UTMatrix,
    ZeroPattern,
    brute_force_classify,
    check_axioms,
    d_m,
    decompose,
    delta_k,
    diag_head,
    diag_tail,
    enumerate_family_derivations,
    enumerate_interval_derivations,
    exhaustive_leibniz_witness,
    iter_positions,
    jordan,
    leibniz_check,
    linearity_check,
    pointwise_sum,
    random_matrix,
    strip_diagonal,
)


@contextmanager
def criterion(number, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its budget: "
            f"{elapsed:.2f}s >= {budget_seconds:g}s"
        )
        print(f"PASS criterion {number} ({elapsed:.2f}s < {budget_seconds:g}s)")
    else:
        print(f"PASS criterion {number} ({elapsed:.2f}s)")


def test_criterion_01_semiring_axioms():
    """All four shipped instances satisfy the laws on 10,000 sampled triples."""
    with criterion(1, 5.0):
        for semiring in (BOOLEAN, MAXPLUS, MINPLUS, FUZZY):
            violation = check_axioms(semiring, 10_000, seed=42)
            assert violation is None, (semiring.name, violation)


def test_criterion_02_row_and_column_maps_agree_three_ways():
    """Mask application = Jordan product with the projector = one-sided product."""
    with criterion(2, 10.0):
        for n in range(1, 7):
            heads = [diag_head(n, k, MAXPLUS) for k in range(1, n + 1)]
            tails = [diag_tail(n, m, MAXPLUS) for m in range(1, n + 1)]
            for t in range(200):
                a = random_matrix(n, MAXPLUS, random.Random(1_000 * n + t))
                for k in range(1, n + 1):
                    head = heads[k - 1]
                    masked = delta_k(n, k)(a)
                    assert masked == jordan(a, head)
                    assert masked == head * a
                for m in range(1, n + 1):
                    tail = tails[m - 1]
                    masked = d_m(n, m)(a)
                    assert masked == jordan(a, tail)
                    assert masked == a * tail


def test_criterion_03_every_family_mask_is_a_derivation():
    """Exhaustive over zero sets for n = 2..6; 50 max-plus and 50 boolean pairs each."""
    with criterion(3, 60.0):
        for n in range(2, 7):
            for mask in enumerate_family_derivations(n):
                zbits = sum(1 << (i - 1) for i in mask.zero_set)
                for tag, semiring in enumerate((MAXPLUS, BOOLEAN)):
                    base = ((n << (n + 1)) + (zbits << 1) + tag) * 100
                    for t in range(50):
                        rng = random.Random(base + t)
                        a = random_matrix(n, semiring, rng)
                        b = random_matrix(n, semiring, rng)
                        assert leibniz_check(mask, a, b) is None, (n, mask.zero_set, t)
                        assert linearity_check(mask, a, b) is None, (n, mask.zero_set, t)


def test_criterion_04_enumeration_counts():
    with criterion(4, 1.0):
        for n in range(1, 11):
            assert len(enumerate_interval_derivations(n)) == n * (n + 1) // 2
            assert len(enumerate_family_derivations(n)) == 2**n


def test_criterion_05_composition_is_a_derivation_iff_indices_cover():
    """Exhaustively at n = 3 over boolean; by seeded search at n = 4, 5 over max-plus."""
    with criterion(5, 120.0):
        for k in range(1, 4):
            for m in range(1, 4):
                pattern = delta_k(3, k).compose(d_m(3, m))
                empirical = exhaustive_leibniz_witness(pattern) is None
                assert empirical == (k + m >= 3), (k, m)
        for n in (4, 5):
            for k in range(1, n + 1):
                for m in range(1, n + 1):
                    pattern = delta_k(n, k).compose(d_m(n, m))
                    base = (n * 36 + k * 6 + m) * 1_000
                    witnessed = False
                    for t in range(1000):
                        rng = random.Random(base + t)
                        a = random_matrix(n, MAXPLUS, rng)
                        b = random_matrix(n, MAXPLUS, rng)
                        if leibniz_check(pattern, a, b) is not None:
                            witnessed = True
                            break
                    assert witnessed == (k + m < n), (n, k, m)


def test_criterion_06_corner_counterexample_reproduced():
    """The composed row/column map fails Leibniz at (1,3) with values 10 vs 0."""
    with criterion(6, None):
        ones = {p: 0 for p in iter_positions(3)}
        a = UTMatrix.from_dict(3, MAXPLUS, {**ones, (1, 2): 5})
        b = UTMatrix.from_dict(3, MAXPLUS, {**ones, (2, 3): 5})
        composed = delta_k(3, 1).compose(d_m(3, 1))
        assert composed(a * b)[1, 3] == 10
        assert (composed(a) * b + a * composed(b))[1, 3] == 0
        witness = leibniz_check(composed, a, b)
        assert witness is not None
        assert witness.position == (1, 3)
        assert witness.lhs == 10 and witness.rhs == 0


def test_criterion_07_brute_force_oracle():
    with criterion(7, 120.0):
        two = brute_force_classify(2)
        assert two.derivation_count == 5
        assert two.interval_form_count == 4
        three = brute_force_classify(3)
        found = {p.positions for p in three.derivation_patterns}
        positions = list(iter_positions(3))
        all_64 = (frozenset(p for p, z in zip(positions, bits) if z)
                  for bits in product((0, 1), repeat=6))
        # sweep verdict == local condition on all 64
        assert found == {ps for ps in all_64 if ZeroPattern(3, ps).is_derivation()}
        for mask in enumerate_family_derivations(3):
            assert mask.positions in found
        assert strip_diagonal(3).positions in found


def test_criterion_08_strip_diagonal_is_sum_of_complementary_products():
    with criterion(8, 10.0):
        for n in range(2, 9):
            maps = [delta_k(n, k).compose(d_m(n, n - k)) for k in range(1, n)]
            combined = pointwise_sum(*maps)
            stripper = strip_diagonal(n)
            for t in range(100):
                a = random_matrix(n, MAXPLUS, random.Random(8_000_000 + n * 1_000 + t))
                assert combined(a) == stripper(a)


def test_criterion_09_decomposition_evaluates_to_the_mask():
    with criterion(9, 60.0):
        for n in range(2, 9):
            for zt in range(100):
                rng = random.Random(9_000_000 + n * 10_000 + zt)
                zero_set = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
                mask = MaskDerivation(n, zero_set)
                expr = decompose(mask)
                for _ in range(20):
                    a = random_matrix(n, MAXPLUS, rng)
                    assert expr(a) == mask(a), (n, sorted(zero_set))


def test_criterion_10_scalar_shift_suite():
    with criterion(10, 10.0):
        add, mul = MAXPLUS.add, MAXPLUS.mul
        for t in range(10_000):
            rng = random.Random(10_000_000 + t)
            x, a, b = (MAXPLUS.sample(rng) for _ in range(3))
            shift = ShiftDerivation(x)
            assert shift(add(a, b)) == add(shift(a), shift(b))
            assert shift(mul(a, b)) == add(mul(shift(a), b), mul(a, shift(b)))
        identity = ShiftDerivation(0)
        for t in range(1_000):
            rng = random.Random(10_500_000 + t)
            x, y, z = (ShiftDerivation(rng.randint(-50, 50)) for _ in range(3))
            assert x.compose(y).compose(z) == x.compose(y.compose(z))
            assert x.compose(y) == y.compose(x)
            assert x.compose(identity) == x
            assert x.compose(x.inverse()) == identity
            assert x + x == x
        bottom = ShiftDerivation(MAXPLUS.zero)
        assert bottom + bottom == bottom
        for n in range(1, 6):
            for t in range(500):
                rng = random.Random(10_600_000 + n * 10_000 + t)
                lifted = ShiftDerivation(MAXPLUS.sample(rng)).hereditary()
                a = random_matrix(n, MAXPLUS, rng)
                b = random_matrix(n, MAXPLUS, rng)
                assert leibniz_check(lifted, a, b) is None, (n, t)


def test_criterion_11_pointwise_sums_of_derivations():
    """Random mixes of mask derivations and hereditary shifts stay derivations."""

    def draw(rng, n):
        if rng.random() < 0.5:
            return MaskDerivation(
                n, frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
            )
        return ShiftDerivation(MAXPLUS.sample(rng)).hereditary()

    with criterion(11, 30.0):
        for t in range(100):
            rng = random.Random(11_000_000 + t)
            n = rng.randint(2, 5)
            combined = pointwise_sum(draw(rng, n), draw(rng, n))
            for u in range(50):
                pair_rng = random.Random(11_500_000 + t * 100 + u)
                a = random_matrix(n, MAXPLUS, pair_rng)
                b = random_matrix(n, MAXPLUS, pair_rng)
                assert leibniz_check(combined, a, b) is None, (t, u)


def derivation_words(n):
    """The zero pattern of every word: a diagonal d in {0,1}^n and a
    superdiagonal s in {0,1}^(n-1) with s_i = 1 wherever d_i or d_(i+1) is 1.
    A word keeps (i, i) iff d_i = 1, and (i, l) for l > i iff some s_k = 1
    with i <= k < l; its pattern zeroes every other position."""
    positions = list(iter_positions(n))
    for d in product((0, 1), repeat=n):
        for s in product((0, 1), repeat=n - 1):
            if any(s[k] < d[k] | d[k + 1] for k in range(n - 1)):
                continue
            kept = {(i, i) for i in range(1, n + 1) if d[i - 1]}
            kept |= {(i, l) for i, l in positions if l > i and any(s[i - 1:l - 1])}
            yield ZeroPattern(n, frozenset(p for p in positions if p not in kept))


def test_criterion_12_derivation_patterns_are_words():
    """Three routes agree: the words (n <= 8, counted by F(2n+1)), the local
    predicate over every pattern (n <= 5) and the boolean sweep (n <= 5)."""
    with criterion(12, 5.0):
        for n, fibonacci in zip(range(1, 9), (2, 5, 13, 34, 89, 233, 610, 1597)):
            words = list(derivation_words(n))
            assert len(words) == len(set(words)) == fibonacci
            if n <= 5:
                positions = list(iter_positions(n))
                patterns = (
                    ZeroPattern(n, {p for t, p in enumerate(positions) if bits >> t & 1})
                    for bits in range(1 << len(positions))
                )
                assert set(words) == {p for p in patterns if p.is_derivation()}
            if n <= 5:
                assert set(words) == set(brute_force_classify(n).derivation_patterns)
