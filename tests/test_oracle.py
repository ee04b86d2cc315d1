"""The brute-force sweep, its bitmask encoding lemmas, its cell sweeps
against real products, and the frozen small-dimension classifications."""

import random

import pytest

from trideriv import derivations, oracle
from trideriv import (
    BOOLEAN,
    FUZZY,
    MAXPLUS,
    MINPLUS,
    CapacityError,
    MaskDerivation,
    ShiftDerivation,
    UTMatrix,
    ZeroPattern,
    brute_force_classify,
    d_m,
    delta_k,
    enumerate_family_derivations,
    enumerate_matrices,
    exhaustive_leibniz_witness,
    format_report,
    iter_positions,
    leibniz_check,
    linearity_check,
    matrix_bits,
    random_matrix,
    strip_diagonal,
    triangle_size,
)
from trideriv.cli import main


@pytest.mark.parametrize("n,count", [(1, 2), (2, 8), (3, 64)])
def test_enumerate_matrices_counts(n, count):
    mats = list(enumerate_matrices(n))
    assert len(mats) == count
    assert len(set(mats)) == count
    assert all(m.semiring is BOOLEAN for m in mats)


def test_enumerate_matrices_bitmask_order():
    mats = list(enumerate_matrices(2))
    assert [matrix_bits(m) for m in mats] == list(range(8))


def refuse(*args):
    raise AssertionError("exhaustive work started past the cap")


def test_enumerate_matrices_capacity(monkeypatch):
    """Past the cap no matrix is built."""
    monkeypatch.setattr(oracle, "_boolean", refuse)
    with pytest.raises(CapacityError):
        list(enumerate_matrices(6))


# --- encoding lemmas: index arithmetic is exactly boolean matrix arithmetic ---------

def test_bitmask_addition_lemma():
    for n in (1, 2):
        mats = list(enumerate_matrices(n))
        for a in mats:
            for b in mats:
                assert matrix_bits(a + b) == matrix_bits(a) | matrix_bits(b)


def test_bitmask_masking_lemma():
    """Applying a pattern equals AND-ing out its position bits."""
    for n in (2, 3):
        mats = list(enumerate_matrices(n))
        size = triangle_size(n)
        full = (1 << size) - 1
        positions = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for pattern_bits in range(full + 1):
            pattern = ZeroPattern(
                n, frozenset(p for t, p in enumerate(positions) if pattern_bits >> t & 1)
            )
            keep = full & ~pattern_bits
            for a in mats[:: 7 if n == 3 else 1]:
                assert matrix_bits(pattern(a)) == matrix_bits(a) & keep


# --- classifications ------------------------------------------------------------------

def local_derivations(n):
    """The positions of every zero pattern at dimension n that passes the
    local characterization."""
    positions = list(iter_positions(n))
    patterns = (
        frozenset(p for t, p in enumerate(positions) if bits >> t & 1)
        for bits in range(1 << len(positions))
    )
    return {ps for ps in patterns if ZeroPattern(n, ps).is_derivation()}


def test_classify_dimension_one():
    report = brute_force_classify(1)
    assert report.total_patterns == 2
    assert {p.positions for p in report.derivation_patterns} == {
        frozenset(),
        frozenset({(1, 1)}),
    }
    assert report.counts == (2, 2, 0)
    assert {p.positions for p in report.derivation_patterns} == local_derivations(1)


def test_classify_dimension_two_frozen():
    report = brute_force_classify(2)
    assert report.total_patterns == 8
    assert {p.positions for p in report.derivation_patterns} == {
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(2, 2)}),
        frozenset({(1, 1), (2, 2)}),
        frozenset({(1, 1), (1, 2), (2, 2)}),
    }
    assert report.counts == (5, 4, 1)
    assert {p.positions for p in report.derivation_patterns} == local_derivations(2)


def test_classify_dimension_three():
    report = brute_force_classify(3)
    assert report.total_patterns == 64
    found = {p.positions for p in report.derivation_patterns}
    assert found == local_derivations(3)
    for mask in (MaskDerivation(3, frozenset({i + 1 for i in range(3) if b >> i & 1}))
                 for b in range(8)):
        assert mask.positions in found
    assert strip_diagonal(3).positions in found
    # both verification routes agreed on all 64 patterns; freeze the totals
    assert report.counts == (13, 8, 5)


@pytest.mark.parametrize(
    "n, counts",
    [(1, (2, 2, 0)), (2, (5, 4, 1)), (3, (13, 8, 5)), (4, (34, 16, 18)), (5, (89, 32, 57))],
)
def test_classified_patterns_equal_their_checked_rebuilds(n, counts):
    report = brute_force_classify(n)
    assert report.counts == counts
    for pattern in report.derivation_patterns:
        assert type(pattern) is ZeroPattern
        assert vars(pattern) == vars(ZeroPattern(n, pattern.positions))


def test_classify_contains_empty_and_full():
    for n in (1, 2, 3):
        report = brute_force_classify(n)
        patterns = {p.positions for p in report.derivation_patterns}
        assert frozenset() in patterns
        everything = frozenset((i, j) for i in range(1, n + 1) for j in range(i, n + 1))
        assert everything in patterns


def test_classify_capacity(monkeypatch):
    """Past the cap the engine's first step, the cell plan, is not reached."""
    monkeypatch.setattr(oracle, "_cells", refuse)
    monkeypatch.setattr(oracle, "_sweep", refuse)
    with pytest.raises(CapacityError):
        brute_force_classify(6)


def test_classify_dimension_four():
    """The sweep's n = 4 verdicts are the local characterization's, with
    34 = F(9) derivation patterns."""
    report = brute_force_classify(4)
    assert report.total_patterns == 1024
    assert {p.positions for p in report.derivation_patterns} == local_derivations(4)
    assert report.counts == (34, 16, 18)


def test_classify_matches_direct_leibniz_sweep_at_n2():
    """Independent route: rerun n=2 with the plain matrix-level checker."""
    mats = list(enumerate_matrices(2))
    positions = [(1, 1), (1, 2), (2, 2)]
    direct = set()
    for bits in range(8):
        pattern = ZeroPattern(2, frozenset(p for t, p in enumerate(positions) if bits >> t & 1))
        if all(leibniz_check(pattern, a, b) is None for a in mats for b in mats):
            direct.add(pattern.positions)
    report = brute_force_classify(2)
    assert direct == {p.positions for p in report.derivation_patterns}


def test_theorem2_compositions_in_oracle_verdicts():
    for n in (2, 3):
        report = brute_force_classify(n)
        verdicts = {p.positions for p in report.derivation_patterns}
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                pattern = delta_k(n, k).compose(d_m(n, m))
                assert (pattern.positions in verdicts) == (k + m >= n)


def test_boolean_verdicts_transfer_to_every_instance():
    """Patterns the sweep certifies stay derivations over all shipped carriers."""
    report = brute_force_classify(3)
    rng = random.Random(61)
    for pattern in report.derivation_patterns:
        for semiring in (BOOLEAN, MAXPLUS, MINPLUS, FUZZY):
            for _ in range(5):
                a = random_matrix(3, semiring, rng)
                b = random_matrix(3, semiring, rng)
                assert leibniz_check(pattern, a, b) is None, (pattern, semiring.name)
                assert linearity_check(pattern, a, b) is None


def test_exhaustive_witness_search():
    bad = delta_k(3, 1).compose(d_m(3, 1))
    found = exhaustive_leibniz_witness(bad)
    assert found is not None
    a, b, witness = found
    assert leibniz_check(bad, a, b) == witness
    good = MaskDerivation(3, {2})
    assert exhaustive_leibniz_witness(good) is None


def _direct_witness(f, n):
    """Reference route: leibniz_check on every matrix pair, in bitmask order."""
    mats = list(enumerate_matrices(n))
    for a in mats:
        for b in mats:
            witness = leibniz_check(f, a, b)
            if witness is not None:
                return (a, b, witness)
    return None


def _engine_cases():
    for n in (1, 2):
        positions = list(iter_positions(n))
        for bits in range(1 << len(positions)):
            zeroed = frozenset(p for t, p in enumerate(positions) if bits >> t & 1)
            yield pytest.param(ZeroPattern(n, zeroed), n, id=f"pattern-n{n}-{bits}")
    for k in range(1, 4):
        for m in range(1, 4):
            yield pytest.param(delta_k(3, k).compose(d_m(3, m)), 3, id=f"theorem2-k{k}-m{m}")
    for mask in enumerate_family_derivations(3):
        yield pytest.param(mask, 3, id=f"family-{sorted(mask.zero_set)}")


@pytest.mark.parametrize("f,n", _engine_cases())
def test_table_engine_matches_direct_sweep(f, n):
    assert exhaustive_leibniz_witness(f) == _direct_witness(f, n)


def _scalar_first_failure(product, zeroed):
    """Reference scan: each pair (a, b) of the product table in bitmask order."""
    keep = ~zeroed & (len(product) - 1)
    for a, row in enumerate(product):
        for b, ab in enumerate(row):
            if product[a & keep][b] | row[b & keep] != ab & keep:
                return a, b
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_failing_pair_matches_the_scalar_scan(n):
    """Every zero pattern's first failing pair, against real products."""
    mats = list(enumerate_matrices(n))
    product = [[matrix_bits(a * b) for b in mats] for a in mats]
    positions = list(iter_positions(n))
    for zeroed in range(len(mats)):
        pattern = ZeroPattern(n, frozenset(p for t, p in enumerate(positions) if zeroed >> t & 1))
        found = exhaustive_leibniz_witness(pattern)
        pair = None if found is None else (matrix_bits(found[0]), matrix_bits(found[1]))
        assert pair == _scalar_first_failure(product, zeroed), zeroed


def _sweeps_fail(n, zeroed, a, b):
    """The engine's verdict on one pair: some cell's sweep lists the pair of
    A's row vector and B's column vector there."""
    return any(
        sum((b >> q & 1) << k for k, (_, q) in enumerate(pairs))
        in fails.get(a >> pairs[0][0] & (1 << len(pairs)) - 1, ())
        for pairs, fails in oracle._failing_cells(n, zeroed)
    )


@pytest.mark.parametrize("n", [4, 5])
def test_pair_verdicts_match_leibniz_check_on_seeded_triples(n):
    """Past n = 3 every pair is too many for real products: seeded (pattern,
    A, B) triples keep UTMatrix.__mul__ as the reference, half of them on
    derivation patterns, whose every pair must pass."""
    positions = list(iter_positions(n))
    size = len(positions)
    derivations = [
        sum(1 << positions.index(p) for p in pattern.positions)
        for pattern in brute_force_classify(n).derivation_patterns
    ]
    rng = random.Random(31 + n)
    verdicts = []
    for trial in range(2000):
        zeroed = rng.choice(derivations) if trial % 2 else rng.getrandbits(size)
        a, b = rng.getrandbits(size), rng.getrandbits(size)
        pattern = ZeroPattern(n, frozenset(p for t, p in enumerate(positions) if zeroed >> t & 1))
        a_mat, b_mat = oracle._boolean(n, a), oracle._boolean(n, b)
        assert (matrix_bits(a_mat), matrix_bits(b_mat)) == (a, b)
        fails = _sweeps_fail(n, zeroed, a, b)
        assert fails == (leibniz_check(pattern, a_mat, b_mat) is not None), (zeroed, a, b)
        verdicts.append(fails)
    assert 300 < sum(verdicts) < 1000  # both verdicts are well represented


def test_classification_makes_no_matrix_product(monkeypatch):
    """The sweeps read bits only: with cold memos and UTMatrix.__mul__
    raising, every dimension up to the cap classifies."""
    def refuse_product(self, other):
        raise AssertionError("UTMatrix.__mul__ called")

    oracle._cells.cache_clear()
    oracle._sweep.cache_clear()
    monkeypatch.setattr(UTMatrix, "__mul__", refuse_product)
    dims = range(1, oracle.EXHAUSTIVE_LIMIT + 1)
    assert [brute_force_classify(n).derivation_count for n in dims] == [2, 5, 13, 34, 89]


def test_each_sweep_is_computed_once_for_every_dimension(monkeypatch):
    """A sweep depends on (L, R, C) alone: the n = 3, 4 and 5 classifications
    ask for some keys at several dimensions, and each key is swept once."""
    real = oracle._sweep
    real.cache_clear()
    oracle._cells.cache_clear()
    asked = {}

    def recorded(*key):
        asked.setdefault(key, set()).add(n)
        return real(*key)

    monkeypatch.setattr(oracle, "_sweep", recorded)
    for n in (3, 4, 5):
        brute_force_classify(n)
    assert real.cache_info().misses == len(asked)
    assert any(len(dims) > 1 for dims in asked.values())


def test_exhaustive_witness_rejects_non_mask_maps():
    with pytest.raises(TypeError):
        exhaustive_leibniz_witness(lambda m: m)
    with pytest.raises(TypeError):
        exhaustive_leibniz_witness(ShiftDerivation(0).hereditary())


def test_exhaustive_witness_capacity(monkeypatch):
    monkeypatch.setattr(oracle, "_cells", refuse)
    monkeypatch.setattr(oracle, "_sweep", refuse)
    with pytest.raises(CapacityError):
        exhaustive_leibniz_witness(MaskDerivation(6, frozenset()))


def test_exhaustive_witness_refuses_large_n_before_reading_the_pattern():
    f = ZeroPattern(2000, frozenset())
    with pytest.raises(CapacityError):
        exhaustive_leibniz_witness(f)
    assert "_zeroed" not in f.__dict__  # no scan of the n(n+1)/2 positions
    mask = MaskDerivation(2000, frozenset(range(1, 1001)))
    before = derivations._mask_cells.cache_info()
    with pytest.raises(CapacityError):
        exhaustive_leibniz_witness(mask)
    assert derivations._mask_cells.cache_info() == before  # no cells looked up or built
    assert "positions" not in mask.__dict__ and "_zeroed" not in mask.__dict__


def test_exhaustive_witness_raises_when_routes_disagree(monkeypatch):
    """Both second routes are live: a disagreement with either one raises."""
    bad = delta_k(3, 1).compose(d_m(3, 1))
    monkeypatch.setattr(oracle, "leibniz_check", lambda f, a, b: None)
    with pytest.raises(RuntimeError):
        exhaustive_leibniz_witness(bad)
    monkeypatch.undo()
    monkeypatch.setattr(ZeroPattern, "is_derivation", lambda self: False)
    with pytest.raises(RuntimeError):
        exhaustive_leibniz_witness(MaskDerivation(3, {2}))


def test_exhaustive_witness_raises_when_is_derivation_accepts_a_witness(monkeypatch):
    monkeypatch.setattr(ZeroPattern, "is_derivation", lambda self: True)
    with pytest.raises(RuntimeError, match="local characterization disagrees"):
        exhaustive_leibniz_witness(delta_k(3, 1).compose(d_m(3, 1)))


def test_classify_raises_when_routes_disagree(monkeypatch, capsys):
    real = ZeroPattern.is_derivation
    monkeypatch.setattr(ZeroPattern, "is_derivation", lambda self: not real(self))
    with pytest.raises(RuntimeError, match=r"no boolean witness for pattern '', but"):
        brute_force_classify(2)
    # The CLI reports the disagreement as one error line, exit 1, no traceback.
    for argv in (
        ["oracle", "--n", "2"],
        ["verify", "leibniz", "--n", "2", "--semiring", "boolean", "--exhaustive"],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: cell sweeps find no boolean witness for pattern '', "
            "but the local characterization disagrees\n"
        )


def test_format_report_lines():
    text = format_report(brute_force_classify(1))
    assert text.splitlines() == [
        "derivation=",
        "derivation=1,1",
        "total=2",
        "interval_form=2",
        "other=0",
    ]
