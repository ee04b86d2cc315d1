"""Triangular matrix arithmetic, the Jordan product, and the text format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trideriv import (
    BOOLEAN,
    MAXPLUS,
    MINUS_INF,
    PLUS_INF,
    FUZZY,
    MINPLUS,
    CarrierError,
    MatrixMismatchError,
    TriangularityError,
    UTMatrix,
    diag_head,
    diag_tail,
    format_matrix,
    iter_positions,
    jordan,
    matrix_unit,
    parse_matrix,
    random_matrix,
    triangle_size,
)

INSTANCES = [BOOLEAN, MAXPLUS, MINPLUS, FUZZY]


def all_boolean(n):
    from trideriv import enumerate_matrices

    return list(enumerate_matrices(n))


# --- builders ----------------------------------------------------------------

def test_constructor_checks_the_entry_count_and_stores_a_tuple():
    with pytest.raises(ValueError, match=r"^expected 3 entries for n=2, got 2$"):
        UTMatrix(2, BOOLEAN, (0, 1))
    matrix = UTMatrix(2, BOOLEAN, [0, 1, 1])
    assert type(matrix.entries) is tuple and matrix.entries == (0, 1, 1)


def test_matrix_unit_boolean():
    e = matrix_unit(2, 1, 2, BOOLEAN)
    assert e[1, 2] == 1 and e[1, 1] == 0 and e[2, 2] == 0


def test_matrix_unit_maxplus_uses_maxplus_constants():
    e = matrix_unit(3, 2, 2, MAXPLUS)
    assert e[2, 2] == 0  # multiplicative one of max-plus
    assert e[1, 1] == MINUS_INF and e[1, 3] == MINUS_INF


def test_matrix_unit_one_by_one():
    assert matrix_unit(1, 1, 1, BOOLEAN).entries == (1,)


def test_matrix_unit_rejects_subdiagonal():
    with pytest.raises(TriangularityError):
        matrix_unit(3, 2, 1, BOOLEAN)
    with pytest.raises(IndexError):
        matrix_unit(3, 1, 4, BOOLEAN)


@pytest.mark.parametrize(
    "site",
    [
        lambda: matrix_unit(2, True, 2, BOOLEAN),
        lambda: UTMatrix.from_dict(2, BOOLEAN, {(True, 2): 1}),
        lambda: UTMatrix.identity(2, BOOLEAN)[1, True],
    ],
    ids=["unit", "from-dict", "getitem"],
)
def test_a_bool_position_is_out_of_range(site):
    with pytest.raises(IndexError, match=r"^position \((True, 2|1, True)\) outside 1\.\.2$"):
        site()


def test_diag_head():
    assert diag_head(3, 3, BOOLEAN) == UTMatrix.identity(3, BOOLEAN)
    assert diag_head(3, 1, BOOLEAN) == matrix_unit(3, 1, 1, BOOLEAN)
    d = diag_head(4, 2, MAXPLUS)
    assert [d[i, i] for i in range(1, 5)] == [0, 0, MINUS_INF, MINUS_INF]
    with pytest.raises(ValueError):
        diag_head(3, 0, BOOLEAN)
    with pytest.raises(ValueError):
        diag_head(3, 4, BOOLEAN)
    with pytest.raises(ValueError, match=r"^k=True outside 1\.\.3$"):
        diag_head(3, True, BOOLEAN)


def test_diag_tail():
    assert diag_tail(3, 3, BOOLEAN) == UTMatrix.identity(3, BOOLEAN)
    assert diag_tail(3, 1, BOOLEAN) == matrix_unit(3, 3, 3, BOOLEAN)
    e33 = matrix_unit(4, 3, 3, BOOLEAN)
    e44 = matrix_unit(4, 4, 4, BOOLEAN)
    assert diag_tail(4, 2, BOOLEAN) == e33 + e44
    with pytest.raises(ValueError):
        diag_tail(4, 5, BOOLEAN)
    with pytest.raises(ValueError, match=r"^m=2\.0 outside 1\.\.3$"):
        diag_tail(3, 2.0, BOOLEAN)


def test_head_plus_tail_is_identity_iff_k_plus_m_covers():
    for n in range(1, 6):
        identity = UTMatrix.identity(n, BOOLEAN)
        for k in range(1, n + 1):
            for m in range(1, n + 1):
                total = diag_head(n, k, BOOLEAN) + diag_tail(n, m, BOOLEAN)
                assert (total == identity) == (k + m >= n)


# --- arithmetic ---------------------------------------------------------------

def test_add_idempotent():
    rng = random.Random(0)
    for semiring in INSTANCES:
        a = random_matrix(4, semiring, rng)
        assert a + a == a


def test_add_units():
    assert matrix_unit(2, 1, 1, BOOLEAN) + matrix_unit(2, 2, 2, BOOLEAN) == diag_head(
        2, 2, BOOLEAN
    )


def test_add_maxplus_entrywise():
    a = UTMatrix.from_rows(MAXPLUS, [[3, MINUS_INF], [1]])
    b = UTMatrix.from_rows(MAXPLUS, [[0, 2], [5]])
    assert a + b == UTMatrix.from_rows(MAXPLUS, [[3, 2], [5]])


def test_unit_product_rule():
    n = 4
    for i in range(1, n + 1):
        for k in range(i, n + 1):
            for l in range(1, n + 1):
                for j in range(l, n + 1):
                    product = matrix_unit(n, i, k, BOOLEAN) * matrix_unit(n, l, j, BOOLEAN)
                    if k == l:
                        assert product == matrix_unit(n, i, j, BOOLEAN)
                    else:
                        assert product == UTMatrix.zeros(n, BOOLEAN)


def test_mul_maxplus_example():
    a = UTMatrix.from_rows(MAXPLUS, [[0, 5], [0]])
    b = UTMatrix.from_rows(MAXPLUS, [[0, 0], [5]])
    # (1,2) entry is max(0+0, 5+5) = 10
    assert a * b == UTMatrix.from_rows(MAXPLUS, [[0, 10], [5]])


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_mul_associative_and_distributive(semiring):
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(3, semiring, rng)
        b = random_matrix(3, semiring, rng)
        c = random_matrix(3, semiring, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (b + c) * a == b * a + c * a


def test_identity_is_multiplicative_one():
    rng = random.Random(5)
    for semiring in INSTANCES:
        a = random_matrix(4, semiring, rng)
        e = UTMatrix.identity(4, semiring)
        assert a * e == a and e * a == a


def test_mismatch_errors():
    a = random_matrix(3, BOOLEAN, random.Random(1))
    b = random_matrix(4, BOOLEAN, random.Random(1))
    c = random_matrix(3, MAXPLUS, random.Random(1))
    with pytest.raises(MatrixMismatchError):
        a + b
    with pytest.raises(MatrixMismatchError):
        a * c


def test_getitem_subdiagonal_not_addressable():
    a = UTMatrix.identity(3, BOOLEAN)
    with pytest.raises(TriangularityError):
        a[3, 1]
    with pytest.raises(IndexError):
        a[0, 2]


# --- the Jordan product ---------------------------------------------------------

def test_jordan_with_head_keeps_first_rows():
    # exhaustive over all boolean 2x2: A o head_1 = [[a, b], [., 0]]
    for a in all_boolean(2):
        expected = UTMatrix.from_rows(BOOLEAN, [[a[1, 1], a[1, 2]], [0]])
        assert jordan(a, diag_head(2, 1, BOOLEAN)) == expected


def test_jordan_with_tail_keeps_last_columns():
    for a in all_boolean(2):
        expected = UTMatrix.from_rows(BOOLEAN, [[0, a[1, 2]], [a[2, 2]]])
        assert jordan(a, diag_tail(2, 1, BOOLEAN)) == expected


def test_jordan_with_identity():
    rng = random.Random(3)
    for semiring in INSTANCES:
        a = random_matrix(4, semiring, rng)
        assert jordan(a, UTMatrix.identity(4, semiring)) == a


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_projector_absorption(semiring):
    """head_k A head_k = A head_k and tail_m A tail_m = tail_m A."""
    rng = random.Random(17)
    for n in (1, 2, 4):
        for _ in range(10):
            a = random_matrix(n, semiring, rng)
            for k in range(1, n + 1):
                head = diag_head(n, k, semiring)
                assert head * a * head == a * head
                assert jordan(a, head) == head * a
            for m in range(1, n + 1):
                tail = diag_tail(n, m, semiring)
                assert tail * a * tail == tail * a
                assert jordan(a, tail) == a * tail


# --- text format -----------------------------------------------------------------

def test_format_matrix_layout():
    a = UTMatrix.from_rows(MAXPLUS, [[5, 0, MINUS_INF], [1, 2], [3]])
    assert format_matrix(a) == (
        "utm n=3 semiring=maxplus\n"
        "5 0 -inf\n"
        ". 1 2\n"
        ". . 3\n"
    )


@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_text_roundtrip(semiring):
    rng = random.Random(23)
    for n in (1, 2, 5):
        a = random_matrix(n, semiring, rng)
        assert parse_matrix(format_matrix(a)) == a


def carrier_elements(semiring):
    """Every kind of element the carrier holds, well beyond the sampler's range."""
    if semiring is BOOLEAN:
        return st.sampled_from([0, 1])
    if semiring is FUZZY:
        return st.sampled_from([0, 1]) | st.fractions(min_value=0, max_value=1)
    bottom = MINUS_INF if semiring is MAXPLUS else PLUS_INF
    return st.just(bottom) | st.integers() | st.fractions()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INSTANCES), st.integers(1, 6), st.data())
def test_text_roundtrip_property(semiring, n, data):
    entries = data.draw(
        st.lists(carrier_elements(semiring), min_size=triangle_size(n), max_size=triangle_size(n))
    )
    a = UTMatrix(n, semiring, tuple(entries))
    assert parse_matrix(format_matrix(a)) == a


@pytest.mark.parametrize(
    "text",
    [
        "",
        "utm n=2\n1 1\n. 1\n",                        # header too short
        "utm n=two semiring=boolean\n",               # bad dimension
        "utm n=0 semiring=boolean\n",                 # dimension < 1
        "utm n=2 semiring=nope\n1 1\n. 1\n",          # unknown semiring
        "utm n=2 semiring=boolean\n1 1\n",            # missing row
        "utm n=2 semiring=boolean\n1 1\n. 1\n. 1\n",  # extra row
        "utm n=2 semiring=boolean\n1\n. 1\n",         # wrong token count
        "utm n=2 semiring=boolean\n1 1\n0 1\n",       # sub-diagonal not '.'
        "utm n=2 semiring=boolean\n1 .\n. 1\n",       # placeholder above diagonal
        "utm n=2 semiring=boolean\n1 2\n. 1\n",       # out-of-domain literal
        "utm n=2 semiring=maxplus\n0 +inf\n. 0\n",    # wrong infinity
    ],
)
def test_parse_matrix_strictness(text):
    with pytest.raises(ValueError):
        parse_matrix(text)


def test_parse_matrix_tolerates_trailing_newlines():
    text = "utm n=1 semiring=boolean\n1\n\n"
    assert parse_matrix(text) == matrix_unit(1, 1, 1, BOOLEAN)


def test_from_rows_validates():
    with pytest.raises(ValueError):
        UTMatrix.from_rows(BOOLEAN, [[1, 1], [1], [1]])  # ragged for n=3
    with pytest.raises(ValueError):
        UTMatrix.from_rows(BOOLEAN, [[2, 1], [1]])  # 2 not boolean


def test_public_constructor_checks_every_entry():
    with pytest.raises(CarrierError):
        UTMatrix(2, BOOLEAN, (5, 7, 9))
    with pytest.raises(CarrierError):
        UTMatrix(2, MAXPLUS, (0.5, 1, 2))
    with pytest.raises(CarrierError):
        UTMatrix(1, BOOLEAN, (True,))
    with pytest.raises(CarrierError):
        UTMatrix.from_dict(2, MINPLUS, {(1, 2): MINUS_INF})


# --- the planned product against the textbook triple loop ---------------------------

def reference_mul(x, y):
    """The triple loop: acc = zero, then acc = add(acc, mul(x_ik, y_kj)) for k = i..j."""
    s = x.semiring
    cells = []
    for i, j in iter_positions(x.n):
        acc = s.zero
        for k in range(i, j + 1):
            acc = s.add(acc, s.mul(x[i, k], y[k, j]))
        cells.append(acc)
    return cells


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("semiring", INSTANCES, ids=lambda s: s.name)
def test_product_matches_triple_loop_in_value_and_type(semiring, n):
    rng = random.Random(n)
    mats = [random_matrix(n, semiring, rng) for _ in range(3)]
    mats += [UTMatrix.identity(n, semiring), UTMatrix.zeros(n, semiring), diag_head(n, 1, semiring)]
    # Sums with the identity mix Fraction(0) into int entries, so the fold meets
    # equal values of different types.
    mats += [mats[0] + mats[3], mats[1] + mats[5]]
    for x in mats:
        for y in mats:
            got, want = list((x * y).entries), reference_mul(x, y)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]


# --- seeded streams ----------------------------------------------------------------

@pytest.mark.parametrize(
    "semiring, seed, entries",
    [
        (BOOLEAN, 0, (1, 1, 0, 1, 1, 1)),
        (BOOLEAN, 631, (1, 1, 0, 0, 0, 0)),
        (MAXPLUS, 0, (6, MINUS_INF, 11, -1, 2, -7)),
        (MAXPLUS, 631, (1, -9, 18, 12, -2, -11)),
        (MINPLUS, 0, (6, PLUS_INF, 11, -1, 2, -7)),
        (FUZZY, 0, tuple(Fraction(k, 16) for k in (12, 13, 1, 8, 16, 15))),
        (FUZZY, 631, tuple(Fraction(k, 16) for k in (9, 10, 6, 5, 4, 6))),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_random_matrix_stream_is_pinned(semiring, seed, entries):
    got = random_matrix(3, semiring, random.Random(seed)).entries
    assert got == entries
    assert [type(v) for v in got] == [type(v) for v in entries]
