"""Exit-code contract, output formats, and byte-determinism of the CLI."""

import contextlib
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from test_derivations import program_chain

from trideriv import (
    FUZZY,
    MINUS_INF,
    HereditaryShift,
    MaskDerivation,
    UTMatrix,
    ZeroPattern,
    d_m,
    decompose,
    delta_k,
    enumerate_family_derivations,
    enumerate_matrices,
    format_zero_set,
    get_semiring,
    iter_positions,
    leibniz_check,
    linearity_check,
    parse_zero_set,
    random_matrix,
    strip_diagonal,
)
from trideriv import cli, oracle, shifts
from trideriv.cli import (
    INTERVAL_ENUMERATION_LIMIT,
    TRIALS_LIMIT,
    VERIFY_WORK_LIMIT,
    _family_zero_set_texts,
    main,
    verify_work,
)
from trideriv.derivations import Witness, _fold_programs, _zeroing, first_failures
from trideriv.semirings import Semiring, _ranked

MAXPLUS_3X3 = (
    "utm n=3 semiring=maxplus\n"
    "1 2 3\n"
    ". 4 5\n"
    ". . 6\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "a.utm"
    path.write_text(MAXPLUS_3X3)
    return str(path)


# --- axioms ---------------------------------------------------------------------

def test_axioms_pass(capsys):
    code, out, err = run(capsys, "axioms", "--semiring", "maxplus", "--trials", "1000", "--seed", "42")
    assert code == 0
    assert out == "PASS axioms semiring=maxplus trials=1000 seed=42\n"
    assert err == ""


def test_axioms_boolean_default_flags(capsys):
    code, out, _ = run(capsys, "axioms", "--semiring", "boolean")
    assert code == 0
    assert out.startswith("PASS axioms semiring=boolean")


def test_axioms_unknown_semiring(capsys):
    code, out, err = run(capsys, "axioms", "--semiring", "integers")
    assert code == 2
    assert out == ""
    assert "unknown semiring" in err


def test_axioms_trials_cap(capsys, monkeypatch):
    calls = []

    def fake_check_axioms(semiring, trials, seed):
        calls.append(trials)
        return None

    monkeypatch.setattr(cli, "check_axioms", fake_check_axioms)
    limit = TRIALS_LIMIT
    code, out, _ = run(capsys, "axioms", "--semiring", "fuzzy", "--trials", str(limit))
    assert code == 0
    assert out == f"PASS axioms semiring=fuzzy trials={limit} seed=0\n"
    code, out, err = run(capsys, "axioms", "--semiring", "fuzzy", "--trials", str(limit + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: axioms trials capped at {limit}\n"
    assert calls == [limit]


# --- apply ----------------------------------------------------------------------

def test_apply_delta_k_zeroes_lower_rows(capsys, matrix_file):
    code, out, _ = run(capsys, "apply", "--matrix", matrix_file, "--delta-k", "1")
    assert code == 0
    assert out == (
        "utm n=3 semiring=maxplus\n"
        "1 2 3\n"
        ". -inf -inf\n"
        ". . -inf\n"
    )


def test_apply_zero_set_single_diagonal(capsys, matrix_file):
    code, out, _ = run(capsys, "apply", "--matrix", matrix_file, "--zero-set", "2")
    assert code == 0
    assert out == (
        "utm n=3 semiring=maxplus\n"
        "1 2 3\n"
        ". -inf 5\n"
        ". . 6\n"
    )


def test_apply_shift_adds_to_every_entry(capsys, matrix_file):
    code, out, _ = run(capsys, "apply", "--matrix", matrix_file, "--shift", "2")
    assert code == 0
    assert out == (
        "utm n=3 semiring=maxplus\n"
        "3 4 5\n"
        ". 6 7\n"
        ". . 8\n"
    )


def test_apply_bottom_shift_needs_the_equals_form(capsys, matrix_file):
    code, out, _ = run(capsys, "apply", "--matrix", matrix_file, "--shift=-inf")
    assert code == 0
    assert out == (
        "utm n=3 semiring=maxplus\n"
        "-inf -inf -inf\n"
        ". -inf -inf\n"
        ". . -inf\n"
    )


def test_apply_pattern(capsys, matrix_file):
    code, out, _ = run(capsys, "apply", "--matrix", matrix_file, "--pattern", "1,1;3,3")
    assert code == 0
    assert out == (
        "utm n=3 semiring=maxplus\n"
        "-inf 2 3\n"
        ". 4 5\n"
        ". . -inf\n"
    )


def test_apply_requires_exactly_one_mask_option(matrix_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["apply", "--matrix", matrix_file])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["apply", "--matrix", matrix_file, "--delta-k", "1", "--d-m", "1"])
    assert excinfo.value.code == 2


def test_a_usage_error_leaves_the_reused_parser_as_it_was(capsys, matrix_file):
    argv = ["apply", "--matrix", matrix_file, "--zero-set", "2"]
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--pattern", "1,1"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == first


def test_apply_bad_matrix_file(capsys, tmp_path):
    path = tmp_path / "bad.utm"
    path.write_text("utm n=2 semiring=maxplus\n1 1\n1 1\n")
    code, _, err = run(capsys, "apply", "--matrix", str(path), "--delta-k", "1")
    assert code == 2
    assert "sub-diagonal" in err


def test_apply_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "apply", "--matrix", str(tmp_path / "none"), "--delta-k", "1")
    assert code == 2


def test_apply_out_of_range_mask(capsys, matrix_file):
    code, _, err = run(capsys, "apply", "--matrix", matrix_file, "--delta-k", "7")
    assert code == 2
    assert "outside" in err


def test_apply_shift_on_non_maxplus(capsys, tmp_path):
    path = tmp_path / "b.utm"
    path.write_text("utm n=1 semiring=boolean\n1\n")
    code, _, err = run(capsys, "apply", "--matrix", str(path), "--shift", "1")
    assert code == 2
    assert "maxplus" in err


# --- enumerate ------------------------------------------------------------------

def test_enumerate_intervals(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--class", "intervals")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "zero_set="
    assert lines[-1] == "total=6"
    assert len(lines) == 7


def test_enumerate_families(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--class", "families")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total=8"
    assert "zero_set=1,2,3" in lines


def test_enumerate_families_n1(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--class", "families")
    assert code == 0
    assert out == "zero_set=\nzero_set=1\ntotal=2\n"


def test_enumerate_family_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "21", "--class", "families")
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("n", range(1, 13))
def test_family_zero_set_texts_follow_the_library_masks(n):
    """The CLI's second route to the family order: 2^(n - n // 2) lists of
    2^(n // 2) texts that read, joined, as the masks' zero sets index by index."""
    blocks = list(_family_zero_set_texts(n))
    assert [len(texts) for texts in blocks] == [1 << n // 2] * (1 << n - n // 2)
    expected = [format_zero_set(mask.zero_set) for mask in enumerate_family_derivations(n)]
    assert [text for texts in blocks for text in texts] == expected


class HashingSink:
    """A stdout that keeps only the sha256 and the line count of what it is sent."""

    def __init__(self):
        self.sha256, self.lines = hashlib.sha256(), 0

    def write(self, text):
        self.sha256.update(text.encode())
        self.lines += text.count("\n")
        return len(text)


def enumerate_into_sink(n):
    sink = HashingSink()
    with contextlib.redirect_stdout(sink):
        code = main(["enumerate", "--n", str(n), "--class", "families"])
    return code, sink


def test_enumerate_families_at_the_cap_writes_the_pinned_bytes():
    """2^20 zero sets and the total, pinned by the digest of the listing
    built line by line from ``enumerate_family_derivations(20)``."""
    code, sink = enumerate_into_sink(20)
    assert code == 0
    assert sink.lines == (1 << 20) + 1
    assert sink.sha256.hexdigest() == (
        "95118cf9f80d4c4d7e5a2b06c007d7744ea2f75141c7fa54fe4f5b8faebba4c5"
    )


def test_enumerate_families_at_the_cap_holds_half_width_texts():
    """Memory grows as 2^(n/2): at n = 20 the traced peak is about 0.5 MB,
    where a mask or a text per line held over 1 GB (14 MB already at n = 14)."""
    tracemalloc.start()
    try:
        code, sink = enumerate_into_sink(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.lines == (1 << 20) + 1
    assert peak < 4 << 20


def test_enumerate_interval_cap(capsys):
    n = str(INTERVAL_ENUMERATION_LIMIT + 1)
    code, out, err = run(capsys, "enumerate", "--n", n, "--class", "intervals")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "capped" in err


# --- verify ---------------------------------------------------------------------

def test_verify_theorem2_exhaustive(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem2", "--n", "3", "--semiring", "boolean", "--exhaustive"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS theorem2") for line in lines)
    assert "PASS theorem2 n=3 k=1 m=1 expected=witness empirical=witness" in lines


@pytest.mark.parametrize("kind, count", [("leibniz", 16), ("theorem2", 16)])
def test_verify_exhaustive_at_n4(capsys, kind, count):
    """Every family mask and composition is checked on all 1024² boolean
    pairs, and each verdict is PASS."""
    code, out, err = run(
        capsys, "verify", kind, "--n", "4", "--semiring", "boolean", "--exhaustive"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == count
    assert all(line.startswith(f"PASS {kind} n=4 ") for line in lines)


@pytest.mark.parametrize("kind, count", [("leibniz", 32), ("theorem2", 25)])
def test_verify_exhaustive_at_n5(capsys, kind, count):
    """Every family mask and composition is checked on all 32768² boolean
    pairs, through the cell sweeps, and each verdict is PASS."""
    code, out, err = run(
        capsys, "verify", kind, "--n", "5", "--semiring", "boolean", "--exhaustive"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == count
    assert all(line.startswith(f"PASS {kind} n=5 ") for line in lines)


@pytest.mark.parametrize("kind, count", [("leibniz", 64), ("theorem2", 36)])
def test_verify_exhaustive_at_n6(capsys, kind, count):
    """The cap is n = 6: every family mask and composition is checked on all
    (2²¹)² boolean pairs, through the cell sweeps, and each verdict is PASS."""
    code, out, err = run(
        capsys, "verify", kind, "--n", "6", "--semiring", "boolean", "--exhaustive"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == count
    assert all(line.startswith(f"PASS {kind} n=6 ") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--n", "7"),
        ("verify", "theorem2", "--n", "7", "--semiring", "boolean", "--exhaustive"),
    ],
)
def test_exhaustive_n7_is_refused_before_any_sweep(capsys, monkeypatch, argv):
    """Past the cap nothing is swept: the engine's first step, the cell plan,
    and the sweeps it feeds are not reached."""

    def refuse(*args):
        raise AssertionError("exhaustive work started")

    monkeypatch.setattr(oracle, "_cells", refuse)
    monkeypatch.setattr(oracle, "_sweep", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_verify_leibniz_random(capsys):
    code, out, _ = run(
        capsys, "verify", "leibniz", "--n", "3", "--semiring", "maxplus",
        "--trials", "25", "--seed", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8  # one verdict per subset of {1,2,3}
    assert all(line.startswith("PASS leibniz") for line in lines)


def test_verify_leibniz_exhaustive_boolean(capsys):
    code, out, _ = run(
        capsys, "verify", "leibniz", "--n", "2", "--semiring", "boolean", "--exhaustive"
    )
    assert code == 0
    assert len(out.splitlines()) == 4


def test_exhaustive_fail_line_replays_from_its_pair(capsys, monkeypatch):
    """An exhaustive FAIL line names its pair by enumeration index: rebuilding
    the pair from that line alone gives the printed witness."""
    def broken(mask):  # zeroing (1, n) as well breaks Leibniz unless all is zeroed
        return ZeroPattern(mask.n, mask.positions | {(1, mask.n)})

    real = cli.exhaustive_leibniz_witness
    monkeypatch.setattr(cli, "exhaustive_leibniz_witness", lambda f: real(broken(f)))
    code, out, _ = run(
        capsys, "verify", "leibniz", "--n", "3", "--semiring", "boolean", "--exhaustive"
    )
    assert code == 1
    mats = list(enumerate_matrices(3))
    fails = 0
    for mask, line in zip(enumerate_family_derivations(3), out.splitlines()):
        if line.startswith("PASS"):
            continue
        fields = dict(token.split("=") for token in line.split() if "=" in token)
        assert line.split()[:2] == ["FAIL", "leibniz"] and " exhaustive a_bits=" in line
        a, b = mats[int(fields["a_bits"])], mats[int(fields["b_bits"])]
        witness = leibniz_check(broken(mask), a, b)
        assert witness is not None
        assert (fields["position"], fields["lhs"], fields["rhs"]) == (
            "{},{}".format(*witness.position), str(witness.lhs), str(witness.rhs)
        )
        fails += 1
    assert fails == 7  # every mask but the all-zeroing one


def test_verify_exhaustive_needs_boolean_and_small_n(capsys):
    code, _, err = run(capsys, "verify", "leibniz", "--n", "3", "--exhaustive")
    assert code == 2
    assert "boolean" in err
    code, _, err = run(
        capsys, "verify", "leibniz", "--n", "7", "--semiring", "boolean", "--exhaustive"
    )
    assert code == 2


def test_verify_exhaustive_refuses_large_n_before_building_any_map(capsys, monkeypatch):
    """The CLI's own n check runs first: without it, theorem2 at n = 2000 would
    build 4·10⁶ compositions before the oracle's cap refused the dimension."""

    def refuse(*args):
        raise AssertionError("delta_k called")

    monkeypatch.setattr(cli, "delta_k", refuse)
    code, out, err = run(
        capsys, "verify", "theorem2", "--n", "2000", "--semiring", "boolean", "--exhaustive"
    )
    assert (code, out) == (2, "")
    assert "n <= 6" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--n", "2", "--semiring", "boolean", "--exhaustive", "--trials", "2"),
        ("hereditary", "--n", "2", "--exhaustive"),
    ],
)
def test_verify_exhaustive_only_for_leibniz_and_theorem2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "exhaustive mode applies only to leibniz and theorem2" in err


def reference_first_failure(fn, n, semiring, trials, seed):
    """The per-map trial loop: redraw trial t for this map alone."""
    for trial in range(trials):
        rng = random.Random(seed + trial)
        a, b = random_matrix(n, semiring, rng), random_matrix(n, semiring, rng)
        witness = leibniz_check(fn, a, b)
        if witness is not None:
            return trial, "leibniz", witness
        witness = linearity_check(fn, a, b)
        if witness is not None:
            return trial, "linearity", witness
    return None


def random_non_derivations(n, count):
    """``count`` seeded random zero patterns that fail the Leibniz rule."""
    rng = random.Random(n)
    positions = list(iter_positions(n))
    found = []
    while n >= 2 and len(found) < count:
        pattern = ZeroPattern(n, {p for p in positions if rng.random() < 0.5})
        if not pattern.is_derivation():
            found.append(pattern)
    return found


NATURALS = Semiring(  # ordinary (N, +, *): add is not idempotent, Leibniz fails early
    name="naturals",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    zero=0,
    one=1,
    contains=lambda v: isinstance(v, int) and v >= 0,
    parse_element=int,
    sample=lambda rng: rng.randint(0, 3),
)


def drifting_add(a, b):
    """max, except on {0, 1}: 0 + 0 = 1, 1 + 0 = 0 + 1 = 1 and 1 + 1 = 0."""
    return max(a, b) if max(a, b) > 1 else 1 - a if a == b else 1


# add(zero, zero) != zero, yet a mask derivation's zeroed cells still pass
# Leibniz (the all-zero folds give 1 on each side and 1 + 1 = 0), so its
# zeroed cells fail linearity instead; a drawn 0 breaks Leibniz at kept cells.
DRIFTING_ZERO = Semiring(
    name="drifting-zero",
    add=drifting_add,
    mul=min,
    zero=0,
    one=5,
    contains=lambda v: v in range(6),
    parse_element=int,
    sample=lambda rng: 0 if rng.random() < 0.02 else rng.randint(2, 5),
)


def one_side_maps(n):
    """Zero the first row, whose Leibniz witness comes from the Af(B) fold
    alone, and the last column, whose witness comes from f(A)B alone."""
    return [
        ZeroPattern(n, {(1, j) for j in range(1, n + 1)}),
        ZeroPattern(n, {(i, n) for i in range(1, n + 1)}),
    ]


def runner_maps(n):
    """The theorem-2 compositions, the family masks, some non-derivations,
    the one-side maps, and duplicates, which share every group with their
    originals."""
    maps = [
        delta_k(n, k).compose(d_m(n, m)) for k in range(1, n + 1) for m in range(1, n + 1)
    ]
    maps += enumerate_family_derivations(n)
    maps.append(ZeroPattern(n, {(1, n)}))  # not a derivation for n >= 2
    maps += random_non_derivations(n, 20) + one_side_maps(n)
    return maps + maps[::7]


# The laws fail on these: N's add is not idempotent, over DRIFTING_ZERO the
# mask derivations fail linearity, and max-plus with its zero moved to 0, its
# one, has mul(zero, x) == x.  Where zero absorbs mul, as on every shipped
# carrier, a key folds equal values on the f(A)B and Af(B) sides, so only the
# last shows a fold that masks the wrong side or a miss kept in the other
# side's memo.
LAW_BREAKERS = {
    "naturals": NATURALS,
    "drifting-zero": DRIFTING_ZERO,
    "zero-absorbs-nothing": get_semiring("maxplus")._replace(zero=0),
}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", ["maxplus", "minplus", "fuzzy", "boolean", *LAW_BREAKERS])
def test_trial_runner_matches_per_map_loop(name, n):
    semiring = LAW_BREAKERS.get(name) or get_semiring(name)
    maps = runner_maps(n)
    for seed in (0, 631):
        expected = [reference_first_failure(f, n, semiring, 12, seed) for f in maps]
        got = first_failures(maps, n, semiring, 12, seed)
        assert got == expected
        # Witness compares with ==, which lets Fraction(8) stand for 8.
        assert witness_types(got) == witness_types(expected)
        if name == "drifting-zero" and n >= 2:  # both checks' paths are reached
            assert {f[1] for f in got if f is not None} == {"leibniz", "linearity"}


@pytest.mark.parametrize("name", ["minplus", "zero-absorbs-nothing"])
def test_trial_runner_matches_per_map_loop_on_theorem2_at_n_10(name):
    # The deepest tries the benchmark's theorem2 runs build: ten pairs per
    # segment at the corner cell.
    semiring = LAW_BREAKERS.get(name) or get_semiring(name)
    n = 10
    maps = [delta_k(n, k).compose(d_m(n, m)) for k in range(1, n + 1) for m in range(1, n + 1)]
    expected = [reference_first_failure(f, n, semiring, 4, 3) for f in maps]
    got = first_failures(maps, n, semiring, 4, 3)
    assert got == expected
    assert witness_types(got) == witness_types(expected)


def witness_types(failures):
    return [None if f is None else (type(f[2].lhs), type(f[2].rhs)) for f in failures]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", ["maxplus", "fuzzy", "drifting-zero"])
def test_trial_runner_never_applies_a_map(monkeypatch, name, n):
    """The runner reads a map only through the cells it zeroes: with every
    mask map's apply raising, it finds the per-map loop's failures (fuzzy
    runs on ranks, drifting-zero fails both checks)."""
    semiring = LAW_BREAKERS.get(name) or get_semiring(name)
    maps = runner_maps(n)
    expected = [reference_first_failure(f, n, semiring, 12, 0) for f in maps]

    def refuse(fn, matrix):
        raise AssertionError(f"the trial runner applied {fn!r}")

    monkeypatch.setattr(MaskDerivation, "__call__", refuse)
    monkeypatch.setattr(ZeroPattern, "__call__", refuse)
    got = first_failures(maps, n, semiring, 12, 0)
    assert got == expected
    assert witness_types(got) == witness_types(expected)


# A lambda add is not ``_max``, so each twin runs its carrier without ranks.
OFF_BOTTOM_FUZZY = FUZZY._replace(zero=Fraction(1, 2))  # ranked, with zero above the bottom
INT_ZERO_FUZZY = FUZZY._replace(zero=0)  # ranked only while no drawn value equals 0
# Thirds, sevenths and twelfths: the rank keys need a common scale, not only a sort.
MIXED_FUZZY = FUZZY._replace(
    sample=lambda rng: Fraction(rng.randint(0, 21), 21)
    if rng.random() < 0.5 else Fraction(rng.randint(0, 12), 12),
)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize(
    "ranked",
    [FUZZY, OFF_BOTTOM_FUZZY, MIXED_FUZZY, INT_ZERO_FUZZY],
    ids=["fuzzy", "off-bottom-zero", "mixed-denominators", "int-zero"],
)
def test_trial_runner_on_ranks_matches_unranked_twin(ranked, n):
    twin = ranked._replace(add=lambda a, b: max(a, b))
    assert _ranked(ranked, (Fraction(1, 4),)) is not None
    assert _ranked(twin, (Fraction(1, 4),)) is None
    maps = runner_maps(n)
    for seed in (0, 631):
        got = first_failures(maps, n, ranked, 12, seed)
        expected = first_failures(maps, n, twin, 12, seed)
        assert got == expected
        assert witness_types(got) == witness_types(expected)


def test_trial_runner_fails_linearity_where_a_sum_is_not_equal_to_itself():
    """A kept cell whose sum is a NaN: (A + B)_t != add(a_t, b_t) even though
    both are the same call, so linearity fails there, as the per-map loop
    finds, whether each sum is a fresh NaN or one shared object (which a
    tuple ``==`` would pass).  Only n = 1 keeps the NaN out of every product cell."""
    shared = float("nan")
    for nan in (lambda: float("nan"), lambda: shared):
        poison = get_semiring("maxplus")._replace(
            add=lambda a, b, nan=nan: nan() if {a, b} == {2, 3} else max(a, b),
            mul=min,
            zero=0,
            sample=lambda rng: rng.randint(2, 3),
        )
        maps = [delta_k(1, 1), delta_k(1, 0)]  # keep the cell, zero it
        got = first_failures(maps, 1, poison, 12, 0)
        expected = [reference_first_failure(f, 1, poison, 12, 0) for f in maps]
        assert got[1] is None is expected[1]
        (trial, check, witness), (trial0, check0, witness0) = got[0], expected[0]
        assert (trial, check, witness.position) == (trial0, check0, witness0.position)
        assert check == "linearity" and math.isnan(witness.lhs) and math.isnan(witness.rhs)


@pytest.mark.parametrize("n", range(2, 8))
def test_trial_runner_witness_from_one_fold_side(n):
    semiring = get_semiring("maxplus")
    maps = one_side_maps(n)
    failures = first_failures(maps, n, semiring, 20, 5)
    positions = list(iter_positions(n))
    sides = []
    for fn, (trial, check, witness) in zip(maps, failures):
        rng = random.Random(5 + trial)
        a, b = random_matrix(n, semiring, rng), random_matrix(n, semiring, rng)
        t = positions.index(witness.position)
        left, right = (fn(a) * b).entries[t], (a * fn(b)).entries[t]
        assert (check, witness.lhs, witness.rhs) == ("leibniz", MINUS_INF, max(left, right))
        sides.append((left == MINUS_INF, right == MINUS_INF))
    assert sides == [(True, False), (False, True)]


@pytest.mark.parametrize("fn", [lambda m: m, strip_diagonal(3).__call__, "not a map"])
def test_trial_runner_rejects_non_mask_maps(fn):
    with pytest.raises(TypeError, match="trial runner needs a mask map"):
        first_failures([delta_k(3, 1), fn], 3, get_semiring("maxplus"), 1, 0)


def segment_maps():
    for n in range(1, 4):
        positions = list(iter_positions(n))
        for bits in range(1 << len(positions)):
            yield ZeroPattern(n, {p for t, p in enumerate(positions) if bits >> t & 1})
    for n in range(1, 9):
        yield from enumerate_family_derivations(n)


def test_trial_runner_groups_name_the_zeroed_operands():
    by_n: dict[int, list] = {}
    for fn in segment_maps():
        by_n.setdefault(fn.n, []).append(fn)
    checked = 0
    for n, maps in by_n.items():
        size = n * (n + 1) // 2
        programs = _fold_programs(_zeroing(maps, n), n, len(maps))
        for (i, j), (steps, groups) in zip(iter_positions(n), programs):
            group_of = {}
            for group in groups:  # the groups partition the maps
                members = group[3]
                assert members
                for index in range(len(maps)):
                    if members >> index & 1:
                        assert index not in group_of
                        group_of[index] = group
            assert sorted(group_of) == list(range(len(maps)))
            segment = range(i, j + 1)
            for index, fn in enumerate(maps):
                if isinstance(fn, MaskDerivation):  # first: a mask is a ZeroPattern too
                    # A mask kills (r, c) iff all of r..c is in its zero set.
                    zeroed = {
                        (r, c) for r, c in iter_positions(n)
                        if all(x in fn.zero_set for x in range(r, c + 1))
                    }
                else:
                    zeroed = fn.positions
                left, right, own, _ = group_of[index]
                # f(A)B's node reads a's operand (i, k) as zero exactly where f
                # zeroes it, Af(B)'s node b's operand (k, j), and neither the other's.
                row, col = program_chain(steps, left), program_chain(steps, right)
                assert len(row) == len(col) == len(segment)
                assert [x == 2 * size for x, _ in row] == [(i, k) in zeroed for k in segment]
                assert [y == 2 * size for _, y in col] == [(k, j) in zeroed for k in segment]
                assert 2 * size not in [y for _, y in row] + [x for x, _ in col]
                assert own == ((i, j) in zeroed)
                checked += 1
    assert checked == sum(  # every cell of 2 + 8 + 64 patterns and 2^n masks per n
        (1 << n * (n + 1) // 2) * n * (n + 1) // 2 for n in range(1, 4)
    ) + sum((1 << n) * n * (n + 1) // 2 for n in range(1, 9))


def test_trial_runner_without_maps():
    assert first_failures([], 3, get_semiring("maxplus"), 5, 0) == []



def test_verify_decompose(capsys):
    code, out, _ = run(
        capsys, "verify", "decompose", "--n", "6", "--trials", "20", "--seed", "7"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert all(line.startswith("PASS decompose") for line in lines)
    assert all("expr=" in line for line in lines)


def test_verify_decompose_pinned_stream(capsys):
    code, out, _ = run(
        capsys, "verify", "decompose", "--n", "5", "--trials", "6", "--seed", "11"
    )
    assert code == 0
    assert out == (
        "PASS decompose n=5 trial=0 zero_set=1,4 expr=delta3*d4 + d1\n"
        "PASS decompose n=5 trial=1 zero_set=1,4,5 expr=delta3*d4\n"
        "PASS decompose n=5 trial=2 zero_set=1,5 expr=delta4*d4\n"
        "PASS decompose n=5 trial=3 zero_set=1,5 expr=delta4*d4\n"
        "PASS decompose n=5 trial=4 zero_set=2,4 expr=delta1 + delta3*d3 + d1\n"
        "PASS decompose n=5 trial=5 zero_set=1,2,3,4,5 expr=delta5*d0\n"
    )


def one_more_column(mask):
    """``decompose`` with every product term keeping one more column: wrong
    wherever the true expression has a product term."""
    expr = decompose(mask)
    return expr._replace(terms=tuple(
        term._replace(m=term.m + 1) if None not in (term.k, term.m) else term
        for term in expr.terms
    ))


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("semiring", ["boolean", "maxplus", "fuzzy"])
def test_verify_decompose_fails_every_wrong_expression(capsys, monkeypatch, semiring, n):
    monkeypatch.setattr(cli, "decompose", one_more_column)
    code, out, _ = run(capsys, "verify", "decompose", "--n", str(n), "--semiring", semiring,
                       "--trials", "200", "--seed", "3")
    ones = UTMatrix(n, get_semiring("boolean"), (1,) * (n * (n + 1) // 2))
    wrong = []
    for line in out.splitlines():
        zero_set = parse_zero_set(line.split(" ")[4].removeprefix("zero_set="), n)
        mask = MaskDerivation(n, zero_set)  # on J, a boolean mask map shows every cell
        wrong.append(one_more_column(mask)(ones) != mask(ones))
    verdicts = [line.split(" ")[0] for line in out.splitlines()]
    assert len(verdicts) == 200 and 0 < sum(wrong) < 200
    assert verdicts == ["FAIL" if w else "PASS" for w in wrong]
    assert verdicts.index("FAIL") == wrong.index(True)
    assert code == 1


def test_verify_decompose_builds_each_expression_once(capsys, monkeypatch):
    built = []

    def counted(mask):
        built.append(mask.zero_set)
        return decompose(mask)

    monkeypatch.setattr(cli, "decompose", counted)
    code, out, _ = run(capsys, "verify", "decompose", "--n", "3", "--trials", "50")
    zero_sets = [line.split(" ")[4] for line in out.splitlines()]
    assert code == 0 and len(zero_sets) == 50
    assert len(built) == len(set(built)) == len(set(zero_sets)) == 8


def test_verify_hereditary(capsys):
    code, out, _ = run(
        capsys, "verify", "hereditary", "--n", "4", "--trials", "50", "--seed", "3"
    )
    assert code == 0
    assert out == "PASS hereditary n=4 trials=50 seed=3\n"


def test_verify_hereditary_prints_a_witness(capsys, monkeypatch):
    witness = Witness((1, 2), MINUS_INF, Fraction(3, 2))
    monkeypatch.setattr(HereditaryShift, "first_witness", lambda f, a, b: witness)
    code, out, _ = run(
        capsys, "verify", "hereditary", "--n", "4", "--trials", "50", "--seed", "3"
    )
    assert code == 1
    # trial 0 draws its shift first from random.Random(3)
    assert out == "FAIL hereditary n=4 trial=0 seed=3 shift=14 position=1,2 lhs=-inf rhs=3/2\n"


def test_verify_hereditary_requires_maxplus(capsys):
    code, _, err = run(
        capsys, "verify", "hereditary", "--n", "2", "--semiring", "boolean"
    )
    assert code == 2


class PlanReached(Exception):
    pass


def test_verify_hereditary_refuses_a_plan_past_its_cap(capsys, monkeypatch):
    """At n = 1000 one trial passes the work cap, but its product plan would
    take about 21 GB: the run is refused before the plan is built or a
    trial is drawn.  At the cap the run reaches the plan."""

    def plan(n):
        raise PlanReached(n)

    monkeypatch.setattr(shifts, "_mul_plan", plan)
    limit = cli._HEREDITARY_LIMIT
    assert verify_work("hereditary", 1000, 1) <= VERIFY_WORK_LIMIT
    for n in (limit + 1, 1000):
        assert run(capsys, "verify", "hereditary", "--n", str(n), "--trials", "1") == (
            2, "", f"error: hereditary verification capped at n={limit}\n"
        )
    with pytest.raises(PlanReached):
        main(["verify", "hereditary", "--n", str(limit), "--trials", "1"])


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("kind", ["leibniz", "theorem2", "decompose", "hereditary"])
def test_verify_rejects_trials_below_one(capsys, kind, trials):
    code, out, err = run(capsys, "verify", kind, "--n", "2", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--trials" in err


WORK_CAP = f"error: verify work capped at {VERIFY_WORK_LIMIT} (maps x trials x n^3); "
N_CUBED_CAP = WORK_CAP + "n^3 alone exceeds it\n"


def test_verify_leibniz_past_the_pinned_digests_prints_every_subset_in_order(capsys):
    """n = 13: one PASS line per subset of {1..13}, subset k holding index i
    where bit i - 1 of k is set, so the lines run through several blocks."""
    code, out, _ = run(capsys, "verify", "leibniz", "--n", "13", "--semiring", "boolean",
                       "--trials", "1")
    assert code == 0
    expected = [
        "PASS leibniz n=13 semiring=boolean zero_set="
        + ",".join(str(i) for i in range(1, 14) if k >> i - 1 & 1)
        for k in range(1 << 13)
    ]
    assert out.splitlines() == expected


def test_verify_leibniz_family_cap(capsys):
    """Past the family cap of ``enumerate``, a seeded leibniz run meets the
    work cap alone."""
    code, out, err = run(capsys, "verify", "leibniz", "--n", "21", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == WORK_CAP + "this run needs 19421724672\n"


@pytest.mark.parametrize("n", ["100000", str(10**10), "9" * 1600])
def test_verify_leibniz_family_cap_comes_before_the_work_count(capsys, n):
    """verify_work counts 2^n masks; the n^3 bound must refuse a large --n
    first, or the count alone builds a huge int (or fails to print it)."""
    code, out, err = run(capsys, "verify", "leibniz", "--n", n, "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == N_CUBED_CAP


@pytest.mark.parametrize(
    "argv",
    [
        ("leibniz", "--n", "12", "--semiring", "maxplus"),
        ("theorem2", "--n", "300", "--trials", "1"),
        ("decompose", "--n", "101"),
        ("hereditary", "--n", "1001", "--trials", "1"),
    ]
    + [
        (kind, "--n", n, "--trials", "1")
        for kind in ("leibniz", "theorem2", "decompose", "hereditary")
        for n in ("1001", str(10**10), "9" * 1600)
    ],
)
def test_verify_work_bound_rejects(capsys, argv):
    """A run over the work cap exits 2 with the cap message.  One whose n^3
    alone passes the cap is refused before anything is counted, so no
    count is built or printed, whatever the kind."""
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(WORK_CAP)
    if int(argv[2]) ** 3 > VERIFY_WORK_LIMIT:
        assert err == N_CUBED_CAP


def test_verify_work_bound_boundary():
    assert verify_work("leibniz", 12, 1000) == 4096 * 1000 * 12**3
    assert verify_work("theorem2", 10, 28) == 100 * 28 * 10**3
    assert verify_work("decompose", 7, 5) == verify_work("hereditary", 7, 5) == 5 * 7**3
    assert verify_work("leibniz", 17, 1) <= VERIFY_WORK_LIMIT < verify_work("leibniz", 18, 1)
    assert verify_work("hereditary", 100, 1000) <= VERIFY_WORK_LIMIT
    assert verify_work("hereditary", 100, 1001) > VERIFY_WORK_LIMIT


def test_verify_work_bound_exempts_exhaustive(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem2", "--n", "3", "--semiring", "boolean",
        "--exhaustive", "--trials", str(10**9),
    )
    assert code == 0
    assert len(out.splitlines()) == 9


def test_verify_trials_cap(capsys, monkeypatch):
    """At n = 1 a trial is one unit of work, so the work bound alone would
    let 10^9 trials through; the trials cap stops them first."""
    assert verify_work("hereditary", 1, 10**9) <= VERIFY_WORK_LIMIT
    calls = []

    def fake_hereditary(args, semiring):
        calls.append(args.trials)
        return 0

    monkeypatch.setitem(cli._VERIFY_KINDS, "hereditary", fake_hereditary)
    argv = ["verify", "hereditary", "--n", "1", "--trials"]
    assert run(capsys, *argv, str(TRIALS_LIMIT)) == (0, "", "")
    for trials in (TRIALS_LIMIT + 1, 10**9):
        assert run(capsys, *argv, str(trials)) == (
            2, "", f"error: verify trials capped at {TRIALS_LIMIT}\n"
        )
    assert calls == [TRIALS_LIMIT]


def test_exhaustive_notes_that_it_ignores_trials_and_seed(capsys):
    argv = ["verify", "leibniz", "--n", "2", "--semiring", "boolean", "--exhaustive"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    for seed in ("5", "-2"):  # a seeded run refuses -2; the exhaustive one ignores it
        assert run(capsys, *argv, "--seed", seed) == (
            0, out, "note: --exhaustive ignores --trials and --seed\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--semiring", "fuzzy"],
        ["verify", "leibniz", "--n", "3", "--trials", "5"],
        ["verify", "theorem2", "--n", "3"],
        ["verify", "decompose", "--n", "3"],
        ["verify", "hereditary", "--n", "3"],
    ],
)
def test_a_negative_seed_is_refused(capsys, argv):
    assert run(capsys, *argv, "--seed", "-2") == (2, "", "error: seed must be >= 0\n")


def test_a_trials_value_does_not_carry_into_the_next_call(capsys):
    argv = ["verify", "leibniz", "--n", "2", "--semiring", "boolean", "--exhaustive"]
    code, out, err = run(capsys, *argv, "--trials", "5")
    assert (code, err) == (0, "note: --exhaustive ignores --trials and --seed\n")
    assert run(capsys, *argv) == (0, out, "")


def test_verify_has_no_random_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "leibniz", "--n", "2", "--random"])
    assert exc.value.code == 2


def test_verify_unknown_kind():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "sorcery", "--n", "2"])
    assert excinfo.value.code == 2


# --- oracle ---------------------------------------------------------------------

def test_oracle_n1(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "1")
    assert code == 0
    assert out.splitlines() == [
        "derivation=",
        "derivation=1,1",
        "total=2",
        "interval_form=2",
        "other=0",
    ]


def test_oracle_n2_summary(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert "total=5" in lines
    assert "interval_form=4" in lines
    assert "other=1" in lines


def test_oracle_n3_interval_count(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert "interval_form=8" in lines
    total = next(int(l.split("=")[1]) for l in lines if l.startswith("total="))
    assert total >= 9


def test_oracle_n5_summary(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[-3:] == ["total=89", "interval_form=32", "other=57"]
    assert len(lines) == 89 + 3


def test_oracle_n6_summary(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[-3:] == ["total=233", "interval_form=64", "other=169"]
    assert len(lines) == 233 + 3


def test_oracle_capacity(capsys):
    code, _, err = run(capsys, "oracle", "--n", "7")
    assert code == 2
    assert err == "error: n=7 too large for exhaustive search (limit 6)\n"


# --- decompose ------------------------------------------------------------------

def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "4", "--zero-set", "1,2,4")
    assert code == 0
    assert out == "delta3*d2\n"


def test_decompose_identity(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "3", "--zero-set", "")
    assert code == 0
    assert out == "delta3\n"


def test_decompose_bad_zero_set(capsys):
    code, _, err = run(capsys, "decompose", "--n", "3", "--zero-set", "9")
    assert code == 2


# --- argument floors --------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, flag",
    [
        (("oracle", "--n", "0"), "n"),
        (("oracle", "--n", "-2"), "n"),
        (("enumerate", "--n", "0", "--class", "families"), "n"),
        (("decompose", "--n", "0", "--zero-set", ""), "n"),
        (("verify", "leibniz", "--n", "0", "--trials", "0"), "n"),
        (("axioms", "--semiring", "fuzzy", "--trials", "0"), "trials"),
        (("verify", "decompose", "--n", "2", "--trials", "-5"), "trials"),
    ],
    ids=["oracle", "oracle-negative", "enumerate", "decompose", "verify-n", "axioms",
         "verify-trials"],
)
def test_argument_floors_read_alike(capsys, argv, flag):
    assert run(capsys, *argv) == (2, "", f"error: --{flag} must be >= 1\n")


# --- determinism ------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--semiring", "fuzzy", "--trials", "500", "--seed", "11"],
        ["enumerate", "--n", "4", "--class", "families"],
        ["verify", "leibniz", "--n", "2", "--trials", "20", "--seed", "5"],
        ["verify", "theorem2", "--n", "3", "--trials", "30", "--seed", "1"],
        ["oracle", "--n", "2"],
    ],
)
def test_identical_invocations_produce_identical_bytes(capsys, argv):
    first_code = main(list(argv))
    first = capsys.readouterr()
    second_code = main(list(argv))
    second = capsys.readouterr()
    assert first_code == second_code
    assert first.out == second.out


# --- pinned runs ------------------------------------------------------------------

PINNED_MATRIX = (
    "utm n=4 semiring=maxplus\n"
    "0 1 -inf 2\n"
    ". 3 -1 4\n"
    ". . 5 0\n"
    ". . . 6\n"
)

PINNED_RUNS = [
    # 4096 maps, so each cell's bitset of maps in the trial runner is a 4096-bit int.
    ("verify leibniz --n 12 --semiring boolean --trials 2", 0, 4096),
    # The one-pass hereditary check over the max-plus sampler's stream.
    ("verify hereditary --n 6 --trials 400 --seed 5", 0,
     "PASS hereditary n=6 trials=400 seed=5\n"),
    # The exact decompose check, over the carrier where a sampled matrix hid
    # the most wrong expressions.
    ("verify decompose --n 6 --semiring boolean --trials 200 --seed 7", 0, 200),
    ("verify theorem2 --n 6 --semiring minplus --trials 30", 0, 36),
    # Ranked folds on both sides; the witnesses map back to the drawn values.
    ("verify theorem2 --n 8 --semiring fuzzy --trials 28", 0, 64),
    ("verify leibniz --n 5 --semiring fuzzy --trials 5", 0, 32),
    ("axioms --semiring boolean --trials 2000", 0, 1),
    # A mask applies through its zero pattern: the same bytes as its literal zeroed cells.
    ("apply --matrix m.utm --zero-set 2,3", 0,
     ("apply --matrix m.utm --pattern 2,2;2,3;3,3",)),
    ("apply --matrix m.utm --delta-k 1", 0,
     ("apply --matrix m.utm --pattern 2,2;2,3;2,4;3,3;3,4;4,4",)),
    # At n = 1 a trial is one unit of work; the trials cap, not the work cap, stops this.
    ("verify hereditary --n 1 --trials 1000001", 2, ""),
    # random.Random seeds by |seed|: from -2 these five trials would draw three pairs.
    ("verify leibniz --n 3 --trials 5 --seed -2", 2, ""),
    ("axioms --semiring maxplus --seed -1", 2, ""),
]


@pytest.mark.parametrize("argv, code, expected", PINNED_RUNS, ids=[r[0] for r in PINNED_RUNS])
def test_pinned_runs(capsys, tmp_path, monkeypatch, argv, code, expected):
    """A command's exit code, and its stdout: that many lines, all ``PASS``
    (an int), these exact bytes (a string), or the bytes of the command in
    a 1-tuple."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.utm").write_text(PINNED_MATRIX)
    got, out, _ = run(capsys, *argv.split())
    assert got == code
    if isinstance(expected, int):
        lines = out.splitlines()
        assert len(lines) == expected
        assert all(line.startswith("PASS ") for line in lines)
    elif isinstance(expected, tuple):
        assert run(capsys, *expected[0].split()) == (0, out, "")
    else:
        assert out == expected
