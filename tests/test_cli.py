"""Exit-code contract, output formats, and byte-determinism of the CLI."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from trideriv import (
    FUZZY,
    MINUS_INF,
    ZeroPattern,
    d_m,
    delta_k,
    enumerate_family_derivations,
    get_semiring,
    iter_positions,
    leibniz_check,
    linearity_check,
    random_matrix,
    strip_diagonal,
)
from trideriv import cli
from trideriv.cli import (
    AXIOM_TRIALS_LIMIT,
    INTERVAL_ENUMERATION_LIMIT,
    VERIFY_WORK_LIMIT,
    main,
    verify_work,
)
from trideriv.derivations import Witness, _segments, _zero_masks, first_failures
from trideriv.semirings import _ranked

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
    limit = AXIOM_TRIALS_LIMIT
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


def test_verify_exhaustive_needs_boolean_and_small_n(capsys):
    code, _, err = run(capsys, "verify", "leibniz", "--n", "3", "--exhaustive")
    assert code == 2
    assert "boolean" in err
    code, _, err = run(
        capsys, "verify", "leibniz", "--n", "4", "--semiring", "boolean", "--exhaustive"
    )
    assert code == 2


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


def runner_maps(n):
    """The theorem-2 compositions, the family masks and some non-derivations."""
    maps = [
        delta_k(n, k).compose(d_m(n, m)) for k in range(1, n + 1) for m in range(1, n + 1)
    ]
    maps += enumerate_family_derivations(n)
    maps.append(ZeroPattern(n, {(1, n)}))  # not a derivation for n >= 2
    return maps + random_non_derivations(n, 20)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", ["maxplus", "minplus", "fuzzy", "boolean"])
def test_trial_runner_matches_per_map_loop(name, n):
    semiring = get_semiring(name)
    maps = runner_maps(n)
    for seed in (0, 631):
        expected = [reference_first_failure(f, n, semiring, 12, seed) for f in maps]
        got = first_failures(maps, n, semiring, 12, seed)
        assert got == expected
        # Witness compares with ==, which lets Fraction(8) stand for 8.
        assert witness_types(got) == witness_types(expected)


def witness_types(failures):
    return [None if f is None else (type(f[2].lhs), type(f[2].rhs)) for f in failures]


# A lambda add fails ``add is max``, so each twin runs its carrier without ranks.
OFF_BOTTOM_FUZZY = replace(FUZZY, zero=Fraction(1, 2))  # ranked, with zero above the bottom


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("ranked", [FUZZY, OFF_BOTTOM_FUZZY], ids=["fuzzy", "off-bottom-zero"])
def test_trial_runner_on_ranks_matches_unranked_twin(ranked, n):
    twin = replace(ranked, add=lambda a, b: max(a, b))
    assert _ranked(ranked, (Fraction(1, 4),))[2] is not None
    assert _ranked(twin, (Fraction(1, 4),))[2] is None
    maps = runner_maps(n)
    for seed in (0, 631):
        got = first_failures(maps, n, ranked, 12, seed)
        expected = first_failures(maps, n, twin, 12, seed)
        assert got == expected
        assert witness_types(got) == witness_types(expected)


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


def test_trial_runner_segment_keys_name_the_zeroed_operands():
    checked = 0
    for fn in segment_maps():
        n = fn.n
        if isinstance(fn, ZeroPattern):
            zeroed = fn.positions
        else:  # a mask kills (r, c) iff all of r..c is in its zero set
            zeroed = {
                (r, c) for r, c in iter_positions(n)
                if all(x in fn.zero_set for x in range(r, c + 1))
            }
        rows, cols = _zero_masks(fn, n, "trial runner")
        for (i, j), (row_start, col_start, width) in zip(iter_positions(n), _segments(n)):
            assert width == (1 << (j - i + 1)) - 1
            row_key, col_key = rows >> row_start & width, cols >> col_start & width
            assert {i + x for x in range(j - i + 1) if row_key >> x & 1} == {
                k for k in range(i, j + 1) if (i, k) in zeroed
            }
            assert {i + x for x in range(j - i + 1) if col_key >> x & 1} == {
                k for k in range(i, j + 1) if (k, j) in zeroed
            }
            checked += 1
    assert checked == sum(  # every cell of 2 + 8 + 64 patterns and 2^n masks per n
        (1 << n * (n + 1) // 2) * n * (n + 1) // 2 for n in range(1, 4)
    ) + sum((1 << n) * n * (n + 1) // 2 for n in range(1, 9))


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


def test_verify_hereditary(capsys):
    code, out, _ = run(
        capsys, "verify", "hereditary", "--n", "4", "--trials", "50", "--seed", "3"
    )
    assert code == 0
    assert out == "PASS hereditary n=4 trials=50 seed=3\n"


def test_verify_hereditary_prints_a_witness(capsys, monkeypatch):
    witness = Witness((1, 2), MINUS_INF, Fraction(3, 2))
    monkeypatch.setattr(cli, "leibniz_check", lambda f, a, b: witness)
    code, out, _ = run(
        capsys, "verify", "hereditary", "--n", "4", "--trials", "50", "--seed", "3"
    )
    assert code == 1
    # trial 0 draws its shift first from random.Random(3)
    assert out == "FAIL hereditary n=4 trial=0 shift=14 position=1,2 lhs=-inf rhs=3/2\n"


def test_verify_hereditary_requires_maxplus(capsys):
    code, _, err = run(
        capsys, "verify", "hereditary", "--n", "2", "--semiring", "boolean"
    )
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("kind", ["leibniz", "theorem2", "decompose", "hereditary"])
def test_verify_rejects_trials_below_one(capsys, kind, trials):
    code, out, err = run(capsys, "verify", kind, "--n", "2", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--trials" in err


def test_verify_leibniz_family_cap(capsys):
    code, out, err = run(capsys, "verify", "leibniz", "--n", "21", "--trials", "1")
    assert code == 2
    assert out == ""
    assert "capped" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("leibniz", "--n", "12", "--semiring", "maxplus"),
        ("theorem2", "--n", "300", "--trials", "1"),
        ("decompose", "--n", "101"),
        ("hereditary", "--n", "1001", "--trials", "1"),
    ],
)
def test_verify_work_bound_rejects(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "verify work capped" in err


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


def test_exhaustive_notes_that_it_ignores_trials_and_seed(capsys):
    argv = ["verify", "leibniz", "--n", "2", "--semiring", "boolean", "--exhaustive"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--seed", "5") == (
        0, out, "note: --exhaustive ignores --trials and --seed\n"
    )


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


def test_oracle_capacity(capsys):
    code, _, err = run(capsys, "oracle", "--n", "4")
    assert code == 2
    assert "too large" in err


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
