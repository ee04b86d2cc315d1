"""Byte identity of the CLI over a fixed grid of commands.

Each command group runs in process; every command contributes its argv,
exit code, stdout and stderr to one sha256 per group, and the digests are
pinned.  Any change to a byte the CLI prints for these commands, or to
the seeded matrices it draws, changes a digest.  A registered
non-idempotent carrier (ordinary N) makes the seeded runs print FAIL
lines, so witnesses are pinned as well as verdicts.
"""

import hashlib
import random

import pytest

from trideriv import (
    MaskDerivation,
    decompose,
    format_matrix,
    get_semiring,
    parse_zero_set,
    random_matrix,
    semirings,
)
from trideriv.cli import main
from trideriv.semirings import Semiring

CARRIERS = ("boolean", "maxplus", "minplus", "fuzzy", "naturals")

NATURALS = Semiring(
    name="naturals",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    zero=0,
    one=1,
    contains=lambda v: isinstance(v, int) and v >= 0,
    parse_element=int,
    sample=lambda rng: rng.randint(0, 9),
)


def axioms_commands():
    for carrier in CARRIERS:
        for seed in ("0", "631"):
            for trials in ("1", "200"):
                yield ("axioms", "--semiring", carrier, "--trials", trials, "--seed", seed)


def verify_commands():
    for kind in ("decompose", "hereditary", "leibniz", "theorem2"):
        for carrier in CARRIERS:
            for n in range(1, 6):
                for seed in ("0", "631"):
                    yield ("verify", kind, "--n", str(n), "--semiring", carrier,
                           "--trials", "25", "--seed", seed)
    for kind in ("leibniz", "theorem2"):
        for n in range(1, 6):
            yield ("verify", kind, "--n", str(n), "--semiring", "boolean", "--exhaustive")


def wide_verify_commands():
    """The seeded runner at sizes where its grouping and memos carry the work."""
    for kind, sizes in (("leibniz", (8, 10, 11)), ("theorem2", (8, 10))):
        for n in sizes:
            for carrier in CARRIERS:
                yield ("verify", kind, "--n", str(n), "--semiring", carrier,
                       "--trials", "3", "--seed", "0")


def oracle_commands():
    for n in range(1, 4):
        yield ("oracle", "--n", str(n))


def enumerate_commands():
    for cls in ("intervals", "families"):
        for n in range(1, 6):
            yield ("enumerate", "--n", str(n), "--class", cls)


def decompose_commands():
    for n in range(1, 6):
        for bits in range(1 << n):
            zero_set = ",".join(str(i + 1) for i in range(n) if bits >> i & 1)
            yield ("decompose", "--n", str(n), f"--zero-set={zero_set}")


def apply_commands():
    flags = ("--zero-set=2,3", "--delta-k=2", "--d-m=1", "--pattern=1,2;3,4;2,2",
             "--shift=3/2", "--shift=-inf")
    for carrier in CARRIERS:
        for flag in flags:
            yield ("apply", f"--matrix={carrier}.utm", flag)


GROUPS = {
    "axioms": (axioms_commands, 20,
               "bc3295eb5d690560fef6e2bf43388e2dfb2c8b4ce965dc5389b5ed6c209ffa83"),
    "verify": (verify_commands, 210,
               "5bd70bd23acba185177446ec8bed13e130bc4a9cb0a02cc433639143039e2da8"),
    "wide-verify": (wide_verify_commands, 25,
                    "0dd4351a817f8e32721c2be1a57d47a4e92ffff4f932406bd322a6655bea1820"),
    "oracle": (oracle_commands, 3,
               "374c6fed638101135405a089ceb6af28dacec95510bbb5aef78fcc8788cbb4f1"),
    "enumerate": (enumerate_commands, 10,
                  "a18e1c9579eb6a80a723b68692ef0a88f5f698c7a1c090b0f77826d3baf491c4"),
    "decompose": (decompose_commands, 62,
                  "d779b0e24a44ef147ca551e83a7428af314f26e4399d591a654fdae14c0fae28"),
    "apply": (apply_commands, 30,
              "23d6e9fd5b00e6a3b5f7c41bc9ae605fa95c129c0d500ebc0897f569c76af4a5"),
}


@pytest.fixture
def cli_grid(tmp_path, monkeypatch):
    """Register the naturals carrier, write one 4x4 matrix file per carrier
    and run from that directory."""
    monkeypatch.setitem(semirings.SEMIRINGS, "naturals", NATURALS)
    for carrier in CARRIERS:
        matrix = random_matrix(4, get_semiring(carrier), random.Random(4))
        (tmp_path / f"{carrier}.utm").write_text(format_matrix(matrix))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_grid_prints_pinned_bytes(cli_grid, capsys, group):
    commands, count, expected = GROUPS[group]
    digest = hashlib.sha256()
    argvs = list(commands())
    for argv in argvs:
        code = main(list(argv))
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
    assert len(argvs) == count
    assert digest.hexdigest() == expected


def test_seeded_leibniz_fail_lines_replay_from_their_fields(cli_grid, capsys):
    """A seeded ``FAIL leibniz`` line names trial t and seed S, and trial t draws
    from ``Random(S + t)``: ``--seed S+t --trials 1`` prints the same zero
    set's line again, at trial 0, with the same position, lhs and rhs."""
    replayed = 0
    for argv in verify_commands():
        if argv[1] != "leibniz" or argv[5] != "naturals":
            continue
        main(list(argv))
        for line in capsys.readouterr().out.splitlines():
            if not line.startswith("FAIL leibniz "):
                continue
            fields = dict(field.split("=", 1) for field in line.split()[2:])
            trial, seed = int(fields["trial"]), int(fields["seed"])
            assert main([*argv[:6], "--trials", "1", "--seed", str(seed + trial)]) == 1
            again = line.replace(f" trial={trial} seed={seed} ", f" trial=0 seed={seed + trial} ")
            assert again in capsys.readouterr().out.splitlines()
            replayed += 1
    assert replayed == 114  # every mask but the constant-zero one, at n = 1..5 and two seeds


def test_seeded_theorem2_fail_lines_replay_from_their_fields(cli_grid, capsys):
    """A seeded ``FAIL theorem2`` line names its carrier.  One that found a
    witness names trial t and seed S, so ``--seed S+t --trials 1`` prints it
    again at trial 0 with the same check, position, lhs and rhs; one that
    missed the witness it expected names the trials and seed that missed it,
    and that run prints it again.  Each replay is built from the line alone."""
    found = missed = 0
    for argv in [*verify_commands(), *wide_verify_commands()]:
        if argv[1] != "theorem2" or "--exhaustive" in argv:
            continue
        main(list(argv))
        for line in capsys.readouterr().out.splitlines():
            if not line.startswith("FAIL theorem2 "):
                continue
            fields = dict(field.split("=", 1) for field in line.split()[2:])
            replay = ["verify", "theorem2", "--n", fields["n"], "--semiring", fields["semiring"]]
            if "trial" in fields:
                trial, seed = int(fields["trial"]), int(fields["seed"])
                replay += ["--trials", "1", "--seed", str(seed + trial)]
                line = line.replace(f" trial={trial} seed={seed} ", f" trial=0 seed={seed + trial} ")
                found += 1
            else:
                replay += ["--trials", fields["trials"], "--seed", fields["seed"]]
                missed += 1
            assert main(replay) == 1
            assert line in capsys.readouterr().out.splitlines()
    # naturals finds its witnesses; three trials at n = 8 and 10 miss some on the other carriers.
    assert (found, missed) == (161, 11)


def test_decompose_fail_lines_replay_from_their_fields(cli_grid, capsys):
    """A ``FAIL decompose`` line names its carrier, and its verdict hangs on
    the zero set and the carrier alone.  From the line's fields,
    ``decompose`` prints the line's expression again, which fails
    ``acts_as`` on the named carrier and holds on the boolean one."""
    replayed = 0
    for argv in verify_commands():
        if argv[1] != "decompose" or argv[5] != "naturals":
            continue
        main(list(argv))
        for line in capsys.readouterr().out.splitlines():
            if not line.startswith("FAIL decompose "):
                continue
            head, expr = line.split(" expr=")
            fields = dict(field.split("=", 1) for field in head.split()[2:])
            n = int(fields["n"])
            replay = ["decompose", "--n", fields["n"], f"--zero-set={fields['zero_set']}"]
            assert main(replay) == 0
            assert capsys.readouterr().out == expr + "\n"
            mask = MaskDerivation(n, parse_zero_set(fields["zero_set"], n))
            assert not decompose(mask).acts_as(mask, get_semiring(fields["semiring"]))
            assert decompose(mask).acts_as(mask, get_semiring("boolean"))
            replayed += 1
    assert replayed == 49  # n = 3..5 and two seeds; no zero set fails at n = 1, 2
