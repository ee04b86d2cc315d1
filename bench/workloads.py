"""Workload definitions: seeded CLI jobs and an exact check for each one.

A workload is a fixed list of job templates (kind, n, semiring, trials).
The workload seed only picks each job's ``--seed`` and the contents of the
matrix files that ``apply`` jobs read, so the work per pass does not depend
on the seed.  Every job carries a checker that recomputes the expected
stdout (or the property it must show) without calling the library.

Trial counts of random ``theorem2`` jobs are large enough that every
non-derivation finds its witness: the least witness probability per trial
measured for these (n, semiring) pairs is about 1/3 at n = 3 and above 0.4
for n >= 4, so a missed witness has probability below 1e-8 per job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Known oracle totals: derivation patterns and those of interval form.
ORACLE_COUNTS = {1: (2, 2), 2: (5, 4), 3: (13, 8)}
ZERO_TOKEN = {"maxplus": "-inf", "minplus": "+inf", "fuzzy": "0", "boolean": "0"}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``check(stdout)`` returns a problem or None."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]

    @property
    def label(self) -> str:
        """The argv without its seed, long values cut, for reports."""
        return " ".join(
            a if len(a) <= 40 else a[:37] + "..." for a in self.argv if not a.startswith("--seed")
        )


@dataclass(frozen=True)
class Workload:
    """Job list plus the layers its traced run must and must not enter."""

    name: str
    make_jobs: Callable[[int, Path], list[Job]]
    layers: tuple[str, ...]
    absent: tuple[str, ...]


# --- expected output, computed without the library -----------------------------

def _lines(expected: list[str]) -> Callable[[str], str | None]:
    text = "".join(line + "\n" for line in expected)

    def check(out: str) -> str | None:
        if out == text:
            return None
        got = out.splitlines()
        for i, line in enumerate(expected):
            if i >= len(got) or got[i] != line:
                return f"line {i + 1}: expected {line!r}, got {got[i] if i < len(got) else None!r}"
        return f"{len(got) - len(expected)} unexpected extra lines"

    return check


def _subsets(n: int) -> list[str]:
    """Zero sets of the 2^n family masks, in the CLI's binary-counter order."""
    return [
        ",".join(str(i + 1) for i in range(n) if bits >> i & 1) for bits in range(1 << n)
    ]


def _leibniz_lines(n: int, semiring: str) -> list[str]:
    return [f"PASS leibniz n={n} semiring={semiring} zero_set={zs}" for zs in _subsets(n)]


def _theorem2_lines(n: int) -> list[str]:
    lines = []
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            verdict = "derivation" if k + m >= n else "witness"
            lines.append(
                f"PASS theorem2 n={n} k={k} m={m} expected={verdict} empirical={verdict}"
            )
    return lines


def _kept_by_mask(n: int, zero_set: set[int]) -> set[tuple[int, int]]:
    """Positions a mask keeps: (i, j) dies iff all of i..j are zeroed."""
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if not all(t in zero_set for t in range(i, j + 1))
    }


def _kept_by_expr(n: int, expr: str) -> set[tuple[int, int]]:
    """Positions kept by a sum of ``deltaK``/``dM``/``deltaK*dM`` terms."""
    kept = set()
    for term in expr.split(" + "):
        rows, first_col = n, 1
        for factor in term.split("*"):
            if factor.startswith("delta"):
                rows = int(factor[len("delta"):])
            elif factor.startswith("d"):
                first_col = n - int(factor[1:]) + 1
            else:
                raise ValueError(f"bad factor {factor!r}")
        kept |= {(i, j) for i in range(1, rows + 1) for j in range(max(i, first_col), n + 1)}
    return kept


def _expr_problem(n: int, zero_set: set[int], expr: str) -> str | None:
    try:
        ok = _kept_by_expr(n, expr) == _kept_by_mask(n, zero_set)
    except ValueError as exc:
        return str(exc)
    return None if ok else f"expression {expr!r} does not act as zero set {sorted(zero_set)}"


def _check_verify_decompose(n: int, trials: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != trials:
            return f"expected {trials} lines, got {len(lines)}"
        for t, line in enumerate(lines):
            head, _, expr = line.partition(" expr=")
            fields = head.split(" ")
            if fields[:4] != ["PASS", "decompose", f"n={n}", f"trial={t}"]:
                return f"bad line {line!r}"
            zs = fields[4].removeprefix("zero_set=")
            problem = _expr_problem(n, {int(i) for i in zs.split(",") if i}, expr)
            if problem:
                return f"trial {t}: {problem}"
        return None

    return check


def _check_decompose(n: int, zero_set: set[int]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 1:
            return f"expected one line, got {len(lines)}"
        return _expr_problem(n, zero_set, lines[0])

    return check


def _check_oracle(n: int) -> Callable[[str], str | None]:
    total, interval = ORACLE_COUNTS[n]

    def check(out: str) -> str | None:
        lines = out.splitlines()
        tail = [f"total={total}", f"interval_form={interval}", f"other={total - interval}"]
        if lines[-3:] != tail:
            return f"oracle n={n}: expected {tail}, got {lines[-3:]}"
        if len(lines) != total + 3 or not all(l.startswith("derivation=") for l in lines[:-3]):
            return f"oracle n={n}: expected {total} derivation lines"
        return None

    return check


# --- generated matrix files for `apply` -----------------------------------------

def _sample_token(semiring: str, rng: random.Random) -> str:
    if semiring == "fuzzy":
        return str(Fraction(rng.randint(0, 16), 16))
    if rng.random() < 0.05:
        return ZERO_TOKEN[semiring]
    return str(Fraction(rng.randint(-40, 40), 2))


def _matrix_text(n: int, semiring: str, rows: list[list[str]]) -> str:
    lines = [f"utm n={n} semiring={semiring}"]
    for i, row in enumerate(rows):
        lines.append(" ".join(["."] * i + row))
    return "\n".join(lines) + "\n"


def _apply_jobs(
    path: str, n: int, semiring: str, rng: random.Random
) -> tuple[str, list[Job]]:
    """A seeded matrix file and three `apply` jobs with their exact outputs."""
    rows = [[_sample_token(semiring, rng) for _ in range(i, n + 1)] for i in range(1, n + 1)]
    zero = ZERO_TOKEN[semiring]

    def masked(kept: Callable[[int, int], bool]) -> Callable[[str], str | None]:
        out = [[v if kept(i, j) else zero for j, v in enumerate(row, start=i)]
               for i, row in enumerate(rows, start=1)]
        return _lines(_matrix_text(n, semiring, out).splitlines())

    zero_set = {i for i in range(1, n + 1) if rng.random() < 0.5}
    kept_mask = _kept_by_mask(n, zero_set)
    pattern = [
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1) if rng.random() < 0.3
    ]
    zeroed = set(pattern)
    jobs = [
        Job(("apply", "--matrix", path, f"--zero-set={','.join(map(str, sorted(zero_set)))}"),
            masked(lambda i, j: (i, j) in kept_mask)),
        Job(("apply", "--matrix", path, f"--pattern={';'.join(f'{i},{j}' for i, j in pattern)}"),
            masked(lambda i, j: (i, j) not in zeroed)),
    ]
    if semiring == "maxplus":
        x = Fraction(rng.randint(-12, 12), 4)
        shifted = [[v if v == zero else str(Fraction(v) + x) for v in row] for row in rows]
        jobs.append(Job(("apply", "--matrix", path, f"--shift={x}"),
                        _lines(_matrix_text(n, semiring, shifted).splitlines())))
    else:
        k = rng.randint(1, n)
        jobs.append(Job(("apply", "--matrix", path, f"--delta-k={k}"),
                        masked(lambda i, j: i <= k)))
    return _matrix_text(n, semiring, rows), jobs


# --- the three workloads ------------------------------------------------------------

def _seeds(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _verify(kind: str, n: int, semiring: str, trials: int, seed: int) -> tuple[str, ...]:
    return ("verify", kind, "--n", str(n), "--semiring", semiring,
            "--trials", str(trials), f"--seed={seed}")


def trials_maxplus_jobs(seed: int, workdir: Path) -> list[Job]:
    """25 seeded desk-scale trial jobs, n = 3..6, ~0.02-0.3 s each."""
    rng = _seeds(seed, "trials-maxplus")
    jobs = []
    for semiring in ("maxplus", "minplus"):
        for n, trials in ((3, 60), (4, 20), (5, 10), (6, 5)):
            jobs.append(Job(_verify("leibniz", n, semiring, trials, rng.randrange(10**6)),
                            _lines(_leibniz_lines(n, semiring))))
        for n, trials in ((3, 60), (4, 40), (5, 30), (6, 30)):
            jobs.append(Job(_verify("theorem2", n, semiring, trials, rng.randrange(10**6)),
                            _lines(_theorem2_lines(n))))
    for n, trials in ((3, 1500), (4, 1000), (5, 600), (6, 400)):
        s = rng.randrange(10**6)
        jobs.append(Job(_verify("hereditary", n, "maxplus", trials, s),
                        _lines([f"PASS hereditary n={n} trials={trials} seed={s}"])))
    for n, semiring, trials in ((4, "maxplus", 800), (5, "maxplus", 600), (6, "minplus", 600)):
        jobs.append(Job(_verify("decompose", n, semiring, trials, rng.randrange(10**6)),
                        _check_verify_decompose(n, trials)))
    for semiring in ("maxplus", "minplus"):
        s = rng.randrange(10**6)
        jobs.append(Job(("axioms", "--semiring", semiring, "--trials", "3000", f"--seed={s}"),
                        _lines([f"PASS axioms semiring={semiring} trials=3000 seed={s}"])))
    return jobs


def exhaustive_boolean_jobs(seed: int, workdir: Path) -> list[Job]:
    """60 seed-independent boolean jobs, weighted so that p50 and p90 fall mid-block.

    Per pass: each n = 1 job three times, ``oracle --n 2`` 42 times, each
    n = 2 exhaustive verify three times and each n = 3 job once.  Sorted by
    cost, p50 lands in the middle of the ``oracle --n 2`` samples and p90
    in the middle of the n = 2 verify samples, so neither sits on a border
    between jobs of different cost, and two passes give ten samples beyond p90.
    """
    jobs = []
    for n, oracle_repeat, verify_repeat in ((1, 3, 3), (2, 42, 3), (3, 1, 1)):
        jobs += [Job(("oracle", "--n", str(n)), _check_oracle(n))] * oracle_repeat
        for kind, lines in (("theorem2", _theorem2_lines(n)),
                            ("leibniz", _leibniz_lines(n, "boolean"))):
            argv = ("verify", kind, "--n", str(n), "--semiring", "boolean", "--exhaustive")
            jobs += [Job(argv, _lines(lines))] * verify_repeat
    return jobs


def wide_exact_jobs(seed: int, workdir: Path) -> list[Job]:
    """35 jobs with large n: O(n^3) products on Fraction, and the text path."""
    rng = _seeds(seed, "wide-exact")
    s = [rng.randrange(10**6) for _ in range(6)]
    zero_set = {i for i in range(1, 13) if rng.random() < 0.5}
    jobs = [
        Job(_verify("theorem2", 8, "fuzzy", 28, s[0]), _lines(_theorem2_lines(8))),
        Job(_verify("theorem2", 10, "minplus", 28, s[1]), _lines(_theorem2_lines(10))),
        Job(_verify("leibniz", 8, "fuzzy", 1, s[2]), _lines(_leibniz_lines(8, "fuzzy"))),
        Job(_verify("decompose", 12, "fuzzy", 50, s[3]), _check_verify_decompose(12, 50)),
        Job(_verify("hereditary", 10, "maxplus", 300, s[4]),
            _lines([f"PASS hereditary n=10 trials=300 seed={s[4]}"])),
        Job(("axioms", "--semiring", "fuzzy", "--trials", "2000", f"--seed={s[5]}"),
            _lines([f"PASS axioms semiring=fuzzy trials=2000 seed={s[5]}"])),
        Job(("enumerate", "--n", "12", "--class", "families"),
            _lines([f"zero_set={zs}" for zs in _subsets(12)] + ["total=4096"])),
        Job(("decompose", "--n", "12", f"--zero-set={','.join(map(str, sorted(zero_set)))}"),
            _check_decompose(12, zero_set)),
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    for index, (n, semiring) in enumerate(
        (n, semiring) for semiring in ("maxplus", "fuzzy", "minplus") for n in (24, 27, 30)
    ):
        path = workdir / f"m{index}.utm"
        text, apply_jobs = _apply_jobs(path.as_posix(), n, semiring, rng)
        path.write_text(text)
        jobs.extend(apply_jobs)
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trials-maxplus", trials_maxplus_jobs,
                 layers=("cli", "matrices", "derivations", "shifts", "semirings"),
                 absent=("oracle",)),
        Workload("exhaustive-boolean", exhaustive_boolean_jobs,
                 layers=("cli", "matrices", "derivations", "oracle"),
                 absent=("matrices.sample",)),
        Workload("wide-exact", wide_exact_jobs,
                 layers=("cli", "matrices", "derivations", "shifts", "semirings"),
                 absent=("oracle",)),
    )
}
