"""Closed-loop benchmark of the trideriv CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread: it calls ``trideriv.cli.main(argv)`` in-process
with stdout captured and sends the next job only when the previous one
has returned.  Run from the repository root; the program is imported
from ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off: warm
in-process job throughput and per-job latency, the job list run as fresh
``python -m trideriv.cli`` processes, set-up time of a fresh interpreter,
and peak memory, with times scaled by host-speed probes (see
:func:`end_to_end`).  ``--trace 1`` alternates traced and untraced passes
and reports per-layer self time (unscaled) and work counts per pass.

Every job's stdout is checked against an exact expectation on its first
run and must then repeat byte for byte, across passes, in the subprocess
pass and under tracing.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run context (machine, seed, sample counts, stdout digest).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from spans import Stats, Tracer
from workloads import WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_ARGV = [sys.executable, "-c", "import trideriv.cli as c; c.build_parser()"]
SETUP_PER_ROUND = 3
MIN_JOB_SAMPLES = 100  # so that ten samples lie beyond p90
BARE_ARGV = [sys.executable, "-c", "pass"]
# Typical host_probe() and bare_start() times on a 2-core 2.0 GHz Intel
# Xeon VM with Python 3.11.7; they fix the scale of the reported times and
# cancel out of every comparison between two commits.
PROBE_REFERENCE_S = 0.001
BARE_START_REFERENCE_S = 0.05
SUBPROCESS_TIMEOUT_S = 120


class Gate:
    """Counts job runs and the ones that fail the correctness gate."""

    def __init__(self, jobs: list[Job]) -> None:
        self.jobs = jobs
        self.reference: list[str | None] = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, index: int, code: int, out: str, where: str) -> None:
        job = self.jobs[index]
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif any(line.startswith("FAIL") for line in out.splitlines()):
            problem = "printed a FAIL line"
        elif self.reference[index] is None:
            problem = job.check(out)
            self.reference[index] = out
        elif out != self.reference[index]:
            problem = "stdout differs from the first run"
        if problem:
            self.failed += 1
            self.problems.append(f"{where}: {job.label}: {problem}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.reference:
            h.update((out or "").encode())
            h.update(b"\0")
        return h.hexdigest()


def run_job(main, argv: tuple[str, ...]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def run_pass(cli, gate: Gate, where: str, after_job=None) -> list[float]:
    """Run every job once in-process; return the per-job wall times."""
    durations = []
    for index, job in enumerate(gate.jobs):
        code, out, seconds = run_job(cli.main, job.argv)
        durations.append(seconds)
        gate.record(index, code, out, where)
        if after_job is not None:
            after_job()
    return durations


def _subprocess_s(argv: list[str], env: dict) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    return proc, time.perf_counter() - start


def setup_once(env: dict) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    proc, seconds = _subprocess_s(SETUP_ARGV, env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    return seconds


def host_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not use trideriv."""
    start = time.perf_counter()
    acc, cells = 0, []
    for i in range(2000):
        acc = max(acc, i * 7919 % 104729)
        cells.append((i, acc))
    x = Fraction(0)
    for i in range(1, 60):
        x = min(x + Fraction(i, 16), Fraction(7, 2))
    return time.perf_counter() - start


def bare_start(env: dict) -> float:
    """Seconds for a fresh interpreter that runs nothing."""
    return _subprocess_s(BARE_ARGV, env)[1]


def end_to_end(cli, gate: Gate, seconds: float, env: dict, context: dict) -> dict:
    """Rounds of one in-process pass, half the jobs as CLI processes, and set-up runs.

    The speed of a shared host can swing twofold within a minute, so each
    time is scaled by probes taken right before and right after it: an
    in-process job by ``PROBE_REFERENCE_S`` over the mean of two
    :func:`host_probe` times, a CLI or set-up process by
    ``BARE_START_REFERENCE_S`` over the mean of two :func:`bare_start`
    times.  Neither probe touches trideriv, so a change to the program
    moves the scaled times as it moves the raw ones; the raw figures are
    in the context line.
    """
    setup_once(env)  # fills the bytecode cache
    run_pass(cli, gate, "warm-up")
    jobs = gate.jobs
    raw: list[float] = []
    durations: list[float] = []
    cli_s: list[list[float]] = [[] for _ in jobs]
    raw_cli_s: list[list[float]] = [[] for _ in jobs]
    setup_s: list[float] = []
    raw_setup_s: list[float] = []
    half = (len(jobs) + 1) // 2
    rounds = 0
    start = time.perf_counter()
    while (
        rounds < 2
        or len(durations) < MIN_JOB_SAMPLES
        or time.perf_counter() - start < seconds
    ):
        probes = [host_probe()]
        passed = run_pass(cli, gate, f"round {rounds}", lambda: probes.append(host_probe()))
        raw += passed
        durations += [
            d * 2 * PROBE_REFERENCE_S / (before + after)
            for d, before, after in zip(passed, probes, probes[1:])
        ]
        before = bare_start(env)

        def scaled(wall: float) -> float:
            nonlocal before
            after = bare_start(env)
            wall, before = wall * 2 * BARE_START_REFERENCE_S / (before + after), after
            return wall

        for index in range(rounds % 2 * half, min(len(jobs), (rounds % 2 + 1) * half)):
            argv = [sys.executable, "-m", "trideriv.cli", *jobs[index].argv]
            proc, wall = _subprocess_s(argv, env)
            gate.record(index, proc.returncode, proc.stdout.decode(), "cli")
            raw_cli_s[index].append(wall)
            cli_s[index].append(scaled(wall))
        for _ in range(SETUP_PER_ROUND):
            wall = setup_once(env)
            raw_setup_s.append(wall)
            setup_s.append(scaled(wall))
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p90 = statistics.quantiles(durations, n=10)[4::4]
    labels = [job.label for job in jobs] * rounds
    nearest = lambda v: labels[min(range(len(durations)), key=lambda i: abs(durations[i] - v))]
    context.update(
        rounds=rounds,
        job_samples=len(durations),
        samples_beyond_p90=sum(d > p90 for d in durations),
        p50_job=nearest(p50),
        p90_job=nearest(p90),
        cli_samples_per_job=min(len(t) for t in cli_s),
        setup_samples=len(setup_s),
        raw_jobs_per_s=len(raw) / sum(raw),
        raw_cli_pass_s=sum(statistics.median(t) for t in raw_cli_s),
        raw_setup_s=statistics.median(raw_setup_s),
    )
    return {
        "jobs_per_s": (len(durations) / sum(durations), "1/s"),
        "job_s.p50": (p50, "s"),
        "job_s.p90": (p90, "s"),
        "cli_pass_s": (sum(statistics.median(t) for t in cli_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Per-layer metrics of one traced pass: name -> (unit, value from Stats).
PER_LAYER = {
    "matrices.mul.self_s": ("s", lambda s: s.self_s["matrices.mul"]),
    "matrices.mul.calls": ("count", lambda s: s.calls["matrices.mul"]),
    "matrices.mul.scalar_ops": ("count", lambda s: s.work["matrices.mul"]),
    "matrices.add.self_s": ("s", lambda s: s.self_s["matrices.add"]),
    "matrices.sample.self_s": ("s", lambda s: s.self_s["matrices.sample"]),
    "matrices.sample.entries": ("count", lambda s: s.work["matrices.sample"]),
    "matrices.text.self_s": ("s", lambda s: s.self_s["matrices.text"]),
    "derivations.mask_apply.self_s": ("s", lambda s: s.self_s["derivations.mask_apply"]),
    "derivations.mask_apply.calls": ("count", lambda s: s.calls["derivations.mask_apply"]),
    "derivations.pattern_apply.self_s": ("s", lambda s: s.self_s["derivations.pattern_apply"]),
    "derivations.pattern_apply.calls": ("count", lambda s: s.calls["derivations.pattern_apply"]),
    "derivations.leibniz_check.self_s": ("s", lambda s: s.self_s["derivations.leibniz_check"]),
    "derivations.leibniz_check.calls": ("count", lambda s: s.calls["derivations.leibniz_check"]),
    "derivations.linearity_check.self_s": ("s", lambda s: s.self_s["derivations.linearity_check"]),
    "derivations.compare.self_s": ("s", lambda s: s.self_s["derivations.compare"]),
    "derivations.decompose.self_s": ("s", lambda s: s.self_s["derivations.decompose"]),
    "derivations.witness_ratio": ("ratio", lambda s: (
        (s.work["derivations.leibniz_check"] + s.work["derivations.linearity_check"])
        / max(1, s.calls["derivations.leibniz_check"] + s.calls["derivations.linearity_check"]))),
    "shifts.lift_apply.self_s": ("s", lambda s: s.self_s["shifts.lift_apply"]),
    "semirings.check_axioms.self_s": ("s", lambda s: s.self_s["semirings.check_axioms"]),
    "oracle.exhaustive.self_s": ("s", lambda s: s.self_s["oracle.exhaustive"]),
    "oracle.exhaustive.pairs": ("count", lambda s: s.exhaustive_pairs),
    "oracle.classify.self_s": ("s", lambda s: s.self_s["oracle.classify"]),
    "oracle.enumerate.self_s": ("s", lambda s: s.self_s["oracle.enumerate"]),
    "cli.self_s": ("s", lambda s: s.self_s["cli"]),
}
EXACT_COUNTS = ("matrices.mul.scalar_ops", "matrices.sample.entries", "oracle.exhaustive.pairs")
MIN_TRACED_PASSES = 2


def _span_problems(workload: Workload, calls: Counter) -> list[str]:
    """Layers the workload must enter but did not, and spans it must not record."""
    problems = [
        f"layer {layer} recorded no spans"
        for layer in workload.layers
        if not any(n.split(".")[0] == layer for n in calls)
    ]
    for prefix in workload.absent:
        names = sorted(n for n in calls if n == prefix or n.startswith(prefix + "."))
        if names:
            problems.append(f"unexpected spans {names}")
    return problems


def per_layer(cli, gate: Gate, seconds: float, workload: Workload, context: dict) -> dict:
    """Alternate traced and untraced passes; report the median traced pass per metric."""
    run_pass(cli, gate, "warm-up")
    tracer = Tracer()
    traced: list[tuple[float, Stats]] = []
    untraced: list[float] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        stats = Stats()
        tracer.install()
        try:
            durations = run_pass(cli, gate, "traced", after_job=lambda: tracer.fold(stats))
        finally:
            tracer.uninstall()
        traced.append((sum(durations), stats))
        untraced.append(sum(run_pass(cli, gate, "untraced")))
    values = {name: [fn(stats) for _, stats in traced] for name, (_, fn) in PER_LAYER.items()}
    metrics = {name: (statistics.median(v), PER_LAYER[name][0]) for name, v in values.items()}
    metrics["trace_overhead_ratio"] = (
        statistics.median(t for t, _ in traced) / statistics.median(untraced), "ratio")
    calls = sum((Counter(stats.calls) for _, stats in traced), Counter())
    context.update(
        traced_passes=len(traced),
        untraced_passes=len(untraced),
        exact_counts={name: len(set(values[name])) == 1 for name in EXACT_COUNTS},
        span_problems=_span_problems(workload, calls),
    )
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)))
    return 0


def measure(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; print the context line and return the result object."""
    if not (SRC / "trideriv" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'trideriv'} not found; run from a trideriv checkout")
    os.chdir(ROOT)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    context: dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
    sys.path.insert(0, str(SRC))
    from trideriv import cli

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=WORKDIR) as workdir:
        gate = Gate(workload.make_jobs(seed, Path(workdir).relative_to(ROOT)))
        context["jobs_per_pass"] = len(gate.jobs)
        if trace:
            metrics = per_layer(cli, gate, seconds, workload, context)
        else:
            metrics = end_to_end(cli, gate, seconds, env, context)
    context.update(
        failed_ratio=gate.failed / gate.attempted,
        stdout_sha256=gate.digest(),
        problems=gate.problems[:5],
    )
    print(json.dumps({"context": context}))
    return {
        "correct": gate.failed == 0 and not context.get("span_problems"),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
