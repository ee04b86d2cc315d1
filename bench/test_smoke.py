"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest -q bench/test_smoke.py

Each workload keeps only its cheap jobs and runs the minimum two rounds;
the test asserts that every metric named in BENCHMARK.json is reported
with its unit and that no job failed.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _n(argv):
    return int(argv[argv.index("--n") + 1])


CHEAP = {
    "trials-maxplus": lambda argv: argv[0] == "axioms" or _n(argv) <= 4,
    "exhaustive-boolean": lambda argv: _n(argv) <= 2,
    "wide-exact": lambda argv: argv[1] not in ("theorem2", "leibniz"),
}


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, capsys):
    full = WORKLOADS[name]
    tiny = dataclasses.replace(
        full,
        make_jobs=lambda seed, workdir: [
            job for job in full.make_jobs(seed, workdir) if CHEAP[name](job.argv)
        ],
    )
    result = run.measure(tiny, seed=7, seconds=0, trace=trace)
    context = json.loads(capsys.readouterr().out.splitlines()[-1])["context"]

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert context["failed_ratio"] == 0, context["problems"]
    assert result["failed"] == 0
    assert result["correct"], context
