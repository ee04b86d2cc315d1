"""Every narrative demo runs to completion against the source tree, and so do
the README's library and CLI examples."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from trideriv import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def readme_block(heading):
    """The first fenced block of the README section that opens with ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n") :]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """The library block runs, and every CLI line exits 0 on the matrix-format
    example saved as ``a.utm``."""
    exec(readme_block("## Library in one minute"), {})
    (tmp_path / "a.utm").write_text(readme_block("### Matrix file format"))
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in readme_block("## CLI").splitlines()]
    assert lines and all(argv[0] == "trideriv" for argv in lines)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr())
