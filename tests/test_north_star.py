"""Four standing rules of the package: no runtime dependency outside the
standard library and a CLI that uses the library only through public names,
both read from its source with ``ast``, one CLI parser per process, and a
start-up that loads neither ``dataclasses`` nor ``inspect``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from trideriv import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trideriv"


def imports(path):
    """(module, imported names) of every absolute or relative import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, [alias.name]
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), [a.name for a in node.names]


def test_the_package_imports_only_the_standard_library():
    outside = {
        (path.name, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, _ in imports(path)
        if not module.startswith(".")
        and module.split(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set()
    project = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"(?m)^dependencies\s*=.*$", project) == ["dependencies = []"]


def test_the_cli_imports_no_private_name():
    private = [
        (module, name)
        for module, names in imports(PACKAGE / "cli.py")
        for name in [module.lstrip("."), *names]
        if any(part.startswith("_") for part in name.split(".")) and name != "__future__"
    ]
    assert private == []


def test_the_cli_builds_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_the_cli_starts_without_dataclasses_or_inspect():
    """Every CLI command is a fresh process, so start-up is part of its wall
    time; ``dataclasses`` alone (with ``inspect``, ``ast``, ``dis`` and
    ``tokenize``) took about 10 ms of it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = (
        "import sys; before = set(sys.modules); import trideriv.cli; "
        "trideriv.cli.build_parser(); print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "trideriv.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
    timed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "trideriv.cli", "oracle", "--n", "1"],
        env=env, capture_output=True, text=True, check=True,
    )
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in timed.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "trideriv.oracle" in imported
    assert {"dataclasses", "inspect"}.isdisjoint(imported)
