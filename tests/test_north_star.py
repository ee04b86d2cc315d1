"""Six standing rules of the package: no runtime dependency outside the
standard library, a CLI that uses the library only through public names,
and one function that tells an int from a bool, all three read from its
source with ``ast``, one CLI parser per process, a start-up that loads
none of ``typing``, ``pathlib``, ``dataclasses`` and ``inspect`` in a clean
interpreter (``python -S``), and a callable behind every span target of
the traced benchmark."""

import ast
import importlib
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


def bool_tests(tree):
    """The ``isinstance`` calls in ``tree`` whose class argument names ``bool``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        ):
            yield node


def test_the_integer_rule_is_spelled_once():
    """Every dimension, position, index, count and int carrier element is an
    ``int`` that is not a ``bool``; only ``semirings._is_index`` says so."""
    total, functions = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        total += len(list(bool_tests(tree)))
        functions += [
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for _ in bool_tests(node)
        ]
    assert total == 1
    assert functions == [("semirings.py", "_is_index")]


def test_the_cli_builds_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_the_cli_starts_without_dataclasses_or_inspect():
    """Every CLI command is a fresh process, so start-up is part of its wall
    time; ``dataclasses`` alone (with ``inspect``, ``ast``, ``dis`` and
    ``tokenize``) took about 10 ms of it, and ``typing`` about 14 ms under
    ``-S``.  Both probes run under ``-S``: a ``.pth`` file that ``site``
    runs may import these modules first and hide them from the probe."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    unused = {"typing", "pathlib", "dataclasses", "inspect"}
    probe = (
        "import sys; before = set(sys.modules); import trideriv.cli; "
        "trideriv.cli.build_parser(); "
        "print(sys.flags.no_site, *sorted(set(sys.modules) - before))"
    )
    no_site, *added = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert no_site == "1"
    assert "trideriv.cli" in added
    assert unused.isdisjoint(added)
    timed = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "trideriv.cli", "oracle", "--n", "1"],
        env=env, capture_output=True, text=True, check=True,
    )
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in timed.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "trideriv.oracle" in imported
    assert unused.isdisjoint(imported)


def test_every_bench_span_target_resolves_to_a_callable():
    """``bench/spans.py`` wraps each (module, dotted path) of ``TARGETS`` in the
    traced bench pass only, so a path that stops resolving (a method moved to
    a base class, say) would fail nothing else.  The file is compiled from
    its text, which writes no bytecode next to it."""
    path = ROOT / "bench" / "spans.py"
    namespace = {"__name__": "spans"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for span, module, dotted, _, _ in targets:
        owner = importlib.import_module(module)
        for part in dotted.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (span, module, dotted)
