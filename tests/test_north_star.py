"""Three standing rules of the package: no runtime dependency outside the
standard library and a CLI that uses the library only through public names,
both read from its source with ``ast``, and one CLI parser per process."""

import ast
import re
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
