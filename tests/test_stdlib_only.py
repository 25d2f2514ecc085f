"""The package imports nothing outside the standard library at run time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lieadm

SOURCES = sorted(Path(lieadm.__file__).parent.glob("*.py"))


def imported_top_level(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "linalg.py", "variety.py"}


def test_runtime_imports_are_stdlib_or_lieadm():
    allowed = set(sys.stdlib_module_names) | {"lieadm"}
    foreign = {
        path.name: sorted(imported_top_level(ast.parse(path.read_text(encoding="utf-8"))) - allowed)
        for path in SOURCES
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost tens of milliseconds of every command's start-up
    code = "import sys, lieadm; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    root = str(Path(lieadm.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": root},
        timeout=60,
    ).stdout
    assert out.strip() == "[]"
