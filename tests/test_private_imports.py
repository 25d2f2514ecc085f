"""No module of the package imports a private name of another.

A name that starts with an underscore belongs to its module. A second
module that imports it shares a decision that should live in one place,
behind a public name. An AST scan reads every ``from .x import ...`` and
``from lieadm.x import ...`` in src/lieadm and refuses an underscore name.
"""

import ast
from pathlib import Path

import lieadm

SRC = Path(lieadm.__file__).parent


def private_imports(source: str) -> list[str]:
    """``line: name`` for each underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "lieadm"
            if ours:
                found += [f"{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_scan_sees_private_imports():
    source = (
        "from .variety import VarietySpec, _pair\n"
        "from lieadm.linalg import _rref\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == ["1: _pair", "2: _rref"]


def test_no_module_imports_a_private_name():
    found = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}
