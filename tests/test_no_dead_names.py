"""Every function, method and class in src/lieadm is used in src/lieadm.

An AST scan collects each ``def``/``class`` name (dunders excluded) and
every name the package mentions: a ``Name``, an attribute, an imported
name, or a string constant such as an ``__all__`` entry. A definition no
module mentions is only read by tests, so it belongs in the tests or
nowhere. The scan matches by name only: it cannot see a dead method that
shares its name with a live one (a ``Polynomial.zero`` next to the live
``AlgebraSlice.zero``, for example), nor a function that only calls
itself.
"""

import ast
from pathlib import Path

import lieadm

SRC = Path(lieadm.__file__).parent


def unreferenced_definitions(src: Path) -> list[str]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced_definitions(SRC) == []
