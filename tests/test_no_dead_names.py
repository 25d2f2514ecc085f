"""Every function, method and class in src/lieadm is used in src/lieadm.

An AST scan collects each ``def``/``class`` name (dunders excluded) and
every name the package's modules mention: a ``Name``, an attribute, an
imported name, or a string constant. ``__init__.py`` is not read for
mentions: a re-export in its imports or ``__all__`` is not a use. A
definition no module mentions is only read by tests, so it belongs in the
tests or nowhere; ``ENTRY_POINTS`` lists the few that outside scripts call
on purpose. The scan matches by name only: it cannot see a dead method that
shares its name with a live one (a ``Polynomial.zero`` next to the live
``AlgebraSlice.zero``, for example), nor a function that only calls
itself.
"""

import ast
from pathlib import Path

import lieadm

SRC = Path(lieadm.__file__).parent

# public functions no module calls, each with the script that does
ENTRY_POINTS = {
    # the benchmark's cold start (bench/workloads.py) and the determinism tests
    "clear_caches",
    # regenerates the bundled corpus src/lieadm/data/random_nilpotent.json
    "generate_nilpotent_corpus",
}


def unreferenced_definitions(src: Path) -> list[str]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif path.name == "__init__.py":
                continue
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = defined.keys() - used - ENTRY_POINTS
    return sorted(f"{name} ({defined[name]})" for name in unused)


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced_definitions(SRC) == []
