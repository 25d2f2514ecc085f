"""Every ``$ lieadm ...`` example in README.md prints exactly what it shows,
and so does its Python library block.

An example is a fenced block whose first line is ``$ lieadm <args>``; the
rest of the block is the expected stdout. Commands run in-process from
the repository root, so relative paths in the examples resolve there.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lieadm.cli import main

ROOT = Path(__file__).resolve().parents[1]
PROMPT = "$ lieadm "


def readme_examples():
    examples = []
    block = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block and block[0].startswith(PROMPT):
                examples.append((block[0][len(PROMPT):], "".join(f"{b}\n" for b in block[1:])))
            block = None if block is not None else []
        elif block is not None:
            block.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_an_example_per_subcommand():
    commands = {shlex.split(cmd)[0] for cmd, _ in EXAMPLES}
    assert commands == {"basis", "verify", "chain", "check", "algebra", "search"}


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(command))
    out = capsys.readouterr()
    assert code in (0, 1), out.err
    assert out.err == ""
    assert out.out == expected


def test_library_block_prints_what_its_comments_say(capsys):
    # each ``print(...)  # value: remark`` line prints ``value``
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    expected = [
        line.split("#", 1)[1].strip().split(": ", 1)[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_limits_section_names_every_guard():
    # every module-level MAX_* constant of the package is a resource guard,
    # and the Limits section names each one as ``module.NAME``
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    limits = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    guards = []
    for path in sorted((ROOT / "src" / "lieadm").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                guards += [
                    f"{path.stem}.{t.id}"
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.startswith("MAX_")
                ]
    assert guards
    assert [g for g in guards if f"`{g}`" not in limits] == []
