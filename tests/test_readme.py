"""Every ``$ lieadm ...`` example in README.md prints exactly what it shows.

An example is a fenced block whose first line is ``$ lieadm <args>``; the
rest of the block is the expected stdout. Commands run in-process from
the repository root, so relative paths in the examples resolve there.
"""

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
