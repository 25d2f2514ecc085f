"""The benchmark's ops still verify against their recorded digests.

``bench/workloads.py`` renders each op's result into a document, checks
it, and compares its digest with the one recorded in
``bench/expected.json``; an op that raises, fails its check or changes its
output counts as failed. This test runs one ``theorem-session`` pass, and
the basis ops and a few audit ops of a ``cold-cli`` pass, through
``workloads.verify``, with the audit corpus written under a temporary
directory, so that a library change that would fail benchmark ops fails
here first. It writes nothing under ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import lieadm.cli
import lieadm.fdalg
import lieadm.ideals
import lieadm.linalg
import lieadm.terms
import lieadm.variety

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 7
AUDITS = 6


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py``, loaded with its sibling ``corpus`` as it
    imports it; both leave ``sys.modules`` when the test ends."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("corpus", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def failures(workloads, ops) -> list[str]:
    """Run the ops as a benchmark pass does: the failure of each that
    raises or does not verify."""
    expected = workloads.load_expected()
    out = []
    for op in ops:
        if op.before is not None:
            op.before()
        try:
            error = workloads.verify(op, op.run(), expected)
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        if error is not None:
            out.append(f"{op.key}: {error}")
    return out


def test_theorem_session_pass_verifies(workloads, tmp_path):
    ops = workloads.theorem_session(lieadm, SEED, tmp_path)(0)
    assert any(op.key.endswith(":lower_central_chain") for op in ops)
    assert failures(workloads, ops) == []


def test_cold_cli_basis_and_audit_ops_verify(workloads, tmp_path):
    ops = workloads.cold_cli(lieadm, SEED, tmp_path)(0)
    basis = [op for op in ops if op.key.startswith("basis ")]
    audits = [op for op in ops if op.key.startswith("audit ")][:AUDITS]
    assert len(basis) == 4 and len(audits) == AUDITS
    assert failures(workloads, basis + audits) == []
