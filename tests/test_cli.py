"""Command line driver: flags, exit codes, JSON and table output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lieadm
from lieadm.cli import main
from lieadm.exprs import expand, parse
from lieadm.fdalg import MAX_DIM
from lieadm.linalg import QQ

DATA = Path(lieadm.__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestBasis:
    def test_json_document(self, capsys):
        code, doc, _ = run_json(
            capsys, "basis", "--variety", "novikov", "--gens", "2", "--degree", "3"
        )
        assert code == 0
        assert doc["schema"] == 1
        assert doc["variety"] == "novikov"
        rows = {r["multidegree"]: r["dim"] for r in doc["dims"]}
        assert rows["(1,1)"] == 2
        assert len(rows) == 9

    def test_multilinear_golden(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "basis", "--variety", "assosymmetric", "--gens", "3", "--degree", "3",
            "--multilinear",
        )
        assert code == 0
        assert doc["dims"] == [{"multidegree": "(1,1,1)", "dim": 7}]

    def test_multilinear_needs_matching_degree(self, capsys):
        code, out, err = run(
            capsys,
            "basis", "--variety", "novikov", "--gens", "2", "--degree", "3",
            "--multilinear",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_custom_identity_variety(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "basis", "--identity", "x*y - y*x", "--gens", "2", "--degree", "2",
        )
        assert code == 0
        rows = {r["multidegree"]: r["dim"] for r in doc["dims"]}
        assert rows["(1,1)"] == 1

    @pytest.mark.parametrize("gens,degree", [("0", "3"), ("-1", "3"), ("2", "0")])
    def test_empty_alphabet_or_degree_refused(self, capsys, gens, degree):
        code, out, err = run(
            capsys, "basis", "--variety", "novikov", "--gens", gens, "--degree", degree
        )
        assert code == 2
        assert err.startswith("error:") and not out

    def test_variety_required(self, capsys):
        code, _, err = run(capsys, "basis", "--gens", "2", "--degree", "2")
        assert code == 2
        assert "variety" in err

    def test_guard_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "basis", "--variety", "magma", "--gens", "3", "--degree", "6",
            "--max-monomials", "1000",
        )
        assert code == 2

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--variety", "novikov", "--gens", "2", "--degree", "2"
        )
        assert code == 0
        assert "(1,1)" in out and "novikov" in out


class TestVerify:
    def test_builtin_holds(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--variety", "novikov", "--builtin", "jacobi"
        )
        assert code == 0
        assert doc["verdict"] == "holds"

    def test_builtin_fails_sets_exit_one(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--variety", "novikov", "--builtin", "assoc"
        )
        assert code == 1
        assert doc["verdict"] == "fails"
        assert doc["witness"]["residual"]

    def test_witness_residual_reparses(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--variety", "magma", "--builtin", "leftcom"
        )
        assert code == 1
        text = doc["witness"]["residual"]
        poly = expand(parse(text), QQ)
        assert poly.terms

    def test_expr_identity(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "verify", "--variety", "bicommutative", "--expr", "x*(y*z) - y*(x*z)",
        )
        assert code == 0
        assert doc["identity"] == "expr"

    def test_field_flag(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "verify", "--variety", "assosymmetric", "--builtin", "eq312",
            "--char", "2",
        )
        assert code == 0
        assert doc["field"] == "F2"

    def test_builtin_and_expr_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--variety", "novikov", "--builtin", "jacobi",
            "--expr", "x*y",
        )
        assert code == 2

    def test_neither_builtin_nor_expr(self, capsys):
        code, _, err = run(capsys, "verify", "--variety", "novikov")
        assert code == 2

    def test_syntax_error_reported(self, capsys):
        code, _, err = run(
            capsys, "verify", "--variety", "novikov", "--expr", "x*(y"
        )
        assert code == 2
        assert "offset" in err or "error" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_refused(self, capsys, cap):
        # an empty substitution pool must not make x*x "hold"
        code, out, err = run(
            capsys, "verify", "--variety", "novikov", "--expr", "x*x", "--cap", cap
        )
        assert code == 2
        assert err.startswith("error:")
        assert not out


class TestChain:
    def test_lower_central_json(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "chain", "--variety", "bicommutative", "--gens", "2", "--degree", "4",
        )
        assert code == 0
        assert doc["chain"] == "lower-central"
        assert [t["total_dim"] for t in doc["terms"]] == [43, 29, 14, 3]

    def test_lie_powers_json(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "chain", "--variety", "novikov", "--gens", "2", "--degree", "3",
            "--series", "lie-powers", "--terms", "3",
        )
        assert code == 0
        assert doc["chain"] == "lie-powers"
        assert len(doc["terms"]) == 3

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys,
            "chain", "--variety", "novikov", "--gens", "2", "--degree", "3",
        )
        assert code == 0
        assert "H_1: dim 18" in out
        assert "vanishing index: none within cap" in out


class TestCheck:
    def test_verified(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "--theorem", "circ_pro", "--variety", "novikov",
            "--gens", "2", "--degree", "3", "--p", "1", "--q", "2",
        )
        assert code == 0
        assert doc["status"] == "verified"

    def test_violated_exits_one(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "--theorem", "th_pro", "--variety", "magma",
            "--gens", "2", "--degree", "4", "--p", "2", "--q", "2", "--m", "2",
        )
        assert code == 1
        assert doc["status"] == "violated"

    def test_missing_param(self, capsys):
        code, _, err = run(
            capsys,
            "check", "--theorem", "circ_pro", "--variety", "novikov",
            "--gens", "2", "--degree", "3", "--p", "1",
        )
        assert code == 2

    def test_param_beyond_cap(self, capsys):
        code, _, err = run(
            capsys,
            "check", "--theorem", "circ_pro", "--variety", "novikov",
            "--gens", "2", "--degree", "3", "--p", "2", "--q", "2",
        )
        assert code == 2
        assert "error:" in err

    def test_inconclusive_is_not_failure(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "--theorem", "assoc_even_even", "--variety", "associative",
            "--gens", "2", "--degree", "4",
        )
        assert code == 0
        assert doc["status"] == "inconclusive"


class TestAlgebra:
    def test_audit_pass(self, capsys):
        code, doc, _ = run_json(capsys, "algebra", "--file", str(DATA / "heis3.json"))
        assert code == 0
        assert doc["status"] == "PASS"
        assert doc["lower_central"]["class"] == 2

    def test_membership_assertion_failure(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "algebra", "--file", str(DATA / "nonmember2.json"),
            "--variety", "bicommutative",
        )
        assert code == 1
        assert not doc["memberships"]["bicommutative"]["member"]

    def test_membership_assertion_success(self, capsys):
        code, _, _ = run_json(
            capsys,
            "algebra", "--file", str(DATA / "nonmember2.json"),
            "--variety", "novikov",
        )
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "algebra", "--file", "no_such.json")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": "Q", "dim": 2}')
        code, _, err = run(capsys, "algebra", "--file", str(bad))
        assert code == 2

    def test_dim_over_limit_refused_at_once(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"field": "Q", "dim": 1000, "products": []}')
        t0 = time.perf_counter()
        code, out, err = run(capsys, "algebra", "--file", str(big))
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "1000" in err and f"limit of {MAX_DIM}" in err

    def test_table_and_json_agree(self, capsys):
        _, doc, _ = run_json(capsys, "algebra", "--file", str(DATA / "zero2.json"))
        code, out, _ = run(capsys, "algebra", "--file", str(DATA / "zero2.json"))
        assert code == 0
        assert doc["status"] in out
        assert f"class {doc['lower_central']['class']}" in out


class TestClosedStdout:
    def test_reader_gone_exits_2_without_traceback(self):
        # A pipe whose read end is closed before the CLI starts: every
        # write to it fails, as after ``| head`` has exited.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(lieadm.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lieadm.cli", "algebra", "--file", str(DATA / "heis3.json")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.returncode == 2


class TestSearch:
    def test_bicom_right_nilpotency(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "search", "--target", "bicom-right-nilpotency",
            "--gens", "3", "--degree", "4",
        )
        assert code == 0
        assert doc["outcome"] == "NOT-NILPOTENT-UP-TO-CAP"

    def test_assoc_even_even_inconclusive(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "search", "--target", "assoc-even-even",
            "--gens", "2", "--degree", "4",
        )
        assert code == 0
        assert doc["outcome"] == "INCONCLUSIVE-AT-CAP"
        assert all(cell["status"] != "verified" for cell in doc["grid"])
