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
from lieadm.errors import ResourceError
from lieadm.exprs import MAX_TEMPLATE_TERMS, Identity
from lieadm.fdalg import MAX_DIM
from lieadm.linalg import QQ
from lieadm.terms import MAX_SLICE_ENTRIES
from lieadm.variety import builtin_variety, clear_caches, component_basis

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
        # the free magma on one generator has 208012 columns at degree 13
        t0 = time.perf_counter()
        code, out, err = run(capsys, "basis", "--variety", "magma", "--gens", "1", "--degree", "13")
        assert time.perf_counter() - t0 < 1
        assert code == 2 and not out
        assert "208012" in err and "200000" in err
        clear_caches()

    def test_guard_holds_after_a_library_call(self, capsys):
        # the guard is the same for library and CLI calls, so a library
        # call made first caches nothing the CLI call could skip it with
        with pytest.raises(ResourceError):
            component_basis(builtin_variety("magma"), QQ, 1, (13,))
        code, out, err = run(capsys, "basis", "--variety", "magma", "--gens", "1", "--degree", "13")
        assert code == 2 and not out
        assert "208012" in err
        clear_caches()

    def test_many_generators_at_degree_one(self, capsys):
        # multidegrees costs what it returns: 2000 generator classes, each
        # of dim 1, without walking every prefix sum again per call
        t0 = time.perf_counter()
        code, doc, _ = run_json(
            capsys, "basis", "--variety", "novikov", "--gens", "2000", "--degree", "1"
        )
        assert time.perf_counter() - t0 < 2
        assert code == 0
        assert len(doc["dims"]) == 2000 and {r["dim"] for r in doc["dims"]} == {1}
        clear_caches()

    @pytest.mark.parametrize(
        "argv,entries",
        [
            (
                ["basis", "--variety", "magma", "--gens", "4000", "--degree", "1"],
                "at least 16000000",
            ),
            (["basis", "--variety", "magma", "--gens", "2", "--degree", "3000"], "9009000"),
            (["basis", "--variety", "magma", "--gens", "3", "--degree", "300"], "13771650"),
            (["chain", "--variety", "novikov", "--gens", "2", "--degree", "3000"], "9009000"),
        ],
        ids=["magma-k4000", "magma-D3000", "magma-D300", "chain-D3000"],
    )
    def test_multidegree_listing_refused_before_it_is_made(self, capsys, argv, entries):
        # each listing took 10 s to minutes and up to 1.5 GB before the guard
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        k, cap = argv[4], argv[6]
        assert err == (
            f"error: multidegrees over {k} generators up to degree {cap} have {entries} "
            f"entries, over the guard of {MAX_SLICE_ENTRIES}\n"
        )

    @pytest.mark.parametrize("command", ["basis", "verify", "chain", "check", "search"])
    def test_help_lists_no_guard_option(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--max" not in capsys.readouterr().out

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
        assert Identity("residual", text).template(QQ).terms

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

    @pytest.mark.parametrize("flag", ["--expr", "--identity"])
    def test_literal_over_digit_limit_refused(self, capsys, flag):
        expr = "9" * 4400 + "*x*(y*z)"
        if flag == "--expr":
            argv = ["verify", "--variety", "novikov", "--expr", expr]
        else:
            argv = ["verify", "--identity", expr, "--builtin", "jacobi"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "(at offset 0)" in err
        assert not out

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 400 + "x" + ")" * 400 + "*y*z",
            " + ".join(["x*y*z"] * 1200),
            "*".join(["x"] * 1200),
        ],
        ids=["nested-400", "terms-1200", "factors-1200"],
    )
    def test_expression_too_deep_refused(self, capsys, expr):
        code, out, err = run(capsys, "verify", "--variety", "novikov", "--expr", expr)
        assert code == 2
        assert err.startswith("error: expression nested deeper than") and "(at offset" in err
        assert not out

    def refused_at_once(self, capsys, expr, total):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--variety", "novikov", "--expr", expr)
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert not out
        assert err.startswith("error:")
        assert f"{total} in this expression, over the guard of {MAX_TEMPLATE_TERMS}" in err

    def test_product_over_term_guard_refused_at_once(self, capsys):
        # the outermost of 16 nested commutators would take the terms formed
        # in the expression to 2^17 - 2
        self.refused_at_once(capsys, "[" * 16 + "x" + ",y]" * 16, 131070)

    def test_chain_of_products_over_term_guard_refused_at_once(self, capsys):
        # 15 nested commutators form 2^16 - 2 terms; the first of 20 '*x'
        # would add 2^15 more
        self.refused_at_once(capsys, "[" * 15 + "x" + ",y]" * 15 + "*x" * 20, 98302)

    @pytest.mark.parametrize(
        "expr,cap", [("x*x", "15"), ("x*x", "1000"), ("x*y*z*x", "9")], ids=["x15", "x1000", "xyzx9"]
    )
    def test_substitution_search_over_guard_refused_at_once(self, capsys, expr, cap):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--variety", "novikov", "--expr", expr, "--cap", cap)
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert not out
        assert err.startswith("error: substitution search needs at least")

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

    def test_table_vanishing_and_stable(self, capsys):
        # one generator of an associative algebra commutes with itself:
        # H_2 = <[full, full]> is 0, and so is H_3
        code, out, _ = run(
            capsys,
            "chain", "--variety", "associative", "--gens", "1", "--degree", "3", "--terms", "3",
        )
        assert code == 0
        assert out.endswith(
            "H_2: dim 0\nH_3: dim 0\nvanishing index: 2 (class 1)\nstabilized at: 2\n"
        )

    @pytest.mark.parametrize(
        "terms,message",
        [
            ("2", "error: parameter terms=2 references chain index beyond degree cap 1\n"),
            ("0", "error: parameter terms=0 must be at least 1\n"),
        ],
        ids=["over-guard", "zero"],
    )
    def test_chain_length_refused_before_the_slice(self, capsys, terms, message):
        # the slice of 3000 generators takes seconds to build
        t0 = time.perf_counter()
        code, out, err = run(
            capsys,
            "chain", "--variety", "novikov", "--gens", "3000", "--degree", "1", "--terms", terms,
        )
        assert time.perf_counter() - t0 < 0.5
        assert (code, out, err) == (2, "", message)

    def test_degree_cap_below_one_named(self, capsys):
        code, out, err = run(capsys, "chain", "--variety", "novikov", "--gens", "1", "--degree", "0")
        assert (code, out, err) == (2, "", "error: degree cap must be at least 1\n")

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys,
            "chain", "--variety", "novikov", "--gens", "2", "--degree", "3",
        )
        assert code == 0
        assert "H_1: dim 18" in out
        assert "vanishing index: none within cap" in out

    @pytest.mark.parametrize("series", ["lower-central", "lie-powers"])
    def test_chain_length_guard(self, capsys, series):
        # H_i and A_[i] live in degrees >= i: past the cap every term is 0
        code, out, err = run(
            capsys,
            "chain", "--variety", "novikov", "--gens", "2", "--degree", "3",
            "--series", series, "--terms", "4",
        )
        assert (code, out) == (2, "")
        assert err == "error: parameter terms=4 references chain index beyond degree cap 3\n"


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

    def test_param_the_check_does_not_read(self, capsys):
        code, out, err = run(
            capsys,
            "check", "--theorem", "circ_pro", "--variety", "novikov",
            "--gens", "2", "--degree", "3", "--p", "1", "--q", "1", "--m", "7", "--j", "99",
        )
        assert code == 2 and not out
        assert "does not read j, m" in err

    @pytest.mark.parametrize(
        "param,message",
        [
            ("--m", "error: check 'circ_pro' does not read m; it reads p, q\n"),
            ("--q", "error: check needs parameter 'p'\n"),
        ],
        ids=["unread", "missing"],
    )
    def test_params_refused_before_the_slice(self, capsys, param, message):
        # the slice of 3000 generators takes seconds to build
        t0 = time.perf_counter()
        code, out, err = run(
            capsys,
            "check", "--theorem", "circ_pro", "--variety", "novikov",
            "--gens", "3000", "--degree", "1", param, "1",
        )
        assert time.perf_counter() - t0 < 0.5
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "params,message",
        [
            (
                ["--theorem", "circ_pro", "--p", "1", "--q", "1"],
                "parameter p+q=2 references chain index beyond degree cap 1",
            ),
            (
                ["--theorem", "th_pro", "--m", "1"],
                "parameter m+1=2 references chain index beyond degree cap 1",
            ),
            (["--theorem", "th_pro", "--p", "1"], "parameters p and q come together"),
            (
                ["--theorem", "lem_ass_ap", "--p", "1", "--q", "1"],
                "parameter p+q=2 references chain index beyond degree cap 1",
            ),
            (["--theorem", "cp_ass", "--i", "2", "--j", "2"], "this check is stated for i or j odd"),
            (
                ["--theorem", "cp_ass", "--i", "1", "--j", "1", "--char", "3"],
                "this check assumes characteristic not 2 or 3",
            ),
            (["--theorem", "lem_46", "--j", "2"], "this check is stated for odd j only"),
            (
                ["--theorem", "lem_46", "--j", "1"],
                "parameter j+1=2 references chain index beyond degree cap 1",
            ),
        ],
        ids=["circ_pro", "th_pro-m", "th_pro-pair", "lem_ass_ap", "cp_ass-parity",
             "cp_ass-char", "lem_46-parity", "lem_46-cap"],
    )
    def test_check_rules_refused_before_the_slice(self, capsys, params, message):
        # cap, parity and characteristic rules need no slice, and the slice
        # of 3000 generators takes seconds to build
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "check", "--variety", "novikov", "--gens", "3000", "--degree", "1", *params
        )
        assert time.perf_counter() - t0 < 0.5
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_lem_mni1_violated_in_magma(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "check", "--theorem", "lem_mni1", "--variety", "magma",
            "--gens", "2", "--degree", "4", "--i", "2",
        )
        assert code == 1 and doc["status"] == "violated"
        (claim,) = doc["claims"]
        assert claim["claim"] == "A[2]*A[2] <= <A[3]>"
        assert claim["verdict"] == "violated"
        assert claim["witness"]["multidegree"] == "(2,2)"

    def test_table_note(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--theorem", "bicom_not_right_nilpotent", "--variety", "bicommutative",
            "--gens", "2", "--degree", "3",
        )
        assert code == 0
        assert out.endswith(
            "status: verified\n"
            "note: nonzero right powers up to the cap rule out right nilpotency "
            "at this cap only; no statement beyond the cap\n"
        )

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

    def test_right_nilpotency_needs_cap_two(self, capsys):
        # at cap 1 there is no right power to check, and no claim is no verdict
        argv = ["check", "--theorem", "bicom_not_right_nilpotent", "--variety", "novikov",
                "--gens", "2"]
        code, out, err = run(capsys, *argv, "--degree", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "degree cap 1" in err
        code, doc, _ = run_json(capsys, *argv, "--degree", "2")
        assert code == 0 and doc["status"] == "verified"
        assert [c["claim"] for c in doc["claims"]] == ["right_power_1(H_2) != 0"]


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

    @pytest.mark.parametrize(
        "name,variety,code,last",
        [
            ("nonmember2.json", "bicommutative", 1, "asserted membership bicommutative: NO"),
            ("heis3.json", "novikov", 0, "asserted membership novikov: yes"),
        ],
        ids=["no", "yes"],
    )
    def test_table_asserted_membership(self, capsys, name, variety, code, last):
        got, out, _ = run(capsys, "algebra", "--file", str(DATA / name), "--variety", variety)
        assert got == code
        assert out.endswith(f"{last}\naudit: PASS\n")

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

    def test_witness_past_digit_limit_rendered(self, capsys, tmp_path):
        # e1*e1 = c*e2 and e2*e1 = c*e1 with c = 10^4000, so the associator
        # (e1 e1) e1 - e1 (e1 e1) is c^2*e1: 8001 digits, past the 4300
        # that str() converts
        c = "1" + "0" * 4000
        path = tmp_path / "wide.json"
        doc = {"field": "Q", "dim": 2, "products": [[1, 1, 2, c], [2, 1, 1, c]]}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "algebra", "--file", str(path))
        assert code == 0 and not err
        assert "    residual: 1" + "0" * 8000 + "*e1\n" in out

    def test_exponent_coefficient_refused_at_once(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"field": "Q", "dim": 1, "products": [[1, 1, 1, "1e99999999"]]}')
        t0 = time.perf_counter()
        code, out, err = run(capsys, "algebra", "--file", str(path))
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert "bad coefficient" in err

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

    def test_assoc_even_even_smallest_grid_table(self, capsys):
        code, out, _ = run(
            capsys, "search", "--target", "assoc-even-even", "--gens", "2", "--degree", "4"
        )
        assert code == 0
        assert out == "search assoc-even-even\n  k=2 D=4: inconclusive\noutcome: INCONCLUSIVE-AT-CAP\n"

    @pytest.mark.parametrize("gens,degree", [(1, 3), (3, 2), (1, 4)])
    def test_assoc_even_even_empty_grid_refused(self, capsys, gens, degree):
        code, out, err = run(
            capsys,
            "search", "--target", "assoc-even-even", "--gens", str(gens), "--degree", str(degree),
        )
        assert code == 2 and out == ""
        assert f"k = 2..{gens}, D = 4..{degree} is empty" in err

    def test_bicom_right_nilpotency_needs_cap_two(self, capsys):
        code, out, err = run(
            capsys, "search", "--target", "bicom-right-nilpotency", "--gens", "2", "--degree", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_bicom_right_nilpotency_degree_refused_before_the_slice(self, capsys):
        # the slice of 3000 generators takes seconds to build
        t0 = time.perf_counter()
        code, out, err = run(
            capsys,
            "search", "--target", "bicom-right-nilpotency", "--gens", "3000", "--degree", "1",
        )
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert err == "error: bicom-right-nilpotency needs --degree at least 2\n"
