"""Acceptance gate.

One test per criterion. Every test prints exactly one line, of the shape

    criterion  N: PASS  <what was established>  [elapsed / budget]

and the line is printed before any assertion fires, so a red run still
shows the full scoreboard. Budgets are asserted: exceeding one is a
failure even when the mathematics is right. All arithmetic is exact, so
there is no tolerance anywhere: holds means identically zero.
"""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

import pytest

import lieadm
from lieadm.exprs import builtin
from lieadm.fdalg import FiniteDimAlgebra, audit, check_membership
from lieadm.ideals import AlgebraSlice, check_theorem
from lieadm.linalg import QQ, field_of_char
from lieadm.reports import canonical_json, with_schema
from lieadm.terms import Polynomial, enumerate_monomials, multidegrees
from lieadm.variety import (
    builtin_variety,
    clear_caches,
    component_basis,
    verify_identity,
)

DATA = Path(lieadm.__file__).parent / "data"

# ---------------------------------------------------------------------------
# shared inputs

# (variety, identity, characteristic) triples that must all hold
IDENTITY_SUITE = [
    ("assosymmetric", "eq311", 0),
    ("assosymmetric", "eq311", 2),
    ("assosymmetric", "eq311", 3),
    ("assosymmetric", "eq311", 5),
    ("assosymmetric", "eq314", 0),
    ("assosymmetric", "eq314", 5),
    ("assosymmetric", "eq312", 2),
    ("assosymmetric", "eq313", 3),
    ("assosymmetric", "f_sym47", 0),
    ("assosymmetric", "f_sym48", 0),
    ("magma", "teichmuller", 0),
    ("novikov", "alia_left", 0),
    ("novikov", "alia_right", 0),
    ("bicommutative", "alia_left", 0),
    ("bicommutative", "alia_right", 0),
    ("associative", "jacobi", 0),
    ("novikov", "jacobi", 0),
    ("bicommutative", "jacobi", 0),
    ("assosymmetric", "jacobi", 0),
]

DIM_GOLDENS = {
    3: {"associative": 6, "novikov": 6, "bicommutative": 6, "assosymmetric": 7},
    4: {"associative": 24, "novikov": 20, "bicommutative": 14, "assosymmetric": 29},
    5: {"associative": 120, "novikov": 70, "bicommutative": 30, "assosymmetric": 136},
}

FACTORIALS = {1: 1, 2: 2, 3: 6, 4: 24, 5: 120}

PQ_PAIRS = [(p, q) for p in range(1, 5) for q in range(1, 5) if p + q <= 5]

# every (variety, characteristic, k, cap) slice the pipeline sections use,
# sorted; criterion 11 checks that the list is complete
SLICES = [
    ("assosymmetric", 0, 2, 5),
    ("bicommutative", 0, 2, 5),
    ("bicommutative", 0, 3, 4),
    ("bicommutative", 0, 3, 5),
    ("bicommutative", 5, 2, 5),
    ("novikov", 0, 2, 5),
    ("novikov", 5, 2, 5),
]

_slices = {}


def slice_for(name, char=0, k=2, cap=5):
    key = (name, char, k, cap)
    if key not in _slices:
        _slices[key] = AlgebraSlice(builtin_variety(name), field_of_char(char), k, cap)
    return _slices[key]


def _emit(num, ok, detail, elapsed, budget):
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {mark}  {detail}  [{elapsed:.1f}s / {budget:.0f}s]"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    assert ok, line
    assert elapsed <= budget, f"criterion {num} exceeded its budget: {line}"


# ---------------------------------------------------------------------------
# pipeline pieces, reused by the determinism criterion


def run_identity_suite():
    docs = []
    for name, ident, char in IDENTITY_SUITE:
        v = builtin_variety(name)
        field = field_of_char(char)
        docs.append(verify_identity(v, field, builtin(ident)))
    return docs


def run_dimension_goldens():
    out = {"multilinear": [], "factorial": []}
    for deg in (3, 4, 5):
        mu = (1,) * deg
        for name in sorted(DIM_GOLDENS[deg]):
            comp = component_basis(builtin_variety(name), QQ, deg, mu)
            out["multilinear"].append(
                {"variety": name, "degree": deg, "dim": comp.quotient_dim}
            )
    for n in sorted(FACTORIALS):
        comp = component_basis(builtin_variety("associative"), QQ, n, (1,) * n)
        out["factorial"].append({"degree": n, "dim": comp.quotient_dim})
    return out


def run_ideal_descriptions():
    docs = []
    for name in ("novikov", "bicommutative"):
        s = slice_for(name)
        for i in (2, 3):
            docs.append(check_theorem(s, "com_id", {"i": i}))
    return docs


def run_product_rules():
    docs = []
    for name in ("novikov", "bicommutative"):
        s = slice_for(name)
        for p, q in PQ_PAIRS:
            docs.append(check_theorem(s, "th_pro", {"p": p, "q": q}))
        for m in (1, 2, 3):
            docs.append(check_theorem(s, "th_pro", {"m": m}))
    return docs


def run_closed_lie_powers():
    docs = []
    for name in ("novikov", "bicommutative"):
        for char in (0, 5):
            s = slice_for(name, char=char)
            for i in (1, 2, 3, 4):
                docs.append(check_theorem(s, "prod_com_id", {"i": i}))
    return docs


def run_assosym_precursors():
    s = slice_for("assosymmetric")
    return [
        check_theorem(s, "lem_ass_ap", {"p": p, "q": q})
        for p, q in PQ_PAIRS
    ]


def run_assosym_ideal_products():
    s = slice_for("assosymmetric")
    docs = [check_theorem(s, "lem_46", {"j": 3})]
    docs.append(check_theorem(s, "cp_ass", {"i": 2, "j": 3}))
    docs.append(check_theorem(s, "cp_ass", {"i": 3, "j": 2}))
    return docs


def run_bicom_remarks():
    meta = check_theorem(slice_for("bicommutative", k=3, cap=4), "bicom_metabelian")
    right = check_theorem(slice_for("bicommutative", k=3, cap=5), "bicom_not_right_nilpotent")
    return [meta, right]


def run_fd_audits():
    out = {}
    for stem in ("zero2", "sq2", "heis3", "nonmember2", "idem1"):
        out[stem] = audit(FiniteDimAlgebra.load(DATA / f"{stem}.json"))
    corpus = json.loads((DATA / "random_nilpotent.json").read_text())
    members = []
    for entry in corpus["algebras"]:
        alg = FiniteDimAlgebra.from_doc(entry["algebra"])
        doc = audit(alg)
        members.append(
            {
                "variety": entry["variety"],
                "status": doc["status"],
                "class": doc["lower_central"]["class"],
                "index": doc["commutator_ideal_index"],
                "checks": {c["name"]: c["status"] for c in doc["checks"]},
                "member": doc["memberships"][entry["variety"]]["member"],
            }
        )
    out["corpus"] = members
    return out


def run_oracle_agreement():
    from naive_oracle import naive_is_zero, naive_reducer, normal_form, relation_element

    rng = random.Random(1423)
    results = []
    mus = [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    for name in ("associative", "assosymmetric", "bicommutative", "magma", "novikov"):
        v = builtin_variety(name)
        srcs = [i.name for i in v.identities]
        agreements = 0
        for t in range(20):
            mu = mus[t % len(mus)]
            comp = component_basis(v, QQ, 2, mu)
            oracle = naive_reducer(srcs, 2, mu)
            monos = enumerate_monomials(2, mu)
            normal = set(comp.quotient_monomials)
            leads = [m for m in monos if m not in normal]
            p = Polynomial(QQ)
            if t % 2 and leads:
                # a random element of the relation span: zero in the quotient
                for m in rng.sample(leads, min(3, len(leads))):
                    p = p.add(relation_element(comp, m).scaled(rng.choice((-2, -1, 1, 2))))
            else:
                for m in rng.sample(monos, min(4, len(monos))):
                    p = p.add(Polynomial.of(QQ, m, rng.choice((-2, -1, 1, 2, 3))))
            engine = not normal_form(comp, p)
            naive = naive_is_zero(oracle, p)
            agreements += engine == naive
        results.append({"variety": name, "agreements": agreements, "out_of": 20})
    return results


PIPELINE = (
    ("identity_suite", run_identity_suite),
    ("dimensions", run_dimension_goldens),
    ("ideal_descriptions", run_ideal_descriptions),
    ("product_rules", run_product_rules),
    ("closed_lie_powers", run_closed_lie_powers),
    ("assosym_precursors", run_assosym_precursors),
    ("assosym_ideal_products", run_assosym_ideal_products),
    ("bicom_remarks", run_bicom_remarks),
    ("fd_audits", run_fd_audits),
    ("oracle", run_oracle_agreement),
)


def run_pipeline(reverse=False):
    """Every section's documents, from cold caches.

    With ``reverse``, the components of every slice in SLICES are built
    first, highest multidegree first, and the sections then run last to
    first, so nothing depends on the order things were built or checked.
    """
    clear_caches()
    _slices.clear()
    sections = PIPELINE
    if reverse:
        for name, char, k, cap in reversed(SLICES):
            variety, field = builtin_variety(name), field_of_char(char)
            for mu in reversed(multidegrees((cap,) * k, cap)):
                component_basis(variety, field, k, mu)
        sections = PIPELINE[::-1]
    return with_schema({name: run() for name, run in sections})


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_01_identity_suite():
    t0 = time.time()
    docs = run_identity_suite()
    held = sum(d["verdict"] == "holds" for d in docs)
    _emit(
        1,
        held == len(IDENTITY_SUITE),
        f"{held}/{len(IDENTITY_SUITE)} identity cases hold exactly",
        time.time() - t0,
        5,
    )


def test_criterion_02_dimension_goldens():
    t0 = time.time()
    out = run_dimension_goldens()
    ok = all(
        row["dim"] == DIM_GOLDENS[row["degree"]][row["variety"]]
        for row in out["multilinear"]
    )
    ok = ok and all(row["dim"] == FACTORIALS[row["degree"]] for row in out["factorial"])
    _emit(
        2,
        ok,
        "12 multilinear goldens and associative n! reproduced",
        time.time() - t0,
        30,
    )


def test_criterion_03_commutator_ideal_description():
    t0 = time.time()
    docs = run_ideal_descriptions()
    ok = all(d["status"] == "verified" for d in docs)
    claims = sum(len(d["claims"]) for d in docs)
    _emit(
        3,
        ok,
        f"ideal description equalities hold ({claims} inclusions, novikov+bicommutative)",
        time.time() - t0,
        120,
    )


def test_criterion_04_product_rule():
    t0 = time.time()
    docs = run_product_rules()
    ok = all(d["status"] == "verified" for d in docs)
    _emit(
        4,
        ok,
        f"H_p*H_q <= H_(p+q-1) for {len(PQ_PAIRS)} pairs and power rule m<=3, both varieties",
        time.time() - t0,
        180,
    )


def test_criterion_05_closed_lie_powers():
    t0 = time.time()
    docs = run_closed_lie_powers()
    ok = all(d["status"] == "verified" for d in docs)
    _emit(
        5,
        ok,
        "<A_[i]> = H_i for i<=4 over Q and F5, novikov+bicommutative",
        time.time() - t0,
        180,
    )


def test_criterion_06_assosym_precursors():
    t0 = time.time()
    docs = run_assosym_precursors()
    ok = all(d["status"] == "verified" for d in docs)
    _emit(
        6,
        ok,
        f"assosymmetric product/bracket/associator bounds for {len(PQ_PAIRS)} (p,q) pairs",
        time.time() - t0,
        180,
    )


def test_criterion_07_assosym_ideal_products():
    t0 = time.time()
    docs = run_assosym_ideal_products()
    ok = all(d["status"] == "verified" for d in docs)
    _emit(
        7,
        ok,
        "[<A_[3]>,full] <= A_[4] and <A_[2]>*<A_[3]> <= <A_[4]> both orders",
        time.time() - t0,
        240,
    )


def test_criterion_08_bicommutative_remarks():
    t0 = time.time()
    meta, right = run_bicom_remarks()
    ok = meta["status"] == "verified" and right["status"] == "verified"
    ok = ok and len(right["claims"]) == 4  # nonzero right powers at degrees 2..5
    _emit(
        8,
        ok,
        "Lie-metabelian at k=3 and commutator ideal right powers nonzero to degree 5",
        time.time() - t0,
        60,
    )


def test_criterion_09_fd_audits():
    t0 = time.time()
    out = run_fd_audits()
    ok = out["zero2"]["lower_central"]["class"] == 1
    ok = ok and out["zero2"]["commutator_ideal_index"] == 1
    ok = ok and out["sq2"]["lower_central"]["class"] == 1
    ok = ok and out["heis3"]["status"] == "PASS"
    ok = ok and out["heis3"]["lower_central"]["class"] == 2
    ok = ok and out["heis3"]["commutator_ideal_index"] == 2
    w = out["nonmember2"]["memberships"]["bicommutative"]["witness"]
    ok = ok and w["arguments"] == {"x": "e1", "y": "e2", "z": "e2"}
    corpus = out["corpus"]
    ok = ok and len(corpus) == 50
    for row in corpus:
        ok = ok and row["status"] == "PASS" and row["member"]
        ok = ok and row["checks"]["lie-nilpotent-iff-finite-class"] == "PASS"
        ok = ok and row["checks"]["commutator-ideal-index-at-most-class"] == "PASS"
        ok = ok and row["class"] is not None and row["index"] <= row["class"]
    _emit(
        9,
        ok,
        "bundled audits reproduce classes, witness triple, 50/50 corpus members clean",
        time.time() - t0,
        1,
    )


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    results = run_oracle_agreement()
    ok = all(r["agreements"] == r["out_of"] for r in results)
    total = sum(r["agreements"] for r in results)
    _emit(
        10,
        ok,
        f"{total}/100 zero-test agreements with the brute-force oracle",
        time.time() - t0,
        60,
    )


# Length and sha256 prefix of the forward run's canonical JSON: the
# reference output that every refactor of the engine must reproduce.
REFERENCE_OUTPUT = (56342, "6f91c3ae99afb18f")


def test_criterion_11_determinism():
    t0 = time.time()
    first = canonical_json(run_pipeline())
    second = canonical_json(run_pipeline(reverse=True))
    digest = hashlib.sha256(first.encode("utf-8")).hexdigest()[:16]
    ok = (
        first == second
        and sorted(_slices) == SLICES
        and (len(first), digest) == REFERENCE_OUTPUT
    )
    _emit(
        11,
        ok,
        f"cold reruns in forward and reverse order byte-identical"
        f" ({len(first)} bytes of JSON, sha256 {digest})",
        time.time() - t0,
        600,
    )
