"""Structure-constant algebras: schema, membership, chains, audits."""

import importlib.util
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieadm
from lieadm.cli import main
from lieadm.errors import ResourceError, SchemaError, UnsupportedVarietyError
from lieadm.ideals import AlgebraSlice
from lieadm import fdalg
from lieadm.fdalg import (
    _COVERED,
    MAX_AUDIT_COST,
    MAX_DIM,
    FiniteDimAlgebra,
    _FdSlice,
    _render_fd,
    audit,
    audit_cost,
    check_membership,
    commutator_ideal_nilpotency,
    generate_nilpotent_corpus,
    lie_series_fd,
    lower_central_fd,
)
from lieadm.linalg import QQ, SparseVector, reduced
from lieadm.reports import canonical_json
from lieadm.terms import Polynomial, commutator, evaluate, leaf, multiply
from lieadm.variety import builtin_variety, custom_variety, variety_names

DATA = Path(lieadm.__file__).parent / "data"
BENCH_CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


def load(name):
    return FiniteDimAlgebra.load(DATA / name)


def make(dim, products, field="Q"):
    return FiniteDimAlgebra.from_doc(
        {"field": field, "dim": dim, "products": products}
    )


def relabeled(doc, perm):
    """The algebra of ``doc`` with basis vector i renamed to perm[i] (0-based)."""
    products = [
        [perm[i - 1] + 1, perm[j - 1] + 1, perm[k - 1] + 1, c] for i, j, k, c in doc["products"]
    ]
    return FiniteDimAlgebra.from_doc(dict(doc, products=products))


class TestSchema:
    def test_minimal_document(self):
        a = make(2, [[1, 1, 2, "1"]])
        assert a.dim == 2
        assert a.field.char == 0

    def test_prime_field_document(self):
        a = FiniteDimAlgebra.from_doc(
            {"field": {"p": 5}, "dim": 1, "products": [[1, 1, 1, "3"]]}
        )
        assert a.field.char == 5

    def test_integer_coefficients_accepted(self):
        a = make(2, [[1, 1, 2, 2]])
        assert a.to_doc()["products"] == [[1, 1, 2, "2"]]

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"field": "Q", "dim": 2},
            {"field": "Q", "dim": 2, "products": [], "extra": 1},
            {"field": "R", "dim": 2, "products": []},
            {"field": {"p": 4}, "dim": 2, "products": []},
            {"field": "Q", "dim": 0, "products": []},
            {"field": "Q", "dim": True, "products": []},
            {"field": "Q", "dim": 2, "products": [[1, 1, 2]]},
            {"field": "Q", "dim": 2, "products": [[0, 1, 2, "1"]]},
            {"field": "Q", "dim": 2, "products": [[1, 1, 3, "1"]]},
            {"field": "Q", "dim": 2, "products": [[1, 1, 2, "x"]]},
            {"field": "Q", "dim": 2, "products": [[1, 1, 2, "1"], [1, 1, 2, "2"]]},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(SchemaError):
            FiniteDimAlgebra.from_doc(doc)

    def test_dim_limit(self):
        assert make(MAX_DIM, []).dim == MAX_DIM
        with pytest.raises(ResourceError, match=f"dim {MAX_DIM + 1} .*limit of {MAX_DIM}"):
            make(MAX_DIM + 1, [])

    def test_zero_coefficients_dropped(self):
        a = make(2, [[1, 1, 2, "0"]])
        assert not a.products

    def test_round_trip_canonical(self):
        a = make(3, [[2, 1, 3, "-1"], [1, 2, 3, "1"]])
        doc = a.to_doc()
        assert doc["products"] == [[1, 2, 3, "1"], [2, 1, 3, "-1"]]
        assert FiniteDimAlgebra.from_doc(doc).to_doc() == doc

    def test_load_missing_file(self):
        with pytest.raises(SchemaError):
            FiniteDimAlgebra.load(DATA / "no_such_file.json")

    def test_load_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            FiniteDimAlgebra.load(bad)

    def test_integer_over_digit_limit_rejected(self, tmp_path):
        # Python refuses int<->str conversion beyond 4300 digits, in the
        # JSON reader and in str(); both are schema errors, not tracebacks
        huge = tmp_path / "huge.json"
        huge.write_text('{"field": "Q", "dim": 1, "products": [[1, 1, 1, 1' + "0" * 5000 + "]]}")
        with pytest.raises(SchemaError, match="not valid JSON"):
            FiniteDimAlgebra.load(huge)
        with pytest.raises(SchemaError, match=r"products\[0\]: bad coefficient"):
            make(1, [[1, 1, 1, 10**5000]])

    def test_exponent_literal_refused_at_once(self):
        # Fraction() reads "1e99999999" as 10^99999999, past the digit limit
        t0 = time.perf_counter()
        with pytest.raises(SchemaError, match=r"products\[0\]: bad coefficient"):
            make(1, [[1, 1, 1, "1e99999999"]])
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("text", ["1.5", " 5 ", "1_000", "1e3", "+5", "3/-4", "\u0663"])
    def test_coefficient_outside_the_grammar_refused(self, text):
        with pytest.raises(SchemaError, match=r"products\[0\]: bad coefficient"):
            make(1, [[1, 1, 1, text]])

    @pytest.mark.parametrize("text,want", [("7", 7), ("-3/2", Fraction(-3, 2)), (7, 7), ("0/5", 0)])
    def test_coefficient_in_the_grammar_read(self, text, want):
        a = make(1, [[1, 1, 1, text]])
        assert a.products == ({(0, 0): ((0, want),)} if want else {})


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=4,
)
_fields = (
    st.sampled_from(["Q", "R", {"p": 5}, {"p": 4}, {"p": 2**61 - 1}, {"p": 2**64 + 13}])
    | st.integers().map(lambda p: {"p": p})
    | _json_values
)
_coefficients = (
    st.sampled_from(["1", "-2", "3/4", "1/0", "1/5", "x", "", " 5 ", "1e3", "0/5", 7, -1, 10**5000])
    | st.text(max_size=8)
    | _json_values
)
_index = st.integers(-1, 5) | _json_values
_entries = st.tuples(_index, _index, _index, _coefficients).map(list) | _json_values
_documents = st.fixed_dictionaries(
    {
        "field": _fields,
        "dim": st.integers(-2, MAX_DIM + 2) | _json_values,
        "products": st.lists(_entries, max_size=6) | _json_values,
    },
    optional={"extra": _json_values},
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_documents | _documents.map(lambda d: {k: v for k, v in d.items() if k != "dim"}) | _json_values)
def test_from_doc_raises_only_schema_or_resource_errors(doc):
    try:
        alg = FiniteDimAlgebra.from_doc(doc)
    except (SchemaError, ResourceError):
        return
    assert alg.dim == doc["dim"] and alg.to_doc()["dim"] == alg.dim


def truncated_in_rational_basis(n, seed=1):
    """span(x, ..., x^n) in Q[x]/(x^(n+1)) in the basis f_a = sum_i
    M[a][i] x^(i+1), M random in -3..3 plus 10 on the diagonal: commutative,
    associative, dense, with large rational structure constants."""
    rng = random.Random(seed)
    m = [[rng.randint(-3, 3) + 10 * (i == j) for j in range(n)] for i in range(n)]
    # rows of M^-1 by Gauss-Jordan on [M | I]
    a = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        r = next(r for r in range(c, n) if a[r][c])
        a[c], a[r] = a[r], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    products = []
    for x, y in itertools.product(range(n), repeat=2):
        # f_x f_y in the monomial basis e_k = x^(k+1), then in the f basis
        e = [0] * n
        for i, j in itertools.product(range(n), repeat=2):
            if i + j + 1 < n:
                e[i + j + 1] += m[x][i] * m[y][j]
        for k in range(n):
            c = sum(e[i] * inv[i][k] for i in range(n) if e[i])
            if c:
                products.append([x + 1, y + 1, k + 1, str(c)])
    return {"field": "Q", "dim": n, "products": products}


def bench_pool():
    """Every audit-pool document of the benchmark corpus (read, not changed)."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [corpus.pool_entry(i)["doc"] for i in range(corpus.POOL_SIZE)]


class TestAuditCost:
    def test_bundled_data_and_bench_pool_within_limit(self):
        docs = []
        for path in sorted(DATA.glob("*.json")):
            doc = json.loads(path.read_text())
            docs += [e["algebra"] for e in doc["algebras"]] if "algebras" in doc else [doc]
        pool = bench_pool()
        assert len(docs) == 55 and len(pool) == 1000
        algebras = [FiniteDimAlgebra.from_doc(doc) for doc in docs + pool]
        worst = max(audit_cost(a.dim, a.products)[0] for a in algebras)
        assert 0 < worst < MAX_AUDIT_COST // 1000

    def test_word_size_constants_never_refused_within_dim_limit(self):
        # every constant nonzero and 64 bits wide: the largest estimate
        # MAX_DIM admits over any prime field below 2^64
        ones = tuple((k, 2**64 - 1) for k in range(MAX_DIM))
        dense = {(i, j): ones for i in range(MAX_DIM) for j in range(MAX_DIM)}
        assert audit_cost(MAX_DIM, dense) == (MAX_AUDIT_COST, MAX_DIM**3, 64)
        dense[0, 0] = ((0, 2**64),) + ones[1:]
        assert audit_cost(MAX_DIM, dense)[0] > MAX_AUDIT_COST

    def test_rational_basis_dim12_admitted(self):
        alg = FiniteDimAlgebra.from_doc(truncated_in_rational_basis(12))
        cost, nnz, bits = audit_cost(alg.dim, alg.products)
        assert nnz == 12**3 and bits == 46 and cost < MAX_AUDIT_COST

    def test_rational_basis_dim16_refused_at_once(self, tmp_path, capsys):
        path = tmp_path / "tp16.json"
        path.write_text(json.dumps(truncated_in_rational_basis(16)))
        t0 = time.perf_counter()
        code = main(["algebra", "--file", str(path)])
        assert time.perf_counter() - t0 < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: audit cost estimate ")
        assert "dim 16, 4096 nonzero constants" in err and f"limit of {MAX_AUDIT_COST}" in err


def fd_value(alg, template, args):
    """Entries of the template at basis vectors e_(args[i] + 1), summed over
    its terms through terms.evaluate, the evaluator membership uses."""
    table = {(1,): {(i,): ((), ((i, 1),)) for i in range(alg.dim)}}
    acc = {}
    for m, c in template.terms.items():
        _, entries = evaluate(m, tuple(args[g] for g in m.leaves), table, {(): alg}, 0)
        for k, w in entries:
            acc[k] = acc.get(k, 0) + c * w
    return {k: c for k, c in acc.items() if c}


X, Y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))


class TestArithmetic:
    def test_multiply_heisenberg(self):
        a = load("heis3.json")
        assert fd_value(a, multiply(X, Y), (0, 1)) == {2: 1}
        assert fd_value(a, multiply(X, Y), (1, 0)) == {2: -1}

    def test_bracket(self):
        # [e1, e2] = e1e2 - e2e1 = 2e3, through terms.evaluate and through
        # the span calculus the chains use
        a = load("heis3.json")
        assert fd_value(a, commutator(X, Y), (0, 1)) == {2: 2}
        s = _FdSlice(a)
        e1, e2 = SparseVector(((0, 1),)), SparseVector(((1, 1),))
        span = s.bracket_space(s.span({(): [e1]}), s.span({(): [e2]}))
        assert span.parts[()].rows == (SparseVector(((2, 1),)),)

    def test_slice_repr(self):
        assert repr(_FdSlice(load("heis3.json"))) == "_FdSlice(Q, dim=3)"

    def test_associator_span(self):
        # e1e1 = e2, e2e1 = e1: (e1,e1,e1) = e2e1 - e1e2 = e1 and
        # (e2,e1,e1) = e1e1 - e2e2 = e2, so the associators span the algebra;
        # the slice's degree cap 0 truncates nothing
        s = _FdSlice(FiniteDimAlgebra(QQ, 2, {(0, 0): ((1, 1),), (1, 0): ((0, 1),)}))
        assert s.associator_space(s.full(), s.full(), s.full()) == s.full()


class TestMembership:
    def test_zero_algebra_in_everything(self):
        a = load("zero2.json")
        for name in ("associative", "novikov", "bicommutative", "assosymmetric"):
            assert check_membership(a, builtin_variety(name))["member"]

    def test_witness_triple(self):
        a = load("nonmember2.json")
        v = check_membership(a, builtin_variety("bicommutative"))
        assert not v["member"]
        assert v["witness"]["identity"] == "leftcom"
        assert v["witness"]["arguments"] == {"x": "e1", "y": "e2", "z": "e2"}
        assert v["witness"]["residual"] == "e1"

    def test_nonmember_is_member_elsewhere(self):
        a = load("nonmember2.json")
        for name in ("associative", "novikov", "assosymmetric"):
            assert check_membership(a, builtin_variety(name))["member"], name

    def test_degree_one_identity(self):
        # a one-leaf template monomial is read from the tuple on its own
        v = check_membership(load("zero2.json"), custom_variety(["2*x"]))
        assert v == {"member": False, "witness": {"identity": "custom_1", "arguments": {"x": "e1"}, "residual": "2*e1"}}

    def test_heisenberg_memberships(self):
        a = load("heis3.json")
        # products of two basis vectors land in the annihilator, so every
        # degree-3 identity evaluates to zero
        for name in ("associative", "novikov", "bicommutative", "assosymmetric"):
            assert check_membership(a, builtin_variety(name))["member"]


class TestChains:
    def test_zero_algebra(self):
        a = load("zero2.json")
        doc = lower_central_fd(a)
        assert doc["dims"] == [2, 0]
        assert doc["class"] == 1
        assert commutator_ideal_nilpotency(a) == 1

    def test_square_algebra(self):
        a = load("sq2.json")
        assert lower_central_fd(a)["class"] == 1
        assert lie_series_fd(a)["dims"] == [2, 0]

    def test_heisenberg(self):
        a = load("heis3.json")
        assert lower_central_fd(a)["class"] == 2
        assert lie_series_fd(a)["dims"] == [3, 1, 0]
        assert commutator_ideal_nilpotency(a) == 2

    def test_nonnilpotent_stabilizes(self):
        a = load("nonmember2.json")
        doc = lower_central_fd(a)
        assert doc["class"] is None
        assert doc["vanishing_index"] is None
        assert doc["dims"][-1] == 1

    def test_idempotent_line(self):
        a = load("idem1.json")
        assert lower_central_fd(a)["class"] == 1

    def test_chain_cut_off_at_dim_plus_one(self):
        a = load("nonmember2.json")
        doc = lower_central_fd(a)
        assert len(doc["dims"]) <= a.dim + 1


class TestAudit:
    def test_zero_algebra_report(self):
        doc = audit(load("zero2.json"))
        assert doc["status"] == "PASS"
        assert doc["lower_central"]["class"] == 1
        assert doc["commutator_ideal_index"] == 1

    def test_heisenberg_report(self):
        doc = audit(load("heis3.json"))
        assert doc["status"] == "PASS"
        assert doc["lower_central"]["class"] == 2
        assert doc["commutator_ideal_index"] == 2
        assert all(m["member"] for m in doc["memberships"].values())

    def test_nonmember_equivalence_both_false(self):
        doc = audit(load("nonmember2.json"))
        assert doc["status"] == "PASS"
        assert not doc["memberships"]["bicommutative"]["member"]
        eq = [c for c in doc["checks"] if c["name"] == "lie-nilpotent-iff-finite-class"]
        assert eq and eq[0]["status"] == "PASS"
        idx = [c for c in doc["checks"] if c["name"] == "commutator-ideal-index-at-most-class"]
        assert idx and idx[0]["status"] == "not-asserted"

    def test_audit_relabeling_invariant(self):
        a = load("heis3.json")
        b = relabeled(a.to_doc(), (2, 0, 1))
        da, db = audit(a), audit(b)
        assert da["status"] == db["status"]
        assert da["lower_central"]["dims"] == db["lower_central"]["dims"]
        assert da["lie_powers"]["dims"] == db["lie_powers"]["dims"]
        assert da["commutator_ideal_index"] == db["commutator_ideal_index"]

    def test_repeated_audit_leaves_algebra_as_it_was(self):
        a = load("heis3.json")
        state = (a.field, a.dim, dict(a.products))
        first = canonical_json(audit(a))
        assert canonical_json(audit(a)) == first
        # the evaluation table lives only inside one audit
        assert FiniteDimAlgebra.__slots__ == ("field", "dim", "products")
        assert not hasattr(a, "__dict__")
        assert (a.field, a.dim, a.products) == state

    @pytest.mark.parametrize("name", ["heis3.json", "nonmember2.json", "sq2.json"])
    def test_chains_share_one_slice(self, monkeypatch, name):
        # the audit's three chain computations run on one slice, so each
        # distinct span product, such as [A, A] (A[2], and the generator of
        # H_2 and of the commutator ideal), is computed once per audit, and
        # the results equal those of the standalone functions
        a = load(name)
        alone = (lie_series_fd(a), lower_central_fd(a), commutator_ideal_nilpotency(a))
        computed = []
        pair_space, span = AlgebraSlice._pair_space, AlgebraSlice.span
        current = []

        def recorded_pair_space(self, U, V, bracket):
            current.append((bracket, tuple(U.parts.items()), tuple(V.parts.items())))
            try:
                return pair_space(self, U, V, bracket)
            finally:
                current.pop()

        def recorded_span(self, rows):
            if current:
                computed.append(current[-1])
            return span(self, rows)

        monkeypatch.setattr(AlgebraSlice, "_pair_space", recorded_pair_space)
        monkeypatch.setattr(AlgebraSlice, "span", recorded_span)
        doc = audit(a)
        assert (doc["lie_powers"], doc["lower_central"], doc["commutator_ideal_index"]) == alone
        assert computed and len(set(computed)) == len(computed)

    def test_shared_table_gives_standalone_verdicts(self):
        a = load("nonmember2.json")
        report = audit(a)
        for name in variety_names():
            alone = check_membership(a, builtin_variety(name))
            assert report["memberships"][name] == alone


def plain_membership(alg, variety):
    """The membership document by the plain scan: every identity of the
    variety on every basis tuple, each monomial multiplied out afresh."""
    f = alg.field

    def value(m, combo):
        if m.is_leaf:
            return ((combo[m.gen], 1),)
        acc = {}
        alg.add_product(acc, (), value(m.left, combo), value(m.right, combo))
        return tuple(sorted(reduced(f.char, acc).items()))

    for ident in variety.identities:
        for combo in itertools.product(range(alg.dim), repeat=len(ident.variables)):
            acc = {}
            for m, c in ident.template(f).terms.items():
                for k, x in value(m, combo):
                    acc[k] = acc.get(k, 0) + c * x
            acc = reduced(f.char, acc)
            if acc:
                arguments = {name: f"e{combo[i] + 1}" for i, name in enumerate(ident.variables)}
                residual = _render_fd(f, acc.items())
                witness = {"identity": ident.name, "arguments": arguments, "residual": residual}
                return {"member": False, "witness": witness}
    return {"member": True, "witness": None}


def random_algebra(seed, p):
    """Constants on a random third of the slots, dim 2 to 4: rarely a
    member of anything but the magma variety."""
    rng = random.Random(f"witness-{p}-{seed}")
    n = rng.choice((2, 3, 4))
    coeffs = ("1", "-1", "2", "1/2", "-3/2") if p == 0 else tuple(map(str, range(1, p)))
    products = [
        [i, j, k, rng.choice(coeffs)]
        for i, j, k in itertools.product(range(1, n + 1), repeat=3)
        if rng.random() < 0.3
    ]
    return make(n, products, "Q" if p == 0 else {"p": p})


WITNESS_CASES = [
    FiniteDimAlgebra.from_doc(entry["algebra"])
    for entry in generate_nilpotent_corpus(seed=19, per_variety=6)["algebras"]
] + [random_algebra(seed, p) for p in (0, 2, 3) for seed in range(8)]


class TestMembershipWitness:
    """An audit scans each distinct identity once and an antisymmetric one
    only on the first tuple of each swapped pair; its witnesses are those
    of the plain scan."""

    def test_audit_memberships_equal_the_plain_scan(self):
        flags = {name: set() for name in variety_names()}
        for alg in WITNESS_CASES:
            memberships = audit(alg)["memberships"]
            for name in variety_names():
                want = plain_membership(alg, builtin_variety(name))
                assert memberships[name] == want, (alg.to_doc(), name)
                flags[name].add(want["member"])
        # members and non-members of every variety but the magma one
        assert all(flags[name] == {True, False} for name in _COVERED + ("associative",))

    def test_each_identity_scanned_once_per_audit(self, monkeypatch):
        scanned = []
        first_failure = fdalg._first_failure

        def counted(alg, ident, table):
            scanned.append(ident.name)
            return first_failure(alg, ident, table)

        monkeypatch.setattr(fdalg, "_first_failure", counted)
        audit(make(2, []))
        assert sorted(scanned) == ["assoc", "leftcom", "leftsym", "rightcom", "rightsym"]

    def test_non_multilinear_identity_refused(self):
        # (e1+e2)*(e1+e2) = e3, so x*x fails here, though it vanishes on
        # every basis vector; basis tuples decide only multilinear identities
        alg = make(3, [[1, 2, 3, "1"]])
        with pytest.raises(UnsupportedVarietyError, match="'sq_1' is not multilinear"):
            check_membership(alg, custom_variety(["x*x"], name="sq"))


@st.composite
def relabelled_algebras(draw):
    """A small algebra over Q or F5 and a permutation of its basis."""
    p = draw(st.sampled_from((0, 5)))
    n = draw(st.integers(1, 4))
    index = st.integers(1, n)
    coeff = st.sampled_from(("1", "-1", "2", "1/2", "-3/2") if p == 0 else ("1", "2", "3", "4"))
    entries = draw(st.dictionaries(st.tuples(index, index, index), coeff, max_size=10))
    products = [[i, j, k, c] for (i, j, k), c in sorted(entries.items())]
    doc = {"field": {"p": p} if p else "Q", "dim": n, "products": products}
    perm = tuple(draw(st.permutations(range(n))))
    return doc, perm


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(relabelled_algebras())
def test_audit_invariant_under_relabelling(case):
    doc, perm = case
    a, b = audit(FiniteDimAlgebra.from_doc(doc)), audit(relabeled(doc, perm))
    assert {n: v["member"] for n, v in a["memberships"].items()} == {
        n: v["member"] for n, v in b["memberships"].items()
    }
    for chain in ("lie_powers", "lower_central"):
        ca, cb = a[chain], b[chain]
        assert ca["dims"] == cb["dims"]
        assert ca["class"] == cb["class"]
    assert a["commutator_ideal_index"] == b["commutator_ideal_index"]


class TestCorpus:
    def test_generation_is_deterministic(self):
        a = generate_nilpotent_corpus(seed=7, per_variety=3)
        b = generate_nilpotent_corpus(seed=7, per_variety=3)
        assert a == b
        c = generate_nilpotent_corpus(seed=8, per_variety=3)
        assert a != c

    def test_bundled_corpus_matches_generator(self):
        bundled = json.loads((DATA / "random_nilpotent.json").read_text())
        fresh = generate_nilpotent_corpus(seed=bundled["seed"], per_variety=25)
        assert bundled == fresh

    def test_members_audit_clean(self):
        corpus = generate_nilpotent_corpus(seed=42, per_variety=4)
        for entry in corpus["algebras"]:
            alg = FiniteDimAlgebra.from_doc(entry["algebra"])
            assert check_membership(alg, builtin_variety(entry["variety"]))["member"]
            doc = audit(alg)
            assert doc["status"] == "PASS"
            assert doc["lower_central"]["class"] is not None
