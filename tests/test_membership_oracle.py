"""Variety membership and the audit's chains against a dense reference.

The evaluator here shares no code with ``lieadm.fdalg``: the defining
identities are expanded by hand into polynomials over tuple-tree
monomials, structure constants are a dense cube of Fractions read
straight from the JSON document, every product is a full sum over basis
pairs, and the residual is rendered here. Scalars of F_p are carried as
rational lifts and reduced mod p only when a residual is tested, which is
sound because reduction mod p is a ring map. Both sides scan identities
in the variety's order and basis tuples in ``itertools.product`` order,
so they must agree on the flag and on the whole first-failure witness.

The chains and the commutator-ideal index are recomputed here by dense
Gauss-Jordan elimination on lists of scalars (Fractions over Q, ints mod
p over F_p), with ideal closure by two-sided products with every basis
vector; ``lieadm.fdalg`` computes them through the span calculus of
``lieadm.ideals``, which this file does not use.

A free slice truncated at degree cap D is a nilpotent algebra too, since
the degrees above D span an ideal. Its structure constants over the
slice's classes are read off the components' ``products`` tables, and its
chains are recomputed densely the same way: only those tables are shared
with the engine's ``rref``, ``sum_bases``, ``_pair_space`` and
``ideal_closure``.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import lieadm
from lieadm.fdalg import FiniteDimAlgebra, _FdSlice, audit, check_membership
from lieadm.ideals import AlgebraSlice, lie_power_series, lower_central_chain
from lieadm.linalg import field_of_char
from lieadm.variety import builtin_variety, variety_names

DATA = Path(lieadm.__file__).parent / "data"

X, Y, Z = 0, 1, 2


def associator(a, b, c):
    """<a,b,c> = (ab)c - a(bc) on tuple-tree monomials."""
    return {((a, b), c): 1, (a, (b, c)): -1}


def difference(p, q):
    out = dict(p)
    for t, c in q.items():
        out[t] = out.get(t, 0) - c
    return {t: c for t, c in out.items() if c}


IDENTITIES = {
    "assoc": associator(X, Y, Z),
    "leftsym": difference(associator(X, Y, Z), associator(Y, X, Z)),
    "rightsym": difference(associator(X, Y, Z), associator(X, Z, Y)),
    "leftcom": {(X, (Y, Z)): 1, (Y, (X, Z)): -1},
    "rightcom": {((X, Y), Z): 1, ((X, Z), Y): -1},
}

VARIETIES = {
    "associative": ("assoc",),
    "assosymmetric": ("leftsym", "rightsym"),
    "bicommutative": ("leftcom", "rightcom"),
    "magma": (),
    "novikov": ("rightcom", "leftsym"),
}


class DenseAlgebra:
    def __init__(self, doc):
        self.p = 0 if doc["field"] == "Q" else doc["field"]["p"]
        n = self.n = doc["dim"]
        self.cube = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in doc["products"]:
            self.cube[i - 1][j - 1][k - 1] = Fraction(c)

    def value(self, tree, args):
        """Dense coordinates of a tuple-tree monomial, leaf g set to e_{args[g]}."""
        if isinstance(tree, int):
            return self.unit(args[tree])
        return self.mul(self.value(tree[0], args), self.value(tree[1], args))

    def unit(self, i):
        return [Fraction(int(k == i)) for k in range(self.n)]

    def mul(self, u, w):
        n = self.n
        out = [Fraction(0)] * n
        for i in range(n):
            for j in range(n):
                if u[i] and w[j]:
                    uw = u[i] * w[j]
                    for k, c in enumerate(self.cube[i][j]):
                        if c:
                            out[k] += uw * c
        return out

    def bracket(self, u, w):
        return [a - b for a, b in zip(self.mul(u, w), self.mul(w, u))]

    def scalar(self, x):
        """The field element a rational lift stands for."""
        if not self.p:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    # -- dense subspaces: reduced row-echelon lists of rows ----------------------

    def span(self, vectors):
        """Gauss-Jordan: the reduced row-echelon rows spanning the vectors."""
        rows = []
        for v in vectors:
            v = [self.scalar(Fraction(x)) for x in v]
            for r in rows:
                lead = next(k for k, x in enumerate(r) if x)
                if v[lead]:
                    v = self.combine(v, -v[lead], r)
            if not any(v):
                continue
            lead = next(k for k, x in enumerate(v) if x)
            inv = 1 / v[lead] if not self.p else pow(v[lead], -1, self.p)
            v = self.combine([0] * self.n, inv, v)
            rows = [self.combine(r, -r[lead], v) if r[lead] else r for r in rows]
            rows.append(v)
        return sorted(rows, reverse=True)

    def combine(self, u, c, w):
        """u + c*w, reduced mod p over F_p."""
        out = [a + c * b for a, b in zip(u, w)]
        return [x % self.p for x in out] if self.p else out

    def closure(self, rows):
        """Least two-sided ideal containing the rows."""
        units = [self.unit(i) for i in range(self.n)]
        while True:
            grown = self.span(
                rows + [self.mul(w, e) for w in rows for e in units]
                + [self.mul(e, w) for w in rows for e in units]
            )
            if grown == rows:
                return rows
            rows = grown


def reference_chain(dense, step):
    """dims of full, step(full), ... to the first zero or repeated term."""
    terms = [dense.span(dense.unit(i) for i in range(dense.n))]
    while terms[-1]:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return [len(t) for t in terms]


def reference_chains(dense):
    """(lower central dims, Lie power dims, commutator-ideal index)."""
    units = [dense.unit(i) for i in range(dense.n)]
    lower = reference_chain(
        dense, lambda h: dense.closure(dense.span(dense.bracket(w, e) for w in h for e in units))
    )
    lie = reference_chain(dense, lambda a: dense.span(dense.bracket(e, w) for e in units for w in a))
    powers = [None, dense.closure(dense.span(dense.bracket(e, f) for e in units for f in units))]
    for m in range(1, dense.n + 2):
        if not powers[m]:
            return lower, lie, m
        powers.append(
            dense.span(
                dense.mul(u, w)
                for i in range(1, m + 1)
                for u in powers[i]
                for w in powers[m + 1 - i]
            )
        )
    return lower, lie, None


def render(entries):
    chunks = []
    for k, c in entries:
        mag = abs(c)
        body = f"e{k + 1}" if mag == 1 else f"{mag}*e{k + 1}"
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks)


def reference_membership(dense, variety):
    for name in VARIETIES[variety]:
        for combo in itertools.product(range(dense.n), repeat=3):
            total = [Fraction(0)] * dense.n
            for tree, c in IDENTITIES[name].items():
                for k, x in enumerate(dense.value(tree, combo)):
                    total[k] += c * x
            residual = [(k, dense.scalar(x)) for k, x in enumerate(total)]
            residual = [(k, x) for k, x in residual if x]
            if residual:
                witness = {
                    "identity": name,
                    "arguments": {v: f"e{combo[i] + 1}" for i, v in enumerate("xyz")},
                    "residual": render(residual),
                }
                return False, witness
    return True, None


def bundled_documents():
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        if "algebras" in doc:
            for pos, entry in enumerate(doc["algebras"]):
                yield f"{path.stem}[{pos}]", entry["algebra"]
        else:
            yield path.stem, doc


_WEIGHTS = ((1, 1, 2), (1, 1, 2, 3), (1, 2, 2, 3), (1, 1, 2, 2, 3), (1, 2, 3, 4))
_Q_COEFFS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def random_graded_document(seed, p):
    """Random constants on weight-graded slots: e_i e_j may involve e_k
    only when w_k = w_i + w_j."""
    rng = random.Random(f"membership-oracle-{p}-{seed}")
    weights = rng.choice(_WEIGHTS)
    products = []
    for i, j, k in itertools.product(range(len(weights)), repeat=3):
        if weights[k] == weights[i] + weights[j]:
            c = rng.randrange(p) if p else rng.choice(_Q_COEFFS)
            if c:
                products.append([i + 1, j + 1, k + 1, str(c)])
    field = {"p": p} if p else "Q"
    return {"field": field, "dim": len(weights), "products": products}


def random_dense_document(seed, p, nilpotent):
    """Random constants on every slot (rarely nilpotent), or on the slots
    with k > max(i, j) (nilpotent, but not graded)."""
    rng = random.Random(f"chain-oracle-{p}-{seed}-{nilpotent}")
    n = 5 if nilpotent else rng.choice((3, 4))
    products = [
        [i + 1, j + 1, k + 1, str(rng.randrange(1, p) if p else rng.choice(_Q_COEFFS[2:]))]
        for i, j, k in itertools.product(range(n), repeat=3)
        if (k > max(i, j) and rng.random() < 0.5) or (not nilpotent and rng.random() < 0.3)
    ]
    return {"field": {"p": p} if p else "Q", "dim": n, "products": products}


def field_label(p):
    return "Q" if p == 0 else f"F{p}"


CASES = (
    list(bundled_documents())
    + [
        (f"graded-{field_label(p)}-{seed}", random_graded_document(seed, p))
        for p in (0, 2, 5, 7)
        for seed in range(10)
    ]
    + [
        (f"{kind}-{field_label(p)}-{seed}", random_dense_document(seed, p, kind == "upper"))
        for kind in ("dense", "upper")
        for p in (0, 3)
        for seed in range(5)
    ]
)


def test_identity_tables_match_the_varieties():
    assert tuple(sorted(VARIETIES)) == variety_names()
    for name, idents in VARIETIES.items():
        assert tuple(i.name for i in builtin_variety(name).identities) == idents


def test_cases_include_members_and_nonmembers():
    for variety in ("associative", "bicommutative", "novikov", "assosymmetric"):
        spec = builtin_variety(variety)
        flags = {check_membership(FiniteDimAlgebra.from_doc(doc), spec)["member"] for _, doc in CASES}
        assert flags == {True, False}, variety


@pytest.mark.parametrize("label,doc", CASES, ids=[label for label, _ in CASES])
def test_membership_matches_dense_reference(label, doc):
    alg = FiniteDimAlgebra.from_doc(doc)
    dense = DenseAlgebra(doc)
    for variety in variety_names():
        verdict = check_membership(alg, builtin_variety(variety))
        member, witness = reference_membership(dense, variety)
        assert verdict == {"member": member, "witness": witness}, variety


@pytest.mark.parametrize("label,doc", CASES, ids=[label for label, _ in CASES])
def test_chains_match_dense_reference(label, doc):
    got = audit(FiniteDimAlgebra.from_doc(doc))
    lower, lie, index = reference_chains(DenseAlgebra(doc))
    assert got["lower_central"]["dims"] == lower
    assert got["lie_powers"]["dims"] == lie
    assert got["commutator_ideal_index"] == index


@pytest.mark.parametrize("label,doc", CASES, ids=[label for label, _ in CASES])
def test_principal_ideals_match_dense_reference(label, doc):
    """<e_i>, the least two-sided ideal holding e_i. The audit only closes
    spans of commutators, where a one-sided closure is already two-sided
    (w*z = z*w + [w,z]); here a one-sided closure shows."""
    s = _FdSlice(FiniteDimAlgebra.from_doc(doc))
    dense = DenseAlgebra(doc)
    for i in range(dense.n):
        closed = s.ideal_closure(s.span({(): [{i: 1}]}))
        rows = [[dict(r.entries).get(k, 0) for k in range(dense.n)] for r in closed.parts[()].rows]
        assert rows == dense.closure(dense.span([dense.unit(i)])), i


def test_chain_cases_include_every_outcome():
    outcomes = [reference_chains(DenseAlgebra(doc)) for _, doc in CASES]
    assert {lower[-1] == 0 for lower, _, _ in outcomes} == {True, False}
    assert {index is None for _, _, index in outcomes} == {True, False}
    assert any(lower != lie for lower, lie, _ in outcomes)
    assert any(len(lower) > 3 for lower, _, _ in outcomes)


def slice_document(s):
    """The slice as a ``products`` document: its classes, component by
    component, are e_1..e_n, and e_i e_j is the normal form that the
    ``products`` table of their summed multidegree holds (zero past the
    cap, where no component is)."""
    offset, n = {}, 0
    for mu, comp in s.components.items():
        offset[mu], n = n, n + comp.quotient_dim
    products = []
    for mu, comp in s.components.items():
        if sum(mu) > 1:
            for (a, p, q), nf in comp.products.items():
                b = tuple(m - x for m, x in zip(mu, a))
                i, j = offset[a] + p + 1, offset[b] + q + 1
                products += [[i, j, offset[mu] + r + 1, str(c)] for r, c in nf]
    return {"field": {"p": s.field.char} if s.field.char else "Q", "dim": n, "products": products}


def check_slice_chains(variety, p, k, cap):
    """The total dims of both chains of the slice are the dense ones: the
    first cap terms agree, and the dense term cap+1 is zero."""
    s = AlgebraSlice(builtin_variety(variety), field_of_char(p), k, cap)
    lower, lie, _ = reference_chains(DenseAlgebra(slice_document(s)))
    for chain, dense in ((lower_central_chain, lower), (lie_power_series, lie)):
        dims = [t.total_dim() for t in chain(s, cap).terms]
        dense = dense + [0] * (cap + 1 - len(dense))
        assert (dims, dense[cap:]) == (dense[:cap], [0]), chain.__name__


SLICE_CELLS = [
    pytest.param(v, p, id=f"{v}-{field_label(p)}") for v in variety_names() for p in (0, 5)
]


@pytest.mark.parametrize("variety,p", SLICE_CELLS)
def test_free_slice_chains_match_dense_reference(variety, p):
    check_slice_chains(variety, p, 2, 3)


# about a minute in all; the magma slice (dim 102 at k=2 D=4) is left out,
# since a dense product costs dim^3 and a closure takes dim^2 products
@pytest.mark.slow
@pytest.mark.parametrize("variety,p", [c for c in SLICE_CELLS if c.values[0] != "magma"])
def test_free_slice_chains_match_dense_reference_at_degree_four(variety, p):
    check_slice_chains(variety, p, 2, 4)
