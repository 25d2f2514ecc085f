"""Variety membership against a dense reference evaluator.

The evaluator here shares no code with ``lieadm.fdalg``: the defining
identities are expanded by hand into polynomials over tuple-tree
monomials, structure constants are a dense cube of Fractions read
straight from the JSON document, every product is a full sum over basis
pairs, and the residual is rendered here. Scalars of F_p are carried as
rational lifts and reduced mod p only when a residual is tested, which is
sound because reduction mod p is a ring map. Both sides scan identities
in the variety's order and basis tuples in ``itertools.product`` order,
so they must agree on the flag and on the whole first-failure witness.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import lieadm
from lieadm.fdalg import FiniteDimAlgebra, check_membership
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
        n = self.n
        out = [Fraction(0)] * n
        if isinstance(tree, int):
            out[args[tree]] = Fraction(1)
            return out
        u = self.value(tree[0], args)
        w = self.value(tree[1], args)
        for i in range(n):
            for j in range(n):
                if u[i] and w[j]:
                    uw = u[i] * w[j]
                    for k, c in enumerate(self.cube[i][j]):
                        if c:
                            out[k] += uw * c
        return out

    def scalar(self, x):
        """The field element a rational lift stands for."""
        if not self.p:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p


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


CASES = list(bundled_documents()) + [
    (f"graded-{'Q' if p == 0 else f'F{p}'}-{seed}", random_graded_document(seed, p))
    for p in (0, 2, 5, 7)
    for seed in range(10)
]


def test_identity_tables_match_the_varieties():
    assert tuple(sorted(VARIETIES)) == variety_names()
    for name, idents in VARIETIES.items():
        assert tuple(i.name for i in builtin_variety(name).identities) == idents


def test_cases_include_members_and_nonmembers():
    for variety in ("associative", "bicommutative", "novikov", "assosymmetric"):
        spec = builtin_variety(variety)
        flags = {check_membership(FiniteDimAlgebra.from_doc(doc), spec).member for _, doc in CASES}
        assert flags == {True, False}, variety


@pytest.mark.parametrize("label,doc", CASES, ids=[label for label, _ in CASES])
def test_membership_matches_dense_reference(label, doc):
    alg = FiniteDimAlgebra.from_doc(doc)
    dense = DenseAlgebra(doc)
    for variety in variety_names():
        verdict = check_membership(alg, builtin_variety(variety))
        member, witness = reference_membership(dense, variety)
        assert (verdict.member, verdict.witness) == (member, witness), variety
