"""Brute-force reference implementation used only by the test suite.

Everything here is deliberately written against the grain of the package:
monomials are nested tuples instead of interned tree objects, relation
rows live on all free magma monomials and come from closing identity
instances under one-sided multiplications, rather than from the engine's
degree-by-degree product spaces of lower normal forms, rows are kept
dense, unsorted and with duplicates, and the eliminator is plain Gaussian
reduction over Fraction lists. Agreement
between this module and the engine is therefore meaningful evidence, not
the same code computing the same thing twice. The one engine-side helper,
``relation_element``, states the engine's relations for the oracle to
check.
"""

from fractions import Fraction
from itertools import permutations, product

from lieadm.exprs import builtin
from lieadm.linalg import QQ
from lieadm.terms import Polynomial

# tuple-tree monomials: a leaf is an int generator, a product is a pair


def tree_mdeg(t, k):
    out = [0] * k
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, int):
            out[cur] += 1
        else:
            stack.extend(cur)
    return tuple(out)


def bracketings(seq):
    if len(seq) == 1:
        yield seq[0]
        return
    for i in range(1, len(seq)):
        for left in bracketings(seq[:i]):
            for right in bracketings(seq[i:]):
                yield (left, right)


def naive_monomials(mu):
    letters = tuple(g for g, c in enumerate(mu) for _ in range(c))
    out = []
    for seq in sorted(set(permutations(letters))):
        out.extend(bracketings(seq))
    return out


def convert_monomial(m):
    """Engine monomial to tuple tree."""
    if m.is_leaf:
        return m.gen
    return (convert_monomial(m.left), convert_monomial(m.right))


def convert_polynomial(p):
    return {convert_monomial(m): Fraction(c) for m, c in p.terms.items()}


def poly_add(acc, other, scale=Fraction(1)):
    for t, c in other.items():
        v = acc.get(t, Fraction(0)) + scale * c
        if v:
            acc[t] = v
        elif t in acc:
            del acc[t]
    return acc


def poly_mul_monomial(p, m, on_left):
    return {((m, t) if on_left else (t, m)): c for t, c in p.items()}


def subst_tree(t, assignment):
    if isinstance(t, int):
        return assignment[t]
    return (subst_tree(t[0], assignment), subst_tree(t[1], assignment))


def subst_poly(template, assignment):
    out = {}
    for t, c in template.items():
        poly_add(out, {subst_tree(t, assignment): c})
    return out


def _submultidegrees_upto(mu):
    ranges = [range(c + 1) for c in mu]
    return [nu for nu in product(*ranges) if any(nu)]


def identity_instances(sources, k, mu):
    """Every substituted instance of every identity at multidegree <= mu."""
    out = []
    subs = _submultidegrees_upto(mu)
    pool = {nu: naive_monomials(nu) for nu in subs}
    for name in sources:
        ident = builtin(name)
        template = convert_polynomial(ident.template(QQ))
        nvars = len(ident.variables)
        for parts in product(subs, repeat=nvars):
            total = tuple(sum(col) for col in zip(*parts))
            if any(a > b for a, b in zip(total, mu)):
                continue
            for assignment in product(*(pool[nu] for nu in parts)):
                inst = subst_poly(template, dict(enumerate(assignment)))
                if inst:
                    out.append((total, inst))
    return out


def naive_relation_polys(sources, k, mu):
    """Close the identity instances under multiplication by monomials on
    either side, keeping everything of multidegree <= mu; return the
    polys of multidegree exactly mu, duplicates and all."""
    layers = {}
    work = []
    for nu, p in identity_instances(sources, k, mu):
        layers.setdefault(nu, []).append(p)
        work.append((nu, p))
    subs = _submultidegrees_upto(mu)
    pool = {nu: naive_monomials(nu) for nu in subs}
    while work:
        nu, p = work.pop()
        for delta in subs:
            total = tuple(a + b for a, b in zip(nu, delta))
            if any(a > b for a, b in zip(total, mu)):
                continue
            for m in pool[delta]:
                for on_left in (True, False):
                    q = poly_mul_monomial(p, m, on_left)
                    layers.setdefault(total, []).append(q)
                    if total != mu:
                        work.append((total, q))
    return layers.get(mu, [])


class DenseReducer:
    """Classic Gaussian elimination over Fraction lists, or over int lists
    mod p when ``p`` is a prime."""

    def __init__(self, width, p=0):
        self.width = width
        self.p = p
        self.rows = []  # (pivot_col, monic_row)

    def reduce(self, row):
        p = self.p
        row = [a % p for a in row] if p else list(row)
        for pc, br in self.rows:
            c = row[pc]
            if c:
                for j in range(self.width):
                    row[j] -= c * br[j]
                    if p:
                        row[j] %= p
        return row

    def insert(self, row):
        row = self.reduce(row)
        for j in range(self.width):
            if row[j]:
                if self.p:
                    inv = pow(row[j], self.p - 2, self.p)
                    row = [a * inv % self.p for a in row]
                else:
                    inv = Fraction(1) / row[j]
                    row = [a * inv for a in row]
                self.rows.append((j, row))
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


def naive_relation_rank(sources, k, mu):
    monos = naive_monomials(mu)
    index = {m: i for i, m in enumerate(monos)}
    red = DenseReducer(len(monos))
    for p in naive_relation_polys(sources, k, mu):
        row = [Fraction(0)] * len(monos)
        for t, c in p.items():
            row[index[t]] = c
        red.insert(row)
    return red.rank, len(monos)


def naive_reducer(sources, k, mu):
    monos = naive_monomials(mu)
    index = {m: i for i, m in enumerate(monos)}
    red = DenseReducer(len(monos))
    for p in naive_relation_polys(sources, k, mu):
        row = [Fraction(0)] * len(monos)
        for t, c in p.items():
            row[index[t]] = c
        red.insert(row)
    return red, index


def naive_is_zero(reducer_and_index, poly):
    """Whether the engine polynomial is a relation consequence, i.e. zero
    in the relatively free algebra."""
    red, index = reducer_and_index
    row = [Fraction(0)] * red.width
    for m, c in poly.terms.items():
        row[index[convert_monomial(m)]] = Fraction(c)
    return not any(red.reduce(row))


def relation_element(comp, m):
    """The engine's relation m - nf(m) for a monomial m of the component
    ``comp``, as a polynomial: zero exactly when m is normal."""
    p = Polynomial.of(comp.field, m)
    return p.sub(comp.coords_to_polynomial(comp.normal_form(p)))
