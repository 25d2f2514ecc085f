"""Free magma monomials, multidegrees, polynomials, substitution.

A monomial is a full binary tree whose leaves carry generator indices.
The canonical order on monomials compares (total degree, multidegree
lexicographically, preorder shape word, leaf word); it is strict and
total, and every enumeration below returns its results in that order, so
witnesses and cache contents never depend on construction history.
Within one multidegree the order is compatible with multiplication: if
m < m' then m*n < m'*n and n*m < n*m'.

Identity templates reuse the same trees with variable indices in place
of generator indices, and ``substitute`` replaces them by monomials.

``evaluate`` is the one evaluator of a monomial in an algebra, shared by
relation rows, normal forms, membership scans and associator spans.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb
from typing import Callable, Optional

from .errors import InputError, ResourceError
from .linalg import Field, Scalar, reduced


class Monomial:
    """A full binary tree with generator indices at the leaves.

    Immutable; ``leaves`` is the left-to-right leaf word and ``shape`` the
    preorder walk with 0 for an internal node and 1 for a leaf. Sorting
    keys and hashes are cached on the instance.
    """

    __slots__ = ("gen", "left", "right", "degree", "leaves", "shape", "_hash")

    def __init__(self, gen: int = None, left: "Monomial" = None, right: "Monomial" = None):
        if gen is not None:
            self.gen = gen
            self.left = None
            self.right = None
            self.degree = 1
            self.leaves = (gen,)
            self.shape = (1,)
        else:
            self.gen = None
            self.left = left
            self.right = right
            self.degree = left.degree + right.degree
            self.leaves = left.leaves + right.leaves
            self.shape = (0,) + left.shape + right.shape
        self._hash = hash((self.shape, self.leaves))

    @property
    def is_leaf(self) -> bool:
        return self.gen is not None

    def __eq__(self, other) -> bool:
        return (
            self is other
            or (
                isinstance(other, Monomial)
                and self.shape == other.shape
                and self.leaves == other.leaves
            )
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial({render_monomial(self)})"

    def sort_key(self, k: int) -> tuple:
        return (self.degree, multidegree(self, k), self.shape, self.leaves)


def leaf(gen: int) -> Monomial:
    return Monomial(gen=gen)


def node(left: Monomial, right: Monomial) -> Monomial:
    return Monomial(left=left, right=right)


def multidegree(m: Monomial, k: int) -> tuple[int, ...]:
    """Occurrence counts of generators 0..k-1 in the leaf word."""
    counts = [0] * k
    for g in m.leaves:
        if g < 0 or g >= k:
            raise InputError(f"generator index {g} outside alphabet of size {k}")
        counts[g] += 1
    return tuple(counts)


def mdeg_total(mu: tuple[int, ...]) -> int:
    return sum(mu)


def mdeg_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def mdeg_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = tuple(map(operator.sub, a, b))
    if min(out) < 0:
        raise InputError(f"multidegree {b} does not fit inside {a}")
    return out


def format_multidegree(mu: tuple[int, ...]) -> str:
    """Report key for a multidegree, e.g. (2,1); stable across k=1."""
    return "(" + ",".join(str(c) for c in mu) + ")"


def multidegrees(bound: tuple[int, ...], max_total: Optional[int] = None) -> list[tuple[int, ...]]:
    """Nonzero multidegrees nu <= bound componentwise with total degree at
    most ``max_total`` (default: no limit beyond the bound), ordered by
    total degree, then lexicographically.

    ``multidegrees((D,) * k, D)`` lists every multidegree over k
    generators up to total degree D; ``multidegrees(mu, sum(mu) - 1)``
    lists the proper nonzero parts of mu.
    """
    top = mdeg_total(bound) if max_total is None else max_total
    if top < 1:
        return []
    # prefixes in lexicographic order, each as (total, nonzero (position,
    # exponent) pairs), extended only within the total; the stable sort
    # by total keeps that order within each total, and the zero comes first
    prefixes = [(0, ())]
    for i, c in enumerate(bound):
        prefixes = [
            (t + e, nz + ((i, e),) if e else nz)
            for t, nz in prefixes
            for e in range(min(c, top - t) + 1)
        ]
    prefixes.sort(key=operator.itemgetter(0))
    zeros = (0,) * len(bound)
    return [tuple(map(dict(nz).get, range(len(bound)), zeros)) for _, nz in prefixes[1:]]


# the entries of the multidegree listing of a slice over k generators up to
# total degree D, k * (C(k+D, D) - 1); basis --gens 2000 --degree 1 lists 4M
MAX_SLICE_ENTRIES = 5_000_000


def slice_multidegrees(k: int, cap: int) -> list[tuple[int, ...]]:
    """``multidegrees((cap,) * k, cap)``, refused before it is listed with a
    ResourceError when its k * (C(k+cap, cap) - 1) entries are more than
    MAX_SLICE_ENTRIES. The listing has at least k * max(k, cap) entries,
    so past that bound no binomial is taken, however large k and cap are."""
    least = k * max(k, cap)
    entries = least if least > MAX_SLICE_ENTRIES else k * (comb(k + cap, cap) - 1)
    if entries > MAX_SLICE_ENTRIES:
        raise ResourceError(
            f"multidegrees over {k} generators up to degree {cap} have "
            f"{'at least ' if entries == least else ''}{entries} entries, "
            f"over the guard of {MAX_SLICE_ENTRIES}"
        )
    return multidegrees((cap,) * k, cap)


@lru_cache(maxsize=None)
def enumerate_monomials(k: int, mu: tuple[int, ...]) -> tuple[Monomial, ...]:
    """All monomials over generators 0..k-1 with multidegree mu, in
    canonical order."""
    if len(mu) != k:
        raise InputError(f"multidegree {mu} has wrong length for {k} generators")
    n = mdeg_total(mu)
    if n < 1:
        raise InputError("a monomial needs total degree at least 1")
    if n == 1:
        return (leaf(mu.index(1)),)
    out = []
    for a in multidegrees(mu, n - 1):
        b = mdeg_sub(mu, a)
        for l in enumerate_monomials(k, a):
            for r in enumerate_monomials(k, b):
                out.append(node(l, r))
    out.sort(key=lambda m: (m.shape, m.leaves))
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Finite linear combination of monomials with exact coefficients.

    The term map never stores zeros, and over F_p its scalars lie in
    [0, p): the constructor takes the field step (``reduced``), so the
    arithmetic below sums with plain ``+``/``*``. Instances are treated
    as immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict[Monomial, Scalar] = None):
        self.field = field
        self.terms: dict[Monomial, Scalar] = reduced(field.char, terms) if terms else {}

    @classmethod
    def of(cls, field: Field, m: Monomial, c: Scalar = 1) -> "Polynomial":
        return cls(field, {m: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({render_polynomial(self)})"

    def _require_same_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise InputError("polynomials live over different fields")

    def add(self, other: "Polynomial") -> "Polynomial":
        self._require_same_field(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.field, out)

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.scaled(-1))

    def scaled(self, c: Scalar) -> "Polynomial":
        return Polynomial(self.field, {m: v * c for m, v in self.terms.items()})


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """Bilinear extension of the tree join."""
    p._require_same_field(q)
    out: dict[Monomial, Scalar] = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = node(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return Polynomial(p.field, out)


def commutator(p: Polynomial, q: Polynomial) -> Polynomial:
    return multiply(p, q).sub(multiply(q, p))


def associator(p: Polynomial, q: Polynomial, r: Polynomial) -> Polynomial:
    return multiply(multiply(p, q), r).sub(multiply(p, multiply(q, r)))


def jordan(p: Polynomial, q: Polynomial) -> Polynomial:
    return multiply(p, q).add(multiply(q, p))


# ---------------------------------------------------------------------------
# evaluation in an algebra


def evaluate(m: Monomial, args: tuple, table: dict, components, p: int) -> tuple:
    """(degree, entries) of monomial m with leaf i set to the element keyed
    ``args[i]``; entries are (index, scalar) pairs, reduced mod p.

    ``table`` maps a shape to {leaf keys: value}, and the caller seeds the
    leaf shape ``(1,)`` with ``{(key,): (degree, entries)}``. Each internal
    node is multiplied once per table, through ``components[degree]``'s
    ``add_product`` (``FreeAlgebraComponent`` and ``FiniteDimAlgebra``
    share it), and kept there; callers must not modify the shared values.
    """
    by_args = table.setdefault(m.shape, {})
    value = by_args.get(args)
    if value is None:
        d = m.left.degree
        a, x = evaluate(m.left, args[:d], table, components, p)
        b, y = evaluate(m.right, args[d:], table, components, p)
        nu = mdeg_add(a, b)
        acc: dict = {}
        if x and y:
            components[nu].add_product(acc, a, x, y)
        value = by_args[args] = (nu, tuple(reduced(p, acc).items()) if acc else ())
    return value


# ---------------------------------------------------------------------------
# substitution


def substitute(template: Polynomial, assignment: dict[int, Monomial]) -> Polynomial:
    """Replace each leaf index of the template through ``assignment``.

    The template's leaf indices are variable numbers; every one of them
    must be assigned. Homomorphic: images of products are products of
    images.
    """
    out: dict[Monomial, Scalar] = {}
    for m, c in template.terms.items():
        img = _substitute_mono(m, assignment)
        out[img] = out.get(img, 0) + c
    return Polynomial(template.field, out)


def _substitute_mono(m: Monomial, assignment: dict[int, Monomial]) -> Monomial:
    if m.is_leaf:
        try:
            return assignment[m.gen]
        except KeyError:
            raise InputError(f"variable {m.gen} has no assignment") from None
    return node(
        _substitute_mono(m.left, assignment),
        _substitute_mono(m.right, assignment),
    )


# ---------------------------------------------------------------------------
# rendering


def generator_name(g: int) -> str:
    return f"x{g + 1}"


def render_monomial(m: Monomial, namer: Callable[[int], str] = generator_name) -> str:
    """Fully parenthesized text, e.g. ((x1*x2)*x1); parses back through
    the expression grammar."""
    if m.is_leaf:
        return namer(m.gen)
    return f"({render_monomial(m.left, namer)}*{render_monomial(m.right, namer)})"


def render_polynomial(
    p: Polynomial,
    namer: Callable[[int], str] = generator_name,
    key_gens: Optional[int] = None,
) -> str:
    """Canonical text of a polynomial, terms in canonical monomial order."""
    if not p.terms:
        return "0"
    k = key_gens
    if k is None:
        k = max((max(m.leaves) for m in p.terms), default=0) + 1
    items = sorted(p.terms.items(), key=lambda mc: mc[0].sort_key(k))
    field = p.field
    parts = []
    for i, (m, c) in enumerate(items):
        text = render_monomial(m, namer)
        neg = field.char == 0 and c < 0
        mag = -c if neg else c
        coeff = field.render(mag)
        body = text if coeff == "1" else f"{coeff}*{text}"
        if i == 0:
            parts.append(f"-{coeff}*{text}" if neg else body)
        else:
            parts.append(f" - {body}" if neg else f" + {body}")
    return "".join(parts)
