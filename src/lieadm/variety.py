"""Relatively free algebras, one multidegree component at a time.

A variety is a finite list of multilinear defining identities. Its
relatively free algebra A is the free magma algebra M modulo the ideal I
of identity consequences, and it is built degree by degree (the Albert
construction). For total degree at least 2, M_mu is the direct sum of
M_a (x) M_b over a + b = mu, and I_mu is the sum of I_a M_b + M_a I_b and
the top-level substitutions f(t_1, ..., t_m) of monomials into each
identity f. Hence

    A_mu = (sum over a + b = mu of A_a (x) A_b) / span(substitutions),

and substituting normal monomials of lower components suffices, since f
is multilinear. The columns of this product space are pairs (p, q) of
lower normal monomials, sorted by the canonical order of the product p*q.
That order is compatible with multiplication, so the non-pivot columns
of the reduced relation basis are exactly the free-magma monomials that
lead no element of I_mu: the quotient basis and every normal form are the
canonical ones, whichever way the component is built. A product of two
normal monomials is a column, so its normal form is a table look-up.
Substitutions are evaluated by ``terms.evaluate``, and ``verify_identity``
scans an identity through ``terms.nonzero_values``, as an audit does on
basis vectors.
An identity that a swap of two variables negates gives the same
relation line (up to sign) for a substitution and for its swap, so only
the substitutions ``Identity.representatives`` keeps are evaluated.
The relation rows reach ``rref`` as evaluated, in one sort: those of the
identities with fewest terms first, each such group in descending lead
order, which cuts the work of keeping the pivot rows reduced; ``rref``
alone makes them canonical, so neither order nor scaling changes the basis.

Components are memoized per (variety, field, generators, multidegree) and
immutable once built; lower components come from the same cache. Only a
multidegree with every entry nonzero is eliminated. One with a zero entry
is the component over its support (its nonzero entries, over that many
generators) with generator i renamed to the i-th generator of the
support: the renaming keeps the order of generators, hence of leaf words
and multidegrees, so columns, rows, basis and normal monomials
correspond in order, and each support pattern is eliminated once. Every
component is reached under one guard, MAX_COLUMNS product-space columns,
counted from the lower dimensions before any column is formed, so no
cached component is over it and a call gives the same answer whatever
was built before.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable

from .errors import InputError, ResourceError
from .exprs import Identity, builtin
from .linalg import Field, reduced, rref, vector
from .terms import (
    Monomial,
    Polynomial,
    enumerate_monomials,
    evaluate,
    format_multidegree,
    leaf,
    mdeg_sub,
    mdeg_total,
    multidegree,
    multidegrees,
    node,
    nonzero_values,
    render_monomial,
    render_polynomial,
    template_terms,
)

# The resource guards, for library and CLI calls alike. The most
# product-space columns a component may have: the free magma on one
# generator passes it up to degree 12 (58786 columns), not at 13 (208012).
MAX_COLUMNS = 200000
# the most substitution tuples verify_identity tries for a non-multilinear identity
MAX_SUBSTITUTIONS = 20000


class VarietySpec:
    """A named variety given by multilinear defining identities."""

    __slots__ = ("name", "identities")

    def __init__(self, name: str, identities: Iterable[Identity]):
        self.name = name
        self.identities = tuple(identities)

    def key(self) -> tuple:
        return (self.name,) + tuple(i.source for i in self.identities)

    def __repr__(self) -> str:
        return f"VarietySpec({self.name})"


_BUILTIN_VARIETIES = {
    "magma": (),
    "associative": ("assoc",),
    "novikov": ("rightcom", "leftsym"),
    "bicommutative": ("leftcom", "rightcom"),
    "assosymmetric": ("leftsym", "rightsym"),
}


def builtin_variety(name: str) -> VarietySpec:
    try:
        idents = _BUILTIN_VARIETIES[name]
    except KeyError:
        raise InputError(
            f"unknown variety {name!r}; known: {', '.join(sorted(_BUILTIN_VARIETIES))}"
        ) from None
    return VarietySpec(name, tuple(builtin(n) for n in idents))


def variety_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_VARIETIES))


def custom_variety(sources: Iterable[str], name: str = "custom") -> VarietySpec:
    idents = tuple(Identity(f"{name}_{i + 1}", s) for i, s in enumerate(sources))
    return VarietySpec(name, idents)


# ---------------------------------------------------------------------------
# product spaces and relation rows


def _lower_components(variety, field, k, mu) -> dict:
    """The lower components of mu (every proper nonzero part), from
    ``component_basis``. A ResourceError if mu's product space has more
    than MAX_COLUMNS columns, counted from their dimensions."""
    if len(mu) != k or mdeg_total(mu) < 1 or min(mu) < 0:
        raise InputError(f"multidegree {mu} is not a nonzero multidegree over {k} generators")
    n = mdeg_total(mu)
    lower = {a: component_basis(variety, field, k, a) for a in multidegrees(mu, n - 1)}
    count = (n == 1) + sum(
        left.quotient_dim * lower[mdeg_sub(mu, a)].quotient_dim for a, left in lower.items()
    )
    if count > MAX_COLUMNS:
        raise ResourceError(
            f"component at {format_multidegree(mu)} has {count} product-space "
            f"columns, over the guard of {MAX_COLUMNS}"
        )
    return lower


def _product_space(variety, field, k, mu) -> tuple[dict, list]:
    """The lower components (``_lower_components``) and the product-space
    columns at mu in canonical order, as (key, monomial): key (a, p, q)
    is the product of normal monomial p of degree a and normal monomial q
    of degree mu - a, and key () the generator itself in degree 1."""
    lower = _lower_components(variety, field, k, mu)
    n = mdeg_total(mu)
    cols = [((), leaf(mu.index(1)))] if n == 1 else []
    for a, left in lower.items():
        right = lower[mdeg_sub(mu, a)]
        for p, pm in enumerate(left.quotient_monomials):
            cols += [((a, p, q), node(pm, qm)) for q, qm in enumerate(right.quotient_monomials)]
    cols.sort(key=lambda col: (col[1].shape, col[1].leaves))
    return lower, cols


def _compositions(mu: tuple[int, ...], m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Ordered m-tuples of nonzero multidegrees summing to mu."""
    if m == 1:
        return [(mu,)]
    return [
        (a,) + rest
        for a in multidegrees(mu, mdeg_total(mu) - m + 1)
        for rest in _compositions(mdeg_sub(mu, a), m - 1)
    ]


def relation_rows(variety: VarietySpec, field: Field, mu: tuple[int, ...], space) -> list[dict]:
    """The nonzero top-level relation rows at mu, as column->coefficient
    dicts over the product space ``space`` (from ``_product_space``), as
    evaluated (``reduced``): ``rref`` makes them canonical.

    For each identity term g*h, g and h are evaluated on the lower normal
    monomials through ``terms.evaluate``, with one table per call, and
    their classes are placed into the product-space columns. Each lower
    normal monomial is keyed by its position in the order of (total
    degree of part, part, pick), so ``<`` on keys is that order, and only
    the substitutions ``Identity.representatives`` keeps are evaluated
    (a non-multilinear identity is refused there, before the c*x = 0
    case). No builtin identity has another symmetry, so no builtin
    component repeats a line; the repeats a custom one gives (a symmetric
    swap, a cyclic sum) ``rref`` reduces to zero. An identity whose
    template vanishes over the field gives no rows.

    The identities are taken in the order of their sources, so the order
    the variety lists them in does not matter, and all their rows are
    stably sorted once, by the number of terms in their identity's
    template, fewest first (c*x = 0 is the one-term case, and a shorter
    identity gives sparser rows), then by descending lead column, then
    the sparsest first: a key of the support, which no scaling changes.
    A pivot row holds no column left of its lead, so ``rref`` then makes
    fewer pivots that older pivot rows hold and has fewer of them to
    clear. In a cold multilinear degree-5 build over Q, sorting
    assosymmetric's two four-term identities together takes rref's entry
    updates from 276,162 or 439,852 (one sorted block per identity, in
    listing or source order) to 220,049; Novikov's two-term rows are best
    reduced before its four-term ones, and ignoring the term count would
    take it from 342,266 to 483,075.
    """
    lower, cols = space
    columns = {key: j for j, (key, _) in enumerate(cols)}
    p = field.char
    # the keys of each part, which ``lower`` lists by total degree, then part
    units, pools = {}, {}
    for a, c in lower.items():
        pools[a] = range(len(units), len(units) + c.quotient_dim)
        units.update(((key,), (a, ((q, 1),))) for q, key in enumerate(pools[a]))
    table = {(1,): units}
    compositions: dict[int, list] = {}  # by arity, shared by the identities
    rows: list[tuple[int, dict]] = []  # (term count, row)
    for ident in sorted(variety.identities, key=lambda i: i.source):
        m = len(ident.variables)
        if m not in compositions:
            compositions[m] = _compositions(mu, m)
        every = (itertools.product(*(pools[a] for a in parts)) for parts in compositions[m])
        substitutions = ident.representatives(field, itertools.chain.from_iterable(every))
        template = ident.template(field)
        size = len(template.terms)
        if not size:
            continue
        if m == 1:
            # c*x = 0 kills every element, so every column is a relation
            rows += ((size, {j: 1}) for j in range(len(cols)))
            continue
        # a term has m >= 2 leaves, so itemgetter gives a tuple
        terms = [
            (t.left, t.right, t.left.degree, itemgetter(*t.leaves), c)
            for t, c in template.terms.items()
        ]
        for keys in substitutions:
            row: dict[int, object] = {}
            for left, right, d, leaves_of, c in terms:
                args = leaves_of(keys)
                a, x = evaluate(left, args[:d], table, lower, p)
                _, y = evaluate(right, args[d:], table, lower, p)
                for q1, xq in x:
                    cx = c * xq
                    for q2, yq in y:
                        j = columns[(a, q1, q2)]
                        row[j] = row.get(j, 0) + cx * yq
            row = reduced(p, row)
            if row:
                rows.append((size, row))
    rows.sort(key=lambda sized: (sized[0], -min(sized[1]), len(sized[1])))
    return [row for _, row in rows]


# ---------------------------------------------------------------------------
# components


class FreeAlgebraComponent:
    """One multidegree slice of the relatively free algebra.

    ``products`` maps each product-space column key to the normal form of
    that column, sorted (quotient index, scalar) pairs; ``quotient_monomials``
    are the normal monomials.
    """

    __slots__ = (
        "variety",
        "field",
        "k",
        "mu",
        "lower",
        "column_count",
        "products",
        "quotient_monomials",
        "quotient_dim",
    )

    def __init__(self, variety: VarietySpec, field: Field, k: int, mu: tuple[int, ...]):
        self.variety = variety
        self.field = field
        self.k = k
        self.mu = mu
        self.lower, cols = _product_space(variety, field, k, mu)
        self.column_count = len(cols)
        rows = relation_rows(variety, field, mu, (self.lower, cols))
        basis = rref(field, self.column_count, rows)

        pivots = set(basis.pivots)
        quotient_ids = [j for j in range(self.column_count) if j not in pivots]
        self.quotient_monomials = tuple(cols[j][1] for j in quotient_ids)
        self.quotient_dim = len(quotient_ids)
        qpos = {j: q for q, j in enumerate(quotient_ids)}

        nf = {j: ((q, 1),) for j, q in qpos.items()}
        for pivot, row in zip(basis.pivots, basis.rows):
            nf[pivot] = vector(field.char, {qpos[j]: -c for j, c in row.entries[1:]})
        self.products = {key: nf[j] for j, (key, _) in enumerate(cols)}

    # -- quotient arithmetic -------------------------------------------------

    def add_product(self, acc: dict, a: tuple[int, ...], x, y, scale=1) -> None:
        """acc += scale * (x times y) for quotient entries x of degree a and
        y of degree mu - a, with plain ``+``/``*``: the caller reduces the
        finished sum once (``reduced``)."""
        products = self.products
        for p, xp in x:
            for q, yq in y:
                c = scale * xp * yq
                for j, w in products[(a, p, q)]:
                    acc[j] = acc.get(j, 0) + c * w

    def coords_to_polynomial(self, vec) -> Polynomial:
        """The canonical representative with the quotient coordinates
        ``vec``, (index, scalar) pairs."""
        return Polynomial(self.field, {self.quotient_monomials[q]: c for q, c in vec})

    def render_coords(self, vec) -> str:
        return render_polynomial(self.coords_to_polynomial(vec), key_gens=self.k)

    def __repr__(self) -> str:
        return (
            f"FreeAlgebraComponent({self.variety.name}/{self.field.name}, k={self.k}, "
            f"mu={self.mu}, dim={self.quotient_dim}/{self.column_count} columns)"
        )


def _relabeled(variety: VarietySpec, field: Field, k: int, mu: tuple[int, ...]):
    """The component at mu, which has a zero entry, read off the component
    over its support: generator i there is generator support[i] here.

    That relabeling preserves the order of generators, so it preserves the
    canonical order of leaf words and multidegrees: the product-space
    columns, relation rows, reduced basis and normal monomials of the two
    components correspond one to one, in order. Column keys get their
    part back over k generators, normal forms are shared, and each normal
    monomial is the product of the relabeled lower normal monomials it
    was formed from. The lower components over k come first, under the
    same guard and in the same order as for a build at mu."""
    lower = _lower_components(variety, field, k, mu)
    support = list(itertools.compress(range(k), mu))
    base = component_basis(variety, field, len(support), tuple(mu[g] for g in support))
    comp = FreeAlgebraComponent.__new__(FreeAlgebraComponent)
    comp.variety, comp.field, comp.k, comp.mu, comp.lower = variety, field, k, mu, lower
    comp.column_count, comp.quotient_dim = base.column_count, base.quotient_dim
    if mdeg_total(mu) == 1:
        comp.products = base.products
        comp.quotient_monomials = (leaf(support[0]),)
        return comp
    # both lower dicts list the parts of mu in the same order
    part = dict(zip(base.lower, lower))
    names = {}
    for below, here in zip(base.lower.values(), lower.values()):
        names.update(zip(below.quotient_monomials, here.quotient_monomials))
    comp.products = {(part[a], p, q): nf for (a, p, q), nf in base.products.items()}
    comp.quotient_monomials = tuple(
        node(names[m.left], names[m.right]) for m in base.quotient_monomials
    )
    return comp


_component_cache: dict[tuple, FreeAlgebraComponent] = {}
# bound at import, so a wrapper later set over the module attribute (a
# profiler or tracer) does not hide the table from clear_caches
_clear_monomial_table = enumerate_monomials.cache_clear


def component_basis(
    variety: VarietySpec, field: Field, k: int, mu: tuple[int, ...]
) -> FreeAlgebraComponent:
    """Memoized component construction. Lower components are built first,
    through this same function, and each one built is refused with a
    ResourceError when its product space has more than MAX_COLUMNS
    columns; a cached component was built under the same guard. Only a
    multidegree with every entry nonzero is eliminated; one with a zero
    entry is the relabeled component over its support (``_relabeled``)."""
    key = (variety.key(), field.char, k, mu)
    comp = _component_cache.get(key)
    if comp is not None:
        return comp
    if 0 in mu:
        comp = _relabeled(variety, field, k, mu)
    else:
        comp = FreeAlgebraComponent(variety, field, k, mu)
    _component_cache[key] = comp
    return comp


def clear_caches():
    """Drop memoized components and the monomial enumeration table (used
    by determinism tests and cold-start measurements)."""
    _component_cache.clear()
    _clear_monomial_table()


# ---------------------------------------------------------------------------
# identity verification


def verify_identity(variety: VarietySpec, field: Field, identity: Identity, cap: int = 3) -> dict:
    """Check whether the identity holds in the variety, and return the
    verify document: ``identity``, ``variety`` and ``field`` (names),
    ``multilinear``, ``verdict`` (``holds`` or ``fails``) and ``witness``,
    None when it holds.

    A multilinear identity is decided by the one assignment of variable i
    to generator i: the template vanishes in the relatively free algebra
    iff it lies in the relation space at (1,...,1). Anything else is
    tested by substituting the tuples of monomials of degree <= cap, in
    canonical order, and reducing every homogeneous piece of the result,
    so ``cap`` must be at least 1: an empty substitution pool would make
    every identity hold. The scan stops after the identity's own
    variables, the tuple (x_1, ..., x_n), which the pool always holds:
    every other tuple is its image under an endomorphism of the free
    algebra, which maps the relation ideal into itself, so once that
    tuple leaves no residual the identity holds. A failing identity fails
    at or before it, so the witness is the first in canonical order.

    The scan is ``terms.nonzero_values``, once per tuple and piece, on one
    table whose leaf keys are the pool monomials, each set to its class.
    A word's piece is the sum of its variables' class degrees, and the
    pieces go in ascending (total, multidegree) order, each after its
    component is built: a low piece fails before a high one is refused.
    """
    if cap < 1:
        raise InputError(f"substitution degree cap must be at least 1, got {cap}")
    template = identity.template(field)
    nvars = len(identity.variables)
    multilinear = identity.multilinear(field)
    doc = {
        "identity": identity.name,
        "variety": variety.name,
        "field": field.name,
        "multilinear": multilinear,
    }
    own = tuple(leaf(i) for i in range(nvars))
    if multilinear:
        tuples = [own]
    else:
        # the pool has C(n-1) * nvars^n monomials of degree n, C the Catalan
        # numbers; count them degree by degree and refuse before enumerating
        size, catalan = 0, 1
        for n in range(1, cap + 1):
            size += catalan * nvars**n
            if size**nvars > MAX_SUBSTITUTIONS:
                least = "" if n == cap else "at least "
                raise ResourceError(
                    f"substitution search needs {least}{size ** nvars} tuples, "
                    f"over the guard of {MAX_SUBSTITUTIONS}; lower the cap"
                )
            catalan = catalan * 2 * (2 * n - 1) // (n + 1)
        pool: list[Monomial] = []
        for mu in multidegrees((cap,) * nvars, cap):
            pool.extend(enumerate_monomials(nvars, mu))
        pool.sort(key=lambda m: m.sort_key(nvars))
        tuples = itertools.product(pool, repeat=nvars)
    p = field.char
    # a generator's class is the one of its degree-one component, empty
    # when an identity kills the generators
    units = {}
    for x in own:
        e = multidegree(x, nvars)
        units[(x,)] = (e, component_basis(variety, field, nvars, e).products[()])
    table = {(1,): units}
    words: dict[tuple, list] = {}  # sorted leaf word -> its terms
    for term in template_terms(template, table):
        words.setdefault(tuple(sorted(term[2].leaves)), []).append(term)
    for ts in tuples:
        for t in ts:
            if (t,) not in units:  # a pool monomial's class, on first use
                comp = component_basis(variety, field, nvars, multidegree(t, nvars))
                below = {**comp.lower, comp.mu: comp}
                units[(t,)] = evaluate(t, tuple(own[g] for g in t.leaves), table, below, p)
        pieces: dict[tuple, list] = {}
        for word, terms in words.items():
            mu = tuple(map(sum, zip(*(units[(ts[v],)][0] for v in word))))
            pieces.setdefault(mu, []).extend(terms)
        for mu in sorted(pieces, key=lambda t: (mdeg_total(t), t)):
            comp = component_basis(variety, field, nvars, mu)
            below = {**comp.lower, mu: comp}
            for _, residual in nonzero_values(pieces[mu], (ts,), table, below, p):
                witness = {
                    "assignment": {v: render_monomial(t) for v, t in zip(identity.variables, ts)},
                    "multidegree": format_multidegree(mu),
                    "residual": comp.render_coords(residual.items()),
                }
                return {**doc, "verdict": "fails", "witness": witness}
        if ts == own:
            break
    return {**doc, "verdict": "holds", "witness": None}
