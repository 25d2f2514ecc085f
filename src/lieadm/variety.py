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

Components are memoized per (variety, field, generators, multidegree) and
immutable once built; lower components come from the same cache.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .errors import InputError, ResourceError, UnsupportedVarietyError
from .exprs import Identity, builtin
from .linalg import EchelonBasis, Field, SparseVector, accumulate, rref
from .terms import (
    Monomial,
    Polynomial,
    enumerate_monomials,
    format_multidegree,
    leaf,
    mdeg_add,
    mdeg_sub,
    mdeg_total,
    multidegree,
    multidegrees,
    node,
    render_polynomial,
    substitute,
)


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


def _product_space(variety, field, k, mu, max_monomials=None) -> tuple[dict, list]:
    """The lower components (every proper nonzero part of mu) and the
    product-space columns at mu in canonical order, as (key, monomial):
    key (a, p, q) is the product of normal monomial p of degree a and
    normal monomial q of degree mu - a, and key () the generator itself
    in degree 1."""
    if len(mu) != k or any(c < 0 for c in mu) or mdeg_total(mu) < 1:
        raise InputError(f"multidegree {mu} is not a nonzero multidegree over {k} generators")
    n = mdeg_total(mu)
    lower = {
        a: component_basis(variety, field, k, a, max_monomials) for a in multidegrees(mu, n - 1)
    }
    cols = [((), leaf(mu.index(1)))] if n == 1 else []
    for a, left in lower.items():
        right = lower[mdeg_sub(mu, a)]
        for p, pm in enumerate(left.quotient_monomials):
            cols += [((a, p, q), node(pm, qm)) for q, qm in enumerate(right.quotient_monomials)]
    cols.sort(key=lambda col: (col[1].shape, col[1].leaves))
    if max_monomials is not None and len(cols) > max_monomials:
        raise ResourceError(
            f"component at {format_multidegree(mu)} has {len(cols)} product-space "
            f"columns, over the guard of {max_monomials}"
        )
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


def _evaluate(tree: Monomial, parts, picks, lower, field: Field):
    """(multidegree, quotient entries) of a template subtree whose variable
    i stands for normal monomial ``picks[i]`` of degree ``parts[i]``."""
    if tree.is_leaf:
        return parts[tree.gen], ((picks[tree.gen], field.one),)
    a, x = _evaluate(tree.left, parts, picks, lower, field)
    b, y = _evaluate(tree.right, parts, picks, lower, field)
    nu = mdeg_add(a, b)
    products = lower[nu].products
    if len(x) == len(y) == 1 and x[0][1] is y[0][1] is field.one:
        return nu, products[(a, x[0][0], y[0][0])].entries
    acc: dict[int, object] = {}
    for p, xp in x:
        for q, yq in y:
            accumulate(field, acc, products[(a, p, q)], field.mul(xp, yq))
    return nu, tuple(sorted(acc.items()))


def relation_rows(
    variety: VarietySpec, field: Field, k: int, mu: tuple[int, ...], space=None
) -> list[dict[int, object]]:
    """Deduplicated top-level relation rows at mu, as column->coefficient
    dicts over the product space (``space``, from ``_product_space``),
    each monic at its first column."""
    lower, cols = space or _product_space(variety, field, k, mu)
    columns = {key: j for j, (key, _) in enumerate(cols)}
    add, mul, one = field.add, field.mul, field.one
    seen = set()
    rows: list[dict[int, object]] = []
    for ident in variety.identities:
        template = ident.template(field)
        if not ident.multilinear(field):
            raise UnsupportedVarietyError(
                f"identity {ident.name!r} is not multilinear; "
                "only multilinear defining identities are supported"
            )
        if not template.terms:
            continue
        m = len(ident.variables)
        if m == 1:
            # c*x = 0 kills every element, so every column is a relation
            rows += [{j: one} for j in range(len(cols))]
            continue
        # unit coefficients are the shared ``one``, so ``is`` skips the product
        terms = [(t.left, t.right, one if c == one else c) for t, c in template.terms.items()]
        for parts in _compositions(mu, m):
            pools = [range(lower[part].quotient_dim) for part in parts]
            for picks in itertools.product(*pools):
                row: dict[int, object] = {}
                for left, right, c in terms:
                    a, x = _evaluate(left, parts, picks, lower, field)
                    _, y = _evaluate(right, parts, picks, lower, field)
                    for p, xp in x:
                        cx = c if xp is one else mul(c, xp)
                        for q, yq in y:
                            j = columns[(a, p, q)]
                            v = yq if cx is one else mul(cx, yq)
                            row[j] = v if j not in row else add(row[j], v)
                row = {j: c for j, c in row.items() if c}
                if row:
                    ic = field.inv(row[min(row)])
                    if ic != one:
                        row = {j: mul(c, ic) for j, c in row.items()}
                    fingerprint = tuple(sorted(row.items()))
                    if fingerprint not in seen:
                        seen.add(fingerprint)
                        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# components


class FreeAlgebraComponent:
    """One multidegree slice of the relatively free algebra.

    ``products`` maps each product-space column key to the normal form of
    that column, in quotient coordinates; ``quotient_monomials`` are the
    normal monomials. ``monomials``, ``index`` and ``relations`` describe
    the component inside the free magma component and are derived on
    first use: the relation basis has one row e_m - nf(m) per monomial m
    that is not normal.
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
        "_index",
        "_relations",
    )

    def __init__(
        self,
        variety: VarietySpec,
        field: Field,
        k: int,
        mu: tuple[int, ...],
        max_monomials: Optional[int] = None,
    ):
        self.variety = variety
        self.field = field
        self.k = k
        self.mu = mu
        self.lower, cols = _product_space(variety, field, k, mu, max_monomials)
        self.column_count = len(cols)
        rows = relation_rows(variety, field, k, mu, (self.lower, cols))
        reduced = rref(field, self.column_count, rows)

        pivots = set(reduced.pivots)
        quotient_ids = [j for j in range(self.column_count) if j not in pivots]
        self.quotient_monomials = tuple(cols[j][1] for j in quotient_ids)
        self.quotient_dim = len(quotient_ids)
        qpos = {j: q for q, j in enumerate(quotient_ids)}

        nf: list[SparseVector] = [None] * self.column_count
        for j in quotient_ids:
            nf[j] = SparseVector(((qpos[j], field.one),))
        neg = field.neg
        for pivot, row in zip(reduced.pivots, reduced.rows):
            nf[pivot] = SparseVector((qpos[j], neg(c)) for j, c in row.entries if j != pivot)
        self.products = {key: nf[j] for j, (key, _) in enumerate(cols)}
        self._index = None
        self._relations = None

    # -- quotient arithmetic -------------------------------------------------

    def _monomial_coords(self, m: Monomial) -> SparseVector:
        """Normal form of a monomial of this multidegree, through the normal
        forms of its factors."""
        if m.is_leaf:
            return self.products[()]
        a = multidegree(m.left, self.k)
        x = self.lower[a]._monomial_coords(m.left)
        y = self.lower[mdeg_sub(self.mu, a)]._monomial_coords(m.right)
        f = self.field
        acc: dict[int, object] = {}
        for p, xp in x.entries:
            for q, yq in y.entries:
                accumulate(f, acc, self.products[(a, p, q)], f.mul(xp, yq))
        return SparseVector.from_dict(acc)

    def normal_form(self, p: Polynomial) -> SparseVector:
        """Quotient coordinates of p; the zero vector iff p lies in the
        relation space."""
        if p.field != self.field:
            raise InputError("polynomial field does not match component field")
        f = self.field
        acc: dict[int, object] = {}
        for mono, c in p.terms.items():
            try:
                nu = multidegree(mono, self.k)
            except InputError:
                nu = "?"
            if nu != self.mu:
                raise InputError(
                    f"monomial of multidegree {nu} does not belong to component {self.mu}"
                )
            accumulate(f, acc, self._monomial_coords(mono), c)
        return SparseVector.from_dict(acc)

    def coords_to_polynomial(self, vec: SparseVector) -> Polynomial:
        """The canonical representative with the given quotient coordinates."""
        return Polynomial(
            self.field, {self.quotient_monomials[q]: c for q, c in vec.entries}
        )

    def render_coords(self, vec: SparseVector) -> str:
        return render_polynomial(self.coords_to_polynomial(vec), key_gens=self.k)

    # -- the component inside the free magma component -----------------------

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        return enumerate_monomials(self.k, self.mu)

    @property
    def index(self) -> dict[Monomial, int]:
        if self._index is None:
            self._index = {m: i for i, m in enumerate(self.monomials)}
        return self._index

    @property
    def relations(self) -> EchelonBasis:
        """Reduced relation basis over the free magma monomials."""
        if self._relations is None:
            f = self.field
            index = self.index
            normal = set(self.quotient_monomials)
            qcol = [index[m] for m in self.quotient_monomials]
            rows = []
            for i, m in enumerate(self.monomials):
                if m not in normal:
                    entries = [(i, f.one)]
                    entries += [(qcol[q], f.neg(c)) for q, c in self._monomial_coords(m).entries]
                    rows.append(SparseVector(entries))
            self._relations = EchelonBasis(f, len(index), tuple(rows))
        return self._relations

    def __repr__(self) -> str:
        return (
            f"FreeAlgebraComponent({self.variety.name}/{self.field.name}, k={self.k}, "
            f"mu={self.mu}, dim={self.quotient_dim}/{self.column_count} columns)"
        )


_component_cache: dict[tuple, FreeAlgebraComponent] = {}
# bound at import, so a wrapper later set over the module attribute (a
# profiler or tracer) does not hide the table from clear_caches
_clear_monomial_table = enumerate_monomials.cache_clear


def component_basis(
    variety: VarietySpec,
    field: Field,
    k: int,
    mu: tuple[int, ...],
    max_monomials: Optional[int] = None,
) -> FreeAlgebraComponent:
    """Memoized component construction. Lower components are built first,
    through this same function; ``max_monomials`` bounds the product-space
    columns of every component this call builds."""
    key = (variety.key(), field.char, k, mu)
    comp = _component_cache.get(key)
    if comp is not None:
        return comp
    comp = FreeAlgebraComponent(variety, field, k, mu, max_monomials)
    _component_cache[key] = comp
    return comp


def clear_caches():
    """Drop memoized components and the monomial enumeration table (used
    by determinism tests and cold-start measurements)."""
    _component_cache.clear()
    _clear_monomial_table()


# ---------------------------------------------------------------------------
# identity verification


class VerifyVerdict:
    """Outcome of checking one identity against one variety."""

    __slots__ = ("holds", "identity", "variety", "field", "multilinear", "witness")

    def __init__(self, holds, identity, variety, field, multilinear, witness=None):
        self.holds = holds
        self.identity = identity
        self.variety = variety
        self.field = field
        self.multilinear = multilinear
        self.witness = witness

    def to_doc(self) -> dict:
        doc = {
            "identity": self.identity,
            "variety": self.variety,
            "field": self.field,
            "multilinear": self.multilinear,
            "verdict": "holds" if self.holds else "fails",
        }
        doc["witness"] = self.witness
        return doc


def verify_identity(
    variety: VarietySpec,
    field: Field,
    identity: Identity,
    cap: int = 3,
    max_monomials: Optional[int] = None,
    max_substitutions: int = 20000,
) -> VerifyVerdict:
    """Check whether the identity holds in the variety.

    Multilinear identities are decided at their own multidegree: the
    template vanishes in the relatively free algebra iff it lies in the
    relation space at (1,...,1). Anything else is tested by substituting
    every tuple of monomials of degree <= cap, in canonical order, and
    reducing every homogeneous piece of the result, so ``cap`` must be at
    least 1: an empty substitution pool would make every identity hold.
    """
    if cap < 1:
        raise InputError(f"substitution degree cap must be at least 1, got {cap}")
    template = identity.template(field)
    nvars = len(identity.variables)
    if not template.terms:
        return VerifyVerdict(True, identity.name, variety.name, field.name, True)

    if identity.multilinear(field):
        mu = (1,) * nvars
        comp = component_basis(variety, field, nvars, mu, max_monomials)
        residual = comp.normal_form(template)
        if not residual:
            return VerifyVerdict(True, identity.name, variety.name, field.name, True)
        witness = {
            "assignment": {
                name: f"x{i + 1}" for i, name in enumerate(identity.variables)
            },
            "multidegree": format_multidegree(mu),
            "residual": comp.render_coords(residual),
        }
        return VerifyVerdict(False, identity.name, variety.name, field.name, True, witness)

    # Substitution search for non-multilinear input.
    pool: list[Monomial] = []
    for mu in multidegrees((cap,) * nvars, cap):
        pool.extend(enumerate_monomials(nvars, mu))
    pool.sort(key=lambda m: m.sort_key(nvars))
    if len(pool) ** nvars > max_substitutions:
        raise ResourceError(
            f"substitution search needs {len(pool) ** nvars} tuples, "
            f"over the guard of {max_substitutions}; lower the cap"
        )
    for ts in itertools.product(pool, repeat=nvars):
        assignment = dict(enumerate(ts))
        value = substitute(template, assignment)
        by_mu: dict[tuple[int, ...], Polynomial] = {}
        for mono, c in value.terms.items():
            mu = multidegree(mono, nvars)
            piece = by_mu.setdefault(mu, Polynomial(field))
            piece.terms[mono] = c
        for mu in sorted(by_mu, key=lambda t: (mdeg_total(t), t)):
            comp = component_basis(variety, field, nvars, mu, max_monomials)
            residual = comp.normal_form(by_mu[mu])
            if residual:
                witness = {
                    "assignment": {
                        name: render_polynomial(
                            Polynomial.of(field, ts[i]), key_gens=nvars
                        )
                        for i, name in enumerate(identity.variables)
                    },
                    "multidegree": format_multidegree(mu),
                    "residual": comp.render_coords(residual),
                }
                return VerifyVerdict(
                    False, identity.name, variety.name, field.name, False, witness
                )
    return VerifyVerdict(True, identity.name, variety.name, field.name, False)
