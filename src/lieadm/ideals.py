"""Graded-subspace calculus inside a degree-capped relatively free algebra.

An AlgebraSlice holds every multidegree component up to a total-degree
cap D and multiplies quotient classes through normal forms. Products
whose total degree exceeds D are zero by truncation; this is sound
because the span of all components of degree > D is an ideal, so every
inclusion verified here is a genuine statement about degrees <= D.

On top of the slice sit graded subspaces (one echelon basis per
multidegree), the usual span operations (brackets, products,
associators, powers, ideal closure), the two canonical chains, and a
dispatch table of named structural checks with witness reporting.

One span calculus serves both kinds of algebra. The span operations read
a component only through ``quotient_dim`` and ``add_product``, so
``fdalg`` runs its chains on a slice whose one component is a
structure-constant algebra, under the empty multidegree with cap 0: its
products have total degree 0, and nothing is ever truncated.

Each slice keeps one memo of derived spans, ``_memo``, for its lifetime.
Span products and brackets (``_pair_space``) are keyed by the operation
and the parts of both operands, ideal closures by ``("closure", parts)``,
powers by ``("power", parts, m)``, and the chain terms H_i and A_[i] by
``("H", i)`` and ``("A", i)``. Every part is a unique reduced echelon
basis and parts are sorted, so equal keys mean equal spans, and the
named checks, which combine the same chain terms, closures and brackets
over and over, compute each distinct one once per slice. [v, u] = -[u, v]
spans the same subspace as [u, v], so a bracket is stored under both
operand orders.

Spans stop once their answer is known. A span operation hands ``span``
one lazy row generator per target multidegree, and ``rref`` stops reading
rows once they span the whole component, so no further row is generated
there. A bracket of two operands with equal parts takes each unordered
pair of rows once, since [v, u] = -[u, v] and [u, u] = 0. An inclusion
check reduces no row of a part whose target part equals it or is the
whole component: every such row is a member.

Each generator permutation is computed once. The relation ideal is a
T-ideal, invariant under every endomorphism of the free algebra (Drensky,
*Free Algebras and PI-Algebras*, ch. 4), and so is the truncation, so a
permutation of the generators is an automorphism of the slice; it maps
every span built from ``full`` onto itself. ``GradedSubspace.invariant``
records this by structure: ``full`` and ``zero`` are invariant, a
product, bracket, associator space, sum, power or closure is invariant
exactly when all its operands are, hence so are the chain terms, and
``span`` of arbitrary rows never is. In a span operation on invariant
operands, a target multidegree mu not sorted in descending order is
never generated: its part is ``rref`` of the images of the basis rows of
the part at its representative rep = sorted(mu, descending), under the
permutation sending generator g to ``order[g]``, where ``order`` is the
stable descending sort of the generators by their degree in mu. An
absent part at rep gives an absent part at mu, and a whole component a
whole one. The basis is the canonical reduced one, so every document is
the one a direct span gives. The map A_rep -> A_mu is built on first use,
one ``terms.evaluate`` per normal monomial of rep, and kept in
``_images`` for the slice's lifetime. Memo keys stay parts: a memo hit
returns the span first stored, with its flag. A slice of a
structure-constant algebra has only the empty multidegree, which is
sorted, so nothing is derived there.

Each named check is declared once, by a handler in ``_THEOREMS``, in two
stages: the refusals that read only the degree cap, the characteristic
and the parameters come first (``check_params``), so the CLI runs them
before it builds the slice, and the claims are built on the slice after.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Optional

from .errors import InputError
from .exprs import builtin
from .linalg import EchelonBasis, Field, identity_basis, member, reduced, rref
from .linalg import sum_bases as _sum_bases
from .terms import evaluate, format_multidegree, mdeg_add, mdeg_total, slice_multidegrees
from .variety import FreeAlgebraComponent, VarietySpec, component_basis


def _mu_order(mu: tuple[int, ...]) -> tuple:
    return (sum(mu), mu)


def _representative(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(mu, reverse=True))


class GradedSubspace:
    """A subspace with one echelon basis per multidegree component.

    Missing multidegrees mean zero there. Parts are kept in canonical
    order (ascending total degree, then lexicographic) so iteration and
    witness selection are deterministic.

    ``invariant`` is set by how the subspace was built: true when every
    permutation of the generators is known to map it onto itself (see the
    module docstring). It lets span operations on it derive parts, and
    it takes no part in equality or in memo keys.
    """

    __slots__ = ("slice", "parts", "invariant")

    def __init__(self, slice_: "AlgebraSlice", parts: dict, invariant: bool = False):
        self.slice = slice_
        self.parts = {
            mu: basis
            for mu, basis in sorted(parts.items(), key=lambda kv: _mu_order(kv[0]))
            if basis.rank
        }
        self.invariant = invariant

    def dims(self) -> list[tuple[str, int]]:
        """Per-multidegree ranks in canonical order (report-friendly)."""
        return [(format_multidegree(mu), b.rank) for mu, b in self.parts.items()]

    def total_dim(self) -> int:
        return sum(b.rank for b in self.parts.values())

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        return self.slice is other.slice and self.parts == other.parts

    def __repr__(self) -> str:
        return f"GradedSubspace(dim={self.total_dim()}, parts={len(self.parts)})"


class AlgebraSlice:
    """All components of one relatively free algebra up to total degree D."""

    __slots__ = (
        "variety",
        "field",
        "k",
        "degree_cap",
        "components",
        "_full",
        "_memo",
        "_images",
    )

    def __init__(self, variety: VarietySpec, field: Field, k: int, degree_cap: int):
        if k < 1:
            raise InputError("need at least one generator")
        if degree_cap < 1:
            raise InputError("degree cap must be at least 1")
        self.variety = variety
        self.k = k
        components = {
            mu: component_basis(variety, field, k, mu) for mu in slice_multidegrees(k, degree_cap)
        }
        self._init_spans(field, degree_cap, components)

    def _init_spans(self, field: Field, degree_cap: int, components: dict) -> None:
        """The state every span operation reads: the field, the degree cap,
        the components by multidegree (each with ``quotient_dim`` and
        ``add_product``), the full space, the memo of derived spans and
        the maps that derive parts (see the module docstring)."""
        self.field = field
        self.degree_cap = degree_cap
        self.components = components
        self._full: Optional[GradedSubspace] = None
        self._memo: dict[tuple, GradedSubspace] = {}
        self._images: dict[tuple, list] = {}

    def component(self, mu: tuple[int, ...]) -> FreeAlgebraComponent:
        comp = self.components.get(mu)
        if comp is None:
            raise InputError(
                f"multidegree {format_multidegree(mu)} outside the slice cap {self.degree_cap}"
            )
        return comp

    def _same(self, space: GradedSubspace) -> None:
        if space.slice is not self:
            raise InputError("graded subspaces belong to different slices")

    # -- spanning sets --------------------------------------------------------

    def full(self) -> GradedSubspace:
        if self._full is None:
            parts = {
                mu: identity_basis(self.field, comp.quotient_dim)
                for mu, comp in self.components.items()
                if comp.quotient_dim
            }
            self._full = GradedSubspace(self, parts, True)
        return self._full

    def zero(self) -> GradedSubspace:
        return GradedSubspace(self, {}, True)

    def span(self, rows_by_mu: dict) -> GradedSubspace:
        """The subspace spanned by the rows at each multidegree: ``rref``
        of each part's rows, which may be a lazy generator. The rows are
        arbitrary, so the span is never flagged ``invariant``."""
        parts = {}
        for mu, rows in rows_by_mu.items():
            basis = rref(self.field, self.component(mu).quotient_dim, rows)
            if basis.rank:
                parts[mu] = basis
        return GradedSubspace(self, parts)

    def _spanned(self, rows_by_mu: dict, invariant: bool) -> GradedSubspace:
        """The span a span operation builds from one lazy row generator per
        target, flagged ``invariant`` when every operand is. Then only the
        targets sorted in descending order are spanned from their rows; the
        part at any other target is derived from its representative's
        (``_image``), and that target's rows are never generated."""
        if not invariant:
            return self.span(rows_by_mu)
        reps = {mu: _representative(mu) for mu in rows_by_mu}
        parts = self.span({mu: rows for mu, rows in rows_by_mu.items() if reps[mu] == mu}).parts
        derived = {
            mu: self._image(mu, parts[rep])
            for mu, rep in reps.items()
            if rep != mu and rep in parts
        }
        return GradedSubspace(self, {**parts, **derived}, True)

    def _image(self, mu: tuple[int, ...], part: EchelonBasis) -> EchelonBasis:
        """The part at mu of an invariant span whose part at mu's
        representative is ``part``: ``rref`` of the images of its rows
        under the map A_rep -> A_mu (``_permutation_images``). The map is
        an isomorphism, so the images are independent and none reduces to
        zero, and a whole component maps onto the whole component. They
        are fed in descending lead order: a new pivot left of every older
        one is owed by no older row, so no row is settled (see ``rref``)."""
        if part.rank == part.ambient_dim:
            return identity_basis(self.field, part.ambient_dim)
        images = self._permutation_images(mu)
        rows = []
        for row in part.rows:
            acc: dict = {}
            for q, c in row.entries:
                for j, w in images[q]:
                    acc[j] = acc.get(j, 0) + c * w
            rows.append(reduced(self.field.char, acc))
        rows.sort(key=lambda r: -min(r))
        return rref(self.field, part.ambient_dim, rows)

    def _permutation_images(self, mu: tuple[int, ...]) -> list:
        """The images in A_mu of the normal monomials of A_rep, rep the
        representative of mu, under the permutation sending generator g to
        ``order[g]``, where ``order`` is the stable descending sort of the
        generators by their degree in mu. One ``terms.evaluate`` per normal
        monomial; built on first use and kept for the slice's lifetime."""
        images = self._images.get(mu)
        if images is None:
            order = sorted(range(self.k), key=lambda g: -mu[g])
            units = {}
            for g, h in enumerate(order):
                if mu[h]:  # a generator of rep's support
                    unit = tuple(int(i == h) for i in range(self.k))
                    units[(g,)] = (unit, self.components[unit].products[()])
            table = {(1,): units}
            p = self.field.char
            images = self._images[mu] = [
                evaluate(m, m.leaves, table, self.components, p)[1]
                for m in self.components[_representative(mu)].quotient_monomials
            ]
        return images

    # -- span operations -------------------------------------------------------

    def _pair_space(self, U: GradedSubspace, V: GradedSubspace, bracket: bool) -> GradedSubspace:
        """Span of the products u*v, or of the brackets [u, v] when
        ``bracket``, over the basis rows u of U and v of V.

        Memoized on the slice by ``(bracket, parts of U, parts of V)`` for
        the slice's lifetime; see the module docstring. Operands from
        another slice are refused before the lookup, even with equal parts.
        A bracket span is stored under both operand orders.

        Each target multidegree gets one lazy row generator. A bracket of
        operands with equal parts takes, of the rows keyed (part number,
        row index), only the pairs whose first key is below the second."""
        self._same(U)
        self._same(V)
        a, b = tuple(U.parts.items()), tuple(V.parts.items())
        key = (bracket, a, b)
        got = self._memo.get(key)
        if got is not None:
            return got
        half = bracket and a == b
        pairs: dict[tuple, list] = {}  # target multidegree -> pairs of parts
        for n1, (mu1, b1) in enumerate(a):
            room = self.degree_cap - mdeg_total(mu1)
            for n2 in range(n1 if half else 0, len(b)):
                mu2, b2 = b[n2]
                if mdeg_total(mu2) > room:
                    break  # parts come in ascending total degree
                pairs.setdefault(mdeg_add(mu1, mu2), []).append(
                    (mu1, b1.rows, mu2, b2.rows, half and n1 == n2)
                )
        p = self.field.char

        def rows(mu, plan):
            add = self.components[mu].add_product
            for mu1, rows1, mu2, rows2, diagonal in plan:
                for i, v1 in enumerate(rows1):
                    # a part paired with itself: only the rows after v1
                    for v2 in rows2[i + 1 :] if diagonal else rows2:
                        acc: dict = {}
                        add(acc, mu1, v1.entries, v2.entries)
                        if bracket:
                            add(acc, mu2, v2.entries, v1.entries, -1)
                        acc = reduced(p, acc)
                        if acc:
                            yield acc

        targets = {mu: rows(mu, plan) for mu, plan in pairs.items()}
        got = self._memo[key] = self._spanned(targets, U.invariant and V.invariant)
        if bracket:
            self._memo[(True, b, a)] = got
        return got

    def product_space(self, U: GradedSubspace, V: GradedSubspace) -> GradedSubspace:
        return self._pair_space(U, V, False)

    def bracket_space(self, U: GradedSubspace, V: GradedSubspace) -> GradedSubspace:
        return self._pair_space(U, V, True)

    def associator_space(
        self, U: GradedSubspace, V: GradedSubspace, W: GradedSubspace
    ) -> GradedSubspace:
        """Span of the associators (uv)w - u(vw) over the basis rows u of U,
        v of V and w of W: the catalog ``assoc`` template evaluated by
        ``terms.evaluate`` on rows keyed (part number, row index), each
        distinct part of the operands numbered once, so each product of
        two rows is formed once per call, even across operands. Each
        target multidegree gets one lazy row generator."""
        operands = (U, V, W)
        for X in operands:
            self._same(X)
        p = self.field.char
        numbers: dict = {}  # (multidegree, part) -> part number
        legs = []  # per operand: (multidegree, leaf keys of the rows) per part
        for X in operands:
            leg = []
            for mu, b in X.parts.items():
                n = numbers.setdefault((mu, b), len(numbers))
                leg.append((mu, [(n, i) for i in range(b.rank)]))
            legs.append(leg)
        units = {
            ((n, i),): (mu, r.entries)
            for (mu, b), n in numbers.items()
            for i, r in enumerate(b.rows)
        }
        table = {(1,): units}
        template = builtin("assoc").template(self.field)
        terms = [(m, itemgetter(*m.leaves), c) for m, c in template.terms.items()]
        cap = self.degree_cap
        triples: dict[tuple, list] = {}  # target multidegree -> triples of parts
        for mu1, keys1 in legs[0]:
            for mu2, keys2 in legs[1]:
                room = cap - mdeg_total(mu1) - mdeg_total(mu2)
                if room < 0:
                    continue
                for mu3, keys3 in legs[2]:
                    if mdeg_total(mu3) > room:
                        continue
                    mu = mdeg_add(mdeg_add(mu1, mu2), mu3)
                    triples.setdefault(mu, []).append((keys1, keys2, keys3))

        def rows(plan):
            for legs_keys in plan:
                for keys in itertools.product(*legs_keys):
                    acc: dict = {}
                    for m, leaves_of, c in terms:
                        for j, w in evaluate(m, leaves_of(keys), table, self.components, p)[1]:
                            acc[j] = acc.get(j, 0) + c * w
                    acc = reduced(p, acc)
                    if acc:
                        yield acc

        targets = {mu: rows(plan) for mu, plan in triples.items()}
        return self._spanned(targets, all(X.invariant for X in operands))

    def sum(self, U: GradedSubspace, V: GradedSubspace) -> GradedSubspace:
        self._same(U)
        self._same(V)
        parts = {}
        for mu in sorted(set(U.parts) | set(V.parts), key=_mu_order):
            a, b = U.parts.get(mu), V.parts.get(mu)
            if a is None:
                parts[mu] = b
            elif b is None:
                parts[mu] = a
            else:
                parts[mu] = _sum_bases(a, b)
        return GradedSubspace(self, parts, U.invariant and V.invariant)

    def power(self, U: GradedSubspace, m: int) -> GradedSubspace:
        """U^m = sum of U^i * U^(m-i); products of m factors, all bracketings.
        Memoized under ``("power", parts of U, m)``, built from the
        memoized lower powers."""
        self._same(U)
        if m < 1:
            raise InputError("power exponent must be at least 1")
        if m == 1:
            return U
        key = ("power", tuple(U.parts.items()), m)
        got = self._memo.get(key)
        if got is None:
            got = self.zero()
            for i in range(1, m):
                got = self.sum(got, self.product_space(self.power(U, i), self.power(U, m - i)))
            self._memo[key] = got
        return got

    def ideal_closure(self, U: GradedSubspace) -> GradedSubspace:
        """Least fixed point of W -> W + full*W + W*full, memoized under
        ``("closure", parts of U)``.

        Multiplies by every basis class of every degree, not only by
        generators; one-sided closures are not enough without
        associativity. Terminates because graded dimensions are finite
        and monotone under the cap.
        """
        self._same(U)
        key = ("closure", tuple(U.parts.items()))
        got = self._memo.get(key)
        if got is None:
            full = self.full()
            got = U
            while True:
                grown = self.sum(
                    got, self.sum(self.product_space(full, got), self.product_space(got, full))
                )
                if grown == got:
                    break
                got = grown
            self._memo[key] = got
        return got

    def commutator_ideal(self, U: GradedSubspace, V: GradedSubspace) -> GradedSubspace:
        return self.ideal_closure(self.bracket_space(U, V))

    # -- canonical chains ------------------------------------------------------

    def _chain_term(self, name: str, i: int, step: Callable) -> GradedSubspace:
        """Term i of the chain with first term full and term n+1 =
        step(term n), each term past the first memoized under (name, n).
        Steps on from the highest memoized term up to i, so walking a
        chain term by term reads the memo a constant number of times
        per term."""
        if i < 1:
            raise InputError("chain index must be at least 1")
        n = i
        while n > 1 and (name, n) not in self._memo:
            n -= 1
        term = self._memo[(name, n)] if n > 1 else self.full()
        for n in range(n + 1, i + 1):
            term = self._memo[(name, n)] = step(term)
        return term

    def h_term(self, i: int) -> GradedSubspace:
        """Lower central chain: H_1 = full, H_{i+1} = <[H_i, full]>."""
        return self._chain_term(
            "H", i, lambda t: self.ideal_closure(self.bracket_space(t, self.full()))
        )

    def a_term(self, i: int) -> GradedSubspace:
        """Lie powers: A_[1] = full, A_[i+1] = [full, A_[i]] (not ideals)."""
        return self._chain_term("A", i, lambda t: self.bracket_space(self.full(), t))

    # -- inclusion checking ------------------------------------------------------

    def check_inclusion(
        self, U: GradedSubspace, V: GradedSubspace, label: str
    ) -> dict:
        """The claim document of U <= V: ``claim`` (the label), ``verdict``
        (``verified`` or ``violated``) and ``witness``, None when the claim
        holds, else the first violating multidegree and basis vector in
        canonical order with its residual modulo V. A part of U whose part
        of V is equal to it or is the whole component lies in V row by row,
        so its rows are not reduced."""
        self._same(U)
        self._same(V)
        for mu, basis in U.parts.items():
            target = V.parts.get(mu)
            if target is not None and (target == basis or target.rank == target.ambient_dim):
                continue
            for row in basis.rows:
                residual = row.entries if target is None else member(target, row)
                if residual:
                    comp = self.component(mu)
                    witness = {
                        "multidegree": format_multidegree(mu),
                        "element": comp.render_coords(row.entries),
                        "residual": comp.render_coords(residual),
                    }
                    return {"claim": label, "verdict": "violated", "witness": witness}
        return {"claim": label, "verdict": "verified", "witness": None}

    def check_equality(
        self, U: GradedSubspace, V: GradedSubspace, left: str, right: str
    ) -> list[dict]:
        """The claim documents of U <= V and V <= U."""
        return [
            self.check_inclusion(U, V, f"{left} <= {right}"),
            self.check_inclusion(V, U, f"{right} <= {left}"),
        ]

    def __repr__(self) -> str:
        return (
            f"AlgebraSlice({self.variety.name}/{self.field.name}, "
            f"k={self.k}, D={self.degree_cap})"
        )


# ---------------------------------------------------------------------------
# chain reports


class ChainReport:
    """A computed chain with its dimension table and class data."""

    __slots__ = ("slice", "kind", "terms")

    def __init__(self, slice_: AlgebraSlice, kind: str, terms: list[GradedSubspace]):
        self.slice = slice_
        self.kind = kind
        self.terms = terms

    def to_doc(self) -> dict:
        s, terms = self.slice, self.terms
        vanish = next((i for i, t in enumerate(terms, start=1) if t.is_zero()), None)
        stable = next((i for i in range(1, len(terms)) if terms[i - 1] == terms[i]), None)
        return {
            "chain": self.kind,
            "variety": s.variety.name,
            "field": s.field.name,
            "generators": s.k,
            "degree_cap": s.degree_cap,
            "terms": [
                {
                    "index": i,
                    "total_dim": t.total_dim(),
                    "dims": [{"multidegree": m, "dim": d} for m, d in t.dims()],
                }
                for i, t in enumerate(terms, start=1)
            ],
            "vanishing_index": vanish,
            "class": vanish - 1 if vanish is not None else None,
            "stabilized_at": stable,
        }


def _chain_report(slice_: AlgebraSlice, kind: str, term: Callable, n: int) -> ChainReport:
    index_in_cap(slice_.degree_cap, terms=n)
    return ChainReport(slice_, kind, [term(i) for i in range(1, n + 1)])


def lower_central_chain(slice_: AlgebraSlice, n: int) -> ChainReport:
    return _chain_report(slice_, "lower-central", slice_.h_term, n)


def lie_power_series(slice_: AlgebraSlice, n: int) -> ChainReport:
    return _chain_report(slice_, "lie-powers", slice_.a_term, n)


# ---------------------------------------------------------------------------
# named structural checks


class TheoremReport:
    __slots__ = ("slice", "theorem", "params", "claims", "status", "note")

    def __init__(self, slice_, theorem, params, claims, status, note=None):
        self.slice = slice_
        self.theorem = theorem
        self.params = params
        self.claims = claims
        self.status = status
        self.note = note

    def to_doc(self) -> dict:
        s = self.slice
        return {
            "theorem": self.theorem,
            "variety": s.variety.name,
            "field": s.field.name,
            "generators": s.k,
            "degree_cap": s.degree_cap,
            "params": self.params,
            "claims": self.claims,
            "status": self.status,
            "note": self.note,
        }


def index_in_cap(cap: int, **named: int) -> None:
    """Refuse a chain index below 1 or above the degree cap: H_i and A_[i]
    live in degrees >= i, so past the cap they are zero by truncation.
    Nothing is built, so a caller can run this before it builds the
    slice."""
    for name, idx in named.items():
        if idx < 1:
            raise InputError(f"parameter {name}={idx} must be at least 1")
        if idx > cap:
            raise InputError(
                f"parameter {name}={idx} references chain index beyond degree cap {cap}"
            )


# Each handler states one check in two stages. Called with the degree cap,
# the characteristic and the parameters, it refuses what the check cannot
# take there (cap, parity and characteristic rules) and builds nothing, so
# a caller can run it before it builds the slice; it returns the function
# that checks the statement on a slice and returns its claim documents, from
# which check_theorem derives the status. A handler's parameters after the
# cap and the characteristic are what the check reads: one without a default
# is one the check needs. A statement two checks share has one claim builder.


def _product_rule(s: AlgebraSlice, p: int, q: int) -> dict:
    prod = s.product_space(s.h_term(p), s.h_term(q))
    return s.check_inclusion(prod, s.h_term(p + q - 1), f"H_{p}*H_{q} <= H_{p + q - 1}")


def _closed_product(s: AlgebraSlice, i: int, j: int) -> dict:
    prod = s.product_space(s.ideal_closure(s.a_term(i)), s.ideal_closure(s.a_term(j)))
    closed = s.ideal_closure(s.a_term(i + j - 1))
    return s.check_inclusion(prod, closed, f"<A[{i}]>*<A[{j}]> <= <A[{i + j - 1}]>")


def _bracket_ideal(s: AlgebraSlice, blabel: str, B: GradedSubspace, two_sided=False) -> list[dict]:
    """<[full,B]> = [full,B] + full*[full,B], and if ``two_sided`` also
    <[full,B]> = [full,B] + [full,B]*full."""
    full = s.full()
    br = s.bracket_space(full, B)
    closed = s.ideal_closure(br)
    g = f"[full,{blabel}]"
    left = s.sum(br, s.product_space(full, br))
    claims = s.check_equality(closed, left, f"<{g}>", f"{g} + full*{g}")
    if two_sided:
        right = s.sum(br, s.product_space(br, full))
        claims += s.check_equality(closed, right, f"<{g}>", f"{g} + {g}*full")
    return claims


def _check_com_id(cap, char, i=None):
    if i is not None:
        index_in_cap(cap, i=i, **{"i+1": i + 1})

    def claims(s):
        cases = [("full", s.full())]
        if i is not None:
            cases.append((f"A[{i}]", s.a_term(i)))
        return [c for blabel, B in cases for c in _bracket_ideal(s, blabel, B)]

    return claims


def _check_circ_pro(cap, char, p, q):
    index_in_cap(cap, p=p, q=q, **{"p+q": p + q})

    def claims(s):
        circ = s.commutator_ideal(s.h_term(p), s.h_term(q))
        return [s.check_inclusion(circ, s.h_term(p + q), f"H_{p} o H_{q} <= H_{p + q}")]

    return claims


def _check_th_pro(cap, char, p=None, q=None, m=None):
    if p is None and q is None and m is None:
        raise InputError("check needs p and q, or m")
    if (p is None) != (q is None):
        raise InputError("parameters p and q come together")
    if p is not None:
        index_in_cap(cap, p=p, q=q, **{"p+q-1": p + q - 1})
    if m is not None:
        index_in_cap(cap, m=m, **{"m+1": m + 1})

    def claims(s):
        out = []
        if p is not None:
            out.append(_product_rule(s, p, q))
        if m is not None:
            power = s.power(s.h_term(2), m)
            out.append(s.check_inclusion(power, s.h_term(m + 1), f"power(H_2,{m}) <= H_{m + 1}"))
        return out

    return claims


def _check_lem_mni1(cap, char, i):
    index_in_cap(cap, i=i, **{"i+1": i + 1})

    def claims(s):
        prod = s.product_space(s.a_term(2), s.a_term(i))
        closed = s.ideal_closure(s.a_term(i + 1))
        return [s.check_inclusion(prod, closed, f"A[2]*A[{i}] <= <A[{i + 1}]>")]

    return claims


def _check_prod_com_id(cap, char, i):
    index_in_cap(cap, i=i)

    def claims(s):
        return s.check_equality(s.ideal_closure(s.a_term(i)), s.h_term(i), f"<A[{i}]>", f"H_{i}")

    return claims


def _check_lem_ideal(cap, char):
    index_in_cap(cap, **{"2": 2})

    def claims(s):
        full = s.full()
        cases = (("full", full), ("A[2]", s.a_term(2)))
        out = []
        for blabel, B in cases:
            br = s.bracket_space(B, full)
            rhs = s.sum(s.product_space(full, br), br)
            label = f"(full,{blabel},full) <= full*[{blabel},full] + [{blabel},full]"
            out.append(s.check_inclusion(s.associator_space(full, B, full), rhs, label))
        for blabel, B in cases:
            out += _bracket_ideal(s, blabel, B, two_sided=True)
        return out

    return claims


def _check_lem_ass_ap(cap, char, p, q):
    index_in_cap(cap, p=p, q=q, **{"p+q": p + q})

    def claims(s):
        hp, hq = s.h_term(p), s.h_term(q)
        target = s.h_term(p + q)
        return [
            _product_rule(s, p, q),
            s.check_inclusion(s.bracket_space(hp, hq), target, f"[H_{p},H_{q}] <= H_{p + q}"),
            s.check_inclusion(
                s.associator_space(hp, hq, s.full()), target, f"(H_{p},H_{q},full) <= H_{p + q}"
            ),
        ]

    return claims


def _check_lem_46(cap, char, j):
    if j % 2 == 0:
        raise InputError("this check is stated for odd j only")
    if char in (2, 3):
        raise InputError("this check assumes characteristic not 2 or 3")
    index_in_cap(cap, j=j, **{"j+1": j + 1})

    def claims(s):
        br = s.bracket_space(s.ideal_closure(s.a_term(j)), s.full())
        return [s.check_inclusion(br, s.a_term(j + 1), f"[<A[{j}]>,full] <= A[{j + 1}]")]

    return claims


def _check_cp_ass(cap, char, i, j):
    if i % 2 == 0 and j % 2 == 0:
        raise InputError("this check is stated for i or j odd")
    if char in (2, 3):
        raise InputError("this check assumes characteristic not 2 or 3")
    index_in_cap(cap, i=i, j=j, **{"i+j-1": i + j - 1})

    def claims(s):
        return [_closed_product(s, i, j)]

    return claims


def _check_bicom_metabelian(cap, char):
    def claims(s):
        b2 = s.bracket_space(s.full(), s.full())
        claim = "[[full,full],[full,full]] == 0"
        return [s.check_inclusion(s.bracket_space(b2, b2), s.zero(), claim)]

    return claims


def _check_bicom_right_nilpotency(cap, char):
    """One claim per step n = 1..D-1: the right power H_2 full...full with
    n - 1 factors full is nonzero. A cap below 2 leaves no step to check."""
    index_in_cap(cap, **{"2": 2})

    def claims(s):
        out = []
        term = s.h_term(2)
        for step in range(1, s.degree_cap):
            if step > 1:
                term = s.product_space(term, s.full())
            out.append(
                {
                    "claim": f"right_power_{step}(H_2) != 0",
                    "verdict": "verified" if not term.is_zero() else "violated",
                    "witness": None,
                    "total_dim": term.total_dim(),
                }
            )
        return out

    return claims


def _check_assoc_even_even(cap, char):
    index_in_cap(cap, **{"3": 3})

    def claims(s):
        return [_closed_product(s, 2, 2)]

    return claims


_THEOREMS: dict[str, Callable] = {
    "com_id": _check_com_id,
    "circ_pro": _check_circ_pro,
    "th_pro": _check_th_pro,
    "lem_mni1": _check_lem_mni1,
    "prod_com_id": _check_prod_com_id,
    "lem_ideal": _check_lem_ideal,
    "lem_ass_ap": _check_lem_ass_ap,
    "lem_46": _check_lem_46,
    "cp_ass": _check_cp_ass,
    "bicom_metabelian": _check_bicom_metabelian,
    "bicom_not_right_nilpotent": _check_bicom_right_nilpotency,
    "assoc_even_even": _check_assoc_even_even,
}

# name -> (status when every claim is verified, note by status) for the
# checks whose clean pass is not plain "verified": the right-nilpotency scan
# speaks of its cap only; the even-even scan is exploratory ("inconclusive").
_OWN_STATUS: dict[str, tuple[str, dict]] = {
    "bicom_not_right_nilpotent": (
        "verified",
        dict.fromkeys(
            ("verified", "violated"),
            "nonzero right powers up to the cap rule out right nilpotency "
            "at this cap only; no statement beyond the cap",
        ),
    ),
    "assoc_even_even": (
        "inconclusive",
        {
            "inconclusive": "no violation up to the cap; exploratory search only, "
            "not a verification of the inclusion",
            "violated": "explicit violation of the even-even inclusion at this cap",
        },
    ),
}


def _reads(handler: Callable) -> tuple[str, ...]:
    code = handler.__code__
    return code.co_varnames[2 : code.co_argcount]


def theorem_names() -> tuple[str, ...]:
    return tuple(sorted(_THEOREMS))


def theorem_params() -> tuple[str, ...]:
    """Every parameter some named check reads, sorted."""
    return tuple(sorted({n for h in _THEOREMS.values() for n in _reads(h)}))


def check_params(name: str, params: dict, degree_cap: int, char: int) -> Callable:
    """Refuse an unknown check, then a parameter it does not read, then a
    missing one it needs (a handler parameter without a default), then what
    the check itself refuses at this degree cap and characteristic. Nothing
    is built, so a caller can run this before it builds the slice. Returns
    the function that checks the statement on a slice."""
    handler = _THEOREMS.get(name)
    if handler is None:
        raise InputError(f"unknown check {name!r}; known: {', '.join(theorem_names())}")
    reads = _reads(handler)
    stray = sorted(set(params) - set(reads))
    if stray:
        raise InputError(
            f"check {name!r} does not read {', '.join(stray)}; "
            f"it reads {', '.join(reads) or 'no parameters'}"
        )
    for n in reads[: len(reads) - len(handler.__defaults__ or ())]:
        if params.get(n) is None:
            raise InputError(f"check needs parameter {n!r}")
    return handler(degree_cap, char, **params)


def check_theorem(
    slice_: AlgebraSlice, name: str, params: Optional[dict] = None
) -> TheoremReport:
    """Run the named check on the slice. A handler's parameters are what
    the check reads, and ``check_params`` refuses any other request or
    one the check cannot take at the slice's cap and characteristic. Its
    status is the check's own status when every claim is verified, else
    ``violated``; its note is the one the check gives for that status, if
    any."""
    params = dict(params or {})
    claims = check_params(name, params, slice_.degree_cap, slice_.field.char)(slice_)
    held, notes = _OWN_STATUS.get(name, ("verified", {}))
    status = held if all(c["verdict"] == "verified" for c in claims) else "violated"
    return TheoremReport(slice_, name, params, claims, status, notes.get(status))
