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
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Optional

from .errors import InputError, ResourceError
from .exprs import builtin
from .linalg import Field, identity_basis, member, reduced, rref
from .linalg import sum_bases as _sum_bases
from .terms import evaluate, format_multidegree, mdeg_add, mdeg_total, multidegrees
from .variety import FreeAlgebraComponent, VarietySpec, component_basis

# the most terms a chain report may list; every term is kept in the report
MAX_CHAIN_TERMS = 10000


def _mu_order(mu: tuple[int, ...]) -> tuple:
    return (sum(mu), mu)


class GradedSubspace:
    """A subspace with one echelon basis per multidegree component.

    Missing multidegrees mean zero there. Parts are kept in canonical
    order (ascending total degree, then lexicographic) so iteration and
    witness selection are deterministic.
    """

    __slots__ = ("slice", "parts")

    def __init__(self, slice_: "AlgebraSlice", parts: dict):
        self.slice = slice_
        self.parts = {
            mu: basis
            for mu, basis in sorted(parts.items(), key=lambda kv: _mu_order(kv[0]))
            if basis.rank
        }

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
    )

    def __init__(self, variety: VarietySpec, field: Field, k: int, degree_cap: int):
        if k < 1:
            raise InputError("need at least one generator")
        if degree_cap < 1:
            raise InputError("degree cap must be at least 1")
        self.variety = variety
        self.k = k
        components = {
            mu: component_basis(variety, field, k, mu)
            for mu in multidegrees((degree_cap,) * k, degree_cap)
        }
        self._init_spans(field, degree_cap, components)

    def _init_spans(self, field: Field, degree_cap: int, components: dict) -> None:
        """The state every span operation reads: the field, the degree cap,
        the components by multidegree (each with ``quotient_dim`` and
        ``add_product``), the full space and the memo of derived spans
        (see the module docstring)."""
        self.field = field
        self.degree_cap = degree_cap
        self.components = components
        self._full: Optional[GradedSubspace] = None
        self._memo: dict[tuple, GradedSubspace] = {}

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
            self._full = GradedSubspace(self, parts)
        return self._full

    def zero(self) -> GradedSubspace:
        return GradedSubspace(self, {})

    def span(self, rows_by_mu: dict) -> GradedSubspace:
        parts = {}
        for mu, rows in rows_by_mu.items():
            basis = rref(self.field, self.component(mu).quotient_dim, rows)
            if basis.rank:
                parts[mu] = basis
        return GradedSubspace(self, parts)

    # -- span operations -------------------------------------------------------

    def _pair_space(self, U: GradedSubspace, V: GradedSubspace, bracket: bool) -> GradedSubspace:
        """Span of the products u*v, or of the brackets [u, v] when
        ``bracket``, over the basis rows u of U and v of V.

        Memoized on the slice by ``(bracket, parts of U, parts of V)`` for
        the slice's lifetime; see the module docstring. Operands from
        another slice are refused before the lookup, even with equal parts.
        A bracket span is stored under both operand orders."""
        self._same(U)
        self._same(V)
        a, b = tuple(U.parts.items()), tuple(V.parts.items())
        key = (bracket, a, b)
        got = self._memo.get(key)
        if got is not None:
            return got
        p = self.field.char
        rows: dict[tuple, list] = {}
        for mu1, b1 in a:
            room = self.degree_cap - mdeg_total(mu1)
            for mu2, b2 in b:
                if mdeg_total(mu2) > room:
                    break  # parts come in ascending total degree
                mu = mdeg_add(mu1, mu2)
                add = self.components[mu].add_product
                bucket = rows.setdefault(mu, [])
                for v1 in b1.rows:
                    for v2 in b2.rows:
                        acc: dict = {}
                        add(acc, mu1, v1.entries, v2.entries)
                        if bracket:
                            add(acc, mu2, v2.entries, v1.entries, -1)
                        acc = reduced(p, acc)
                        if acc:
                            bucket.append(acc)
        got = self._memo[key] = self.span(rows)
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
        two rows is formed once per call, even across operands."""
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
        rows: dict[tuple, list] = {}
        for mu1, keys1 in legs[0]:
            for mu2, keys2 in legs[1]:
                room = cap - mdeg_total(mu1) - mdeg_total(mu2)
                if room < 0:
                    continue
                for mu3, keys3 in legs[2]:
                    if mdeg_total(mu3) > room:
                        continue
                    mu = mdeg_add(mdeg_add(mu1, mu2), mu3)
                    bucket = rows.setdefault(mu, [])
                    for keys in itertools.product(keys1, keys2, keys3):
                        acc: dict = {}
                        for m, leaves_of, c in terms:
                            for j, w in evaluate(m, leaves_of(keys), table, self.components, p)[1]:
                                acc[j] = acc.get(j, 0) + c * w
                        acc = reduced(p, acc)
                        if acc:
                            bucket.append(acc)
        return self.span(rows)

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
        return GradedSubspace(self, parts)

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
        canonical order with its residual modulo V."""
        self._same(U)
        self._same(V)
        for mu, basis in U.parts.items():
            target = V.parts.get(mu)
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
    """The report of term(1) .. term(n), n checked before any term is built."""
    if n < 1:
        raise InputError("chain length must be at least 1")
    if n > MAX_CHAIN_TERMS:
        raise ResourceError(f"chain of {n} terms is over the guard of {MAX_CHAIN_TERMS}")
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


def _need(params: dict, *names: str) -> list[int]:
    vals = []
    for n in names:
        v = params.get(n)
        if v is None:
            raise InputError(f"check needs parameter {n!r}")
        vals.append(v)
    return vals


def _index_in_cap(s: AlgebraSlice, **named: int) -> None:
    for name, idx in named.items():
        if idx < 1:
            raise InputError(f"parameter {name}={idx} must be at least 1")
        if idx > s.degree_cap:
            raise InputError(
                f"parameter {name}={idx} references chain index beyond degree cap {s.degree_cap}"
            )


# Each handler checks one statement on a slice and returns its claim
# documents; check_theorem derives the status from them.


def _check_com_id(s: AlgebraSlice, params: dict) -> list[dict]:
    cases = [("full", s.full())]
    i = params.get("i")
    if i is not None:
        _index_in_cap(s, i=i)
        _index_in_cap(s, **{"i+1": i + 1})
        cases.append((f"A[{i}]", s.a_term(i)))
    claims = []
    for blabel, B in cases:
        br = s.bracket_space(s.full(), B)
        lhs = s.ideal_closure(br)
        rhs = s.sum(br, s.product_space(s.full(), br))
        g = f"[full,{blabel}]"
        claims += s.check_equality(lhs, rhs, f"<{g}>", f"{g} + full*{g}")
    return claims


def _check_circ_pro(s, params):
    p, q = _need(params, "p", "q")
    _index_in_cap(s, p=p, q=q, **{"p+q": p + q})
    circ = s.commutator_ideal(s.h_term(p), s.h_term(q))
    return [s.check_inclusion(circ, s.h_term(p + q), f"H_{p} o H_{q} <= H_{p + q}")]


def _check_th_pro(s, params):
    claims = []
    p, q, m = params.get("p"), params.get("q"), params.get("m")
    if p is None and q is None and m is None:
        raise InputError("check needs p and q, or m")
    if (p is None) != (q is None):
        raise InputError("parameters p and q come together")
    if p is not None:
        _index_in_cap(s, p=p, q=q, **{"p+q-1": p + q - 1})
        claims.append(
            s.check_inclusion(
                s.product_space(s.h_term(p), s.h_term(q)),
                s.h_term(p + q - 1),
                f"H_{p}*H_{q} <= H_{p + q - 1}",
            )
        )
    if m is not None:
        _index_in_cap(s, m=m, **{"m+1": m + 1})
        claims.append(
            s.check_inclusion(
                s.power(s.h_term(2), m),
                s.h_term(m + 1),
                f"power(H_2,{m}) <= H_{m + 1}",
            )
        )
    return claims


def _check_lem_mni1(s, params):
    (i,) = _need(params, "i")
    _index_in_cap(s, i=i, **{"i+1": i + 1})
    prod, closed = s.product_space(s.a_term(2), s.a_term(i)), s.ideal_closure(s.a_term(i + 1))
    return [s.check_inclusion(prod, closed, f"A[2]*A[{i}] <= <A[{i + 1}]>")]


def _check_prod_com_id(s, params):
    (i,) = _need(params, "i")
    _index_in_cap(s, i=i)
    return s.check_equality(s.ideal_closure(s.a_term(i)), s.h_term(i), f"<A[{i}]>", f"H_{i}")


def _check_lem_ideal(s, params):
    _index_in_cap(s, **{"2": 2})
    full = s.full()
    claims = []
    for blabel, B in (("full", full), ("A[2]", s.a_term(2))):
        br = s.bracket_space(B, full)
        rhs = s.sum(s.product_space(full, br), br)
        claims.append(
            s.check_inclusion(
                s.associator_space(full, B, full),
                rhs,
                f"(full,{blabel},full) <= full*[{blabel},full] + [{blabel},full]",
            )
        )
    for blabel, B in (("full", full), ("A[2]", s.a_term(2))):
        br = s.bracket_space(full, B)
        closed = s.ideal_closure(br)
        g = f"[full,{blabel}]"
        left = s.sum(br, s.product_space(full, br))
        right = s.sum(br, s.product_space(br, full))
        claims += s.check_equality(closed, left, f"<{g}>", f"{g} + full*{g}")
        claims += s.check_equality(closed, right, f"<{g}>", f"{g} + {g}*full")
    return claims


def _check_lem_ass_ap(s, params):
    p, q = _need(params, "p", "q")
    _index_in_cap(s, p=p, q=q, **{"p+q": p + q})
    hp, hq = s.h_term(p), s.h_term(q)
    target = s.h_term(p + q)
    return [
        s.check_inclusion(
            s.product_space(hp, hq), s.h_term(p + q - 1), f"H_{p}*H_{q} <= H_{p + q - 1}"
        ),
        s.check_inclusion(s.bracket_space(hp, hq), target, f"[H_{p},H_{q}] <= H_{p + q}"),
        s.check_inclusion(
            s.associator_space(hp, hq, s.full()),
            target,
            f"(H_{p},H_{q},full) <= H_{p + q}",
        ),
    ]


def _check_lem_46(s, params):
    (j,) = _need(params, "j")
    if j % 2 == 0:
        raise InputError("this check is stated for odd j only")
    if s.field.char in (2, 3):
        raise InputError("this check assumes characteristic not 2 or 3")
    _index_in_cap(s, j=j, **{"j+1": j + 1})
    br = s.bracket_space(s.ideal_closure(s.a_term(j)), s.full())
    return [s.check_inclusion(br, s.a_term(j + 1), f"[<A[{j}]>,full] <= A[{j + 1}]")]


def _check_cp_ass(s, params):
    i, j = _need(params, "i", "j")
    if i % 2 == 0 and j % 2 == 0:
        raise InputError("this check is stated for i or j odd")
    if s.field.char in (2, 3):
        raise InputError("this check assumes characteristic not 2 or 3")
    _index_in_cap(s, i=i, j=j, **{"i+j-1": i + j - 1})
    prod = s.product_space(s.ideal_closure(s.a_term(i)), s.ideal_closure(s.a_term(j)))
    closed = s.ideal_closure(s.a_term(i + j - 1))
    return [s.check_inclusion(prod, closed, f"<A[{i}]>*<A[{j}]> <= <A[{i + j - 1}]>")]


def _check_bicom_metabelian(s, params):
    b2 = s.bracket_space(s.full(), s.full())
    return [s.check_inclusion(s.bracket_space(b2, b2), s.zero(), "[[full,full],[full,full]] == 0")]


def _check_bicom_right_nilpotency(s, params):
    """One claim per step n = 1..D-1: the right power H_2 full...full with
    n - 1 factors full is nonzero. A cap below 2 leaves no step to check."""
    _index_in_cap(s, **{"2": 2})
    claims = []
    term = s.h_term(2)
    for step in range(1, s.degree_cap):
        if step > 1:
            term = s.product_space(term, s.full())
        claims.append(
            {
                "claim": f"right_power_{step}(H_2) != 0",
                "verdict": "verified" if not term.is_zero() else "violated",
                "witness": None,
                "total_dim": term.total_dim(),
            }
        )
    return claims


def _check_assoc_even_even(s, params):
    _index_in_cap(s, **{"3": 3})
    prod = s.product_space(s.ideal_closure(s.a_term(2)), s.ideal_closure(s.a_term(2)))
    return [s.check_inclusion(prod, s.ideal_closure(s.a_term(3)), "<A[2]>*<A[2]> <= <A[3]>")]


# name -> (handler, the parameters it reads, status when every claim is
# verified, note by status). Any violated claim makes the status "violated".
# The right-nilpotency scan speaks of its cap only; the even-even scan is
# exploratory, so a clean pass is "inconclusive", not "verified".
_THEOREMS: dict[str, tuple[Callable, tuple, str, dict]] = {
    "com_id": (_check_com_id, ("i",), "verified", {}),
    "circ_pro": (_check_circ_pro, ("p", "q"), "verified", {}),
    "th_pro": (_check_th_pro, ("p", "q", "m"), "verified", {}),
    "lem_mni1": (_check_lem_mni1, ("i",), "verified", {}),
    "prod_com_id": (_check_prod_com_id, ("i",), "verified", {}),
    "lem_ideal": (_check_lem_ideal, (), "verified", {}),
    "lem_ass_ap": (_check_lem_ass_ap, ("p", "q"), "verified", {}),
    "lem_46": (_check_lem_46, ("j",), "verified", {}),
    "cp_ass": (_check_cp_ass, ("i", "j"), "verified", {}),
    "bicom_metabelian": (_check_bicom_metabelian, (), "verified", {}),
    "bicom_not_right_nilpotent": (
        _check_bicom_right_nilpotency,
        (),
        "verified",
        dict.fromkeys(
            ("verified", "violated"),
            "nonzero right powers up to the cap rule out right nilpotency "
            "at this cap only; no statement beyond the cap",
        ),
    ),
    "assoc_even_even": (
        _check_assoc_even_even,
        (),
        "inconclusive",
        {
            "inconclusive": "no violation up to the cap; exploratory search only, "
            "not a verification of the inclusion",
            "violated": "explicit violation of the even-even inclusion at this cap",
        },
    ),
}


def theorem_names() -> tuple[str, ...]:
    return tuple(sorted(_THEOREMS))


def check_theorem(
    slice_: AlgebraSlice, name: str, params: Optional[dict] = None
) -> TheoremReport:
    """Run the named check on the slice. A parameter the check does not
    read is refused. Its status is the check's own status when every claim
    is verified, else ``violated``; its note is the one the check gives for
    that status, if any."""
    entry = _THEOREMS.get(name)
    if entry is None:
        raise InputError(
            f"unknown check {name!r}; known: {', '.join(theorem_names())}"
        )
    params = dict(params or {})
    handler, reads, held, notes = entry
    stray = sorted(set(params) - set(reads))
    if stray:
        raise InputError(
            f"check {name!r} does not read {', '.join(stray)}; "
            f"it reads {', '.join(reads) or 'no parameters'}"
        )
    claims = handler(slice_, params)
    status = held if all(c["verdict"] == "verified" for c in claims) else "violated"
    return TheoremReport(slice_, name, params, claims, status, notes.get(status))
