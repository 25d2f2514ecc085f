"""Graded subspace calculus on truncated relatively free algebras."""

import random

import pytest

from lieadm import ideals as ideals_module
from lieadm import linalg
from lieadm.errors import InputError, ResourceError
from lieadm.ideals import (
    AlgebraSlice,
    check_params,
    check_theorem,
    lie_power_series,
    lower_central_chain,
    theorem_names,
    theorem_params,
)
from lieadm.linalg import GF, QQ, identity_basis, rref
from lieadm.reports import canonical_json
from lieadm.terms import Polynomial, associator, evaluate, format_multidegree, leaf, node
from lieadm.variety import FreeAlgebraComponent, builtin_variety, variety_names

from naive_oracle import naive_is_zero, naive_reducer


def make_slice(name="novikov", field=QQ, k=2, cap=4, **kw):
    return AlgebraSlice(builtin_variety(name), field, k, cap, **kw)


def count_pair_spaces(monkeypatch) -> dict:
    """Live counts of ``_pair_space`` calls and of the calls among them
    that compute a span (``span`` called inside) instead of reading the memo."""
    counts = {"calls": 0, "computed": 0}
    pair_space, span = AlgebraSlice._pair_space, AlgebraSlice.span
    inside = []

    def counted_pair_space(self, U, V, bracket):
        counts["calls"] += 1
        inside.append(True)
        try:
            return pair_space(self, U, V, bracket)
        finally:
            inside.pop()

    def counted_span(self, rows):
        if inside:
            counts["computed"] += 1
        return span(self, rows)

    monkeypatch.setattr(AlgebraSlice, "_pair_space", counted_pair_space)
    monkeypatch.setattr(AlgebraSlice, "span", counted_span)
    return counts


class TestSliceBasics:
    def test_full_dimensions(self):
        s = make_slice("bicommutative", k=2, cap=4)
        # ordered pairs of nonempty submultisets give the closed form:
        # degree totals 2, 4, 12, 25
        assert s.full().total_dim() == 43

    def test_component_outside_cap_rejected(self):
        s = make_slice(cap=3)
        with pytest.raises(InputError):
            s.component((3, 1))

    def test_bad_parameters_rejected(self):
        with pytest.raises(InputError):
            make_slice(k=0)
        with pytest.raises(InputError):
            make_slice(cap=0)

    def test_exponent_and_chain_index_below_one_refused(self):
        s = make_slice(cap=2)
        with pytest.raises(InputError, match="power exponent must be at least 1"):
            s.power(s.full(), 0)
        for term in (s.h_term, s.a_term):
            with pytest.raises(InputError, match="chain index must be at least 1"):
                term(0)

    def test_multidegree_listing_guarded_before_any_build(self):
        # 2 * (C(3002, 3000) - 1) entries; the cap alone builds nothing
        with pytest.raises(ResourceError, match="have 9009000 entries"):
            make_slice(k=2, cap=3000)

    def test_class_products_are_normal_forms_of_products(self):
        # the product table read by the span products, on basis classes,
        # through terms.evaluate of x*y with the classes as leaves, against
        # the naive oracle: the free-magma product minus the class found is
        # a relation consequence. Past the cap a product is zero.
        s = make_slice("assosymmetric", k=2, cap=4)
        sources = [i.name for i in s.variety.identities]
        xy = node(leaf(0), leaf(1))
        table = {
            (1,): {
                ((mu, q),): (mu, ((q, 1),))
                for mu, comp in s.components.items()
                for q in range(comp.quotient_dim)
            }
        }
        oracles = {}
        checked = 0
        for mu1, c1 in s.components.items():
            for mu2, c2 in s.components.items():
                mu = tuple(x + y for x, y in zip(mu1, mu2))
                for q1, m1 in enumerate(c1.quotient_monomials):
                    for q2, m2 in enumerate(c2.quotient_monomials):
                        if sum(mu) > 4:
                            u1, u2 = (s.span({nu: [{q: 1}]}) for nu, q in ((mu1, q1), (mu2, q2)))
                            assert s.product_space(u1, u2).is_zero()
                            continue
                        nu, got = evaluate(xy, ((mu1, q1), (mu2, q2)), table, s.components, 0)
                        assert nu == mu
                        if mu not in oracles:
                            oracles[mu] = naive_reducer(sources, 2, mu)
                        found = s.component(mu).coords_to_polynomial(got)
                        product = Polynomial.of(QQ, node(m1, m2))
                        assert naive_is_zero(oracles[mu], product.sub(found))
                        checked += 1
        assert checked == 84


class TestSubspaceOperations:
    def setup_method(self):
        self.s = make_slice("novikov", cap=4)

    def test_bracket_at_lowest_degree(self):
        br = self.s.bracket_space(self.s.full(), self.s.full())
        d = dict(br.dims())
        assert d["(1,1)"] == 1
        assert "(2,0)" not in d  # [x1,x1] collapses

    def test_bracket_antisymmetric_in_arguments(self):
        a2 = self.s.a_term(2)
        br1 = self.s.bracket_space(self.s.full(), a2)
        br2 = self.s.bracket_space(a2, self.s.full())
        assert br1 == br2

    def test_sum_is_join(self):
        u = self.s.h_term(2)
        v = self.s.a_term(2)
        w = self.s.sum(u, v)
        assert self.s.check_inclusion(u, w, "u <= u+v")["verdict"] == "verified"
        assert self.s.check_inclusion(v, w, "v <= u+v")["verdict"] == "verified"
        assert w == self.s.sum(v, u)

    def test_product_beyond_cap_is_zero(self):
        h = self.s.h_term(2)  # lives in degrees >= 2
        p = self.s.product_space(self.s.product_space(h, h), h)
        assert p.is_zero()  # degree >= 6 > cap 4

    def test_power_matches_manual_expansion(self):
        v = self.s.a_term(2)
        v2 = self.s.product_space(v, v)
        assert self.s.power(v, 2) == v2
        v3 = self.s.sum(
            self.s.product_space(v, v2), self.s.product_space(v2, v)
        )
        assert self.s.power(v, 3) == v3

    def test_ideal_closure_is_closed(self):
        j = self.s.ideal_closure(self.s.a_term(2))
        grown = self.s.sum(
            j,
            self.s.sum(
                self.s.product_space(self.s.full(), j),
                self.s.product_space(j, self.s.full()),
            ),
        )
        assert grown == j

    def test_ideal_closure_monotone_and_extensive(self):
        v = self.s.a_term(3)
        j = self.s.ideal_closure(v)
        assert self.s.check_inclusion(v, j, "v <= <v>")["verdict"] == "verified"
        bigger = self.s.ideal_closure(self.s.a_term(2))
        assert self.s.check_inclusion(j, bigger, "<A3> <= <A2>")["verdict"] == "verified"

    def test_commutator_ideal_equals_h2(self):
        assert self.s.commutator_ideal(self.s.full(), self.s.full()) == self.s.h_term(2)

    def test_mixed_slices_rejected(self):
        other = make_slice("bicommutative", cap=4)
        with pytest.raises(InputError):
            self.s.sum(self.s.full(), other.full())

    def test_inclusion_witness_is_first_in_canonical_order(self):
        v = self.s.check_inclusion(self.s.full(), self.s.h_term(2), "full <= H_2")
        assert v["claim"] == "full <= H_2" and v["verdict"] == "violated"
        assert v["witness"]["multidegree"] == "(0,1)"
        assert v["witness"]["element"] == "x2"

    def test_equality_reports_both_directions(self):
        a = self.s.h_term(2)
        checks = self.s.check_equality(a, a, "lhs", "rhs")
        assert checks == [
            {"claim": "lhs <= rhs", "verdict": "verified", "witness": None},
            {"claim": "rhs <= lhs", "verdict": "verified", "witness": None},
        ]


class TestAssociatorSpace:
    @pytest.mark.parametrize("middle", ["full", "H_2"])
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("name", ["assosymmetric", "novikov"])
    def test_matches_polynomial_arithmetic(self, name, field, middle):
        # (full, middle, full) against the span of the free-magma
        # associators of the class representatives, reduced to normal forms
        s = make_slice(name, field=field, k=2, cap=4)
        full = s.full()
        mid = full if middle == "full" else s.h_term(2)
        rows = {}
        for mu1, b1 in full.parts.items():
            for mu2, b2 in mid.parts.items():
                for mu3, b3 in full.parts.items():
                    mu = tuple(a + b + c for a, b, c in zip(mu1, mu2, mu3))
                    if sum(mu) > 4:
                        continue
                    comp = s.component(mu)
                    for u in b1.rows:
                        for v in b2.rows:
                            for w in b3.rows:
                                value = associator(
                                    s.component(mu1).coords_to_polynomial(u.entries),
                                    s.component(mu2).coords_to_polynomial(v.entries),
                                    s.component(mu3).coords_to_polynomial(w.entries),
                                )
                                rows.setdefault(mu, []).append(dict(comp.normal_form(value)))
        want = {}
        for mu, vecs in rows.items():
            basis = rref(field, s.component(mu).quotient_dim, vecs)
            if basis.rank:
                want[mu] = basis
        assert s.associator_space(full, mid, full).parts == want
        # (A, [A, A], A) vanishes in an assosymmetric algebra
        assert bool(want) == ((name, middle) != ("assosymmetric", "H_2"))

    def test_each_pair_product_formed_once(self, monkeypatch):
        # every u*v and v*w is multiplied once per call, so the products
        # number at most two per row triple, (uv)w and u(vw), plus one per
        # pair of rows; forming all four per triple makes 4 per triple
        s = make_slice("novikov", k=2, cap=4)
        full = s.full()
        dims = {mu: b.rank for mu, b in full.parts.items()}
        triples = sum(
            dims[a] * dims[b] * dims[c]
            for a in dims
            for b in dims
            for c in dims
            if sum(a) + sum(b) + sum(c) <= 4
        )
        pairs = sum(dims[a] * dims[b] for a in dims for b in dims if sum(a) + sum(b) <= 3)
        calls = 0
        add_product = FreeAlgebraComponent.add_product

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return add_product(self, *args)

        monkeypatch.setattr(FreeAlgebraComponent, "add_product", counted)
        s.associator_space(full, full, full)
        # the (u, v) and (v, w) pairs of one subspace passed twice are the
        # same pairs of rows, formed once
        assert calls <= 2 * triples + pairs < 4 * triples


# a battery of named checks that share chain terms, brackets and closures
BATTERY = [
    ("th_pro", {"p": 1, "q": 2}),
    ("th_pro", {"p": 2, "q": 2}),
    ("th_pro", {"m": 2}),
    ("circ_pro", {"p": 1, "q": 2}),
    ("circ_pro", {"p": 2, "q": 2}),
    ("prod_com_id", {"i": 2}),
    ("prod_com_id", {"i": 3}),
    ("lem_ideal", {}),
]


class TestClosureWork:
    def test_closure_of_an_ideal_keeps_its_parts_and_eliminates_nothing(self, monkeypatch):
        # H_2 carried into a fresh slice, whose memo holds no closure of it
        h2 = make_slice("bicommutative", QQ, 2, 4).h_term(2)
        s = make_slice("bicommutative", QQ, 2, 4)
        ideal = s.span({mu: part.rows for mu, part in h2.parts.items()})
        assert ideal.parts == h2.parts
        assert not ideal.is_zero()
        eliminate, sum_bases = linalg._rref, ideals_module._sum_bases
        eliminations, sums = [], []

        def counted_rref(*args):
            eliminations.append(args)
            return eliminate(*args)

        def watched_sum(a, b):
            before = len(eliminations)
            got = sum_bases(a, b)
            sums.append((got is a or got is b, got in (a, b), len(eliminations) - before))
            return got

        monkeypatch.setattr(linalg, "_rref", counted_rref)
        monkeypatch.setattr(ideals_module, "_sum_bases", watched_sum)
        closed = s.ideal_closure(ideal)
        assert closed.parts.keys() == ideal.parts.keys()
        assert all(closed.parts[mu] is part for mu, part in ideal.parts.items())
        assert sums
        # a sum equal to one operand is that operand, and eliminates nothing
        assert all(kept == contained and (not contained or n == 0) for kept, contained, n in sums)
        assert any(contained for _, contained, _ in sums)


class TestSpanMemo:
    def test_foreign_operand_with_memoized_parts_rejected(self):
        s, other = make_slice(), make_slice()
        full = s.full()
        s.bracket_space(full, full)
        s.product_space(full, full)
        assert other.full().parts == full.parts
        with pytest.raises(InputError):
            s.bracket_space(other.full(), full)
        with pytest.raises(InputError):
            s.product_space(full, other.full())

    def test_reversed_bracket_read_from_memo(self, monkeypatch):
        s = make_slice()
        full, a2 = s.full(), s.a_term(2)
        s.bracket_space(full, a2)
        calls = 0
        add_product = FreeAlgebraComponent.add_product

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return add_product(self, *args)

        monkeypatch.setattr(FreeAlgebraComponent, "add_product", counted)
        got = s.bracket_space(a2, full)
        assert calls == 0
        monkeypatch.undo()
        fresh = make_slice()
        assert got.parts == fresh.bracket_space(fresh.a_term(2), fresh.full()).parts

    def test_closures_powers_and_chain_terms_read_from_memo(self, monkeypatch):
        s = make_slice()
        U = s.span({(1, 0): [{0: 1}]})  # the first generator
        calls = [
            lambda: s.ideal_closure(U),
            lambda: s.power(U, 3),
            lambda: s.h_term(4),
            lambda: s.a_term(4),
        ]
        first = [call() for call in calls]
        assert not any(got.is_zero() for got in first)
        counts = count_pair_spaces(monkeypatch)
        for call, got in zip(calls, first):
            assert call() is got
        assert counts == {"calls": 0, "computed": 0}
        # a subspace with equal parts is the same key
        assert s.ideal_closure(s.span({mu: b.rows for mu, b in U.parts.items()})) is first[0]
        assert counts == {"calls": 0, "computed": 0}

    @pytest.mark.parametrize("bracket", [False, True], ids=["product", "bracket"])
    def test_pairs_past_the_cap_are_never_added(self, monkeypatch, bracket):
        # full() has a part at each of the 14 multidegrees of total 1..4 over
        # two generators, so 196 pairs, of which 41 fit the cap
        s = make_slice()
        full = s.full()
        in_cap = sum(
            sum(mu1) + sum(mu2) <= s.degree_cap for mu1 in full.parts for mu2 in full.parts
        )
        calls = 0
        mdeg_add = ideals_module.mdeg_add

        def counted(a, b):
            nonlocal calls
            calls += 1
            return mdeg_add(a, b)

        monkeypatch.setattr(ideals_module, "mdeg_add", counted)
        got = s._pair_space(full, full, bracket)
        assert 0 < calls <= in_cap < len(full.parts) ** 2
        monkeypatch.undo()
        fresh = make_slice()
        assert got.parts == fresh._pair_space(fresh.full(), fresh.full(), bracket).parts

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_battery_on_one_slice_matches_fresh_slices(self, monkeypatch, field):
        fresh = [
            check_theorem(make_slice(field=field), name, params).to_doc()
            for name, params in BATTERY
        ]
        counts = count_pair_spaces(monkeypatch)
        for seed in range(3):
            order = random.Random(seed).sample(range(len(BATTERY)), len(BATTERY))
            s = make_slice(field=field)
            counts.update(calls=0, computed=0)
            for i in order:
                assert check_theorem(s, *BATTERY[i]).to_doc() == fresh[i]
            # each distinct product or bracket is computed once per slice,
            # whatever the order of the checks: 13 of 28 calls, the rest
            # read from the memo, as are closures, powers and chain terms
            assert (counts["calls"], counts["computed"]) == (28, 13)


def ordered_bracket_parts(s, U, V=None):
    """The parts of [U, V] (V defaults to U) spanned over every ordered
    pair of rows, nothing skipped, each bracket formed by its two
    products."""
    rows = {}
    for mu1, b1 in U.parts.items():
        for mu2, b2 in (U if V is None else V).parts.items():
            mu = tuple(x + y for x, y in zip(mu1, mu2))
            if sum(mu) > s.degree_cap:
                continue
            comp = s.component(mu)
            for u in b1.rows:
                for v in b2.rows:
                    acc = {}
                    comp.add_product(acc, mu1, u.entries, v.entries)
                    comp.add_product(acc, mu2, v.entries, u.entries, -1)
                    rows.setdefault(mu, []).append(acc)
    bases = {mu: rref(s.field, s.component(mu).quotient_dim, r) for mu, r in rows.items()}
    return {mu: b for mu, b in bases.items() if b.rank}


def scan_witness(s, U, V):
    """The first row of U, in canonical order, outside V, reducing every
    row of every part: the witness ``check_inclusion`` should give."""
    for mu, basis in U.parts.items():
        target = V.parts.get(mu)
        for row in basis.rows:
            residual = row.entries if target is None else linalg.member(target, row)
            if residual:
                comp = s.component(mu)
                return {
                    "multidegree": format_multidegree(mu),
                    "element": comp.render_coords(row.entries),
                    "residual": comp.render_coords(residual),
                }
    return None


class TestSpanWork:
    @pytest.mark.parametrize("operand", ["full", "A[2]"])
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("name", variety_names())
    def test_bracket_of_equal_operands_takes_each_unordered_pair_once(
        self, monkeypatch, name, field, operand
    ):
        s = make_slice(name, field=field, k=2, cap=4)
        U = s.full() if operand == "full" else s.a_term(2)
        # rebuilt through span, so not invariant: every target's rows are
        # generated, none of its parts derived from another
        U = s.span({mu: b.rows for mu, b in U.parts.items()})
        want = ordered_bracket_parts(s, U)
        # rows (part n, row i): the ordered pairs within the cap, and those
        # with (n1, i1) < (n2, i2)
        parts = list(U.parts.items())
        ordered = unordered = 0
        for n1, (mu1, b1) in enumerate(parts):
            for n2, (mu2, b2) in enumerate(parts):
                if sum(mu1) + sum(mu2) <= s.degree_cap:
                    ordered += b1.rank * b2.rank
                    if n1 < n2:
                        unordered += b1.rank * b2.rank
                    elif n1 == n2:
                        unordered += b1.rank * (b1.rank - 1) // 2
        calls = 0
        add_product, span = FreeAlgebraComponent.add_product, AlgebraSlice.span

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return add_product(self, *args)

        def eager_span(self, rows):  # every row generated, full or not
            return span(self, {mu: list(r) for mu, r in rows.items()})

        monkeypatch.setattr(FreeAlgebraComponent, "add_product", counted)
        monkeypatch.setattr(AlgebraSlice, "span", eager_span)
        got = s.bracket_space(U, U)
        assert got.parts == want
        # two products per bracket, over fewer than half the ordered pairs
        # (at this cap A[2] has one row per part in degree 2, so none)
        assert calls == 2 * unordered <= ordered
        assert ordered and (unordered or operand == "A[2]")

    def test_no_member_call_for_an_equal_or_full_part(self, monkeypatch):
        owners, skipped, reduced_against = [], [], []
        check_inclusion, member = AlgebraSlice.check_inclusion, ideals_module.member

        def watched_inclusion(self, U, V, label):
            owners.append({id(r): b for b in U.parts.values() for r in b.rows})
            skipped.extend(
                mu for mu, b in U.parts.items()
                if V.parts.get(mu) in (b, identity_basis(self.field, b.ambient_dim))
            )
            try:
                return check_inclusion(self, U, V, label)
            finally:
                owners.pop()

        def watched_member(target, row):
            reduced_against.append((owners[-1][id(row)], target))
            return member(target, row)

        monkeypatch.setattr(AlgebraSlice, "check_inclusion", watched_inclusion)
        monkeypatch.setattr(ideals_module, "member", watched_member)
        for name, params in BATTERY + [("com_id", {"i": 2}), ("lem_mni1", {"i": 2})]:
            check_theorem(make_slice(), name, params)
        check_theorem(make_slice("magma"), "lem_mni1", {"i": 2})
        assert skipped and reduced_against
        for part, target in reduced_against:
            assert part != target
            assert target.rank < target.ambient_dim

    @pytest.mark.parametrize("name", ["magma", "novikov"])
    def test_witness_is_the_first_of_a_full_scan(self, name):
        s = make_slice(name, k=2, cap=4)
        full, h2, h3, a2 = s.full(), s.h_term(2), s.h_term(3), s.a_term(2)
        cases = [
            (s.product_space(a2, a2), s.ideal_closure(s.a_term(3))),  # lem_mni1 i=2
            (s.product_space(h2, h2), h3),
            (full, h2),
            (h2, full),
            (h2, h3),
            (h3, h2),
            (s.bracket_space(full, h2), s.a_term(3)),
        ]
        violated = 0
        for U, V in cases:
            got = s.check_inclusion(U, V, "claim")
            assert got["witness"] == scan_witness(s, U, V)
            violated += got["verdict"] == "violated"
        assert violated >= 2

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_span_work_bound(self, monkeypatch, field):
        # Rows that the span eliminations read, and products of two rows
        # formed, while a novikov k=3 D=4 slice runs both chains and a
        # battery. The counts are deterministic and the same over Q and F_5:
        # 716 rows and 784 products (those that build the permutation maps
        # included) when each part at a multidegree not sorted in descending
        # order is derived from the sorted one. Computing every part
        # directly reads 1066 rows and forms 1759 products when each span
        # stops generating rows at full rank and a bracket of equal operands
        # takes each unordered pair of rows once. Generating every row of
        # every ordered pair reads 1434 rows and forms 2334 products;
        # generating every row but stopping the elimination at full rank
        # forms 1950.
        s = make_slice("novikov", field=field, k=3, cap=4)
        read = products = 0
        add_product = FreeAlgebraComponent.add_product

        def counted_rows(rows):
            nonlocal read
            for row in rows:
                read += 1
                yield row

        def counted(self, *args):
            nonlocal products
            products += 1
            return add_product(self, *args)

        monkeypatch.setattr(
            ideals_module, "rref", lambda field, n, rows: rref(field, n, counted_rows(rows))
        )
        monkeypatch.setattr(FreeAlgebraComponent, "add_product", counted)
        lower_central_chain(s, 4)
        lie_power_series(s, 4)
        for name, params in BATTERY + [("th_pro", {"p": 1, "q": 1})]:
            check_theorem(s, name, params)
        assert read <= 750
        assert products <= 800


# named checks over a parameter grid like the benchmark's theorem session,
# plus every other check; check_params refuses what a cap or field does not admit
GRID = (
    [("com_id", {}), ("com_id", {"i": 2}), ("lem_ideal", {})]
    + [("th_pro", {"p": p, "q": q}) for p in range(1, 5) for q in range(1, 5) if p + q <= 5]
    + [("th_pro", {"m": m}) for m in (1, 2, 3)]
    + [("prod_com_id", {"i": i}) for i in (1, 2, 3, 4)]
    + [("circ_pro", {"p": 1, "q": 2}), ("circ_pro", {"p": 2, "q": 2})]
    + [("lem_mni1", {"i": i}) for i in (1, 2, 3)]
    + [("lem_ass_ap", {"p": 1, "q": 2}), ("lem_ass_ap", {"p": 2, "q": 2})]
    + [("lem_46", {"j": 1}), ("lem_46", {"j": 3})]
    + [("cp_ass", {"i": 1, "j": 2}), ("cp_ass", {"i": 3, "j": 2})]
    + [("bicom_metabelian", {}), ("bicom_not_right_nilpotent", {}), ("assoc_even_even", {})]
)


def slice_documents(s) -> list[str]:
    """The canonical JSON of both chains and of every GRID check the slice
    admits."""
    docs = [lower_central_chain(s, s.degree_cap), lie_power_series(s, s.degree_cap)]
    for name, params in GRID:
        try:
            check_params(name, params, s.degree_cap, s.field.char)
        except InputError:
            continue
        docs.append(check_theorem(s, name, params))
    return [canonical_json(d.to_doc()) for d in docs]


def representative(mu) -> tuple:
    """mu sorted in descending order: the multidegree a part is derived from."""
    return tuple(sorted(mu, reverse=True))


def is_sorted(mu) -> bool:
    return mu == representative(mu)


class TestPermutedParts:
    """A span of invariant operands derives each part at a multidegree not
    sorted in descending order from the part at its sorted representative."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["Q", "F2", "F5"])
    @pytest.mark.parametrize("name", variety_names())
    def test_derived_equals_direct(self, monkeypatch, name, field):
        derived = make_slice(name, field, k=3, cap=5)
        want = slice_documents(derived)
        assert derived.h_term(2).invariant and derived.a_term(2).invariant
        assert any(not is_sorted(mu) for mu in derived.h_term(2).parts)
        # a fresh slice, so its memo holds nothing derived, whose full space
        # is rebuilt through span: no operand is invariant, no part derived
        full = AlgebraSlice.full

        def rebuilt_full(self):
            return self.span({mu: b.rows for mu, b in full(self).parts.items()})

        monkeypatch.setattr(AlgebraSlice, "full", rebuilt_full)
        direct = make_slice(name, field, k=3, cap=5)
        assert not direct.h_term(2).invariant
        assert slice_documents(direct) == want

    def test_non_invariant_operands_are_computed_directly(self):
        s = make_slice("novikov", QQ, k=3, cap=5)
        full = s.full()
        U = s.span({(1, 0, 0): [{0: 1}]})  # the class of x1 alone
        assert full.invariant and not U.invariant
        assert s.span({mu: b.rows for mu, b in full.parts.items()}) == full
        spans = [s.bracket_space(U, full), s.power(U, 2), s.ideal_closure(U)]
        for got in spans:
            assert not got.invariant
            for mu in full.parts:
                if mu[0] == 0 and representative(mu) in got.parts:
                    assert mu not in got.parts, mu
        # [x1, full] spanned from every bracket of rows, at every target
        assert spans[0].parts == ordered_bracket_parts(s, U, full)
        assert any(not is_sorted(mu) for mu in spans[0].parts)

    def test_derived_parts_generate_no_rows_and_reduce_none(self, monkeypatch):
        s = make_slice("novikov", QQ, k=3, cap=5)
        targets, derived, reads, mapping, pending = set(), [], [], [], []
        add_product, image = FreeAlgebraComponent.add_product, AlgebraSlice._image
        images = AlgebraSlice._permutation_images

        def watched_add_product(self, *args):
            if not mapping:  # a product that generates a row of its target
                targets.add(self.mu)
            return add_product(self, *args)

        def watched_images(self, mu):
            mapping.append(mu)
            try:
                return images(self, mu)
            finally:
                mapping.pop()

        def watched_image(self, mu, part):
            derived.append(mu)
            pending.append(part.rank)
            try:
                return image(self, mu, part)
            finally:
                pending.pop()

        def watched_rref(field, n, rows):
            if not pending:
                return rref(field, n, rows)
            rows = list(rows)
            got = rref(field, n, rows)
            reads.append((len(rows), got.rank, pending[-1]))
            return got

        monkeypatch.setattr(FreeAlgebraComponent, "add_product", watched_add_product)
        monkeypatch.setattr(AlgebraSlice, "_permutation_images", watched_images)
        monkeypatch.setattr(AlgebraSlice, "_image", watched_image)
        monkeypatch.setattr(ideals_module, "rref", watched_rref)
        chain = lower_central_chain(s, 5)
        assert targets and all(is_sorted(mu) for mu in targets)
        assert derived and not any(is_sorted(mu) for mu in derived)
        # rref reads the representative's rank in rows, and each is a pivot
        assert reads and all(read == rank == want for read, rank, want in reads)
        for term in chain.terms:
            for mu, part in term.parts.items():
                assert part.rank == term.parts[representative(mu)].rank


class TestChains:
    def test_bicommutative_lower_central_dims(self):
        s = make_slice("bicommutative", cap=4)
        rep = lower_central_chain(s, 4)
        assert [t.total_dim() for t in rep.terms] == [43, 29, 14, 3]

    def test_chain_is_descending(self):
        s = make_slice("novikov", cap=4)
        rep = lower_central_chain(s, 4)
        closed = [s.ideal_closure(t) for t in rep.terms]
        for a, b in zip(closed, closed[1:]):
            assert s.check_inclusion(b, a, "descent")["verdict"] == "verified"

    def test_lie_powers_descend_here(self):
        # raw terms A_[i+1] <= A_[i] hold in these varieties even though
        # the series is not an ideal chain
        for name in ("novikov", "bicommutative"):
            s = make_slice(name, cap=4)
            rep = lie_power_series(s, 4)
            terms = rep.terms
            for a, b in zip(terms, terms[1:]):
                assert s.check_inclusion(b, a, "descent")["verdict"] == "verified"

    def test_truncation_soundness(self):
        # dims of H_i at degrees <= 4 agree between caps 4 and 5: truncation
        # by total degree is a quotient by an ideal, so low components of
        # every chain term are unchanged
        small = make_slice("bicommutative", cap=4)
        large = make_slice("bicommutative", cap=5)
        for i in (1, 2, 3):
            dims_small = dict(lower_central_chain(small, 3).terms[i - 1].dims())
            dims_large = dict(lower_central_chain(large, 3).terms[i - 1].dims())
            for mu, d in dims_small.items():
                assert dims_large.get(mu, 0) == d

    def test_vanishing_and_class(self):
        s = make_slice("bicommutative", cap=3)
        rep = lower_central_chain(s, 3)
        doc = rep.to_doc()
        assert doc["chain"] == "lower-central"
        assert [t["total_dim"] for t in doc["terms"]] == [18, 9, 2]
        assert doc["vanishing_index"] is None
        assert doc["class"] is None

    def test_chain_report_doc_dims_ordered(self):
        s = make_slice("novikov", cap=3)
        doc = lower_central_chain(s, 2).to_doc()
        mus = [row["multidegree"] for row in doc["terms"][0]["dims"]]
        assert mus == ["(0,1)", "(1,0)", "(0,2)", "(1,1)", "(2,0)",
                       "(0,3)", "(1,2)", "(2,1)", "(3,0)"]


    @pytest.mark.parametrize("chain", [lower_central_chain, lie_power_series])
    def test_length_guard_refused_before_any_term(self, chain):
        # the degree cap bounds the length: past it every term is 0
        s = make_slice("novikov", k=1, cap=3)
        with pytest.raises(InputError, match="terms=4 references chain index beyond degree cap"):
            chain(s, 4)
        with pytest.raises(InputError, match="terms=0 must be at least 1"):
            chain(s, 0)
        assert not s._memo
        assert len(chain(s, 3).terms) == 3


class TestTheoremDispatch:
    def test_registry(self):
        assert theorem_names() == (
            "assoc_even_even",
            "bicom_metabelian",
            "bicom_not_right_nilpotent",
            "circ_pro",
            "com_id",
            "cp_ass",
            "lem_46",
            "lem_ass_ap",
            "lem_ideal",
            "lem_mni1",
            "prod_com_id",
            "th_pro",
        )

    def test_unknown_name(self):
        s = make_slice(cap=2)
        with pytest.raises(InputError):
            check_theorem(s, "nope")

    def test_unknown_param_rejected(self):
        s = make_slice(cap=3)
        with pytest.raises(InputError):
            check_theorem(s, "circ_pro", {"p": 1, "q": 1, "r": 1})

    def test_param_the_check_does_not_read_rejected(self):
        s = make_slice(cap=3)
        with pytest.raises(InputError, match="'circ_pro' does not read m; it reads p, q"):
            check_theorem(s, "circ_pro", {"p": 1, "q": 1, "m": 2})
        with pytest.raises(InputError, match="does not read i; it reads no parameters"):
            check_theorem(s, "bicom_metabelian", {"i": 1})

    def test_params_read_from_the_handler_signature(self):
        # the stray message lists what the check reads in its signature's
        # order, and the union of all signatures is what the CLI offers
        s = make_slice(cap=3)
        with pytest.raises(InputError, match="'th_pro' does not read i; it reads p, q, m$"):
            check_theorem(s, "th_pro", {"i": 1})
        with pytest.raises(InputError, match="'cp_ass' does not read p; it reads i, j$"):
            check_theorem(s, "cp_ass", {"p": 1})
        with pytest.raises(InputError, match="^check needs parameter 'j'$"):
            check_theorem(s, "cp_ass", {"i": 1})
        assert theorem_params() == ("i", "j", "m", "p", "q")

    def test_missing_param_rejected(self):
        s = make_slice(cap=3)
        with pytest.raises(InputError):
            check_theorem(s, "circ_pro", {"p": 1})

    def test_index_beyond_cap_rejected(self):
        s = make_slice(cap=3)
        with pytest.raises(InputError):
            check_theorem(s, "circ_pro", {"p": 2, "q": 2})
        with pytest.raises(InputError):
            check_theorem(s, "prod_com_id", {"i": 9})

    def test_nonpositive_index_rejected(self):
        s = make_slice(cap=3)
        with pytest.raises(InputError):
            check_theorem(s, "circ_pro", {"p": 0, "q": 2})

    def test_commutator_ideal_description(self):
        s = make_slice("novikov", cap=4)
        rep = check_theorem(s, "com_id", {"i": 2})
        assert rep.status == "verified"
        assert len(rep.claims) == 4  # two equalities, two directions each

    def test_product_rule(self):
        s = make_slice("novikov", cap=4)
        rep = check_theorem(s, "th_pro", {"p": 2, "q": 2, "m": 2})
        assert rep.status == "verified"

    def test_closed_lie_powers_match_lower_central(self):
        for name in ("novikov", "bicommutative"):
            s = make_slice(name, cap=4)
            for i in (2, 3):
                rep = check_theorem(s, "prod_com_id", {"i": i})
                assert rep.status == "verified", (name, i)

    @pytest.mark.parametrize("name", ["novikov", "bicommutative", "assosymmetric"])
    def test_lem_mni1_verified(self, name):
        s = make_slice(name, cap=5)
        for i in (1, 2, 3):
            rep = check_theorem(s, "lem_mni1", {"i": i})
            assert [c["claim"] for c in rep.claims] == [f"A[2]*A[{i}] <= <A[{i + 1}]>"]
            assert rep.status == "verified", (name, i)

    def test_lem46_refuses_bad_characteristic(self):
        s = make_slice("assosymmetric", field=GF(3), cap=4)
        with pytest.raises(InputError):
            check_theorem(s, "lem_46", {"j": 3})

    def test_lem46_refuses_even_index(self):
        s = make_slice("assosymmetric", cap=4)
        with pytest.raises(InputError):
            check_theorem(s, "lem_46", {"j": 2})

    def test_cp_ass_refuses_two_even_indices(self):
        s = make_slice("assosymmetric", cap=4)
        with pytest.raises(InputError):
            check_theorem(s, "cp_ass", {"i": 2, "j": 2})

    def test_bicom_metabelian(self):
        s = make_slice("bicommutative", k=3, cap=4)
        rep = check_theorem(s, "bicom_metabelian")
        assert rep.status == "verified"

    def test_exploratory_check_never_verifies(self):
        s = make_slice("associative", k=2, cap=4)
        rep = check_theorem(s, "assoc_even_even")
        assert rep.status in ("inconclusive", "violated")
        assert rep.status != "verified"

    def test_commutator_ideal_description_is_universal(self):
        # [u,v]w = [uv,w] - [vu,w] + w[u,v] holds in every algebra, so the
        # description verifies even with no defining identities at all
        s = make_slice("magma", k=2, cap=3)
        assert check_theorem(s, "com_id").status == "verified"

    def test_violated_status_with_witness(self):
        # the product rule needs the variety relations: free magma breaks
        # it, and the first violation sits at multidegree (2,2)
        s = make_slice("magma", k=2, cap=4)
        rep = check_theorem(s, "th_pro", {"p": 2, "q": 2, "m": 2})
        assert rep.status == "violated"
        bad = [c for c in rep.claims if c["verdict"] == "violated"]
        assert bad[0]["claim"] == "H_2*H_2 <= H_3"
        assert bad[0]["witness"]["multidegree"] == "(2,2)"
        assert bad[0]["witness"]["element"]

    def test_metabelian_check_not_vacuous_at_three_generators(self):
        s = make_slice("magma", k=3, cap=4)
        rep = check_theorem(s, "bicom_metabelian")
        assert rep.status == "violated"
        bad = [c for c in rep.claims if c["verdict"] == "violated"]
        assert bad[0]["witness"]["multidegree"] == "(1,1,2)"

    def test_report_doc_shape(self):
        s = make_slice("novikov", cap=3)
        doc = check_theorem(s, "circ_pro", {"p": 1, "q": 2}).to_doc()
        assert doc["theorem"] == "circ_pro"
        assert doc["variety"] == "novikov"
        assert doc["field"] == "Q"
        assert doc["generators"] == 2
        assert doc["degree_cap"] == 3
        assert doc["params"] == {"p": 1, "q": 2}
        assert doc["status"] == "verified"
        assert doc["claims"][0]["claim"] == "H_1 o H_2 <= H_3"
