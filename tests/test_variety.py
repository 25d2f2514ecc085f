"""Relatively free algebra components: relation spans, normal forms, verify."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lieadm
from lieadm.errors import InputError, ResourceError, UnsupportedVarietyError
from lieadm.exprs import Identity, builtin
from lieadm import linalg
from lieadm.ideals import AlgebraSlice
from lieadm import variety as variety_module
from lieadm.linalg import GF, QQ, reduced, rref, vector
from lieadm.terms import (
    Polynomial,
    enumerate_monomials,
    format_multidegree,
    leaf,
    multidegree,
    multidegrees,
    node,
    render_polynomial,
    substitute,
)
from lieadm.variety import (
    FreeAlgebraComponent,
    VarietySpec,
    builtin_variety,
    clear_caches,
    component_basis,
    custom_variety,
    relation_rows,
    variety_names,
    verify_identity,
)

from naive_oracle import relation_element


def P(field, m):
    return Polynomial.of(field, m)


class TestVarietyCatalog:
    def test_names(self):
        assert variety_names() == (
            "associative",
            "assosymmetric",
            "bicommutative",
            "magma",
            "novikov",
        )

    def test_defining_identity_sets(self):
        by_name = {
            "magma": (),
            "associative": ("assoc",),
            "novikov": ("rightcom", "leftsym"),
            "bicommutative": ("leftcom", "rightcom"),
            "assosymmetric": ("leftsym", "rightsym"),
        }
        for name, idents in by_name.items():
            v = builtin_variety(name)
            assert tuple(i.name for i in v.identities) == idents

    def test_unknown_variety(self):
        with pytest.raises(InputError):
            builtin_variety("commutative")

    def test_custom_variety(self):
        v = custom_variety(["x*y - y*x"], name="comm")
        comp = component_basis(v, QQ, 2, (1, 1))
        assert comp.quotient_dim == 1

    def test_non_multilinear_defining_identity_rejected(self):
        v = custom_variety(["x*x"], name="nil2")
        with pytest.raises(UnsupportedVarietyError):
            component_basis(v, QQ, 2, (1, 1))


# degree-3 multilinear dimensions, one per variety; the assosymmetric value
# is the one that separates it from the other three
DEG3 = {"associative": 6, "novikov": 6, "bicommutative": 6, "assosymmetric": 7}

# degree-4 golden values, frozen from the relation-rank computation and
# cross-checked against closed forms where one exists (associative n!,
# bicommutative 2^n - 2)
DEG4 = {"associative": 24, "novikov": 20, "bicommutative": 14, "assosymmetric": 29}


class TestComponentDimensions:
    @pytest.mark.parametrize("name,dim", sorted(DEG3.items()))
    def test_degree_three_multilinear(self, name, dim):
        comp = component_basis(builtin_variety(name), QQ, 3, (1, 1, 1))
        assert comp.quotient_dim == dim

    @pytest.mark.parametrize("name,dim", sorted(DEG4.items()))
    def test_degree_four_multilinear(self, name, dim):
        comp = component_basis(builtin_variety(name), QQ, 4, (1, 1, 1, 1))
        assert comp.quotient_dim == dim

    def test_magma_has_no_relations(self):
        comp = component_basis(builtin_variety("magma"), QQ, 3, (1, 1, 1))
        monos = enumerate_monomials(3, (1, 1, 1))
        assert comp.quotient_monomials == monos and len(monos) == 12
        assert not any(relation_element(comp, m) for m in monos)

    def test_rank_plus_quotient_is_monomial_count(self):
        # the relations m - nf(m) of the monomials that are not normal are
        # nonzero and lead at m, so they are independent: rank + quotient
        # dimension is the monomial count
        monos = enumerate_monomials(2, (2, 1))
        for name in variety_names():
            comp = component_basis(builtin_variety(name), QQ, 2, (2, 1))
            normal = set(comp.quotient_monomials)
            assert normal <= set(monos)
            relations = [m for m in monos if relation_element(comp, m)]
            assert len(relations) + comp.quotient_dim == len(monos)
            assert not normal & set(relations)

    def test_bicommutative_mixed_multidegrees(self):
        # the free bicommutative component at mu is counted by ordered pairs
        # of nonempty submultisets partitioning mu, giving an independent
        # closed form for mixed degrees
        v = builtin_variety("bicommutative")
        for mu, want in (((2, 1), 4), ((3, 0), 2), ((2, 2), 7), ((3, 1), 6)):
            comp = component_basis(v, QQ, 2, mu)
            assert comp.quotient_dim == want, mu

    def test_associative_mixed_multidegree(self):
        # associative words of multidegree mu biject with permutations of
        # the multiset, a multinomial count
        comp = component_basis(builtin_variety("associative"), QQ, 2, (2, 2))
        assert comp.quotient_dim == math.comb(4, 2)

    def test_dimensions_stable_across_fields(self):
        for name in ("novikov", "bicommutative", "assosymmetric"):
            a = component_basis(builtin_variety(name), QQ, 3, (1, 1, 1))
            b = component_basis(builtin_variety(name), GF(5), 3, (1, 1, 1))
            assert a.quotient_dim == b.quotient_dim

    def test_component_memoized(self):
        v = builtin_variety("novikov")
        assert component_basis(v, QQ, 2, (1, 1)) is component_basis(v, QQ, 2, (1, 1))

    def test_monomial_guard(self, monkeypatch):
        clear_caches()
        monkeypatch.setattr(variety_module, "MAX_COLUMNS", 100)
        with pytest.raises(ResourceError):
            component_basis(builtin_variety("magma"), QQ, 4, (2, 2, 2, 2))

    def test_guard_counts_product_space_columns(self, monkeypatch):
        # the free magma component (1,1,1) has 12 columns: a generator times
        # one of the two products of the other two, on either side
        clear_caches()
        monkeypatch.setattr(variety_module, "MAX_COLUMNS", 11)
        with pytest.raises(ResourceError) as err:
            component_basis(builtin_variety("magma"), QQ, 3, (1, 1, 1))
        assert "(1,1,1)" in str(err.value)
        assert "12 product-space columns" in str(err.value)
        assert "guard of 11" in str(err.value)

    def test_guard_checks_lower_components(self, monkeypatch):
        # (2,2) itself has 30 columns, but its part (1,2) already has 6
        clear_caches()
        monkeypatch.setattr(variety_module, "MAX_COLUMNS", 5)
        with pytest.raises(ResourceError, match=r"\(1,2\) has 6 product-space columns"):
            component_basis(builtin_variety("magma"), QQ, 2, (2, 2))

    def test_refused_component_builds_no_column(self, monkeypatch):
        # the count is taken from the lower dimensions before any column
        # monomial is formed; the lower components are built first
        clear_caches()
        magma = builtin_variety("magma")
        for d in range(1, 6):
            component_basis(magma, QQ, 1, (d,))
        calls = 0
        node_ = variety_module.node

        def counted(left, right):
            nonlocal calls
            calls += 1
            return node_(left, right)

        monkeypatch.setattr(variety_module, "node", counted)
        monkeypatch.setattr(variety_module, "MAX_COLUMNS", 41)
        # 1*14 + 1*5 + 2*2 + 5*1 + 14*1 = 42 columns at degree 6
        with pytest.raises(ResourceError, match=r"\(6\) has 42 product-space columns, over .* 41"):
            component_basis(magma, QQ, 1, (6,))
        assert calls == 0
        clear_caches()

    def test_guard_ignores_free_magma_size(self, monkeypatch):
        # 1680 free magma monomials, but only 380 product-space columns
        clear_caches()
        monkeypatch.setattr(variety_module, "MAX_COLUMNS", 400)
        v = builtin_variety("bicommutative")
        comp = component_basis(v, QQ, 5, (1,) * 5)
        assert comp.column_count == 380
        assert len(enumerate_monomials(5, (1,) * 5)) == 1680

    @pytest.mark.parametrize(
        "mu, guard, message",
        [
            ((0, 6), 41, r"\(0,6\) has 42 product-space columns, over the guard of 41"),
            ((0, 7), 41, r"\(0,6\) has 42 product-space columns"),
            ((2, 0, 2), 5, r"\(1,0,2\) has 6 product-space columns, over the guard of 5"),
        ],
    )
    def test_relabeled_component_guard_names_its_multidegree(self, monkeypatch, mu, guard, message):
        # a multidegree with a zero entry is refused as if it were built
        # there: the message names the requested multidegree or its part,
        # never the multidegree over the support
        clear_caches()
        monkeypatch.setattr(variety_module, "MAX_COLUMNS", guard)
        with pytest.raises(ResourceError, match=message):
            component_basis(builtin_variety("magma"), QQ, len(mu), mu)
        clear_caches()

    def test_library_call_is_guarded(self):
        # the free magma on one generator has C_12 = 208012 (Catalan) product-space
        # columns at degree 13; every degree below it passes
        with pytest.raises(ResourceError, match=r"\(13\) has 208012 .* guard of 200000"):
            component_basis(builtin_variety("magma"), QQ, 1, (13,))
        clear_caches()


ZERO_ENTRY_MULTIDEGREES = [mu for mu in multidegrees((5, 5, 5), 5) if 0 in mu]


class TestRelabeling:
    """A multidegree with a zero entry is read off the component over its
    support, never eliminated: it must equal the component eliminated
    there, and only full-support components are built."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["Q", "F2", "F5"])
    @pytest.mark.parametrize("name", variety_names())
    def test_equals_component_built_at_the_multidegree(self, name, field):
        v = builtin_variety(name)
        rng = random.Random(f"relabel-{name}-{field.char}")
        for mu in ZERO_ENTRY_MULTIDEGREES:
            got = component_basis(v, field, 3, mu)
            want = FreeAlgebraComponent(v, field, 3, mu)
            assert got.column_count == want.column_count, mu
            assert got.quotient_dim == want.quotient_dim, mu
            assert got.quotient_monomials == want.quotient_monomials, mu
            assert list(got.products.items()) == list(want.products.items()), mu
            assert list(got.lower) == list(want.lower), mu
            monos = enumerate_monomials(3, mu)
            for _ in range(3):
                picks = rng.sample(monos, min(4, len(monos)))
                poly = Polynomial(field, {m: rng.randrange(-3, 4) for m in picks})
                assert got.normal_form(poly) == want.normal_form(poly), mu

    def test_keeps_the_callers_multidegree(self):
        # a component over 2000 generators must not hold a second
        # 2000-entry tuple of its own
        mu = tuple([0] * 1999 + [1])
        assert component_basis(builtin_variety("novikov"), QQ, 2000, mu).mu is mu

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: AlgebraSlice(builtin_variety("novikov"), QQ, 3, 5), 25),
            (lambda: component_basis(builtin_variety("assosymmetric"), QQ, 5, (1,) * 5), 5),
        ],
        ids=["novikov-k3-D5", "assosymmetric-multilinear-5"],
    )
    def test_each_support_pattern_eliminated_once(self, monkeypatch, build, count):
        # the k=3, D=5 slice has 55 components: 10 with full support over
        # three generators, 10 over two and 5 over one; the multilinear
        # cell needs (1,)*s for s = 1..5 and no other elimination
        built = []
        init = FreeAlgebraComponent.__init__

        def counted(self, variety, field, k, mu):
            built.append(mu)
            init(self, variety, field, k, mu)

        monkeypatch.setattr(FreeAlgebraComponent, "__init__", counted)
        clear_caches()
        build()
        clear_caches()
        assert len(built) == count
        assert all(0 not in mu for mu in built)


class TestClosedForms:
    # multilinear dimensions with closed forms from the literature:
    # Novikov C(2n-2, n-1) (Dzhumadil'daev and Lofwall, HHA 2002) and
    # bicommutative 2^n - 2 (Dzhumadil'daev, Ismailov and Tulenbaev, 2011)

    def test_novikov_degree_five(self):
        comp = component_basis(builtin_variety("novikov"), QQ, 5, (1,) * 5)
        assert comp.quotient_dim == math.comb(8, 4) == 70

    def test_bicommutative_degree_six(self):
        comp = component_basis(builtin_variety("bicommutative"), QQ, 6, (1,) * 6)
        assert comp.quotient_dim == 2**6 - 2 == 62

    # the next two cells take tens of seconds each: run with pytest -m slow

    @pytest.mark.slow
    def test_novikov_degree_six(self):
        comp = component_basis(builtin_variety("novikov"), QQ, 6, (1,) * 6)
        assert comp.quotient_dim == math.comb(10, 5) == 252

    @pytest.mark.slow
    def test_bicommutative_degree_seven(self):
        comp = component_basis(builtin_variety("bicommutative"), QQ, 7, (1,) * 7)
        assert comp.quotient_dim == 2**7 - 2 == 126

    @pytest.mark.slow
    def test_assosymmetric_degree_six(self):
        # Engine-only: assosymmetric has no closed form here, and the naive
        # oracle stops at degree 5, so nothing independent checks 762 yet.
        # Built cold in a process of its own, so that its peak RSS is its
        # own, within a budget: 8.8 to 10.8 s and 82 MB on a shared 2-core
        # x86 box, whose load moves the time; the time bound is twice the
        # slowest build measured there.
        code = (
            "import json, resource, time\n"
            "from lieadm.linalg import QQ\n"
            "from lieadm.variety import builtin_variety, component_basis\n"
            "t = time.perf_counter()\n"
            "comp = component_basis(builtin_variety('assosymmetric'), QQ, 6, (1,) * 6)\n"
            "print(json.dumps([comp.quotient_dim, time.perf_counter() - t,\n"
            "    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lieadm.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        dim, seconds, rss_mb = json.loads(proc.stdout)
        assert dim == 762
        assert seconds < 22 and rss_mb < 260, (seconds, rss_mb)


class TestDerivedViews:
    @pytest.mark.parametrize("name", ["novikov", "assosymmetric", "magma"])
    def test_relations_are_monomial_minus_normal_form(self, name):
        # m - nf(m) is zero for a normal monomial m; otherwise it is a
        # relation led by m (pivots take the first column, so nf(m) lies
        # on normal monomials after m in canonical order)
        comp = component_basis(builtin_variety(name), GF(5), 2, (2, 1))
        normal = set(comp.quotient_monomials)
        for m in enumerate_monomials(2, (2, 1)):
            relation = relation_element(comp, m)
            assert bool(relation) == (m not in normal)
            if relation:
                assert relation.terms[m] == 1
                assert min(relation.terms, key=lambda t: t.sort_key(2)) == m
                assert not comp.normal_form(relation)

    def test_rows_are_product_space_rows(self):
        v = builtin_variety("novikov")
        comp = component_basis(v, QQ, 3, (1, 1, 1))
        space = variety_module._product_space(v, QQ, 3, (1, 1, 1))
        rows = relation_rows(v, QQ, (1, 1, 1), space)
        assert rows and all(j < comp.column_count for row in rows for j in row)
        # rows come as evaluated, not monic: nonzero and without zeros
        assert all(row and row == reduced(0, row) for row in rows)


# a one-term identity, (xy)z = 0, beside a two-term one
FEED_VARIETIES = {"mixed": custom_variety(["x*(y*z) - (y*z)*x", "(x*y)*z"], name="mixed")}


class TestEliminationFeed:
    """relation_rows feeds rref the rows of the identities with fewest
    terms first, each group in one descending lead order: the order may
    change the elimination's work, never its result."""

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("name", ["assosymmetric", "novikov"])
    def test_basis_independent_of_row_order(self, name, field):
        v, mu = builtin_variety(name), (1, 1, 1, 1)
        comp = component_basis(v, field, 4, mu)
        rows = relation_rows(v, field, mu, variety_module._product_space(v, field, 4, mu))
        orders = [rows, rows[::-1]]
        for seed in (1, 2, 3):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            orders.append(shuffled)
        bases = [rref(field, comp.column_count, order) for order in orders]
        assert all(b == bases[0] for b in bases)
        # the component is read off that basis: one normal monomial per
        # free column, and every relation row vanishes in the quotient
        assert comp.column_count - bases[0].rank == comp.quotient_dim
        _, cols = variety_module._product_space(v, field, 4, mu)
        for row in bases[0].rows:
            acc = {}
            for j, c in row.entries:
                for q, w in comp.products[cols[j][0]]:
                    acc[q] = acc.get(q, 0) + c * w
            assert not reduced(field.char, acc)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("name", ["assosymmetric", "bicommutative", "novikov", "mixed"])
    def test_term_count_groups_in_lead_order(self, name, field):
        # The rows of each identity alone, over the same product space,
        # make up the groups: the identities with fewest template terms
        # first, and each group's rows, taken in the order of the sources,
        # in one stable (-min, len) order. "mixed" has a one-term group.
        v = FEED_VARIETIES.get(name) or builtin_variety(name)
        mu = (1, 1, 1, 1)
        space = variety_module._product_space(v, field, 4, mu)
        rows = relation_rows(v, field, mu, space)

        def size(ident):
            return len(ident.template(field).terms)

        start = 0
        for n in sorted({size(i) for i in v.identities}):
            members = sorted((i for i in v.identities if size(i) == n), key=lambda i: i.source)
            group = [
                row
                for ident in members
                for row in relation_rows(VarietySpec(name, (ident,)), field, mu, space)
            ]
            assert group
            assert rows[start : start + len(group)] == sorted(
                group, key=lambda r: (-min(r), len(r))
            )
            start += len(group)
        assert start == len(rows)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("name", ["assosymmetric", "bicommutative", "novikov", "mixed"])
    def test_rows_independent_of_identity_listing(self, name, field):
        # The same identities listed in reverse give the same rows, in
        # the same order (each listing builds its own lower components).
        v = FEED_VARIETIES.get(name) or builtin_variety(name)
        mu = (1, 1, 1, 1)
        reverse = VarietySpec(name + "_reversed", v.identities[::-1])
        rows = [
            relation_rows(u, field, mu, variety_module._product_space(u, field, 4, mu))
            for u in (reverse, v)
        ]
        assert rows[0] == rows[1]

    @staticmethod
    def _elimination_work(name, monkeypatch):
        # Entries of the pivot rows that rref's updates run over, in a cold
        # multilinear degree-5 build, by field characteristic (Q and F5).
        eliminate, touched = linalg._eliminate, []

        def counting(p, row, col, prow):
            touched.append(len(prow))
            eliminate(p, row, col, prow)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        work = {}
        for field in (QQ, GF(5)):
            clear_caches()
            touched.clear()
            component_basis(builtin_variety(name), field, 5, (1,) * 5)
            work[field.char] = sum(touched)
        return work

    @pytest.mark.parametrize(
        "name, bound", [("assosymmetric", 480_000), ("novikov", 430_000)]
    )
    def test_elimination_work_bound(self, name, bound, monkeypatch):
        # The feed by term count, one descending-lead sort per group, with
        # each new pivot cleared from the older rows at once, gave 438176
        # and 395062 (assosymmetric) and 375463 and 363463 (Novikov); one
        # sorted block per identity gave 666423 and 614574 on
        # assosymmetric. The count is deterministic.
        work = self._elimination_work(name, monkeypatch)
        assert max(work.values()) <= bound, work

    @pytest.mark.parametrize(
        "name, bound", [("assosymmetric", 242_000), ("novikov", 377_000)]
    )
    def test_deferred_clearing_work_bound(self, name, bound, monkeypatch):
        # With columns owed and settled when hit, the same feed gives
        # 220049 and 215549 (assosymmetric) and 342266 and 329634
        # (Novikov). One sorted block per identity gives 276162 (listing
        # order) or 439852 (source order) over Q on assosymmetric, and the
        # same work on Novikov.
        work = self._elimination_work(name, monkeypatch)
        assert max(work.values()) <= bound, work


FIELDS = [QQ, GF(5), GF(3), GF(2)]
FIELD_IDS = ["Q", "F5", "F3", "F2"]


def line(field, row):
    """The line of a nonzero row, as its monic sorted pairs."""
    inv = field.from_fraction(1 / Fraction(row[min(row)]))
    return vector(field.char, {j: c * inv for j, c in row.items()})


def first_of_each_line(field, rows):
    """``rows`` with every row whose line came before dropped."""
    seen, out = set(), []
    for row in rows:
        key = line(field, row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def every_tuple(ident, field, tuples):
    """``Identity.representatives`` with no plan: every tuple kept."""
    return tuples


class TestRelationPlan:
    """relation_rows evaluates one substitution per antisymmetric pair:
    the rows, and their order, are those of evaluating every one, less
    the repeated lines the skipped swaps give. Over F_2 too, only the
    substitutions with key i < key j are kept: equal keys give zero."""

    @staticmethod
    def rows_both_ways(monkeypatch, v, field, k, mu):
        space = variety_module._product_space(v, field, k, mu)
        planned = relation_rows(v, field, mu, space)
        with monkeypatch.context() as m:
            m.setattr(Identity, "representatives", every_tuple)
            every = relation_rows(v, field, mu, space)
        return planned, first_of_each_line(field, every)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", variety_names())
    def test_builtin_rows_repeat_no_line(self, name, field):
        # relation_rows drops no repeated line, so a builtin variety must
        # give none: checked on every component of the k=3, D=4 slice and
        # on the multilinear degree-5 cell
        v = builtin_variety(name)
        cells = [(3, mu) for mu in multidegrees((4, 4, 4), 4)] + [(5, (1,) * 5)]
        for k, mu in cells:
            rows = relation_rows(v, field, mu, variety_module._product_space(v, field, k, mu))
            lines = {line(field, row) for row in rows}
            assert len(lines) == len(rows), (mu, len(rows) - len(lines))

    @pytest.mark.parametrize(
        "source, field, pair",
        [
            (builtin("leftsym").source, QQ, (0, 1)),
            (builtin("leftcom").source, GF(5), (0, 1)),
            (builtin("rightsym").source, GF(3), (1, 2)),
            (builtin("rightcom").source, QQ, (1, 2)),
            (builtin("assoc").source, QQ, None),
            (builtin("assoc").source, GF(2), None),
            ("x*y - y*x", QQ, (0, 1)),
            ("x*y + y*x", QQ, None),
            ("x*y + y*x", GF(2), (0, 1)),
        ],
    )
    def test_pair_found_from_template(self, source, field, pair):
        ident = Identity("t", source)
        tuples = list(itertools.product(range(3), repeat=len(ident.variables)))
        kept = list(ident.representatives(field, tuples))
        assert kept == (tuples if pair is None else [t for t in tuples if t[pair[0]] < t[pair[1]]])

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", ["novikov", "bicommutative", "assosymmetric"])
    def test_multilinear_degree_5(self, name, field, monkeypatch):
        planned, every = self.rows_both_ways(monkeypatch, builtin_variety(name), field, 5, (1,) * 5)
        assert planned == every

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_every_component_of_a_slice(self, field, monkeypatch):
        for name in ("novikov", "assosymmetric"):
            v = builtin_variety(name)
            for mu in multidegrees((4, 4, 4), 4):
                planned, every = self.rows_both_ways(monkeypatch, v, field, 3, mu)
                assert planned == every, (name, mu)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize(
        "sources", [["x*y - y*x"], ["(x*y)*z - x*(y*z)"]], ids=["commutator", "assoc"]
    )
    def test_custom_and_pairless_identities(self, sources, field, monkeypatch):
        v = custom_variety(sources)
        for mu in [(1, 1, 1, 1), (2, 1, 1), (2, 2)]:
            planned, every = self.rows_both_ways(monkeypatch, v, field, len(mu), mu)
            assert planned == every, mu

    @pytest.mark.parametrize("field", [QQ, GF(2)], ids=["Q", "F2"])
    def test_half_the_substitutions_evaluated(self, field, monkeypatch):
        # one identity term g*h evaluates its right factor h once per
        # substitution: count those calls with and without the plan
        v, mu = builtin_variety("novikov"), (1,) * 4
        space = variety_module._product_space(v, field, 4, mu)
        evaluate, calls = variety_module.evaluate, []

        def counted(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(variety_module, "evaluate", counted)
        relation_rows(v, field, mu, space)
        planned = len(calls)
        calls.clear()
        monkeypatch.setattr(Identity, "representatives", every_tuple)
        relation_rows(v, field, mu, space)
        assert 2 * planned == len(calls)


class TestNormalForm:
    def test_defining_identity_reduces_to_zero(self):
        v = builtin_variety("novikov")
        comp = component_basis(v, QQ, 3, (1, 1, 1))
        for ident in v.identities:
            assert not comp.normal_form(ident.template(QQ))

    def test_substituted_consequence_reduces_to_zero(self):
        # left symmetry instantiated at x -> x1*x1 lands in multidegree (3,1)
        v = builtin_variety("assosymmetric")
        comp = component_basis(v, QQ, 2, (3, 1))
        template = builtin("leftsym").template(QQ)
        image = substitute(
            template, {0: node(leaf(0), leaf(0)), 1: leaf(0), 2: leaf(1)}
        )
        assert not comp.normal_form(image)

    def test_normal_form_is_projection(self):
        v = builtin_variety("novikov")
        comp = component_basis(v, QQ, 2, (2, 1))
        for m in enumerate_monomials(2, (2, 1)):
            coords = comp.normal_form(P(QQ, m))
            again = comp.normal_form(comp.coords_to_polynomial(coords))
            assert again == coords

    def test_normal_form_linear(self):
        v = builtin_variety("bicommutative")
        comp = component_basis(v, QQ, 2, (2, 1))
        ms = enumerate_monomials(2, (2, 1))
        p, q = P(QQ, ms[0]), P(QQ, ms[3])
        lhs = comp.normal_form(p.add(q.scaled(2)))
        rhs_d = dict(comp.normal_form(p))
        for j, c in comp.normal_form(q):
            rhs_d[j] = rhs_d.get(j, 0) + c * 2
        assert dict(lhs) == {j: c for j, c in rhs_d.items() if c}

    def test_integral_products_are_ints(self):
        # the fast path over Q: an integral scalar is a plain int, never a
        # Fraction; the custom variety has non-integral normal forms too
        custom = custom_variety(["2*x*(y*z) + 3*(y*x)*z - (z*y)*x"], name="frac")
        seen = set()
        for v in (builtin_variety("novikov"), builtin_variety("assosymmetric"), custom):
            for mu in ((1, 1, 1), (1, 1, 1, 1)):
                comp = component_basis(v, QQ, len(mu), mu)
                for vec in comp.products.values():
                    for _, c in vec:
                        want = int if Fraction(c).denominator == 1 else Fraction
                        assert type(c) is want
                        seen.add(want)
        assert seen == {int, Fraction}

    def test_identity_killing_the_generators(self):
        # 2*x = 0 over Q kills every generator, so every class is zero: the
        # evaluator's leaves are the empty degree-1 classes
        v = custom_variety(["2*x"], name="null")
        for mu in ((1, 0), (1, 1), (2, 1), (1, 1, 1)):
            comp = component_basis(v, QQ, len(mu), mu)
            assert comp.quotient_dim == 0
            for m in enumerate_monomials(len(mu), mu):
                assert not comp.normal_form(P(QQ, m))
        for source in ("x*y - y*x", "x*x"):
            r = verify_identity(v, QQ, Identity("t", source))
            assert r["verdict"] == "holds" and r["witness"] is None

    def test_wrong_multidegree_rejected(self):
        comp = component_basis(builtin_variety("novikov"), QQ, 2, (2, 1))
        with pytest.raises(InputError):
            comp.normal_form(P(QQ, node(leaf(0), leaf(1))))

    def test_relation_rows_multidegree_guard(self):
        with pytest.raises(InputError):
            variety_module._product_space(builtin_variety("novikov"), QQ, 2, (0, 0))


@st.composite
def normal_form_cases(draw):
    """A small component over Q or F5, two polynomials in it, two scalars
    and a quotient coordinate vector."""
    field = draw(st.sampled_from((QQ, GF(5))))
    name = draw(st.sampled_from(("novikov", "assosymmetric", "bicommutative", "associative")))
    mu = draw(st.sampled_from(((2, 1), (1, 1, 1), (2, 2))))
    comp = component_basis(builtin_variety(name), field, len(mu), mu)
    if field.char:
        scalar = st.integers(0, field.char - 1)
    else:
        scalar = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    monos = enumerate_monomials(len(mu), mu)

    def poly():
        terms = draw(st.dictionaries(st.sampled_from(monos), scalar, max_size=6))
        return Polynomial(field, terms)

    coords = draw(st.dictionaries(st.integers(0, comp.quotient_dim - 1), scalar, max_size=4))
    return comp, poly(), poly(), draw(scalar), draw(scalar), coords


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(normal_form_cases())
def test_normal_form_is_linear_projection(case):
    comp, p, q, a, b, coords = case
    char = comp.field.char

    nf_p, nf_q = dict(comp.normal_form(p)), dict(comp.normal_form(q))
    combo = {j: a * nf_p.get(j, 0) + b * nf_q.get(j, 0) for j in set(nf_p) | set(nf_q)}
    got = comp.normal_form(p.scaled(a).add(q.scaled(b)))
    assert got == vector(char, combo)
    for v in (comp.normal_form(p), vector(char, coords)):
        assert comp.normal_form(comp.coords_to_polynomial(v)) == v


@st.composite
def relabelled_multidegrees(draw):
    """A variety, Q or F5, a multidegree over three generators of total
    degree at most 5, and the same multidegree with its generators
    permuted."""
    variety = draw(st.sampled_from(PERMUTATION_VARIETIES))
    field = draw(st.sampled_from((QQ, GF(5))))
    mu = draw(st.sampled_from(multidegrees((5, 5, 5), 5)))
    sigma = draw(st.permutations(range(3)))
    return variety, field, mu, tuple(mu[i] for i in sigma)


PERMUTATION_VARIETIES = tuple(builtin_variety(n) for n in variety_names()) + (
    custom_variety(["2*x*(y*z) + 3*(y*x)*z - (z*y)*x"], name="frac"),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(relabelled_multidegrees())
def test_dimension_invariant_under_generator_permutation(case):
    # the defining identities are multilinear, so renaming generators is an
    # isomorphism A_mu -> A_sigma(mu); the canonical order of monomials is
    # not invariant under it, so the two builds eliminate different rows
    variety, field, mu, nu = case
    a = component_basis(variety, field, 3, mu)
    b = component_basis(variety, field, 3, nu)
    assert a.quotient_dim == b.quotient_dim


class TestVerifyIdentity:
    def test_defining_identities_hold(self):
        for name in ("novikov", "bicommutative", "assosymmetric", "associative"):
            v = builtin_variety(name)
            for ident in v.identities:
                assert verify_identity(v, QQ, ident)["verdict"] == "holds"

    def test_jacobi_holds_everywhere_lie_admissible(self):
        jac = builtin("jacobi")
        for name in ("novikov", "bicommutative", "assosymmetric", "associative"):
            r = verify_identity(builtin_variety(name), QQ, jac)
            assert r["verdict"] == "holds" and r["multilinear"]

    def test_failure_has_reusable_witness(self):
        r = verify_identity(builtin_variety("novikov"), QQ, builtin("assoc"))
        assert r["verdict"] == "fails"
        assert r["witness"] is not None
        assert r["witness"]["multidegree"] == "(1,1,1)"
        assert r["witness"]["residual"] != "0"

    def test_leftcom_fails_in_novikov(self):
        r = verify_identity(builtin_variety("novikov"), QQ, builtin("leftcom"))
        assert r["verdict"] == "fails"

    def test_field_changes_the_answer(self):
        # the char-2 consequence only collapses in characteristic 2
        ident = builtin("eq312")
        v = builtin_variety("assosymmetric")
        assert verify_identity(v, GF(2), ident)["verdict"] == "holds"
        assert verify_identity(v, QQ, ident)["verdict"] == "fails"

    def test_non_multilinear_path(self):
        # power associativity at one variable is a consequence of assoc but
        # is not multilinear, so it exercises the substitution search
        v = builtin_variety("associative")
        sq = Identity("powassoc", "x*x*x - x*(x*x)")
        r = verify_identity(v, QQ, sq, cap=2)
        assert not r["multilinear"]
        assert r["verdict"] == "holds"

    def test_non_multilinear_failure_witness(self):
        v = builtin_variety("magma")
        sq = Identity("sq", "x*x*x - x*(x*x)")
        r = verify_identity(v, QQ, sq, cap=3)
        assert r["verdict"] == "fails"
        assert r["witness"]["assignment"] == {"x": "x1"}

    def test_cap_below_one_refused(self):
        v = builtin_variety("novikov")
        sq = Identity("sq", "x*x")
        assert verify_identity(v, QQ, sq, cap=1)["verdict"] == "fails"
        for cap in (0, -1):
            with pytest.raises(InputError):
                verify_identity(v, QQ, sq, cap=cap)

    def test_zero_template_trivially_holds(self):
        r = verify_identity(builtin_variety("magma"), QQ, builtin("teichmuller"))
        assert r["verdict"] == "holds"

    def test_document_shape(self):
        doc = verify_identity(builtin_variety("novikov"), QQ, builtin("jacobi"))
        assert doc == {
            "identity": "jacobi",
            "variety": "novikov",
            "field": "Q",
            "multilinear": True,
            "verdict": "holds",
            "witness": None,
        }


# identities that are not multilinear, in one and two variables
SCAN_SOURCES = (
    "x*x",
    "(x*x)*x - x*(x*x)",
    "2*((x*x)*x)",
    "(x*x)*y - (x*y)*x",
    "(x*x)*y - x*(x*y)",
    "(y*x)*x - y*(x*x)",
    "(x*y)*x - x*(y*x)",
    "(x*y)*y + (y*x)*x",
)


def full_scan(variety, field, identity, cap):
    """The verify document of the substitution search run over every tuple
    of the pool, with no stop: the first tuple, in canonical order, that
    leaves a residual in some homogeneous piece gives the witness."""
    nvars = len(identity.variables)
    template = identity.template(field)
    pool = [m for mu in multidegrees((cap,) * nvars, cap) for m in enumerate_monomials(nvars, mu)]
    pool.sort(key=lambda m: m.sort_key(nvars))
    doc = {
        "identity": identity.name,
        "variety": variety.name,
        "field": field.name,
        "multilinear": identity.multilinear(field),
    }
    for ts in itertools.product(pool, repeat=nvars):
        pieces = {}
        for mono, c in substitute(template, dict(enumerate(ts))).terms.items():
            pieces.setdefault(multidegree(mono, nvars), {})[mono] = c
        for mu in sorted(pieces, key=lambda t: (sum(t), t)):
            comp = component_basis(variety, field, nvars, mu)
            residual = comp.normal_form(Polynomial(field, pieces[mu]))
            if residual:
                names = identity.variables
                witness = {
                    "assignment": {
                        name: render_polynomial(P(field, ts[i]), key_gens=nvars)
                        for i, name in enumerate(names)
                    },
                    "multidegree": format_multidegree(mu),
                    "residual": comp.render_coords(residual),
                }
                return {**doc, "verdict": "fails", "witness": witness}
    return {**doc, "verdict": "holds", "witness": None}


class TestSubstitutionStop:
    """A non-multilinear identity's scan stops after the tuple of its own
    variables: every later tuple is that tuple's image under an
    endomorphism, which keeps the relation ideal."""

    @pytest.mark.parametrize(
        "source, cap, count",
        [("(x*x)*y - (x*y)*x", 3, 23), ("((x*x)*y)*z - ((x*x)*z)*y", 2, 301)],
        ids=["two-vars-cap3", "three-vars-cap2"],
    )
    def test_holding_identity_stops_at_its_own_variables(self, monkeypatch, source, cap, count):
        # the full pools have 22^2 = 484 and 12^3 = 1728 tuples
        calls = []

        def counted(template, assignment):
            calls.append(assignment)
            return substitute(template, assignment)

        monkeypatch.setattr(variety_module, "substitute", counted)
        doc = verify_identity(builtin_variety("novikov"), QQ, Identity("t", source), cap=cap)
        assert doc["verdict"] == "holds"
        nvars = len(calls[-1])
        assert len(calls) == count and calls[-1] == {i: leaf(i) for i in range(nvars)}

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
    @pytest.mark.parametrize("name", variety_names())
    def test_same_verdict_and_witness_as_a_full_scan(self, name, field):
        v = builtin_variety(name)
        for source in SCAN_SOURCES:
            ident = Identity("t", source)
            for cap in (1, 2):
                got = verify_identity(v, field, ident, cap=cap)
                assert got == full_scan(v, field, ident, cap), (source, cap)


class TestSubstitutionGuard:
    @pytest.mark.parametrize(
        "source,cap,count",
        [("x*x", 15, 23714), ("x*x", 1000, 23714), ("x*y*z*x", 9, 66**3)],
        ids=["x*x-cap15", "x*x-cap1000", "xyzx-cap9"],
    )
    def test_refused_before_any_monomial_is_enumerated(self, monkeypatch, source, cap, count):
        def enumerated(*args):
            raise AssertionError("pool enumerated before the guard")

        monkeypatch.setattr(variety_module, "multidegrees", enumerated)
        monkeypatch.setattr(variety_module, "enumerate_monomials", enumerated)
        with pytest.raises(ResourceError) as exc:
            verify_identity(builtin_variety("novikov"), QQ, Identity("t", source), cap=cap)
        assert str(exc.value) == (
            f"substitution search needs at least {count} tuples, "
            f"over the guard of {variety_module.MAX_SUBSTITUTIONS}; lower the cap"
        )

    @pytest.mark.parametrize("source", ["x*x", "x*x*y", "x*x*y*z"])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_count_is_the_pool_size(self, monkeypatch, source, cap):
        # with the guard one below the search, the count runs to the cap
        # and names exactly the tuples of the enumerated pool
        nvars = len(Identity("t", source).variables)
        pool = sum(
            len(enumerate_monomials(nvars, mu)) for mu in multidegrees((cap,) * nvars, cap)
        )
        monkeypatch.setattr(variety_module, "MAX_SUBSTITUTIONS", pool**nvars - 1)
        with pytest.raises(ResourceError, match=f"needs {pool ** nvars} tuples"):
            verify_identity(builtin_variety("novikov"), QQ, Identity("t", source), cap=cap)


class TestCaches:
    def test_clear_caches(self):
        v = builtin_variety("novikov")
        a = component_basis(v, QQ, 2, (1, 1))
        clear_caches()
        b = component_basis(v, QQ, 2, (1, 1))
        assert a is not b
        assert a.quotient_dim == b.quotient_dim

    def test_clear_caches_drops_monomial_table(self):
        enumerate_monomials(2, (2, 1))
        assert enumerate_monomials.cache_info().currsize > 0
        clear_caches()
        assert enumerate_monomials.cache_info().currsize == 0

    def test_lower_components_are_shared(self):
        v = builtin_variety("assosymmetric")
        top = component_basis(v, QQ, 2, (2, 1))
        assert top.lower[(1, 1)] is component_basis(v, QQ, 2, (1, 1))
