"""Relatively free algebra components: relation spans, normal forms, verify."""

import math

import pytest

from lieadm.errors import InputError, ResourceError, UnsupportedVarietyError
from lieadm.exprs import Identity, builtin
from lieadm.linalg import GF, QQ
from lieadm.terms import Polynomial, enumerate_monomials, expected_count, leaf, multiply, node, substitute
from lieadm.variety import (
    builtin_variety,
    clear_caches,
    component_basis,
    custom_variety,
    relation_rows,
    variety_names,
    verify_identity,
)


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
        assert comp.quotient_dim == expected_count((1, 1, 1)) == 12
        assert not comp.relations.rank

    def test_rank_plus_quotient_is_monomial_count(self):
        for name in variety_names():
            comp = component_basis(builtin_variety(name), QQ, 2, (2, 1))
            assert comp.relations.rank + comp.quotient_dim == expected_count((2, 1))

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

    def test_monomial_guard(self):
        with pytest.raises(ResourceError):
            component_basis(builtin_variety("magma"), QQ, 4, (2, 2, 2, 2), max_monomials=100)

    def test_guard_counts_product_space_columns(self):
        # the free magma component (1,1,1) has 12 columns: a generator times
        # one of the two products of the other two, on either side. A cached
        # component was paid for already and skips the guard.
        clear_caches()
        with pytest.raises(ResourceError) as err:
            component_basis(builtin_variety("magma"), QQ, 3, (1, 1, 1), max_monomials=11)
        assert "(1,1,1)" in str(err.value)
        assert "12 product-space columns" in str(err.value)
        assert "guard of 11" in str(err.value)

    def test_guard_checks_lower_components(self):
        # (2,2) itself has 30 columns, but its part (1,2) already has 6
        clear_caches()
        with pytest.raises(ResourceError, match=r"\(1,2\) has 6 product-space columns"):
            component_basis(builtin_variety("magma"), QQ, 2, (2, 2), max_monomials=5)

    def test_guard_ignores_free_magma_size(self):
        # 1680 free magma monomials, but only 380 product-space columns
        clear_caches()
        v = builtin_variety("bicommutative")
        comp = component_basis(v, QQ, 5, (1,) * 5, max_monomials=400)
        assert comp.column_count == 380
        assert expected_count((1,) * 5) == 1680


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


class TestDerivedViews:
    @pytest.mark.parametrize("name", ["novikov", "assosymmetric", "magma"])
    def test_relations_are_monomial_minus_normal_form(self, name):
        comp = component_basis(builtin_variety(name), GF(5), 2, (2, 1))
        normal = set(comp.quotient_monomials)
        assert comp.relations.rank + comp.quotient_dim == len(comp.monomials)
        for pivot, row in zip(comp.relations.pivots, comp.relations.rows):
            m = comp.monomials[pivot]
            assert m not in normal
            assert comp.index[m] == pivot
            relation = Polynomial(GF(5), {comp.monomials[j]: c for j, c in row.entries})
            assert not comp.normal_form(relation)

    def test_rows_are_product_space_rows(self):
        v = builtin_variety("novikov")
        comp = component_basis(v, QQ, 3, (1, 1, 1))
        rows = relation_rows(v, QQ, 3, (1, 1, 1))
        assert rows and all(j < comp.column_count for row in rows for j in row)
        assert all(row[min(row)] == 1 for row in rows)


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
        lhs = comp.normal_form(p.add(q.scaled(QQ.from_int(2))))
        rhs_d = dict(comp.normal_form(p).entries)
        for j, c in comp.normal_form(q).entries:
            rhs_d[j] = rhs_d.get(j, QQ.zero) + c * 2
        assert dict(lhs.entries) == {j: c for j, c in rhs_d.items() if c}

    def test_wrong_multidegree_rejected(self):
        comp = component_basis(builtin_variety("novikov"), QQ, 2, (2, 1))
        with pytest.raises(InputError):
            comp.normal_form(P(QQ, node(leaf(0), leaf(1))))

    def test_relation_rows_multidegree_guard(self):
        with pytest.raises(InputError):
            relation_rows(builtin_variety("novikov"), QQ, 2, (0, 0))


class TestVerifyIdentity:
    def test_defining_identities_hold(self):
        for name in ("novikov", "bicommutative", "assosymmetric", "associative"):
            v = builtin_variety(name)
            for ident in v.identities:
                assert verify_identity(v, QQ, ident).holds

    def test_jacobi_holds_everywhere_lie_admissible(self):
        jac = builtin("jacobi")
        for name in ("novikov", "bicommutative", "assosymmetric", "associative"):
            r = verify_identity(builtin_variety(name), QQ, jac)
            assert r.holds and r.multilinear

    def test_failure_has_reusable_witness(self):
        r = verify_identity(builtin_variety("novikov"), QQ, builtin("assoc"))
        assert not r.holds
        assert r.witness is not None
        assert r.witness["multidegree"] == "(1,1,1)"
        assert r.witness["residual"] != "0"

    def test_leftcom_fails_in_novikov(self):
        assert not verify_identity(builtin_variety("novikov"), QQ, builtin("leftcom")).holds

    def test_field_changes_the_answer(self):
        # the char-2 consequence only collapses in characteristic 2
        ident = builtin("eq312")
        v = builtin_variety("assosymmetric")
        assert verify_identity(v, GF(2), ident).holds
        assert not verify_identity(v, QQ, ident).holds

    def test_non_multilinear_path(self):
        # power associativity at one variable is a consequence of assoc but
        # is not multilinear, so it exercises the substitution search
        v = builtin_variety("associative")
        sq = Identity("powassoc", "x*x*x - x*(x*x)")
        r = verify_identity(v, QQ, sq, cap=2)
        assert not r.multilinear
        assert r.holds

    def test_non_multilinear_failure_witness(self):
        v = builtin_variety("magma")
        sq = Identity("sq", "x*x*x - x*(x*x)")
        r = verify_identity(v, QQ, sq, cap=3)
        assert not r.holds
        assert r.witness["assignment"] == {"x": "x1"}

    def test_cap_below_one_refused(self):
        v = builtin_variety("novikov")
        sq = Identity("sq", "x*x")
        assert not verify_identity(v, QQ, sq, cap=1).holds
        for cap in (0, -1):
            with pytest.raises(InputError):
                verify_identity(v, QQ, sq, cap=cap)

    def test_zero_template_trivially_holds(self):
        r = verify_identity(builtin_variety("magma"), QQ, builtin("teichmuller"))
        assert r.holds

    def test_to_doc_shape(self):
        doc = verify_identity(builtin_variety("novikov"), QQ, builtin("jacobi")).to_doc()
        assert doc == {
            "identity": "jacobi",
            "variety": "novikov",
            "field": "Q",
            "multilinear": True,
            "verdict": "holds",
            "witness": None,
        }


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
