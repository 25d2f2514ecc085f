"""Planar monomials, multidegrees, graded polynomials, substitution."""

import itertools
import math
import time

import pytest

from lieadm import terms
from lieadm.errors import InputError, ResourceError
from lieadm.linalg import GF, QQ
from lieadm.terms import (
    Polynomial,
    associator,
    commutator,
    enumerate_monomials,
    format_multidegree,
    jordan,
    leaf,
    mdeg_add,
    mdeg_sub,
    mdeg_total,
    multidegree,
    multidegrees,
    multiply,
    node,
    render_monomial,
    render_polynomial,
    slice_multidegrees,
    substitute,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def multinomial(mu):
    n = sum(mu)
    out = math.factorial(n)
    for c in mu:
        out //= math.factorial(c)
    return out


class TestMonomialEnumeration:
    @pytest.mark.parametrize(
        "k,mu",
        [
            (1, (1,)),
            (1, (3,)),
            (2, (1, 1)),
            (2, (2, 1)),
            (3, (1, 1, 1)),
            (4, (1, 1, 1, 1)),
            (2, (3, 2)),
        ],
    )
    def test_count_is_catalan_times_multinomial(self, k, mu):
        n = sum(mu)
        want = catalan(n - 1) * multinomial(mu)
        assert len(enumerate_monomials(k, mu)) == want

    def test_enumeration_matches_sort_order(self):
        ms = enumerate_monomials(2, (2, 1))
        assert list(ms) == sorted(ms, key=lambda m: m.sort_key(2))

    def test_order_is_total(self):
        ms = enumerate_monomials(2, (2, 1))
        keys = [m.sort_key(2) for m in ms]
        assert len(set(keys)) == len(keys)

    def test_degree_three_shape(self):
        ms = enumerate_monomials(2, (2, 1))
        assert [render_monomial(m) for m in ms] == [
            "((x1*x1)*x2)",
            "((x1*x2)*x1)",
            "((x2*x1)*x1)",
            "(x1*(x1*x2))",
            "(x1*(x2*x1))",
            "(x2*(x1*x1))",
        ]

    def test_multidegree_of_monomials(self):
        for m in enumerate_monomials(3, (1, 0, 2)):
            assert multidegree(m, 3) == (1, 0, 2)

    def test_zero_degree_rejected(self):
        with pytest.raises(InputError):
            enumerate_monomials(2, (0, 0))


class TestMultidegreeHelpers:
    def test_arithmetic(self):
        assert mdeg_add((1, 2), (0, 1)) == (1, 3)
        assert mdeg_sub((2, 2), (1, 0)) == (1, 2)
        assert mdeg_total((2, 3)) == 5

    def test_sub_refuses_negative(self):
        with pytest.raises(InputError):
            mdeg_sub((1, 0), (0, 1))

    def test_all_multidegrees_up_to_a_cap(self):
        # by total degree, then lexicographically
        assert multidegrees((2, 2), 2) == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert len(multidegrees((3,) * 3, 3)) == 3 + 6 + 10

    def test_same_as_filtering_every_tuple_under_the_bound(self):
        for bound in [(), (0,), (3,), (2, 3), (3, 0, 2), (2, 2, 2, 2)]:
            for top in [None, -1, 0, 1, 2, 3, 5, 10]:
                cut = sum(bound) if top is None else top
                brute = [
                    nu
                    for nu in itertools.product(*(range(c + 1) for c in bound))
                    if 0 < sum(nu) <= cut
                ]
                brute.sort(key=lambda nu: (sum(nu), nu))
                assert multidegrees(bound, top) == brute, (bound, top)

    def test_enumerates_only_within_the_total(self):
        # 24309 of the 10^8 tuples under the bound; filtering them all took 30 s
        t0 = time.perf_counter()
        assert len(multidegrees((9,) * 8, 9)) == math.comb(17, 8) - 1
        assert time.perf_counter() - t0 < 2

    def test_slice_listing_guarded_by_its_entries(self, monkeypatch):
        # k=2 D=3 lists C(5, 3) - 1 = 9 multidegrees of 2 entries each
        assert slice_multidegrees(2, 3) == multidegrees((3, 3), 3)
        monkeypatch.setattr(terms, "MAX_SLICE_ENTRIES", 18)
        assert len(slice_multidegrees(2, 3)) == 9
        monkeypatch.setattr(terms, "MAX_SLICE_ENTRIES", 17)
        with pytest.raises(ResourceError, match="degree 3 have 18 entries, over the guard of 17"):
            slice_multidegrees(2, 3)

    def test_slice_listing_refused_without_a_huge_binomial(self):
        # k * max(k, D) entries at least: no binomial of 10^12 is taken
        t0 = time.perf_counter()
        with pytest.raises(ResourceError, match="have at least 10{24} entries"):
            slice_multidegrees(10**12, 10**12)
        assert time.perf_counter() - t0 < 0.5

    def test_parts_of_a_multidegree(self):
        assert multidegrees((1, 1)) == [(0, 1), (1, 0), (1, 1)]
        assert multidegrees((2, 1), 2) == [(0, 1), (1, 0), (1, 1), (2, 0)]
        assert multidegrees((0, 0)) == []

    def test_format(self):
        assert format_multidegree((2, 1)) == "(2,1)"
        assert format_multidegree((3,)) == "(3)"


class TestPolynomialArithmetic:
    def test_add_cancels(self):
        m = leaf(0)
        p = Polynomial.of(QQ, m)
        q = p.scaled(-1)
        assert not p.add(q)

    def test_multiply_degrees_add(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        xy = multiply(x, y)
        (m,) = xy.terms
        assert multidegree(m, 2) == (1, 1)

    def test_commutator_antisymmetric(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        assert not commutator(x, y).add(commutator(y, x))
        assert not commutator(x, x)

    def test_jordan_symmetric(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        assert jordan(x, y) == jordan(y, x)

    def test_associator_expansion(self):
        x, y, z = (Polynomial.of(QQ, leaf(g)) for g in range(3))
        a = associator(x, y, z)
        want = multiply(multiply(x, y), z).sub(multiply(x, multiply(y, z)))
        assert a == want

    def test_mixed_fields_rejected(self):
        p = Polynomial.of(QQ, leaf(0))
        q = Polynomial.of(GF(5), leaf(0))
        with pytest.raises(InputError):
            p.add(q)

    def test_coefficients_mod_p(self):
        p = Polynomial.of(GF(3), leaf(0))
        assert not p.add(p).add(p)


class TestSubstitution:
    def test_multidegree_composes(self):
        template = Polynomial.of(QQ, node(leaf(0), leaf(1)))
        image = substitute(template, {0: node(leaf(0), leaf(0)), 1: leaf(1)})
        (m,) = image.terms
        assert multidegree(m, 2) == (2, 1)

    def test_missing_variable_rejected(self):
        template = Polynomial.of(QQ, node(leaf(0), leaf(1)))
        with pytest.raises(InputError):
            substitute(template, {0: leaf(0)})

    def test_substitution_is_homomorphic(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        template = commutator(x, y)
        a, b = node(leaf(0), leaf(1)), leaf(0)
        image = substitute(template, {0: a, 1: b})
        pa, pb = Polynomial.of(QQ, a), Polynomial.of(QQ, b)
        assert image == commutator(pa, pb)


class TestRendering:
    def test_monomial_round_trip_shape(self):
        m = node(node(leaf(0), leaf(1)), leaf(0))
        assert render_monomial(m) == "((x1*x2)*x1)"

    def test_polynomial_rendering(self):
        x, y = Polynomial.of(QQ, leaf(0)), Polynomial.of(QQ, leaf(1))
        c = commutator(x, y)
        assert render_polynomial(c, key_gens=2) == "(x1*x2) - (x2*x1)"
        assert render_polynomial(Polynomial(QQ)) == "0"

    def test_scalar_coefficients_shown(self):
        x = Polynomial.of(QQ, leaf(0)).scaled(-3)
        assert render_polynomial(x, key_gens=1) == "-3*x1"
