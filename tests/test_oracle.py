"""Engine versus brute-force oracle on relation ranks and zero testing."""

import random

import pytest

from lieadm.linalg import QQ, rref
from lieadm.terms import Polynomial, enumerate_monomials
from lieadm.variety import builtin_variety, component_basis

from naive_oracle import (
    convert_monomial,
    naive_is_zero,
    naive_monomials,
    naive_reducer,
    naive_relation_polys,
    naive_relation_rank,
)

VARIETIES = ("associative", "assosymmetric", "bicommutative", "magma", "novikov")


def sources_of(name):
    return [i.name for i in builtin_variety(name).identities]


class TestRankAgreement:
    @pytest.mark.parametrize("name", VARIETIES)
    @pytest.mark.parametrize("mu", [(1, 1, 1), (2, 1), (2, 2), (1, 1, 1, 1)])
    def test_relation_rank_matches(self, name, mu):
        k = len(mu)
        rank, count = naive_relation_rank(sources_of(name), k, mu)
        comp = component_basis(builtin_variety(name), QQ, k, mu)
        assert count == len(comp.monomials)
        assert rank == comp.relations.rank


class TestRelationBasisAgreement:
    @pytest.mark.parametrize("name", VARIETIES)
    @pytest.mark.parametrize("mu", [(2, 1), (2, 2), (1, 1, 1), (1, 1, 1, 1)])
    def test_derived_relations_match_oracle_span(self, name, mu):
        # the engine builds components from products of lower normal forms;
        # its relation view over free magma monomials must be the reduced
        # basis of the span the oracle gets by closing identity instances
        # under one-sided multiplications
        k = len(mu)
        comp = component_basis(builtin_variety(name), QQ, k, mu)
        index = {convert_monomial(m): i for i, m in enumerate(comp.monomials)}
        rows = [
            {index[t]: c for t, c in poly.items()}
            for poly in naive_relation_polys(sources_of(name), k, mu)
        ]
        assert comp.relations == rref(QQ, len(comp.monomials), rows)


class TestMonomialCountAgreement:
    @pytest.mark.parametrize("mu", [(3,), (2, 1), (2, 2), (1, 1, 1, 1)])
    def test_independent_enumerations_agree(self, mu):
        k = len(mu)
        naive = naive_monomials(mu)
        assert len(naive) == len(set(naive))
        assert len(naive) == len(enumerate_monomials(k, mu))


class TestZeroTestAgreement:
    def random_poly(self, rng, comp):
        p = Polynomial.zero(QQ)
        for m in rng.sample(comp.monomials, min(4, len(comp.monomials))):
            c = rng.choice((-2, -1, 1, 2, 3))
            p = p.add(Polynomial.of(QQ, m, QQ.from_int(c)))
        return p

    @pytest.mark.parametrize("name", VARIETIES)
    def test_membership_agreement(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        v = builtin_variety(name)
        srcs = sources_of(name)
        for mu in ((2, 1), (2, 2)):
            comp = component_basis(v, QQ, 2, mu)
            oracle = naive_reducer(srcs, 2, mu)
            for _ in range(5):
                p = self.random_poly(rng, comp)
                engine_zero = not comp.normal_form(p)
                assert naive_is_zero(oracle, p) == engine_zero
            # a known consequence: any relation row must be zero both ways
            for row in comp.relations.rows[:3]:
                p = Polynomial(QQ, {comp.monomials[j]: c for j, c in row.entries})
                assert not comp.normal_form(p)
                assert naive_is_zero(oracle, p)
