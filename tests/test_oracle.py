"""Engine versus brute-force oracle on relation ranks and zero testing."""

import random

import pytest

from lieadm.linalg import QQ
from lieadm.terms import Polynomial, enumerate_monomials
from lieadm.variety import builtin_variety, component_basis

from naive_oracle import (
    DenseReducer,
    convert_monomial,
    naive_is_zero,
    naive_monomials,
    naive_reducer,
    naive_relation_rank,
    normal_form,
    relation_element,
)

VARIETIES = ("associative", "assosymmetric", "bicommutative", "magma", "novikov")


def sources_of(name):
    return [i.name for i in builtin_variety(name).identities]


class TestRankAgreement:
    @pytest.mark.parametrize("name", VARIETIES)
    @pytest.mark.parametrize("mu", [(1, 1, 1), (2, 1), (2, 2), (1, 1, 1, 1)])
    def test_relation_rank_matches(self, name, mu):
        # every free magma monomial is normal or leads one relation
        k = len(mu)
        rank, count = naive_relation_rank(sources_of(name), k, mu)
        comp = component_basis(builtin_variety(name), QQ, k, mu)
        assert count == len(enumerate_monomials(k, mu))
        assert rank == count - comp.quotient_dim


class TestRelationBasisAgreement:
    @pytest.mark.parametrize("name", VARIETIES)
    @pytest.mark.parametrize("mu", [(2, 1), (2, 2), (1, 1, 1), (1, 1, 1, 1)])
    def test_derived_relations_match_oracle_span(self, name, mu):
        # the engine builds components from products of lower normal forms,
        # the oracle closes identity instances under one-sided
        # multiplications. The free columns of the oracle's span are the
        # engine's normal monomials, and every m - nf(m) lies in that span:
        # so the m - nf(m) of the other monomials are its reduced basis.
        k = len(mu)
        comp = component_basis(builtin_variety(name), QQ, k, mu)
        monos = enumerate_monomials(k, mu)
        oracle = naive_reducer(sources_of(name), k, mu)
        # the oracle's rows span its relation space; eliminate them again,
        # in the engine's canonical column order, with the oracle's own
        # reducer: its leading columns are the pivots of the reduced basis
        reducer, naive_index = oracle
        column = [naive_index[convert_monomial(m)] for m in monos]
        again = DenseReducer(len(monos))
        for _, row in reducer.rows:
            again.insert([row[j] for j in column])
        pivots = {j for j, _ in again.rows}
        free = [i for i in range(len(monos)) if i not in pivots]
        assert free == [monos.index(m) for m in comp.quotient_monomials]
        assert all(naive_is_zero(oracle, relation_element(comp, m)) for m in monos)


class TestMonomialCountAgreement:
    @pytest.mark.parametrize("mu", [(3,), (2, 1), (2, 2), (1, 1, 1, 1)])
    def test_independent_enumerations_agree(self, mu):
        k = len(mu)
        naive = naive_monomials(mu)
        assert len(naive) == len(set(naive))
        assert len(naive) == len(enumerate_monomials(k, mu))


class TestZeroTestAgreement:
    def random_poly(self, rng, monos):
        p = Polynomial(QQ)
        for m in rng.sample(monos, min(4, len(monos))):
            p = p.add(Polynomial.of(QQ, m, rng.choice((-2, -1, 1, 2, 3))))
        return p

    @pytest.mark.parametrize("name", VARIETIES)
    def test_membership_agreement(self, name):
        rng = random.Random(f"zero-test/{name}")
        v = builtin_variety(name)
        srcs = sources_of(name)
        for mu in ((2, 1), (2, 2)):
            comp = component_basis(v, QQ, 2, mu)
            monos = enumerate_monomials(2, mu)
            oracle = naive_reducer(srcs, 2, mu)
            for _ in range(5):
                p = self.random_poly(rng, monos)
                engine_zero = not normal_form(comp, p)
                assert naive_is_zero(oracle, p) == engine_zero
            # a known consequence: m - nf(m) for a monomial m that is not
            # normal must be zero both ways
            normal = set(comp.quotient_monomials)
            for m in [m for m in monos if m not in normal][:3]:
                p = relation_element(comp, m)
                assert p and not normal_form(comp, p)
                assert naive_is_zero(oracle, p)
