"""Exact linear algebra: canonical echelon form, membership, field ops."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieadm.errors import FieldError, InputError
from lieadm.linalg import (
    GF,
    QQ,
    EchelonBasis,
    SparseVector,
    field_of_char,
    identity_basis,
    member,
    rref,
    sum_bases,
    zero_basis,
)


def frac_rows(rows):
    return [{j: Fraction(v) for j, v in r.items()} for r in rows]


def dense_rref(p, n, rows):
    """Gauss-Jordan elimination on a dense matrix over Q (p = 0) or F_p,
    sharing no code with lieadm.linalg; the nonzero rows, as sorted
    (column, value) pairs with monic pivots."""
    norm = (lambda x: x % p) if p else Fraction
    m = [[norm(r.get(j, 0)) for j in range(n)] for r in rows]
    rank = 0
    for col in range(n):
        i = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[rank], m[i] = m[i], m[rank]
        inv = pow(m[rank][col], -1, p) if p else 1 / m[rank][col]
        m[rank] = [norm(x * inv) for x in m[rank]]
        for k in range(len(m)):
            c = m[k][col]
            if k != rank and c:
                m[k] = [norm(x - c * y) for x, y in zip(m[k], m[rank])]
        rank += 1
    return [tuple((j, x) for j, x in enumerate(row) if x) for row in m[:rank]]


class TestField:
    def test_constants_are_shared(self):
        assert QQ.one is QQ.one and QQ.zero is QQ.zero
        assert QQ.one == Fraction(1) and isinstance(QQ.one, Fraction)
        assert GF(5).one == 1 and GF(5).zero == 0

    def test_char_must_be_prime_or_zero(self):
        with pytest.raises(FieldError):
            field_of_char(4)
        with pytest.raises(FieldError):
            field_of_char(-3)
        assert field_of_char(0) is QQ
        assert field_of_char(7) is GF(7)

    def test_gf_is_cached(self):
        assert GF(5) is GF(5)

    def test_modular_inverse(self):
        f = GF(7)
        for a in range(1, 7):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(FieldError):
            f.inv(0)
        with pytest.raises(FieldError):
            QQ.inv(Fraction(0))

    def test_from_fraction_rejects_bad_denominator(self):
        f = GF(5)
        assert f.from_fraction(Fraction(1, 2)) == 3
        with pytest.raises(FieldError):
            f.from_fraction(Fraction(1, 5))

    def test_parse_render_round_trip(self):
        for f in (QQ, GF(5)):
            for text in ("0", "1", "-2", "3/4"):
                if f.char and text == "3/4":
                    assert f.parse(text) == f.from_fraction(Fraction(3, 4))
                    continue
                assert f.render(f.parse(text)) == text if f.char == 0 else True
        assert QQ.render(Fraction(6, 4)) == "3/2"
        assert GF(5).render(7) == "2"

    def test_parse_rejects_garbage(self):
        with pytest.raises(FieldError):
            QQ.parse("1/0")
        with pytest.raises(FieldError):
            QQ.parse("two")


class TestRref:
    def test_known_rank_and_rows(self):
        rows = frac_rows([{0: 2, 2: 4}, {0: 1, 1: 1}, {1: -1, 2: 2}])
        b = rref(QQ, 4, rows)
        assert b.rank == 2
        assert [list(r) for r in b.rows] == [
            [(0, Fraction(1)), (2, Fraction(2))],
            [(1, Fraction(1)), (2, Fraction(-2))],
        ]

    def test_input_order_does_not_matter(self):
        rows = frac_rows([{0: 1, 1: 2}, {1: 3, 2: 1}, {0: 2, 2: 5}, {0: 1, 2: 1}])
        bases = set()
        for perm in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
            bases.add(rref(QQ, 3, [rows[i] for i in perm]))
        assert len(bases) == 1

    def test_idempotent_on_own_rows(self):
        rows = frac_rows([{0: 3, 1: 1}, {1: 2, 2: 7}, {0: 1, 2: 1}])
        b = rref(QQ, 3, rows)
        assert rref(QQ, 3, b.rows) == b

    def test_pivots_are_monic_and_cleared(self):
        rows = frac_rows([{0: 2, 1: 4, 2: 2}, {0: 1, 1: 1, 2: 3}])
        b = rref(QQ, 3, rows)
        for p, row in zip(b.pivots, b.rows):
            d = row.to_dict()
            assert d[p] == 1
            for other in b.rows:
                if other is not row:
                    assert p not in other.to_dict()

    def test_denominators_cleared(self):
        rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}]
        b = rref(QQ, 2, rows)
        assert b.rows[0].to_dict() == {0: Fraction(1), 1: Fraction(2, 3)}

    def test_zero_rows_ignored(self):
        b = rref(QQ, 3, [{}, {1: Fraction(0)}, {2: Fraction(1)}])
        assert b.rank == 1

    def test_rank_drop_mod_p(self):
        rows = [{0: 1, 1: 2}, {0: 3, 1: 4}]
        assert rref(QQ, 2, frac_rows(rows)).rank == 2
        assert rref(GF(2), 2, rows).rank == 1
        assert rref(GF(5), 2, rows).rank == 2

    def test_index_out_of_range_rejected(self):
        with pytest.raises(InputError):
            rref(QQ, 2, [{2: Fraction(1)}])

    def test_agrees_with_dense_gauss_jordan(self):
        for field in (QQ, GF(7)):
            rng = random.Random(9001)
            for trial in range(30):
                n = rng.randrange(1, 9)
                rows = []
                for _ in range(rng.randrange(1, 10)):
                    row = {
                        j: field.from_fraction(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
                        for j in rng.sample(range(n), rng.randrange(0, n + 1))
                    }
                    rows.append(row)
                got = [r.entries for r in rref(field, n, rows).rows]
                assert got == dense_rref(field.char, n, rows), (field, trial)

    def test_large_coefficient_growth_stays_exact(self):
        # Hilbert-like rows force heavy intermediate growth; the content
        # stripping must not change the row space.
        n = 8
        rows = [
            {j: Fraction(1, i + j + 1) for j in range(n)} for i in range(n)
        ]
        b = rref(QQ, n, rows)
        assert b.rank == n
        assert b == identity_basis(QQ, n)


@st.composite
def row_operation_cases(draw):
    """Random sparse rows over Q or GF(p), plus a permutation, nonzero row
    scalings, rows to repeat and a count of zero rows to append."""
    field = field_of_char(draw(st.sampled_from((0, 2, 7))))
    if field.char:
        scalars = st.integers(0, field.char - 1)
        nonzero = st.integers(1, field.char - 1)
    else:
        nums, dens = st.integers(-9, 9), st.integers(1, 4)
        scalars = st.builds(Fraction, nums, dens)
        nonzero = st.builds(Fraction, nums.filter(bool), dens)
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), scalars, max_size=3), max_size=7))
    perm = draw(st.permutations(range(len(rows))))
    scales = draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)) if rows else []
    zeros = draw(st.integers(0, 2))
    return field, n, rows, perm, scales, repeats, zeros


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(row_operation_cases())
def test_rref_canonical_under_row_operations(case):
    field, n, rows, perm, scales, repeats, zeros = case
    want = rref(field, n, rows)
    moved = [{j: field.mul(s, c) for j, c in rows[i].items()} for i, s in zip(perm, scales)]
    moved += [rows[i] for i in repeats]
    moved += [{}, {n - 1: field.zero}][:zeros]
    assert rref(field, n, moved) == want
    assert rref(field, n, want.rows) == want


class TestMember:
    def setup_method(self):
        rows = frac_rows([{0: 1, 2: 2}, {1: 1, 2: -1}])
        self.basis = rref(QQ, 3, rows)

    def test_inside_with_coordinates(self):
        v = {0: Fraction(2), 1: Fraction(3), 2: Fraction(1)}
        res = member(self.basis, v)
        assert res.inside
        assert res.coordinates == (Fraction(2), Fraction(3))
        assert not res.residual

    def test_outside_monic_residual(self):
        res = member(self.basis, {2: Fraction(5)})
        assert not res.inside
        assert res.residual.leading()[1] == 1
        # scaling the probe leaves the monic residual unchanged
        res2 = member(self.basis, {2: Fraction(-7)})
        assert res2.residual == res.residual

    def test_basis_rows_reduce_to_zero(self):
        for row in self.basis.rows:
            assert member(self.basis, row).inside

    def test_member_mod_p(self):
        basis = rref(GF(3), 2, [{0: 1, 1: 1}])
        assert member(basis, {0: 2, 1: 2}).inside
        assert not member(basis, {0: 1, 1: 2}).inside


class TestSubspaceOps:
    def test_sum_and_containment(self):
        a = rref(QQ, 3, frac_rows([{0: 1}]))
        b = rref(QQ, 3, frac_rows([{1: 1}]))
        s = sum_bases(a, b)
        assert s.rank == 2
        assert sum_bases(s, a).rank == s.rank and sum_bases(s, b).rank == s.rank
        assert sum_bases(a, b).rank > a.rank

    def test_sum_with_zero(self):
        a = rref(QQ, 3, frac_rows([{0: 1, 1: 1}]))
        z = zero_basis(QQ, 3)
        assert sum_bases(a, z) == a
        assert sum_bases(z, a) == a

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(InputError):
            sum_bases(zero_basis(QQ, 2), zero_basis(QQ, 3))
        with pytest.raises(InputError):
            sum_bases(zero_basis(QQ, 2), zero_basis(GF(5), 2))

    def test_identity_basis_full(self):
        e = identity_basis(QQ, 4)
        assert e.rank == 4
        assert sum_bases(e, rref(QQ, 4, frac_rows([{0: 1, 3: -2}]))).rank == e.rank

    def test_equal_spans_compare_equal(self):
        rows1 = frac_rows([{0: 1, 1: 1}, {1: 1, 2: 1}])
        rows2 = frac_rows([{0: 1, 2: -1}, {0: 1, 1: 2, 2: 1}])
        assert rref(QQ, 3, rows1) == rref(QQ, 3, rows2)


class TestSparseVector:
    def test_sorted_and_hashable(self):
        v = SparseVector([(2, Fraction(1)), (0, Fraction(3))])
        assert v.entries == ((0, Fraction(3)), (2, Fraction(1)))
        assert hash(v) == hash(SparseVector(v.entries))

    def test_from_dict_drops_zeros(self):
        v = SparseVector.from_dict({0: Fraction(0), 1: Fraction(2)})
        assert v.entries == ((1, Fraction(2)),)

    def test_leading_of_zero_raises(self):
        with pytest.raises(InputError):
            SparseVector(()).leading()
