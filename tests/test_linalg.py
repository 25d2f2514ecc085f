"""Exact linear algebra: canonical echelon form, membership, field ops."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieadm import linalg
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
    vector,
)

from naive_oracle import DenseReducer


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
    def test_char_must_be_prime_or_zero(self):
        with pytest.raises(FieldError):
            field_of_char(4)
        with pytest.raises(FieldError):
            field_of_char(-3)
        assert field_of_char(0) is QQ
        assert field_of_char(7) is GF(7)

    def test_large_characteristics_decided_at_once(self):
        assert GF(2**61 - 1).char == 2**61 - 1
        assert GF(2**64 - 59).char == 2**64 - 59  # the largest prime below 2^64
        # 3215031751 = 151*751*28351 is a strong pseudoprime to bases 2, 3, 5, 7
        for n in (3215031751, (2**31 - 1) * (2**31 + 11), 2**64 + 13, 2**89 - 1):
            with pytest.raises(FieldError):
                field_of_char(n)

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(1, 3000):
            try:
                field_of_char(n)
                accepted = True
            except FieldError:
                accepted = False
            assert accepted == trial(n), n

    def test_gf_is_cached(self):
        assert GF(5) is GF(5)

    def test_modular_inverse(self):
        f = GF(7)
        for a in range(1, 7):
            assert a * f.from_fraction(Fraction(1, a)) % 7 == 1
            assert f.from_fraction(Fraction(-3, a + 7)) == -3 * pow(a, 5, 7) % 7
        with pytest.raises(FieldError):
            f.from_fraction(Fraction(1, 7))

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

    @pytest.mark.parametrize("ndigits", [2, 4300, 4301, 8001, 20000])
    def test_render_past_digit_limit(self, ndigits):
        # str() refuses ints over 4300 digits; render must not
        rng = random.Random(ndigits)
        digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=ndigits - 1))
        n = 0
        for i in range(0, ndigits, 1000):
            chunk = digits[i : i + 1000]
            n = n * 10 ** len(chunk) + int(chunk)
        assert QQ.render(n) == digits
        assert QQ.render(-n) == "-" + digits
        assert QQ.render(Fraction(-1, n)) == "-1/" + digits

    def test_integral_rationals_are_ints(self):
        for text, want in (("4/2", 2), ("-3", -3), ("0/7", 0)):
            got = QQ.parse(text)
            assert type(got) is int and got == want
        assert type(QQ.from_fraction(Fraction(10, 5))) is int
        assert QQ.parse("3/6") == Fraction(1, 2)

    def test_parse_rejects_garbage(self):
        # only -?[0-9]+(/[0-9]+)? is read: no blanks, signs, points,
        # underscores or exponents, as Fraction() would allow
        for text in ("1/0", "two", " -6/3 ", "1e3", " 1_0 ", "+5", "1.5"):
            with pytest.raises(FieldError):
                QQ.parse(text)

    def test_parse_error_quotes_a_bounded_prefix(self):
        with pytest.raises(FieldError) as exc:
            QQ.parse("x" * 5000)
        assert len(str(exc.value)) < 100
        with pytest.raises(FieldError, match="too many digits"):
            QQ.parse("1" * 5000)


class TestRref:
    def test_known_rank_and_rows(self):
        rows = frac_rows([{0: 2, 2: 4}, {0: 1, 1: 1}, {1: -1, 2: 2}])
        b = rref(QQ, 4, rows)
        assert b.rank == 2
        assert [list(r.entries) for r in b.rows] == [
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
            d = dict(row.entries)
            assert d[p] == 1
            for other in b.rows:
                if other is not row:
                    assert p not in dict(other.entries)

    def test_denominators_cleared(self):
        rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}]
        b = rref(QQ, 2, rows)
        assert dict(b.rows[0].entries) == {0: Fraction(1), 1: Fraction(2, 3)}

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

    def test_int_and_fraction_rows_agree(self):
        # the same integer rows as ints and as Fraction(n): equal bases that
        # render alike, every integral entry an int either way
        rng = random.Random(77)
        for trial in range(30):
            n = rng.randrange(1, 8)
            rows = [
                {j: rng.randrange(-5, 6) for j in rng.sample(range(n), rng.randrange(0, n + 1))}
                for _ in range(rng.randrange(1, 8))
            ]
            as_ints = rref(QQ, n, rows)
            as_fracs = rref(QQ, n, frac_rows(rows))
            assert as_ints == as_fracs, trial
            for a, b in zip(as_ints.rows, as_fracs.rows):
                assert [(j, QQ.render(c)) for j, c in a.entries] == [
                    (j, QQ.render(c)) for j, c in b.entries
                ]
                for _, c in a.entries + b.entries:
                    assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)

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


class TestFullRankExit:
    """Once its rows span the whole space, rref reads no further row."""

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_no_row_read_past_full_rank(self, field):
        # the fourth row brings the rank to 3; the two after it, one of them
        # out of range, are never read
        rows = [{0: 2, 1: 1}, {0: 4, 1: 2}, {1: 3, 2: 1}, {0: 1, 2: 1}, {0: 1}, {5: 1}]
        read = []

        def generated():
            for row in rows:
                read.append(row)
                yield row

        got = rref(field, 3, generated())
        assert len(read) == 4
        full = identity_basis(field, 3)
        assert got == full and hash(got) == hash(full)
        assert [r.entries for r in got.rows] == [((0, 1),), ((1, 1),), ((2, 1),)]
        assert all(type(c) is int for r in got.rows for _, c in r.entries)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_malformed_row_before_full_rank_rejected(self, field):
        with pytest.raises(InputError):
            rref(field, 3, [{0: 1}, {1: 1}, {3: 1}, {2: 1}])

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_sum_reaching_full_rank_is_the_identity(self, field):
        a = rref(field, 3, [{0: 1, 1: 1}, {2: 1}])
        b = rref(field, 3, [{0: 1, 1: 2}])
        assert sum_bases(a, b) == identity_basis(field, 3)


class TestRowIntake:
    """rref and member read a row in one pass: SparseVector or dict rows,
    ints and Fractions mixed, each index checked."""

    ROWS = [
        {0: Fraction(4, 2), 1: 3, 3: Fraction(-6, 3)},
        {1: Fraction(1, 2), 2: 1, 3: Fraction(2, 3)},
        {0: 1, 2: Fraction(5, 4)},
    ]

    @staticmethod
    def images(field, rows):
        return [{j: field.from_fraction(c) for j, c in r.items()} for r in rows]

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
    def test_rref_reads_fractions_as_field_elements(self, field):
        want = [r.entries for r in rref(field, 4, self.images(field, self.ROWS)).rows]
        assert want == dense_rref(field.char, 4, self.images(field, self.ROWS))
        as_vectors = [SparseVector(r.items()) for r in self.ROWS]
        for rows in (self.ROWS, as_vectors):
            assert [r.entries for r in rref(field, 4, rows).rows] == want

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_integral_fractions_read_as_ints(self, field):
        b = rref(field, 2, [{0: Fraction(4, 2), 1: Fraction(6, 2)}, {0: Fraction(3), 1: 1}])
        assert b == identity_basis(field, 2)
        assert all(type(c) is int for r in b.rows for _, c in r.entries)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
    def test_member_reads_fractions_as_field_elements(self, field):
        basis = rref(field, 4, self.ROWS[:2])
        row_sum = {0: Fraction(4, 2), 1: Fraction(7, 2), 2: 1, 3: Fraction(-4, 3)}
        assert member(basis, row_sum) == ()
        for probe in (row_sum, {0: 1, 2: Fraction(5, 4)}, {3: Fraction(9, 3)}):
            got = member(basis, probe)
            want = member(basis, self.images(field, [probe])[0])
            assert got == want
            assert member(basis, SparseVector(probe.items())) == want

    def test_denominator_divisible_by_p_rejected(self):
        with pytest.raises(FieldError):
            rref(GF(5), 2, [{0: 1, 1: Fraction(1, 10)}])
        with pytest.raises(FieldError):
            member(rref(GF(5), 2, [{0: 1}]), {1: Fraction(2, 5)})

    @pytest.mark.parametrize("index", [-1, 3, 1.0, "1", None])
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_bad_index_rejected(self, field, index):
        with pytest.raises(InputError):
            rref(field, 3, [{0: 1}, {index: Fraction(1, 2)}])
        with pytest.raises(InputError):
            member(identity_basis(field, 3), {index: 1})

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_bad_index_in_sparse_vector_rejected(self, field):
        with pytest.raises(InputError):
            rref(field, 3, [SparseVector([(0, 1), (3, Fraction(1, 2))])])
        with pytest.raises(InputError):
            member(identity_basis(field, 3), SparseVector([(-1, 2)]))


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
    p = field.char
    moved = [
        {j: s * c % p if p else s * c for j, c in rows[i].items()} for i, s in zip(perm, scales)
    ]
    moved += [rows[i] for i in repeats]
    moved += [{}, {n - 1: 0}][:zeros]
    assert rref(field, n, moved) == want
    assert rref(field, n, want.rows) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9))
def test_parse_render_round_trip_over_q(q):
    text = QQ.render(q)
    got = QQ.parse(text)
    assert got == q and QQ.render(got) == text
    assert type(got) is (int if q.denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 5, 7, 101, 2**61 - 1)).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p - 1))))
def test_parse_render_round_trip_over_fp(case):
    p, a = case
    f = GF(p)
    assert f.parse(f.render(a)) == a
    assert f.render(f.parse(f.render(a))) == str(a)


class TestMember:
    def setup_method(self):
        rows = frac_rows([{0: 1, 2: 2}, {1: 1, 2: -1}])
        self.basis = rref(QQ, 3, rows)

    def test_inside_combination(self):
        # 2*(e0 + 2e2) + 3*(e1 - e2) = 2e0 + 3e1 + e2
        v = {0: Fraction(2), 1: Fraction(3), 2: Fraction(1)}
        res = member(self.basis, v)
        assert res == ()

    def test_outside_monic_residual(self):
        res = member(self.basis, {2: Fraction(5)})
        assert res
        assert res[0][1] == 1
        # scaling the probe leaves the monic residual unchanged
        res2 = member(self.basis, {2: Fraction(-7)})
        assert res2 == res

    def test_basis_rows_reduce_to_zero(self):
        for row in self.basis.rows:
            assert member(self.basis, row) == ()

    def test_member_mod_p(self):
        basis = rref(GF(3), 2, [{0: 1, 1: 1}])
        assert member(basis, {0: 2, 1: 2}) == ()
        assert member(basis, {0: 1, 1: 2})

    def test_integral_residual_entries_are_ints(self):
        # the residual 2e1 + 4e2 + 3e3 is made monic by exact division
        got = member(rref(QQ, 4, [{0: 1, 1: 1}]), {1: 2, 2: 4, 3: 3})
        assert got == ((1, 1), (2, 2), (3, Fraction(3, 2)))
        assert [type(c) for _, c in got] == [int, int, Fraction]


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
        z = EchelonBasis(QQ, 3, ())
        assert sum_bases(a, z) == a
        assert sum_bases(z, a) == a

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(InputError):
            sum_bases(EchelonBasis(QQ, 2, ()), EchelonBasis(QQ, 3, ()))
        with pytest.raises(InputError):
            sum_bases(EchelonBasis(QQ, 2, ()), EchelonBasis(GF(5), 2, ()))

    def test_identity_basis_full(self):
        e = identity_basis(QQ, 4)
        assert e.rank == 4
        assert sum_bases(e, rref(QQ, 4, frac_rows([{0: 1, 3: -2}]))).rank == e.rank

    def test_equal_spans_compare_equal(self):
        rows1 = frac_rows([{0: 1, 1: 1}, {1: 1, 2: 1}])
        rows2 = frac_rows([{0: 1, 2: -1}, {0: 1, 1: 2, 2: 1}])
        assert rref(QQ, 3, rows1) == rref(QQ, 3, rows2)


class TestIncrementalSums:
    """sum_bases reduces the smaller basis against the larger one through
    its pivot index and keeps the larger one when nothing is left over."""

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_larger_operand_returned_when_other_inside(self, field, monkeypatch):
        big = rref(field, 5, [{0: 1, 1: 2}, {2: 1, 3: Fraction(1, 3)}, {1: 1, 4: 3}])
        small = rref(field, 5, [{0: 1, 1: 4, 4: 6}])  # row 1 + 2 * row 3
        twin = EchelonBasis(field, 5, big.rows)
        outside = rref(field, 5, [{3: 1}])
        want = rref(field, 5, small.rows + outside.rows)
        calls, inner = [], linalg._rref

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(linalg, "_rref", counted)
        assert sum_bases(big, small) is big
        assert sum_bases(small, big) is big
        # equal spans: the first operand on a tie
        assert sum_bases(big, twin) is big and sum_bases(twin, big) is twin
        assert sum_bases(big, EchelonBasis(field, 5, ())) is big
        assert calls == []
        assert sum_bases(small, outside) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_merge_eliminates_only_the_leftovers(self, field, monkeypatch):
        big = rref(field, 6, [{0: 1, 2: Fraction(1, 2)}, {1: 1, 4: 2}, {3: 1, 5: 1}])
        # residuals against big: e4 and -2*e4, one leftover pivot, 4
        small = rref(field, 6, [{0: 1, 2: Fraction(1, 2), 4: 1}, {1: 1}])
        want = rref(field, 6, big.rows + small.rows)
        fed, inner = [], linalg._rref

        def counted(field, n, rows):
            rows = list(rows)
            fed.append([dict(r) for r in rows])
            return inner(field, n, rows)

        monkeypatch.setattr(linalg, "_rref", counted)
        got = sum_bases(big, small)
        assert fed == [[{4: 1}, {4: -2 % field.char if field.char else -2}]]
        assert got == want and got.pivots == (0, 1, 3, 4)
        # only the row holding column 4 is rewritten: e1 + 2e4 becomes e1
        assert got.rows[0] is big.rows[0] and got.rows[2] is big.rows[2]
        assert got.rows[1].entries == ((1, 1),)

    def test_hash_computed_once_as_the_tuple_hash(self):
        b = rref(QQ, 4, frac_rows([{0: 1, 2: 3}, {1: 2, 3: -1}]))
        assert hash(b) == hash((b.field, b.ambient_dim, b.rows))
        assert b._hash == hash(b)
        again = rref(QQ, 4, b.rows[::-1])
        assert again == b and hash(again) == hash(b)

    def test_pivot_index_built_lazily(self):
        b = rref(GF(7), 4, [{0: 1, 2: 3}, {1: 2, 3: 1}])
        assert b._index is None
        member(b, {2: 1})
        assert b.pivot_index() == {piv: r.entries for piv, r in zip(b.pivots, b.rows)}


def dense(p, n, row):
    return [row.get(j, 0) % p if p else Fraction(row.get(j, 0)) for j in range(n)]


def oracle_of(p, n, rows):
    red = DenseReducer(n, p)
    for r in rows:
        red.insert(dense(p, n, r))
    return red


@st.composite
def subspace_cases(draw):
    """Two random row sets over Q (``Fraction`` entries) or GF(p); the
    second is, half the time, random combinations of the first. Plus a
    random vector, which may be a combination of the first set."""
    p = draw(st.sampled_from((0, 2, 5)))
    n = draw(st.integers(1, 6))
    if p:
        scalars = st.integers(0, p - 1)
    else:
        scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    rows = st.lists(st.dictionaries(st.integers(0, n - 1), scalars, max_size=n), max_size=5)
    a = draw(rows)

    def combination():
        acc = {}
        for r in a:
            c = draw(scalars)
            for j, x in r.items():
                acc[j] = acc.get(j, 0) + c * x
        return acc

    b = [combination() for _ in range(draw(st.integers(0, 4)))] if draw(st.booleans()) else draw(rows)
    v = combination() if draw(st.booleans()) else draw(st.dictionaries(st.integers(0, n - 1), scalars))
    return p, n, a, b, v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(subspace_cases())
def test_sum_and_member_agree_with_dense_reducer(case):
    p, n, a, b, v = case
    field = field_of_char(p)
    A, B = rref(field, n, a), rref(field, n, b)
    S = sum_bases(A, B)
    # S is a + b: the dense rank of both row sets, and spanned by them
    both = oracle_of(p, n, a + b)
    assert S.rank == both.rank
    assert all(not any(both.reduce(dense(p, n, dict(r.entries)))) for r in S.rows)
    assert S == sum_bases(B, A)
    # S is the canonical basis of both operands' rows, down to each scalar's type
    typed = [[(j, type(c), c) for j, c in r.entries] for r in S.rows]
    want = rref(field, n, A.rows + B.rows)
    assert typed == [[(j, type(c), c) for j, c in r.entries] for r in want.rows]
    inside = all(not any(oracle_of(p, n, a).reduce(dense(p, n, r))) for r in b)
    if inside:
        assert S is A
    elif all(not any(oracle_of(p, n, b).reduce(dense(p, n, r))) for r in a):
        assert S is B
    # member: the verdict of the dense reducer; outside, a monic residual
    # free of A's pivots that lies in A + <v> but not in A
    got = member(A, v)
    alone = oracle_of(p, n, a)
    assert (got == ()) == (not any(alone.reduce(dense(p, n, v))))
    if got:
        assert got == tuple(sorted(got))
        res = dict(got)
        assert res[min(res)] == 1
        assert all(type(c) is int for c in res.values() if c.denominator == 1)
        assert not set(res) & set(A.pivots)
        assert any(alone.reduce(dense(p, n, res)))
        assert not any(oracle_of(p, n, a + [v]).reduce(dense(p, n, res)))


class TestSparseVector:
    def test_sorted_and_hashable(self):
        v = SparseVector([(2, Fraction(1)), (0, Fraction(3))])
        assert v.entries == ((0, Fraction(3)), (2, Fraction(1)))
        assert hash(v) == hash(SparseVector(v.entries))


class TestVector:
    def test_drops_zeros(self):
        # the plain form of a normal form or residual: sorted pairs, reduced
        assert vector(0, {3: Fraction(1), 0: Fraction(0), 1: Fraction(2)}) == (
            (1, Fraction(2)),
            (3, Fraction(1)),
        )
        assert vector(5, {2: 7, 0: 10}) == ((2, 2),)
