"""Exact sparse linear algebra over the rationals and prime fields.

Every question downstream reduces to membership of a vector in a span, so
subspaces are kept as reduced row-echelon bases with monic pivots. That
form is unique for a given row space: two subspaces are equal exactly when
their bases compare equal, which makes bases usable as canonical values in
reports and caches. No floating point anywhere.

Over the rationals a scalar is an ``int`` or a ``fractions.Fraction``:
``rref``, ``member`` and the ``Field`` conversions give an int for every
integral value, so the common integral case runs at int speed, and
``int`` is a ``numbers.Rational``, so the two compare, hash and mix
exactly. Over a prime field a scalar is an int in ``[0, p)``. ``Field``
only converts and renders; it holds no arithmetic, not even inversion:
callers sum with plain ``+`` and ``*`` and take the field step once per
finished vector (``reduced``), and a row is made monic in one place
(``_monic``). ``rref`` works the same way on integer rows for both
fields, reducing mod p and making each row monic over F_p, or making it
primitive with a positive lead over Q, where a non-integral ``Fraction``
appears only in the finished basis.

Only ``rref`` makes a vector canonical, and its basis rows
(``SparseVector``) are the only canonical vectors. Rows reach it as plain
dicts in any scaling; a normal form or residual is a sorted tuple of
(index, scalar) pairs (``vector``). One step makes a row monic at its
lead (``_monic``), for ``rref``, ``member`` and ``sum_bases`` alike.

A basis computes its hash once and, when first reduced against, a map
from each pivot column to its row. Since every row vanishes at the other
pivots, ``member`` clears only the pivot columns present in a vector, in
one pass, and ``sum_bases`` reduces the smaller basis against the larger
one that way. Leftover rows vanish at the larger basis's pivots, so they
are eliminated alone, and only the larger basis's rows that hold one of
their pivots are reduced against them.

An elimination clears a new pivot from no older row when it inserts it:
each older row that holds it owes that column, and is settled (cleared
of what it owes) only when an incoming row hits its pivot, or after the
last row (``rref``).

An elimination stops at full rank: the row that makes the rank equal to
the ambient dimension is the last one read, and the basis is
``identity_basis``, the unique reduced basis of the whole space. Callers
that generate rows lazily, as the span operations of ``ideals`` do, stop
generating there too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Union

from .errors import FieldError, InputError

Scalar = Union[Fraction, int]


# the scalar literal Field.parse reads: n or n/d in ASCII digits, optional minus
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


# Miller-Rabin with these bases decides primality exactly below 3.3e24
# (Sorenson & Webster, Math. Comp. 2017), so below MAX_CHAR it is a proof.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_CHAR = 2**64


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``char == 0``) or the prime field F_p (``char == p``).

    Arithmetic on scalars is plain Python arithmetic followed by
    ``reduced``; the field only converts and renders.
    """

    __slots__ = ("char",)

    def __init__(self, char: int):
        if char != 0 and not (0 < char < MAX_CHAR and _is_prime(char)):
            raise FieldError(f"characteristic must be 0 or a prime below 2^64, got {char}")
        self.char = char

    # -- identity -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field({self.char})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    @property
    def name(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    # -- conversions ---------------------------------------------------------

    def from_fraction(self, q: Fraction) -> Scalar:
        """Image of a rational in this field (an int when integral over Q);
        FieldError if the denominator vanishes mod p."""
        q, p = Fraction(q), self.char
        if p == 0:
            return q.numerator if q.denominator == 1 else q
        if q.denominator % p == 0:
            raise FieldError(f"denominator {q.denominator} is not invertible mod {p}")
        return q.numerator * pow(q.denominator, p - 2, p) % p

    def parse(self, text: str) -> Scalar:
        """Read a scalar from text of the form -?[0-9]+(/[0-9]+)?, with no
        blanks, plus signs, points, underscores or exponents. A FieldError for
        anything else quotes at most the first 40 characters of the text."""
        literal = _SCALAR.fullmatch(text)
        if literal is None:
            raise FieldError(f'{_excerpt(text)} is not an integer or "num/den"')
        try:
            num, den = int(literal[1]), int(literal[2] or 1)
        except ValueError:  # int() refuses text past the interpreter's digit limit
            raise FieldError(f"{_excerpt(text)} has too many digits") from None
        if not den:
            raise FieldError(f"{_excerpt(text)} has a zero denominator")
        return self.from_fraction(Fraction(num, den))

    def render(self, a: Scalar) -> str:
        if self.char == 0:
            q = Fraction(a)
            num = _decimal(q.numerator)
            return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"
        return str(a % self.char)


def _excerpt(text: str, limit: int = 40) -> str:
    """The repr of text cut after ``limit`` characters, for error messages."""
    return repr(text[:limit]) + ("..." if len(text) > limit else "")


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size. Python's ``str`` refuses ints past
    its digit limit (4300 digits by default), so such an int is split with
    ``divmod`` into a high and a low half, each converted the same way."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of its digits
        hi, lo = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def reduced(p: int, acc: dict) -> dict:
    """``acc`` without its zeros, scalars reduced mod p when p > 0.

    This is the one field step of a vector: sums are formed with plain
    ``+``/``*``, so the characteristic is consulted once per vector, not
    once per scalar, and every vector handed on has entries in [0, p)
    over F_p and stores no zeros.
    """
    if p:
        return {k: r for k, t in acc.items() if (r := t % p)}
    return {k: t for k, t in acc.items() if t}


QQ = Field(0)

_prime_fields: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The prime field F_p (cached, so GF(5) is GF(5))."""
    f = _prime_fields.get(p)
    if f is None:
        f = _prime_fields[p] = Field(p)
    return f


def field_of_char(char: int) -> Field:
    return QQ if char == 0 else GF(char)


# ---------------------------------------------------------------------------
# vectors


class SparseVector:
    """A row of an ``EchelonBasis``: sorted (index, scalar) pairs, no
    zeros; immutable and hashable, so bases and memo keys hold it."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, Scalar]]):
        self.entries: tuple[tuple[int, Scalar], ...] = tuple(sorted(entries))

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SparseVector({list(self.entries)!r})"


def vector(p: int, d: dict) -> tuple[tuple[int, Scalar], ...]:
    """The sorted (index, scalar) pairs of ``reduced(p, d)``."""
    return tuple(sorted(reduced(p, d).items()))


def _row_as_dict(row, ambient_dim: int, p: int) -> dict[int, int]:
    """The integer row that ``rref`` and ``member`` work on, read in one pass
    that checks every index and drops zeros.

    A ``Fraction`` entry may be integral, and becomes its ``int``; when some
    are not, the row is scaled by the lcm of their denominators. That
    multiple spans the same line over Q, and over F_p as long as p divides
    no denominator (FieldError otherwise).
    """
    items = row.entries if isinstance(row, SparseVector) else row.items()
    out = {}
    lcm = 1
    for i, c in items:
        if not isinstance(i, int) or i < 0 or i >= ambient_dim:
            raise InputError(f"coordinate index {i} outside ambient dimension {ambient_dim}")
        if c:
            d = c.denominator
            if d == 1:
                out[i] = c.numerator
            else:
                out[i] = c
                lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:
        return out
    if p and lcm % p == 0:
        raise FieldError(f"denominator {lcm} is not invertible mod {p}")
    return {j: v.numerator * (lcm // v.denominator) for j, v in out.items()}


# ---------------------------------------------------------------------------
# echelon bases


class EchelonBasis:
    """A subspace held in reduced row-echelon form.

    Rows are monic at their pivots, pivot columns vanish in every other
    row, and pivots increase strictly. Instances are immutable, so the
    hash and the pivot index are computed once, when first asked for.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_hash", "_index")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple[SparseVector, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = tuple(r.entries[0][0] for r in rows)
        self._hash: Optional[int] = None
        self._index: Optional[dict[int, tuple]] = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_index(self) -> dict[int, tuple]:
        """Pivot column -> entries of the row with that pivot."""
        if self._index is None:
            self._index = {j: r.entries for j, r in zip(self.pivots, self.rows)}
        return self._index

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, EchelonBasis)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"EchelonBasis(field={self.field.name}, ambient={self.ambient_dim}, rank={self.rank})"


def identity_basis(field: Field, ambient_dim: int) -> EchelonBasis:
    """The full space: unit rows, already in echelon form."""
    rows = tuple(SparseVector(((i, 1),)) for i in range(ambient_dim))
    return EchelonBasis(field, ambient_dim, rows)


def rref(field: Field, ambient_dim: int, rows: Iterable) -> EchelonBasis:
    """Reduced row-echelon basis of the span of ``rows``.

    Pivots take the first nonzero column; the result is the canonical
    basis of the span, independent of input order and of the scaling of
    each row. Rows may be SparseVector values or plain index->scalar
    dicts, with int or ``Fraction`` scalars; zero rows are skipped.
    ``rows`` is read lazily and every row read is checked, but once the
    rank reaches ``ambient_dim`` the span is the whole space: the result
    is ``identity_basis`` and rows past that point are not read, so a
    generator of rows stops being advanced there.

    Upward clearing is deferred, in the spirit of structured elimination
    (LaMacchia & Odlyzko, CRYPTO '90). An incoming row is reduced by each
    pivot column present in it, once, against a settled pivot row, which
    holds no pivot column but its own; what remains lies in free columns,
    and if nonzero its first column becomes a new pivot. No older row is
    updated then: each older row holding that column owes it. When an
    incoming row hits a pivot whose row owes, that row is settled first:
    the rows it owes are settled, then each owed column is cleared from
    it. After the last row, the rows that still owe are settled in
    descending lead order. Much of the fill an eager clearing makes is
    later cancelled, and a row that no incoming row hits pays once, at
    the end. Only the work depends on the order of ``rows``. A pivot row
    holds no column left of its lead, so a new pivot left of every older
    pivot is owed by no older row: ``variety.relation_rows`` feeds the
    rows of its identities with fewest terms first, in descending lead
    order within each group, for that reason.

    Rows are integer dicts over both fields: over F_p they are monic
    with entries in [0, p); over Q each stands for its rational line as a
    primitive vector with a positive lead, updated fraction-free, and is
    made monic only at the end, where an entry stays an int when the lead
    divides it and becomes a ``Fraction`` otherwise.
    """
    p = field.char
    return _rref(field, ambient_dim, (_row_as_dict(r, ambient_dim, p) for r in rows))


def _rref(field: Field, ambient_dim: int, rows: Iterable[dict[int, int]]) -> EchelonBasis:
    """``rref`` of integer rows already read (``_row_as_dict``), which it
    updates in place. ``owed`` maps the lead of each pivot row that still
    holds later pivot columns to those columns; when it is empty, as in
    most small eliminations, no row is settled, looked up or sorted for
    it. The row that brings the rank to ``ambient_dim`` is the last one
    read, and nothing owed is settled: the basis is ``identity_basis``."""
    p = field.char
    piv: dict[int, dict[int, int]] = {}
    owed: dict[int, list[int]] = {}  # lead -> later pivots its row still holds
    for row in rows:
        if owed:
            for j in [j for j in row if j in piv]:
                if j in owed:
                    _settle(p, piv, owed, j)
                _eliminate(p, row, j, piv[j])
        else:
            for j in [j for j in row if j in piv]:
                _eliminate(p, row, j, piv[j])
        row = _normalized(p, row)
        if not row:
            continue
        if len(piv) + 1 == ambient_dim:
            return identity_basis(field, ambient_dim)
        lead = min(row)
        for j, prow in piv.items():
            if lead in prow:
                if j in owed:
                    owed[j].append(lead)
                else:
                    owed[j] = [lead]
        piv[lead] = row

    if owed:
        # each row owes only pivots right of its lead, settled before it
        for j in sorted(owed, reverse=True):
            _pay(p, piv, j, owed[j])
    out = tuple(SparseVector(_monic(p, piv[lead]).items()) for lead in sorted(piv))
    return EchelonBasis(field, ambient_dim, out)


def _settle(p: int, piv: dict, owed: dict, lead: int) -> None:
    """Clear from the pivot row at ``lead`` every column it owes, each
    with a settled row, so that it holds no pivot but its own. Depth
    first on an explicit stack, since a chain of owing rows may be longer
    than the recursion limit: popping an owing row pushes ``~j``, which
    pays for it, then the owing rows it owes, which are settled before
    ``~j`` comes back up. A row owes only pivots right of its lead, so
    every row pushed above ``~j`` lies right of j; a row pushed twice is
    settled at its first pop and skipped at the next."""
    stack = [lead]
    while stack:
        j = stack.pop()
        if j < 0:
            _pay(p, piv, ~j, owed.pop(~j))
        elif j in owed:
            stack.append(~j)
            for c in owed[j]:
                if c in owed:
                    stack.append(c)


def _pay(p: int, piv: dict, lead: int, cols: list[int]) -> None:
    """Clear the owed ``cols`` from the pivot row at ``lead`` with their
    settled rows, then strip its content once over Q."""
    row = piv[lead]
    for c in cols:
        _eliminate(p, row, c, piv[c])
    if not p:
        _strip_content(row)


def _eliminate(p: int, row: dict[int, int], col: int, prow: dict[int, int]) -> None:
    """Clear ``col`` from ``row`` with the pivot row ``prow``, in place.

    Over F_p (``p > 0``) ``prow`` is monic and the update is row - c*prow
    mod p. Over Q it is the cross multiple a*row - b*prow with a/b the
    lead ratio in lowest terms, which keeps the row integral. Either way
    ``col`` itself cancels to an exact zero and is dropped in the loop.
    """
    c = row[col]
    if p:
        for j, v in prow.items():
            w = (row.get(j, 0) - c * v) % p
            if w:
                row[j] = w
            elif j in row:
                del row[j]
        return
    pl = prow[col]
    g = gcd(pl, c)
    a = pl // g
    b = c // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in prow.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        elif j in row:
            del row[j]


def _normalized(p: int, row: dict[int, int]) -> dict[int, int]:
    """The representative of the line of ``row`` that pivot rows store:
    monic with entries in [0, p) over F_p, primitive with a positive lead
    over Q. Empty when the row is zero."""
    if p:
        row = {j: r for j, v in row.items() if (r := v % p)}
        return _monic(p, row) if row else row
    if row:
        _strip_content(row)
        if row[min(row)] < 0:
            row = {j: -v for j, v in row.items()}
    return row


def _monic(p: int, row: dict) -> dict:
    """The nonzero ``row`` divided by its lead. Over F_p its entries are in
    [0, p) already and it is multiplied by the lead's inverse mod p; over Q
    each entry is divided exactly, and one the lead divides becomes an
    ``int``, so every integral value of a finished vector is an int."""
    pl = row[min(row)]
    if p:
        if pl == 1:
            return row
        ic = pow(pl, p - 2, p)
        return {j: v * ic % p for j, v in row.items()}
    return {j: v // pl if not v % pl else Fraction(v, pl) for j, v in row.items()}


def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _residual(p: int, row: dict, index: dict[int, tuple]) -> dict:
    """``row`` reduced against the basis rows of ``index`` (``pivot_index``),
    in place, then without its zeros (``reduced``). A basis row vanishes at
    every other pivot, so clearing the pivot columns present in ``row``,
    once each and in any order, leaves it in the free columns."""
    for piv in [j for j in row if j in index]:
        c = row[piv] % p if p else row[piv]
        if c:
            for j, w in index[piv]:
                row[j] = row.get(j, 0) - c * w
        del row[piv]
    return reduced(p, row)


def member(basis: EchelonBasis, v) -> tuple:
    """The residual of ``v`` (an ``rref`` row) modulo the basis, as sorted
    pairs monic at the lead (``_monic``), so equal residual lines compare
    equal and an integral entry is an int; empty exactly when ``v`` lies in
    the span."""
    p = basis.field.char
    row = _residual(p, _row_as_dict(v, basis.ambient_dim, p), basis.pivot_index())
    return tuple(sorted(_monic(p, row).items())) if row else ()


def sum_bases(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    """Canonical basis of the subspace sum a + b.

    The rows of the smaller basis (``b`` on a tie) are reduced against the
    larger one. When none is left over, that larger basis object is the
    sum. Otherwise the leftovers are eliminated alone (``rref``), the
    larger basis's rows that hold one of their pivots are reduced against
    them, and every other row object is kept. The field and ambient
    dimension are checked here."""
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise InputError("subspace sum needs matching field and ambient dimension")
    big, small = (a, b) if a.rank >= b.rank else (b, a)
    if not small.rows:
        return big
    p = a.field.char
    index = big.pivot_index()
    left = [row for r in small.rows if (row := _residual(p, dict(r.entries), index))]
    if not left:
        return big
    rest = rref(a.field, a.ambient_dim, left)
    new = rest.pivot_index()
    rows = [
        SparseVector(_monic(p, _residual(p, dict(r.entries), new)).items())
        if any(j in new for j, _ in r.entries)
        else r
        for r in big.rows
    ]
    rows.extend(rest.rows)
    rows.sort(key=lambda r: r.entries[0][0])
    return EchelonBasis(a.field, a.ambient_dim, tuple(rows))
