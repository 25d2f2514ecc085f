"""Exact sparse linear algebra over the rationals and prime fields.

Every question downstream reduces to membership of a vector in a span, so
subspaces are kept as reduced row-echelon bases with monic pivots. That
form is unique for a given row space: two subspaces are equal exactly when
their bases compare equal, which makes bases usable as canonical values in
reports and caches. No floating point anywhere.

Scalars are plain ``fractions.Fraction`` values over the rationals and
ints in ``[0, p)`` over a prime field; the ``Field`` object owns all
arithmetic on them, including GCD normalization (``Fraction`` reduces on
every operation) and modular inverses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Union

from .errors import FieldError, InputError

Scalar = Union[Fraction, int]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (``char == 0``) or the prime field F_p (``char == p``).

    ``zero`` and ``one`` are set once per field; scalars are immutable, so
    every caller may share them.
    """

    __slots__ = ("char", "zero", "one")

    def __init__(self, char: int):
        if char != 0 and not _is_prime(char):
            raise FieldError(f"characteristic must be 0 or a prime, got {char}")
        self.char = char
        self.zero: Scalar = Fraction(0) if char == 0 else 0
        self.one: Scalar = Fraction(1) if char == 0 else 1

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

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise FieldError("division by zero")
        if self.char == 0:
            return 1 / Fraction(a)
        return pow(a, self.char - 2, self.char)

    # -- conversions ---------------------------------------------------------

    def from_fraction(self, q: Fraction) -> Scalar:
        """Image of a rational in this field; FieldError if the denominator
        vanishes mod p."""
        q = Fraction(q)
        if self.char == 0:
            return q
        if q.denominator % self.char == 0:
            raise FieldError(
                f"denominator {q.denominator} is not invertible mod {self.char}"
            )
        return (q.numerator % self.char) * self.inv(q.denominator % self.char) % self.char

    def from_int(self, n: int) -> Scalar:
        return Fraction(n) if self.char == 0 else n % self.char

    def parse(self, text: str) -> Scalar:
        """Read a scalar from "n" or "n/d" text."""
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad scalar text {text!r}") from exc
        return self.from_fraction(q)

    def render(self, a: Scalar) -> str:
        if self.char == 0:
            q = Fraction(a)
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return str(a % self.char)


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
    """Immutable sparse vector: sorted (index, coefficient) pairs, no zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, Scalar]]):
        self.entries: tuple[tuple[int, Scalar], ...] = tuple(sorted(entries))

    @classmethod
    def from_dict(cls, d: dict[int, Scalar]) -> "SparseVector":
        return cls((i, c) for i, c in d.items() if c)

    def to_dict(self) -> dict[int, Scalar]:
        return dict(self.entries)

    def __iter__(self) -> Iterator[tuple[int, Scalar]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SparseVector({list(self.entries)!r})"

    def leading(self) -> tuple[int, Scalar]:
        if not self.entries:
            raise InputError("zero vector has no leading entry")
        return self.entries[0]

    def scaled(self, c: Scalar, field: Field) -> "SparseVector":
        if not c:
            return SparseVector(())
        return SparseVector((i, field.mul(v, c)) for i, v in self.entries)


def accumulate(field: Field, acc: dict[int, Scalar], vec: SparseVector, coeff) -> None:
    """acc += coeff * vec, on an index->scalar dict that stores no zeros."""
    add, mul = field.add, field.mul
    for i, c in vec.entries:
        u = add(acc.get(i, 0), mul(coeff, c))
        if u:
            acc[i] = u
        elif i in acc:
            del acc[i]


def _row_as_dict(row, ambient_dim: int) -> dict[int, Scalar]:
    items = row.entries if isinstance(row, SparseVector) else row.items()
    out = {}
    for i, c in items:
        if not isinstance(i, int) or i < 0 or i >= ambient_dim:
            raise InputError(f"coordinate index {i} outside ambient dimension {ambient_dim}")
        if c:
            out[i] = c
    return out


# ---------------------------------------------------------------------------
# echelon bases


class EchelonBasis:
    """A subspace held in reduced row-echelon form.

    Rows are monic at their pivots, pivot columns vanish in every other
    row, and pivots increase strictly. Instances are immutable.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple[SparseVector, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = tuple(r.leading()[0] for r in rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EchelonBasis)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"EchelonBasis(field={self.field.name}, ambient={self.ambient_dim}, rank={self.rank})"


def zero_basis(field: Field, ambient_dim: int) -> EchelonBasis:
    return EchelonBasis(field, ambient_dim, ())


def identity_basis(field: Field, ambient_dim: int) -> EchelonBasis:
    """The full space: unit rows, already in echelon form."""
    one = field.one
    rows = tuple(SparseVector(((i, one),)) for i in range(ambient_dim))
    return EchelonBasis(field, ambient_dim, rows)


def rref(field: Field, ambient_dim: int, rows: Iterable) -> EchelonBasis:
    """Reduced row-echelon basis of the span of ``rows``.

    Pivots take the first nonzero column; the result is the canonical
    basis of the span, independent of input order. Rows may be
    SparseVector values or plain index->scalar dicts.
    """
    if field.char == 0:
        return _rref_rational(field, ambient_dim, rows)
    return _rref_mod(field, ambient_dim, rows)


def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _int_row(row: dict[int, Scalar]) -> dict[int, int]:
    """Clear denominators and divide out the content, keeping the line."""
    lcm = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    out = {}
    for j, v in row.items():
        out[j] = v.numerator * (lcm // v.denominator)
    _strip_content(out)
    return out


def _rref_rational(field: Field, ambient_dim: int, rows: Iterable) -> EchelonBasis:
    """Fraction-free elimination over the integers, monic only at the end.

    Working rows are primitive integer vectors standing for rational
    lines. Eliminating a lead against pivot P uses the cross-multiple
    update a*R - b*P with a = lead(P)/g, b = lead(R)/g, so no Fraction
    arithmetic happens in the hot loop; content is stripped whenever the
    multipliers could have introduced any, which keeps entries small.
    """
    piv: dict[int, dict[int, int]] = {}
    for r in rows:
        row = _int_row(_row_as_dict(r, ambient_dim))
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                if row[lead] < 0:
                    for j in row:
                        row[j] = -row[j]
                piv[lead] = row
                break
            rl = row.pop(lead)
            pl = prow[lead]
            g = gcd(pl, rl)
            a = pl // g
            b = rl // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, v in prow.items():
                if j == lead:
                    continue
                w = row.get(j, 0) - b * v
                if w:
                    row[j] = w
                elif j in row:
                    del row[j]
            if a != 1 or b > 1 or b < -1:
                _strip_content(row)

    # Back substitution, largest pivot first; afterwards every pivot column
    # is zero outside its own row, which is the reduced echelon invariant.
    for p in sorted(piv, reverse=True):
        prow = piv[p]
        pl = prow[p]
        for q, qrow in piv.items():
            if q < p and p in qrow:
                ql = qrow.pop(p)
                g = gcd(pl, ql)
                a = pl // g
                b = ql // g
                if a != 1:
                    for j in qrow:
                        qrow[j] *= a
                for j, v in prow.items():
                    if j == p:
                        continue
                    w = qrow.get(j, 0) - b * v
                    if w:
                        qrow[j] = w
                    elif j in qrow:
                        del qrow[j]
                _strip_content(qrow)

    out = []
    for p in sorted(piv):
        prow = piv[p]
        pl = prow[p]
        out.append(SparseVector((j, Fraction(v, pl)) for j, v in prow.items()))
    return EchelonBasis(field, ambient_dim, tuple(out))


def _rref_mod(field: Field, ambient_dim: int, rows: Iterable) -> EchelonBasis:
    mul = field.mul
    sub = field.sub
    inv = field.inv
    one = field.one

    piv: dict[int, dict[int, Scalar]] = {}
    for r in rows:
        row = _row_as_dict(r, ambient_dim)
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                c = row.pop(lead)
                if c != one:
                    ic = inv(c)
                    row = {j: mul(v, ic) for j, v in row.items()}
                row[lead] = one
                piv[lead] = row
                break
            factor = row.pop(lead)
            for j, v in prow.items():
                if j == lead:
                    continue
                w = sub(row.get(j, 0), mul(factor, v))
                if w:
                    row[j] = w
                elif j in row:
                    del row[j]

    for p in sorted(piv, reverse=True):
        prow = piv[p]
        for q, qrow in piv.items():
            if q < p and p in qrow:
                factor = qrow.pop(p)
                for j, v in prow.items():
                    if j == p:
                        continue
                    w = sub(qrow.get(j, 0), mul(factor, v))
                    if w:
                        qrow[j] = w
                    elif j in qrow:
                        del qrow[j]

    out = tuple(SparseVector.from_dict(piv[p]) for p in sorted(piv))
    return EchelonBasis(field, ambient_dim, out)


class MemberResult:
    """Outcome of reducing a vector against a basis.

    ``inside`` tells whether the residual vanished; ``coordinates`` gives
    the coefficient of each basis row in pivot order (meaningful when
    inside); ``residual`` is the leftover, scaled monic at its leading
    entry so that equal residual lines compare equal.
    """

    __slots__ = ("inside", "coordinates", "residual")

    def __init__(self, inside: bool, coordinates: tuple[Scalar, ...], residual: SparseVector):
        self.inside = inside
        self.coordinates = coordinates
        self.residual = residual


def member(basis: EchelonBasis, v) -> MemberResult:
    """Reduce ``v`` against the basis rows."""
    field = basis.field
    mul = field.mul
    sub = field.sub
    row = _row_as_dict(v, basis.ambient_dim)
    coords = []
    for p, brow in zip(basis.pivots, basis.rows):
        c = row.get(p)
        if c is None:
            coords.append(field.zero)
            continue
        coords.append(c)
        for j, w in brow.entries:
            u = sub(row.get(j, 0), mul(c, w))
            if u:
                row[j] = u
            elif j in row:
                del row[j]
    if not row:
        return MemberResult(True, tuple(coords), SparseVector(()))
    lead = min(row)
    ic = field.inv(row[lead])
    residual = SparseVector((j, mul(c, ic)) for j, c in row.items())
    return MemberResult(False, tuple(coords), residual)


def sum_bases(a: EchelonBasis, b: EchelonBasis) -> EchelonBasis:
    """Canonical basis of the subspace sum a + b."""
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise InputError("subspace sum needs matching field and ambient dimension")
    if not b.rows:
        return a
    if not a.rows:
        return b
    return rref(a.field, a.ambient_dim, a.rows + b.rows)


def contains(a: EchelonBasis, b: EchelonBasis) -> bool:
    """Whether span(a) contains span(b), by rank of the sum."""
    return sum_bases(a, b).rank == a.rank
