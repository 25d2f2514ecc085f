"""Identity expressions: parsing into templates over Q, and the builtin catalog.

Grammar (whitespace insignificant, offsets are 0-based byte positions):

    expr     := term (('+'|'-') term)*
    term     := [rational] factor ('*' factor)*
    rational := ['-'] integer ['/' positive-integer]
    factor   := variable
              | '(' expr ')'
              | '[' expr ',' expr ']'        commutator
              | '<' expr ',' expr ',' expr '>'  associator
              | '{' expr ',' expr '}'        Jordan product

'*' is mandatory between factors. Variables are a lowercase letter with an
optional digit suffix; the suffix form (x1, x2, ...) is what witness
polynomials print, so any reported polynomial can be pasted back in.
A leading '-' is accepted only as the sign of a rational.

An expression is read once, straight into its template: the fully
expanded polynomial over Q, with commutators, associators and Jordan
products rewritten into plain products as they are parsed. Leaf i stands
for the i-th variable name in sorted order; the names are read from the
tokens before parsing starts.

An ``Identity`` keeps that template and reduces its coefficients into
each prime field it is asked for. The reduction is exact: when p divides
no denominator of a rational literal, every coefficient met while
expanding is a p-integral rational, and reduction mod p is a ring map on
those, so it commutes with expansion. When p divides one, that literal
has no image in F_p, and the template over F_p is a FieldError naming the
first such literal, even where the literal cancels out over Q. Next to
each field's template it keeps the first pair of variables whose swap
negates it, by which ``Identity.representatives`` halves every scan of
argument tuples: the relation rows of ``variety`` and the membership
scans of ``fdalg``.

Each product is checked before it is formed. Its term count is |p||q|
for p*q, 2|p||q| for [p,q] and {p,q}, and 2|p||q||r| for <p,q,r>, and
one parse keeps a running total of the counts of the products it forms.
A product that would take the total past MAX_TEMPLATE_TERMS is a
ResourceError naming its count and the total. The builtin templates hold
at most 12 terms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Iterable, Optional

from .errors import ExprSyntaxError, FieldError, InputError, ResourceError
from .errors import UnsupportedVarietyError
from .linalg import QQ, Field
from .terms import Polynomial, associator, commutator, jordan, leaf, multiply, substitute

# Deepest expression tree the parser reads. Each bracket level and each
# chained binary operator counts one level. Only parsing recurses, three
# frames per bracket level (expr, term, factor): an expression at the bound
# takes about 600 frames, inside Python's default recursion limit of 1000
# with a caller's frames on top. A deeper expression is an ExprSyntaxError
# at the token that crosses the bound.
MAX_DEPTH = 200

# Most terms the products of one expression may expand to in all; see the
# module docstring.
MAX_TEMPLATE_TERMS = 2**16

_SYMBOLS = set("+-*/()[]<>{},")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) triples; kinds are 'num', 'var', and the
    symbol itself."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("num", text[i:j], i))
            i = j
            continue
        if "a" <= ch <= "z":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(("var", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unknown character {ch!r}", i)
    return out


class _Parser:
    """Recursive descent that expands as it parses; see the module
    docstring. ``fractions`` collects (offset, value) of each rational
    literal that is not an integer, in source order."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.variables = tuple(sorted({value for kind, value, _ in self.tokens if kind == "var"}))
        self.leaves = {name: Polynomial.of(QQ, leaf(i)) for i, name in enumerate(self.variables)}
        self.fractions: list[tuple[int, Fraction]] = []
        self.pos = 0
        self.depth = 0
        self.formed = 0  # terms of the products formed so far

    def parse(self) -> Polynomial:
        """The template over Q; raises ExprSyntaxError with a byte offset."""
        out = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected {tok[1]!r} after expression", tok[2])
        return out

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def deeper(self, tok: tuple[str, str, int]) -> None:
        """One level down, at token ``tok``; see MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", tok[2])

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(f"expected {kind!r} before end of input", len(self.text))
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def product(self, make, tok: tuple[str, str, int], weight: int, *args) -> Polynomial:
        """``make(*args)`` for the product at ``tok``, refused before it is
        formed when its count, weight times the product of the operands'
        term counts, would take the terms formed in this parse past
        MAX_TEMPLATE_TERMS."""
        count = weight * prod(len(a.terms) for a in args)
        self.formed += count
        if self.formed > MAX_TEMPLATE_TERMS:
            raise ResourceError(
                f"{tok[1]!r} at offset {tok[2]} would expand to {count} terms, "
                f"{self.formed} in this expression, over the guard of {MAX_TEMPLATE_TERMS}"
            )
        return make(*args)

    # grammar rules ---------------------------------------------------------

    def expr(self) -> Polynomial:
        depth = self.depth
        out = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                self.depth = depth
                return out
            self.deeper(self.take())
            rhs = self.term()
            out = out.add(rhs) if tok[0] == "+" else out.sub(rhs)

    def term(self) -> Polynomial:
        coeff = self._rational()
        if coeff is not None:
            tok = self.peek()
            if tok is not None and tok[0] == "*":
                self.take()
        depth = self.depth
        out = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "*":
                break
            self.deeper(self.take())
            out = self.product(multiply, tok, 1, out, self.factor())
        self.depth = depth
        return out if coeff is None else out.scaled(QQ.from_fraction(coeff))

    def _rational(self) -> Optional[Fraction]:
        tok = self.peek()
        if tok is None:
            return None
        start = tok[2]
        negative = False
        if tok[0] == "-":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is None or nxt[0] != "num":
                raise ExprSyntaxError("expected a number after sign", tok[2])
            self.take()
            negative = True
            tok = self.peek()
        if tok[0] != "num":
            return None
        self.take()
        num = _integer(tok)
        den = 1
        nxt = self.peek()
        if nxt is not None and nxt[0] == "/":
            self.take()
            dtok = self.expect("num")
            den = _integer(dtok)
            if den == 0:
                raise ExprSyntaxError("zero denominator", dtok[2])
        q = Fraction(-num if negative else num, den)
        if q.denominator > 1:
            self.fractions.append((start, q))
        return q

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("expected a factor before end of input", len(self.text))
        kind, value, off = tok
        if kind == "var":
            self.take()
            return self.leaves[value]
        if kind in _BRACKETS:
            close, arity, make = _BRACKETS[kind]
            self.deeper(tok)
            self.take()
            args = [self.expr()]
            for _ in range(arity - 1):
                self.expect(",")
                args.append(self.expr())
            self.expect(close)
            self.depth -= 1
            return self.product(make, tok, 2, *args) if make else args[0]
        raise ExprSyntaxError(f"expected a factor, found {value!r}", off)


# opening bracket -> (closing bracket, arguments, expansion; None for grouping)
_BRACKETS = {
    "(": (")", 1, None),
    "[": ("]", 2, commutator),
    "<": (">", 3, associator),
    "{": ("}", 2, jordan),
}


def _integer(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # past Python's digit limit, or a Unicode digit int() refuses
        raise ExprSyntaxError(
            f"number literal of {len(tok[1])} characters is not a readable integer", tok[2]
        ) from None


def is_multilinear(template: Polynomial, nvars: int) -> bool:
    """True when every monomial contains every variable exactly once."""
    want = tuple(range(nvars))
    for m in template.terms:
        if tuple(sorted(m.leaves)) != want:
            return False
    return True


class Identity:
    """A named identity: source text, variables in sorted order, and its
    template, parsed once over Q and reduced per field, with the swapped
    pair of each field (``representatives``)."""

    __slots__ = ("name", "source", "variables", "_fractions", "_cache", "_pairs")

    def __init__(self, name: str, source: str):
        self.name = name
        self.source = source
        parser = _Parser(source)
        template = parser.parse()
        self.variables = parser.variables
        self._fractions = tuple(parser.fractions)
        self._cache: dict[Field, Polynomial] = {QQ: template}
        self._pairs: dict[Field, Optional[tuple[int, int]]] = {}

    def __repr__(self) -> str:
        return f"Identity({self.name}: {self.source})"

    def template(self, field: Field) -> Polynomial:
        """The template over ``field``: leaf i stands for variables[i].
        FieldError when the characteristic divides the denominator of a
        rational literal."""
        t = self._cache.get(field)
        if t is None:
            p = field.char
            for off, q in self._fractions:
                if q.denominator % p == 0:
                    raise FieldError(
                        f"coefficient {QQ.render(q)} at offset {off} has a denominator "
                        f"not invertible mod {p}"
                    )
            rational = self._cache[QQ].terms
            t = Polynomial(field, {m: field.from_fraction(c) for m, c in rational.items()})
            self._cache[field] = t
        return t

    def multilinear(self, field: Field) -> bool:
        return is_multilinear(self.template(field), len(self.variables))

    def representatives(self, field: Field, tuples: Iterable[tuple]) -> Iterable[tuple]:
        """The argument tuples that evaluating the identity over ``field``
        needs, in their order: UnsupportedVarietyError when the identity is
        not multilinear.

        When swapping variables i < j negates the template (the first such
        pair, found once per field), f(swap t) = -f(t), so only the tuples
        with t[i] < t[j] are kept: one of each swapped pair, under any total
        order of the arguments. Each monomial of a multilinear template
        holds i and j once, so the swap pairs it with another monomial of
        opposite coefficient, and equal arguments at i and j give zero in
        every characteristic. Without such a pair every tuple is kept."""
        if field not in self._pairs:  # kept only for a multilinear identity
            if not self.multilinear(field):
                raise UnsupportedVarietyError(
                    f"identity {self.name!r} is not multilinear; "
                    "only multilinear defining identities are supported"
                )
            template = self.template(field)
            negated = template.scaled(-1)
            m = len(self.variables)
            self._pairs[field] = None
            for i, j in itertools.combinations(range(m), 2):
                swap = {v: leaf(v) for v in range(m)}
                swap[i], swap[j] = swap[j], swap[i]
                if substitute(template, swap) == negated:
                    self._pairs[field] = i, j
                    break
        pair = self._pairs[field]
        if pair is None:
            return tuples
        i, j = pair
        return (t for t in tuples if t[i] < t[j])


# ---------------------------------------------------------------------------
# builtin catalog

_FQUAD = "<w*x,y,z> - x*<w,y,z> - <x,y,z>*w"

BUILTIN_SOURCES: dict[str, str] = {
    "leftcom": "x*(y*z) - y*(x*z)",
    "rightcom": "(x*y)*z - (x*z)*y",
    "leftsym": "<x,y,z> - <y,x,z>",
    "rightsym": "<x,y,z> - <x,z,y>",
    "assoc": "<x,y,z>",
    "jacobi": "[[x,y],z] + [[y,z],x] + [[z,x],y]",
    "alia_left": "[x,y]*z + [y,z]*x + [z,x]*y",
    "alia_right": "x*[y,z] + y*[z,x] + z*[x,y]",
    "eq311": "<x,y,z> + [x,y]*z - x*[y,z] - [x*z,y]",
    "eq312": "<[w,x],y,z> - [w,<x,y,z>] - [x,<w,y,z>]",
    "eq313": "[x*y,z] + [y*z,x] + [z*x,y]",
    "eq314": "<[x,y],z,w>",
    "fquad": _FQUAD,
    "teichmuller": "<w*x,y,z> - <w,x*y,z> + <w,x,y*z> - w*<x,y,z> - <w,x,y>*z",
    # fquad(w,x,y,z) - fquad(y,z,w,x)
    "f_sym47": _FQUAD + " - <y*z,w,x> + z*<y,w,x> + <z,w,x>*y",
    # fquad(w,x,y,z) - fquad(x,w,y,z)
    "f_sym48": _FQUAD + " - <x*w,y,z> + w*<x,y,z> + <w,y,z>*x",
}

_builtin_cache: dict[str, Identity] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(BUILTIN_SOURCES))


def builtin(name: str) -> Identity:
    """The named identity from the catalog; InputError for unknown names."""
    ident = _builtin_cache.get(name)
    if ident is None:
        source = BUILTIN_SOURCES.get(name)
        if source is None:
            raise InputError(
                f"unknown builtin identity {name!r}; known: {', '.join(builtin_names())}"
            )
        ident = _builtin_cache[name] = Identity(name, source)
    return ident
