"""Identity expressions: parsing, expansion, and the builtin catalog.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ExprSyntaxError, InputError
from .linalg import Field
from .terms import Polynomial, associator, commutator, jordan, leaf, multiply

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    body: "Node"


@dataclass(frozen=True)
class Add:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Sub:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Mul:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Comm:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Assoc:
    a: "Node"
    b: "Node"
    c: "Node"


@dataclass(frozen=True)
class Jordan:
    a: "Node"
    b: "Node"


Node = object

# ---------------------------------------------------------------------------
# tokenizer

# Deepest parse tree the parser builds. Each bracket level and each chained
# binary operator counts one level. Parsing, expansion and rendering recurse
# per level, up to three frames (parsing) and four (rendering) per bracket
# level: a tree at the bound takes about 600 and 800 frames, inside Python's
# default recursion limit of 1000 with a caller's frames on top. A deeper
# tree is an ExprSyntaxError at the token that crosses the bound.
MAX_DEPTH = 200

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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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

    # grammar rules ---------------------------------------------------------

    def expr(self) -> Node:
        depth = self.depth
        out = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                self.depth = depth
                return out
            self.deeper(self.take())
            rhs = self.term()
            out = Add(out, rhs) if tok[0] == "+" else Sub(out, rhs)

    def term(self) -> Node:
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
            out = Mul(out, self.factor())
        self.depth = depth
        return out if coeff is None else Scale(coeff, out)

    def _rational(self) -> Optional[Fraction]:
        tok = self.peek()
        if tok is None:
            return None
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
        q = Fraction(num, den)
        return -q if negative else q

    def factor(self) -> Node:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("expected a factor before end of input", len(self.text))
        kind, value, off = tok
        if kind == "var":
            self.take()
            return Var(value)
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
            return make(*args) if make else args[0]
        raise ExprSyntaxError(f"expected a factor, found {value!r}", off)


# opening bracket -> (closing bracket, arguments, node type; None for grouping)
_BRACKETS = {"(": (")", 1, None), "[": ("]", 2, Comm), "<": (">", 3, Assoc), "{": ("}", 2, Jordan)}


def _integer(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # past Python's digit limit, or a Unicode digit int() refuses
        raise ExprSyntaxError(
            f"number literal of {len(tok[1])} characters is not a readable integer", tok[2]
        ) from None


def parse(text: str) -> Node:
    """Parse an expression; raises ExprSyntaxError with a byte offset."""
    p = _Parser(text)
    out = p.expr()
    tok = p.peek()
    if tok is not None:
        raise ExprSyntaxError(f"unexpected {tok[1]!r} after expression", tok[2])
    return out


# ---------------------------------------------------------------------------
# rendering (round-trips through parse for parser-produced trees)


def render(ast: Node) -> str:
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Add):
        return f"{render(ast.a)} + {_term_text(ast.b)}"
    if isinstance(ast, Sub):
        return f"{render(ast.a)} - {_term_text(ast.b)}"
    return _term_text(ast)


def _term_text(ast: Node) -> str:
    if isinstance(ast, Scale):
        q = ast.coeff
        qtext = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return f"{qtext}*{_mul_chain(ast.body)}"
    return _mul_chain(ast)


def _mul_chain(ast: Node) -> str:
    if isinstance(ast, Mul):
        return f"{_mul_chain(ast.a)}*{_factor_text(ast.b)}"
    return _factor_text(ast)


def _factor_text(ast: Node) -> str:
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Comm):
        return f"[{render(ast.a)},{render(ast.b)}]"
    if isinstance(ast, Assoc):
        return f"<{render(ast.a)},{render(ast.b)},{render(ast.c)}>"
    if isinstance(ast, Jordan):
        return "{" + render(ast.a) + "," + render(ast.b) + "}"
    return f"({render(ast)})"


# ---------------------------------------------------------------------------
# expansion


def variables_of(ast: Node) -> tuple[str, ...]:
    """Variable names in the expression, sorted."""
    seen = set()

    def walk(n):
        if isinstance(n, Var):
            seen.add(n.name)
        elif isinstance(n, Scale):
            walk(n.body)
        elif isinstance(n, (Add, Sub, Mul, Comm, Jordan)):
            walk(n.a)
            walk(n.b)
        elif isinstance(n, Assoc):
            walk(n.a)
            walk(n.b)
            walk(n.c)

    walk(ast)
    return tuple(sorted(seen))


def expand(ast: Node, field: Field, variables: Optional[tuple[str, ...]] = None) -> Polynomial:
    """Fully expanded polynomial template over variable leaf indices.

    Commutator, associator, and Jordan nodes are rewritten into plain
    products; leaf index i stands for variables[i].
    """
    names = variables if variables is not None else variables_of(ast)
    pos = {name: i for i, name in enumerate(names)}

    def walk(n) -> Polynomial:
        if isinstance(n, Var):
            i = pos.get(n.name)
            if i is None:
                raise InputError(
                    f"variable {n.name!r} is not among {', '.join(names)}"
                )
            return Polynomial.of(field, leaf(i))
        if isinstance(n, Scale):
            return walk(n.body).scaled(field.from_fraction(n.coeff))
        if isinstance(n, Add):
            return walk(n.a).add(walk(n.b))
        if isinstance(n, Sub):
            return walk(n.a).sub(walk(n.b))
        if isinstance(n, Mul):
            return multiply(walk(n.a), walk(n.b))
        if isinstance(n, Comm):
            return commutator(walk(n.a), walk(n.b))
        if isinstance(n, Assoc):
            return associator(walk(n.a), walk(n.b), walk(n.c))
        if isinstance(n, Jordan):
            return jordan(walk(n.a), walk(n.b))
        raise InputError(f"unknown expression node {n!r}")

    return walk(ast)


def is_multilinear(template: Polynomial, nvars: int) -> bool:
    """True when every monomial contains every variable exactly once."""
    want = tuple(range(nvars))
    for m in template.terms:
        if tuple(sorted(m.leaves)) != want:
            return False
    return True


class Identity:
    """A named identity: source text, parsed tree, per-field expansions."""

    __slots__ = ("name", "source", "ast", "variables", "_cache")

    def __init__(self, name: str, source: str):
        self.name = name
        self.source = source
        self.ast = parse(source)
        self.variables = variables_of(self.ast)
        self._cache: dict[Field, Polynomial] = {}

    def __repr__(self) -> str:
        return f"Identity({self.name}: {self.source})"

    def template(self, field: Field) -> Polynomial:
        t = self._cache.get(field)
        if t is None:
            t = self._cache[field] = expand(self.ast, field, self.variables)
        return t

    def multilinear(self, field: Field) -> bool:
        return is_multilinear(self.template(field), len(self.variables))


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
                f"unknown builtin identity {name!r}; known: {', '.join(sorted(BUILTIN_SOURCES))}"
            )
        ident = _builtin_cache[name] = Identity(name, source)
    return ident
