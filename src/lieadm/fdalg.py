"""Finite-dimensional algebras given by structure constants.

The file format is a JSON document:

    { "field": "Q" | {"p": prime},
      "dim": n,
      "products": [ [i, j, k, "num/den"], ... ] }

with 1-based basis indices, e_i * e_j = sum_k c * e_k over the listed
entries, everything omitted being zero, and each coefficient a JSON
integer or text of the form -?[0-9]+(/[0-9]+)?, the rational literal of
the expression syntax. The audit computes variety memberships with
witnesses, both canonical chains, and the nilpotency index of the
commutator ideal, then cross-checks the structural facts the chains are
expected to satisfy for members of the covered varieties.

The chains and the powers of the commutator ideal are read from
``ideals.AlgebraSlice``: its chain terms ``h_term``/``a_term`` and its
``power``; one span calculus serves both kinds of algebra. A
structure-constant algebra is the one component of a slice, under the
empty multidegree with degree cap 0, so nothing is truncated. Each chain
is reported as a plain document (``_iterate_chain``). One audit runs its
three chain computations on one slice, so a span such as [A, A] (the
second Lie power, the generator of H_2 and of the commutator ideal) is
formed once per audit, through the slice's memo.

Membership evaluates each identity on every tuple of basis vectors,
through ``terms.nonzero_values`` with the basis vectors as leaves, and a
failing identity's witness is its first value. One audit
keeps that evaluation table of monomial values keyed by (shape, basis
arguments), shared by the terms, identities and varieties it checks, so
each subproduct such as (e_1 e_2) e_3 is multiplied out once per audit;
the table also keeps each identity's witness, so an identity two
varieties share (``rightcom``, ``leftsym``) is scanned once per audit:
five scans for the seven identities of the builtin varieties. The table
is dropped with the audit and never stored on the algebra. Each scan
reads only the tuples ``Identity.representatives`` keeps, as ``variety``
evaluates its substitutions, so a non-multilinear identity is refused.

The scan grows at least as dim^3, so from_doc refuses dim above MAX_DIM
with a ResourceError. At MAX_DIM = 32, on a 2-core x86-64 box with
CPython 3.11, ``lieadm algebra`` took 0.6 s for the zero algebra and
13 to 16 s for the slowest case measured: a truncated polynomial algebra
(commutative, associative, so every identity is scanned in full) written
in a random basis over F_101, with every product dense.

Rational constants cost more per product, which dim does not bound, so
from_doc also refuses an ``audit_cost`` over MAX_AUDIT_COST. The table of
(e_a e_b) e_c and e_a (e_b e_c) multiplies, for each of dim^3 triples, a
vector of about nnz/dim^2 entries by products as long: nnz^2/dim scalar
operations for nnz nonzero constants. An int operation weighs
1 + (bits - 1)//64 and a ``Fraction`` one 8 + 2*bits//3, bits being the
widest numerator or denominator. A unit took 0.44 to 0.61 us on dense
algebras of dim 12 to 32 on the box above: the truncated polynomial
algebra in a random rational basis (entries -3..3, 10 on the diagonal)
audits in 5.7 s at dim 12 (46 bits, 9.5e6 units) and 23 s at dim 16
(56 bits, 4.7e7 units), the F_101 one in 15.5 s at dim 32 (3.3e7 units).
MAX_AUDIT_COST = MAX_DIM^5 is the estimate of a fully dense algebra of
dim MAX_DIM with word-size constants, the dearest one MAX_DIM admits.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Optional

from .errors import FieldError, ResourceError, SchemaError
from .ideals import AlgebraSlice
from .linalg import Field, GF, QQ
from .terms import nonzero_values, template_terms
from .variety import VarietySpec, builtin_variety, variety_names

# largest dim and audit cost estimate from_doc accepts (see the module docstring)
MAX_DIM = 32
MAX_AUDIT_COST = MAX_DIM**5

_COVERED = ("assosymmetric", "bicommutative", "novikov")
_EQUIVALENCE = ("bicommutative", "novikov")


def _render_fd(field: Field, entries) -> str:
    """Linear combination of basis vectors as text, e.g. 2*e3 - e1."""
    chunks = []
    for k, c in sorted(entries):
        text = field.render(c)
        negative = text.startswith("-")
        mag = text[1:] if negative else text
        body = f"e{k + 1}" if mag == "1" else f"{mag}*e{k + 1}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks) if chunks else "0"


class FiniteDimAlgebra:
    """Structure constants over an exact field, stored sparsely."""

    __slots__ = ("field", "dim", "products")

    def __init__(self, field: Field, dim: int, products: dict):
        self.field = field
        self.dim = dim
        # products: (i, j) 0-based -> tuple of (k, coefficient), k sorted
        self.products = products

    # -- schema ----------------------------------------------------------------

    @classmethod
    def from_doc(cls, doc) -> "FiniteDimAlgebra":
        if not isinstance(doc, dict):
            raise SchemaError("algebra document must be a JSON object")
        unknown = set(doc) - {"field", "dim", "products"}
        if unknown:
            raise SchemaError(f"unknown keys: {', '.join(sorted(unknown))}")
        for key in ("field", "dim", "products"):
            if key not in doc:
                raise SchemaError(f"missing key {key!r}")

        fspec = doc["field"]
        if fspec == "Q":
            field = QQ
        elif isinstance(fspec, dict) and set(fspec) == {"p"} and isinstance(fspec["p"], int):
            try:
                field = GF(fspec["p"])
            except FieldError as err:
                raise SchemaError(str(err)) from None
        else:
            raise SchemaError('field must be "Q" or {"p": prime}')

        n = doc["dim"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise SchemaError("dim must be a positive integer")
        if n > MAX_DIM:
            raise ResourceError(f"dim {n} is over the limit of {MAX_DIM} for an audit")

        rows = doc["products"]
        if not isinstance(rows, list):
            raise SchemaError("products must be a list")
        table: dict = {}
        seen = set()
        for pos, entry in enumerate(rows):
            if not isinstance(entry, list) or len(entry) != 4:
                raise SchemaError(f"products[{pos}] must be [i, j, k, coefficient]")
            i, j, k, text = entry
            for label, idx in (("i", i), ("j", j), ("k", k)):
                if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= n:
                    raise SchemaError(
                        f"products[{pos}]: index {label}={idx!r} outside 1..{n}"
                    )
            if (i, j, k) in seen:
                raise SchemaError(f"products[{pos}]: duplicate entry for ({i},{j},{k})")
            seen.add((i, j, k))
            if not isinstance(text, (str, int)) or isinstance(text, bool):
                raise SchemaError(f"products[{pos}]: coefficient must be text")
            try:  # str() refuses an integer past the interpreter's digit limit
                c = field.parse(str(text))
            except (ValueError, FieldError) as err:
                raise SchemaError(f"products[{pos}]: bad coefficient: {err}") from None
            if c:
                table.setdefault((i - 1, j - 1), []).append((k - 1, c))
        products = {
            key: tuple(sorted(vals)) for key, vals in table.items()
        }
        cost, nnz, bits = audit_cost(n, products)
        if cost > MAX_AUDIT_COST:
            raise ResourceError(
                f"audit cost estimate {cost} (dim {n}, {nnz} nonzero constants, "
                f"{bits}-bit coefficients) is over the limit of {MAX_AUDIT_COST}"
            )
        return cls(field, n, products)

    @classmethod
    def load(cls, path) -> "FiniteDimAlgebra":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as err:
            raise SchemaError(f"cannot read {path}: {err}") from None
        except ValueError as err:  # JSONDecodeError, or an int literal over the digit limit
            raise SchemaError(f"{path} is not valid JSON: {err}") from None
        return cls.from_doc(doc)

    def to_doc(self) -> dict:
        fspec = "Q" if self.field.char == 0 else {"p": self.field.char}
        rows = []
        for (i, j), vals in self.products.items():
            for k, c in vals:
                rows.append([i + 1, j + 1, k + 1, self.field.render(c)])
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return {"field": fspec, "dim": self.dim, "products": rows}

    # -- arithmetic in e-coordinates ----------------------------------------------

    @property
    def quotient_dim(self) -> int:
        """``dim``: the algebra is the one component of its span slice."""
        return self.dim

    def add_product(self, acc: dict, a: tuple, x, y, scale=1) -> None:
        """acc += scale * (x times y) for (index, scalar) pairs x and y, with
        plain ``+``/``*``: the caller reduces the finished sum once. ``a``
        is the degree of x in a slice, always ``()`` here."""
        products = self.products
        for i, xi in x:
            for j, yj in y:
                prod = products.get((i, j))
                if prod:
                    c = scale * xi * yj
                    for k, w in prod:
                        acc[k] = acc.get(k, 0) + c * w

    def __repr__(self) -> str:
        return f"FiniteDimAlgebra({self.field.name}, dim={self.dim})"


def audit_cost(dim: int, products: dict) -> tuple[int, int, int]:
    """(cost estimate, nonzero constants, coefficient bits) of auditing
    the algebra with these structure constants; see the module docstring."""
    consts = [c for vals in products.values() for _, c in vals]
    bits = max((max(abs(c.numerator), c.denominator).bit_length() for c in consts), default=0)
    if any(isinstance(c, Fraction) for c in consts):
        weight = 8 + 2 * bits // 3
    else:
        weight = 1 + (bits - 1) // 64
    return len(consts) ** 2 // dim * weight, len(consts), bits


# ---------------------------------------------------------------------------
# membership


def check_membership(
    alg: FiniteDimAlgebra, variety: VarietySpec, table: Optional[dict] = None
) -> dict:
    """The membership document ``{"member", "witness"}``: evaluate every
    defining identity on every basis tuple.

    Multilinearity makes basis tuples sufficient, so a non-multilinear
    identity is refused (UnsupportedVarietyError, from
    ``Identity.representatives``); the first failing (identity, tuple) in
    order is the witness, None for a member.
    ``table`` is the ``terms.evaluate`` table of monomial values on basis
    arguments; pass the same dict to several calls on one algebra to
    share them, as ``audit`` does. The table also keeps each identity's
    witness (None when it holds) under the identity, so an identity that
    several varieties share is scanned once per table.
    """
    if table is None:
        table = {}
    table.setdefault((1,), {(i,): ((), ((i, 1),)) for i in range(alg.dim)})
    for ident in variety.identities:
        if ident not in table:
            table[ident] = _first_failure(alg, ident, table)
        if table[ident] is not None:
            return {"member": False, "witness": table[ident]}
    return {"member": True, "witness": None}


def _first_failure(alg: FiniteDimAlgebra, ident, table: dict) -> Optional[dict]:
    """The witness of the first basis tuple, in lexicographic order, on
    which the identity fails (the first ``terms.nonzero_values``), or None.
    Only the tuples ``Identity.representatives`` keeps are scanned: a
    skipped tuple is the swap of a kept one before it, or gives zero."""
    f = alg.field
    combos = itertools.product(range(alg.dim), repeat=len(ident.variables))
    terms = template_terms(ident.template(f), table)
    values = nonzero_values(terms, ident.representatives(f, combos), table, {(): alg}, f.char)
    for combo, acc in values:
        return {
            "identity": ident.name,
            "arguments": {name: f"e{combo[pos] + 1}" for pos, name in enumerate(ident.variables)},
            "residual": _render_fd(f, acc.items()),
        }
    return None


# ---------------------------------------------------------------------------
# chains, through the span calculus of ideals.AlgebraSlice. Each function
# runs on the slice it is given, or on a fresh one; an audit passes one slice
# to all three, so they share its memo of chain terms, powers and spans, and
# the slice is dropped with the audit, never stored on the algebra.


class _FdSlice(AlgebraSlice):
    """The algebra as the one component of a slice, under the empty
    multidegree with degree cap 0; no product is ever truncated."""

    __slots__ = ()

    def __init__(self, alg: FiniteDimAlgebra):
        self._init_spans(alg.field, 0, {(): alg})

    def __repr__(self) -> str:
        return f"_FdSlice({self.field.name}, dim={self.components[()].dim})"


def _iterate_chain(kind: str, term) -> dict:
    """The chain document of terms term(1), term(2), ... up to the first
    zero or repeated one: ``chain``, the total ``dims``, the
    ``vanishing_index`` of the zero term and the ``class`` one below it
    (both None when the chain stops on a repeat), and ``truncated``.

    Both chains descend: H_{i+1} <= H_i and A_{i+1} <= A_i, by induction
    on i. So every term before the stop has a smaller dimension than the
    one before, the chain stops within dim + 1 terms, and ``truncated``
    is always false.
    """
    terms = [term(1)]
    while not terms[-1].is_zero():
        nxt = term(len(terms) + 1)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    vanish = len(terms) if terms[-1].is_zero() else None
    return {
        "chain": kind,
        "dims": [t.total_dim() for t in terms],
        "vanishing_index": vanish,
        "class": vanish - 1 if vanish is not None else None,
        "truncated": False,
    }


def lie_series_fd(alg: FiniteDimAlgebra, s: Optional[_FdSlice] = None) -> dict:
    return _iterate_chain("lie-powers", (s or _FdSlice(alg)).a_term)


def lower_central_fd(alg: FiniteDimAlgebra, s: Optional[_FdSlice] = None) -> dict:
    return _iterate_chain("lower-central", (s or _FdSlice(alg)).h_term)


def commutator_ideal_nilpotency(
    alg: FiniteDimAlgebra, s: Optional[_FdSlice] = None
) -> Optional[int]:
    """Smallest m with (A o A)^m = 0, or None within dim+1 powers."""
    s = s or _FdSlice(alg)
    ideal = s.commutator_ideal(s.full(), s.full())
    for m in range(1, alg.dim + 2):
        if s.power(ideal, m).is_zero():
            return m
    return None


# ---------------------------------------------------------------------------
# audit


def audit(alg: FiniteDimAlgebra) -> dict:
    """The audit document: ``field``, ``dim``, the ``memberships`` of every
    builtin variety, the ``lie_powers`` and ``lower_central`` chain
    documents, the ``commutator_ideal_index``, the two ``checks`` and the
    overall ``status``, FAIL when a check fails, else PASS."""
    table: dict = {}
    memberships = {
        name: check_membership(alg, builtin_variety(name), table)
        for name in variety_names()
    }
    s = _FdSlice(alg)
    lie = lie_series_fd(alg, s)
    lower = lower_central_fd(alg, s)
    index = commutator_ideal_nilpotency(alg, s)

    in_equiv = [n for n in _EQUIVALENCE if memberships[n]["member"]]
    if in_equiv:
        lie_nilpotent, finite_class = lie["class"] is not None, lower["class"] is not None
        equivalence = (
            "PASS" if lie_nilpotent == finite_class else "FAIL",
            f"member of {'/'.join(in_equiv)}: lie nilpotent = "
            f"{lie_nilpotent}, finite class = {finite_class}",
        )
    else:
        equivalence = ("not-asserted", "not a member of a variety with the equivalence")

    covered = [n for n in _COVERED if memberships[n]["member"]]
    cls = lower["class"]
    if covered and cls is not None:
        ok = index is not None and index <= cls
        bound = ("PASS" if ok else "FAIL", f"index = {index}, class = {cls}")
    elif covered:
        bound = ("not-asserted", "class not finite within the cutoff")
    else:
        bound = ("not-asserted", "not a member of a covered variety")

    checks = [
        {"name": name, "status": status, "detail": detail}
        for name, (status, detail) in (
            ("lie-nilpotent-iff-finite-class", equivalence),
            ("commutator-ideal-index-at-most-class", bound),
        )
    ]
    return {
        "field": alg.field.name,
        "dim": alg.dim,
        "memberships": memberships,
        "lie_powers": lie,
        "lower_central": lower,
        "commutator_ideal_index": index,
        "checks": checks,
        "status": "PASS" if all(c["status"] != "FAIL" for c in checks) else "FAIL",
    }


# ---------------------------------------------------------------------------
# corpus generation

_PATTERNS = (
    # (weights,) tuples; a product slot (i, j) -> k exists when w_k = w_i + w_j
    (1, 1, 2),
    (1, 1, 2, 2),
    (1, 1, 2, 3),
    (1, 1, 2, 2, 3),
    (1, 1, 1, 2),
)

_COEFF_POOL = (0, 0, 0, 1, -1, 2, -2)


def _pattern_slots(weights: tuple[int, ...]) -> list[tuple[int, int, int]]:
    n = len(weights)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if weights[k] == weights[i] + weights[j]
    ]


def _random_weighted(rng, weights: tuple[int, ...], top_weight_zero: bool) -> FiniteDimAlgebra:
    table: dict = {}
    top = max(weights)
    for i, j, k in _pattern_slots(weights):
        if top_weight_zero and weights[k] == top and top > 2:
            continue
        c = rng.choice(_COEFF_POOL)
        if c:
            table.setdefault((i, j), []).append((k, c))
    products = {key: tuple(sorted(vals)) for key, vals in table.items()}
    return FiniteDimAlgebra(QQ, len(weights), products)


def generate_nilpotent_corpus(seed: int, per_variety: int = 25) -> dict:
    """Rejection-sample weight-graded algebras until the quota of members
    is met for each target variety. Weights make every instance nilpotent
    (products strictly increase weight), so the audit facts are all
    decidable; the seed makes the corpus reproducible."""
    import random

    rng = random.Random(seed)
    out = []
    for target in ("novikov", "bicommutative"):
        spec = builtin_variety(target)
        found = 0
        pattern_cycle = itertools.cycle(_PATTERNS)
        while found < per_variety:
            weights = next(pattern_cycle)
            alg = None
            for attempt in range(400):
                cand = _random_weighted(rng, weights, top_weight_zero=False)
                if cand.products and check_membership(cand, spec)["member"]:
                    alg = cand
                    break
            if alg is None:
                # guaranteed member: all triple products vanish
                while True:
                    cand = _random_weighted(rng, weights, top_weight_zero=True)
                    if cand.products:
                        alg = cand
                        break
            out.append({"variety": target, "algebra": alg.to_doc()})
            found += 1
    return {"schema": 1, "seed": seed, "algebras": out}
