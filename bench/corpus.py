"""Seeded generator of structure-constant algebras for the audit workload.

Standard library only: nothing here imports lieadm, so the program under
test sees nothing but the JSON files written from these documents, in the
schema ``lieadm algebra --file`` reads (1-based ``"products"`` entries and
``"field"``).

Every algebra is pool entry ``index`` of a fixed, seed-independent pool:
entry ``index`` is drawn from its own ``random.Random``, so a run's seed
only picks which entries it audits and in what order, and the expected
output of every entry can be recorded once (``expected.json``).

Three kinds, all nilpotent, so both chains must reach zero:

- ``graded``: random constants on weight-graded slots (e_i e_j may involve
  e_k only when w_k = w_i + w_j). Mostly non-members, where membership
  checking stops at the first failing tuple.
- ``triple_zero``: weights 1 and 2 only, so every product of three
  elements vanishes and the algebra lies in every covered variety.
- ``truncated``: a truncated polynomial algebra (commutative and
  associative) written in a basis that adds random higher-degree terms to
  each monomial, so its products are dense. A member of every covered
  variety, for which membership checking scans every tuple.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Kind and shape of each stratum, and its field (0 for Q). Pool entry i
# belongs to stratum i % len(STRATA); each corpus takes the same number of
# entries from every stratum, so the work per corpus hardly depends on the
# seed.
STRATA = (
    [("graded", w, 0) for w in (
        (1, 1, 2),
        (1, 1, 2, 2),
        (1, 1, 2, 3),
        (1, 1, 2, 2, 3),
        (1, 1, 1, 2, 2, 3),
        (1, 1, 2, 3, 4),
        (1, 1, 2, 2, 3, 3, 4),
        (1, 1, 1, 2, 2, 3, 4, 5),
        (1, 1, 2, 2, 3, 3, 4, 4, 5),
        (1, 1, 1, 2, 2, 2, 3, 3, 4, 5),
    )]
    + [("triple_zero", lh, 0) for lh in ((2, 1), (2, 3), (3, 3), (4, 3), (5, 5))]
    + [("truncated", vt, 0) for vt in ((1, 3), (1, 5), (1, 7), (1, 10), (2, 2), (2, 3), (3, 2))]
    + [("graded", (1, 1, 2, 2, 3), 5), ("triple_zero", (3, 3), 7), ("truncated", (2, 2), 5)]
)
POOL_PER_STRATUM = 40
POOL_SIZE = POOL_PER_STRATUM * len(STRATA)
# Varieties every constructed member (kinds other than "graded") belongs to.
MEMBER_VARIETIES = ("associative", "assosymmetric", "bicommutative", "magma", "novikov")

_Q_COEFFS = (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))


def _coefficient(rng: random.Random, p: int):
    c = rng.choice(_Q_COEFFS)
    if p:
        return rng.randrange(p) if rng.random() < 0.6 else 0
    return c


def _graded(rng, weights, p):
    table = {}
    for i, j, k in itertools.product(range(len(weights)), repeat=3):
        if weights[k] == weights[i] + weights[j]:
            c = _coefficient(rng, p)
            if c:
                table[(i, j, k)] = c
    return len(weights), table


def _triple_zero(rng, shape, p):
    low, high = shape
    table = {}
    for i, j in itertools.product(range(low), repeat=2):
        for k in range(low, low + high):
            c = _coefficient(rng, p)
            if c:
                table[(i, j, k)] = c
    return low + high, table


def _truncated(rng, shape, p):
    nvars, top = shape
    monos = sorted(
        (e for e in itertools.product(range(top + 1), repeat=nvars) if 0 < sum(e) <= top),
        key=lambda e: (sum(e), e),
    )
    n = len(monos)
    pos = {e: i for i, e in enumerate(monos)}
    # Column i of t holds f_i in the monomial basis: f_i = e_i + terms of
    # strictly higher degree, so t is unit lower triangular.
    t = [[int(r == c) for c in range(n)] for r in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            if sum(monos[r]) > sum(monos[c]) and rng.random() < 0.35:
                t[r][c] = rng.choice((1, -1, 2))
    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        v = [0] * n  # f_i * f_j in the monomial basis
        for a in range(n):
            if t[a][i]:
                for b in range(n):
                    if t[b][j]:
                        ab = tuple(x + y for x, y in zip(monos[a], monos[b]))
                        if sum(ab) <= top:
                            v[pos[ab]] += t[a][i] * t[b][j]
        y = [0] * n  # the same element in the f basis: t y = v
        for r in range(n):
            y[r] = v[r] - sum(t[r][c] * y[c] for c in range(r))
        for k, c in enumerate(y):
            if p:
                c %= p
            if c:
                table[(i, j, k)] = c
    return n, table


_BUILD = {"graded": _graded, "triple_zero": _triple_zero, "truncated": _truncated}


def pool_entry(index: int) -> dict:
    """Pool entry ``index``: its kind and the algebra document."""
    kind, shape, p = STRATA[index % len(STRATA)]
    dim, table = _BUILD[kind](random.Random(f"lieadm-audit-{index}"), shape, p)
    products = [[i + 1, j + 1, k + 1, str(c)] for (i, j, k), c in sorted(table.items())]
    doc = {"field": {"p": p} if p else "Q", "dim": dim, "products": products}
    return {"index": index, "kind": kind, "doc": doc}


def corpus(seed: int, per_stratum: int) -> list[dict]:
    """``per_stratum`` distinct pool entries of every stratum, chosen and
    ordered by ``seed``."""
    rng = random.Random(seed)
    indices = [
        s + len(STRATA) * i
        for s in range(len(STRATA))
        for i in rng.sample(range(POOL_PER_STRATUM), per_stratum)
    ]
    rng.shuffle(indices)
    return [pool_entry(i) for i in indices]
