"""The benchmark's workloads: seeded op lists and per-op output checks.

An op is one call into lieadm. ``before`` (untimed, may be None) resets
state, ``run`` is the timed call, ``render`` turns its result into a
document (untimed) and ``check`` returns an error message or None. Every rendered output is also compared with the
digest recorded for the op's key in ``expected.json``.

- ``cold-cli``: CLI calls with every cache cleared first, as in a fresh
  process: ``lieadm basis --multilinear`` at five generators for four
  varieties (elimination is the wall) and ``lieadm algebra --file`` over
  a corpus written by ``corpus.py`` (membership scans and fd chains; no
  free-algebra component). Both kinds share one workload so that each run
  can be long enough to be steady on a noisy two-core host.
- ``theorem-session``: library use like the acceptance gate: build a slice
  cold, compute both chains, then run a battery of named checks on it.

A workload is a plan: ``plan(k)`` is the op list of pass ``k`` of a run.
The seed fixes the ops (in ``cold-cli``, the audit corpus); every pass
runs the same ops in an order drawn from the seed and ``k``. In
``theorem-session`` the order matters, since a slice caches products of
classes and the first check to need one pays for it, so each op's latency
is averaged over the orders of one run instead of sampling one order per
seed; the slices come in a fixed order, which sets the peak memory.
Traced runs repeat ``plan(0)``, so their deterministic counters can be
compared pass by pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
from pathlib import Path

import corpus

EXPECTED_PATH = Path(__file__).with_name("expected.json")
AUDIT_PER_STRATUM = 4


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, ensure_ascii=False)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Op:
    """One call into lieadm."""

    __slots__ = ("key", "before", "run", "render", "check")

    def __init__(self, key, before, run, render, check):
        self.key = key
        self.before = before
        self.run = run
        self.render = render
        self.check = check


def cold(lieadm):
    """Clears what a fresh process would not have: memoized components and
    the monomial enumeration table (``clear_caches`` leaves the latter)."""
    clear_components = lieadm.variety.clear_caches
    clear_monomials = getattr(lieadm.terms.enumerate_monomials, "cache_clear", None)

    def clear():
        clear_components()
        if clear_monomials is not None:
            clear_monomials()

    return clear


def _cli(lieadm, argv: list[str]) -> str:
    """``lieadm <argv>`` in-process; the captured stdout, exit code 0 required."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lieadm.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lieadm {' '.join(argv)} exited with {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# cold-cli: multilinear bases

BASIS_DEGREE = 5
# Dimensions of the multilinear component at degree n: n! (associative),
# C(2n-2, n-1) (Novikov), 2^n - 2 (bicommutative). Assosymmetric has no
# closed form; 136 is the acceptance gate's golden value.
BASIS_DIMS = {
    "associative": math.factorial(BASIS_DEGREE),
    "novikov": math.comb(2 * BASIS_DEGREE - 2, BASIS_DEGREE - 1),
    "bicommutative": 2**BASIS_DEGREE - 2,
    "assosymmetric": 136,
}


def basis_ops(lieadm) -> list[Op]:
    clear = cold(lieadm)
    n = str(BASIS_DEGREE)
    ops = []
    for name in sorted(BASIS_DIMS):
        argv = ["basis", "--variety", name, "--multilinear", "--gens", n, "--degree", n]
        argv += ["--format", "json"]

        def check(doc, name=name):
            dims = [row["dim"] for row in doc["dims"]]
            if dims != [BASIS_DIMS[name]]:
                return f"{name}: dims {dims}, expected [{BASIS_DIMS[name]}]"
            return None

        def run(argv=argv):
            return _cli(lieadm, argv)

        ops.append(Op(f"basis {name}", clear, run, json.loads, check))
    return ops


# ---------------------------------------------------------------------------
# theorem-session

_PQ = [(p, q) for p in range(1, 5) for q in range(1, 5) if p + q <= 5]
_CORE = (
    [("com_id", {"i": 2})]
    + [("th_pro", {"p": p, "q": q}) for p, q in _PQ]
    + [("th_pro", {"m": m}) for m in (1, 2, 3)]
    + [("prod_com_id", {"i": i}) for i in (1, 2, 3, 4)]
)
_CLOSED_POWERS = [("prod_com_id", {"i": i}) for i in (1, 2, 3, 4)]
_ASSOSYM = [
    ("lem_ass_ap", {"p": 1, "q": 2}),
    ("lem_46", {"j": 3}),
    ("cp_ass", {"i": 2, "j": 3}),
    ("cp_ass", {"i": 3, "j": 2}),
]
# (variety, characteristic, generators, degree cap, battery)
SESSION_SLICES = (
    ("novikov", 0, 3, 5, _CORE),
    ("bicommutative", 0, 3, 5, _CORE + [("bicom_metabelian", {})]),
    ("novikov", 5, 3, 5, _CLOSED_POWERS),
    ("assosymmetric", 0, 2, 5, _ASSOSYM),
)


def _check_verified(doc):
    if doc["status"] != "verified":
        return f"status {doc['status']}"
    return None


def _check_chain(doc):
    if len(doc["terms"]) != doc["degree_cap"]:
        return f"{len(doc['terms'])} chain terms for cap {doc['degree_cap']}"
    dims = [term["total_dim"] for term in doc["terms"]]
    if doc["chain"] == "lower-central" and dims != sorted(dims, reverse=True):
        return f"lower central chain dims {dims} do not descend"
    return None


def _pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}/{k}")


def theorem_session(lieadm, seed: int, workdir: Path):
    clear = cold(lieadm)
    # The slice in use. Dropping it before the next build, untimed, keeps
    # its memory out of the peak and its deallocation out of the build time;
    # a slice holds reference cycles, so only a collection frees it.
    state = {}

    def reset():
        state.clear()
        gc.collect()
        clear()

    slices = []  # (build and chain ops, battery ops) per slice
    for name, char, k, cap, battery in SESSION_SLICES:
        label = f"{name}/{'Q' if char == 0 else f'F{char}'}/k{k}/D{cap}"
        ops = []

        def build(name=name, char=char, k=k, cap=cap):
            variety = lieadm.variety.builtin_variety(name)
            field = lieadm.linalg.field_of_char(char)
            state["slice"] = lieadm.ideals.AlgebraSlice(variety, field, k, cap)
            return state["slice"]

        def render_dims(s):
            dims = {",".join(map(str, mu)): c.quotient_dim for mu, c in s.components.items()}
            return {"components": dims}

        ops.append(Op(f"{label}:build", reset, build, render_dims, lambda doc: None))
        for chain in ("lower_central_chain", "lie_power_series"):

            def run_chain(chain=chain, cap=cap):
                return getattr(lieadm.ideals, chain)(state["slice"], cap)

            ops.append(Op(f"{label}:{chain}", None, run_chain, lambda r: r.to_doc(), _check_chain))
        checks = []
        for theorem, params in battery:
            args = " ".join(f"{p}={v}" for p, v in sorted(params.items()))

            def run_check(theorem=theorem, params=params):
                return lieadm.ideals.check_theorem(state["slice"], theorem, params)

            key = f"{label}:{theorem} {args}".rstrip()
            checks.append(Op(key, None, run_check, lambda r: r.to_doc(), _check_verified))
        slices.append((ops, checks))

    def plan(k: int) -> list[Op]:
        rng = _pass_rng(seed, k)
        ops = []
        for fixed, checks in slices:
            ops += fixed + rng.sample(checks, len(checks))
        return ops

    return plan


# ---------------------------------------------------------------------------
# cold-cli: algebra audits


def _audit_check(kind):
    def check(doc):
        if doc["status"] != "PASS":
            return f"audit status {doc['status']}"
        for chain in ("lie_powers", "lower_central"):
            if doc[chain]["class"] is None:
                return f"{chain} of a nilpotent algebra did not reach zero"
        if kind != "graded":
            outside = [n for n in corpus.MEMBER_VARIETIES if not doc["memberships"][n]["member"]]
            if outside:
                return f"constructed {kind} member reported outside {', '.join(outside)}"
        return None

    return check


def write_corpus(entries: list[dict], workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in entries:
        path = workdir / f"pool-{entry['index']}.json"
        path.write_text(json.dumps(entry["doc"]), encoding="utf-8")
        paths.append(path)
    return paths


def audit_ops(lieadm, entries: list[dict], workdir: Path) -> list[Op]:
    clear = cold(lieadm)
    ops = []
    for entry, path in zip(entries, write_corpus(entries, workdir)):
        argv = ["algebra", "--file", str(path), "--format", "json"]

        def run(argv=argv):
            return _cli(lieadm, argv)

        key = f"audit pool-{entry['index']}"
        ops.append(Op(key, clear, run, json.loads, _audit_check(entry["kind"])))
    return ops


def cold_cli(lieadm, seed: int, workdir: Path):
    ops = basis_ops(lieadm)
    ops += audit_ops(lieadm, corpus.corpus(seed, AUDIT_PER_STRATUM), workdir)

    def plan(k: int) -> list[Op]:
        return _pass_rng(seed, k).sample(ops, len(ops))

    return plan


WORKLOADS = {"cold-cli": cold_cli, "theorem-session": theorem_session}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def output_digest(op: Op, result) -> tuple[dict, str]:
    """The op's output document and the digest of its canonical text (the
    CLI's own stdout for CLI ops)."""
    doc = op.render(result)
    return doc, digest(result if isinstance(result, str) else canonical(doc))


def verify(op: Op, result, expected: dict):
    """Error message for a wrong output, or None."""
    doc, got = output_digest(op, result)
    error = op.check(doc)
    if error is not None:
        return error
    want = expected.get(op.key)
    if want is None:
        return "no recorded output digest"
    if got != want:
        return f"output digest {got} differs from the recorded {want}"
    return None
