"""Per-layer tracing of lieadm, installed from outside the package.

Each hook replaces one public function or method by name, at the module
boundary where its callers look it up (``lieadm.variety.rref`` and
``lieadm.ideals.rref`` are separate hooks, so elimination is split by
calling module). A span wrapper records name, start, end and the
enclosing span; self time is a span's duration minus its direct
children's. Very hot functions get a counting wrapper instead of spans.

A hook whose target no longer exists is reported as missing and skipped,
so refactors that delete internals do not break the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

COUNT = "count"
SECONDS = "s"
RATIO = "ratio"

RREF_CALLERS = {"lieadm.variety": "component", "lieadm.ideals": "span", "lieadm.fdalg": "fd"}
SPAN_LAYERS = (
    "terms.enumerate_monomials",
    "variety.relation_rows",
    "linalg.member",
    "linalg.sum_bases",
    "ideals.product_space",
    "ideals.bracket_space",
    "ideals.sum",
    "ideals.ideal_closure",
    "ideals.check_inclusion",
    "ideals.check_theorem",
    "fdalg.from_doc",
    "fdalg.check_membership",
    "fdalg.chains",
    "fdalg.audit",
    "reports.canonical_json",
    "cli.main",
) + tuple(f"linalg.rref.{c}" for c in RREF_CALLERS.values())


def _rref_prepare(args, kwargs):
    field, ambient_dim, rows = args
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    return (field, ambient_dim, rows), kwargs


def _rref_after(prefix):
    def after(counts, args, result):
        counts[prefix + ".rows_in"] += len(args[2])
        counts[prefix + ".cols"] += args[1]
        counts[prefix + ".rank_out"] += result.rank
        counts[prefix + ".nnz_out"] += sum(len(r.entries) for r in result.rows)

    return after


def _relation_rows_after(counts, args, result):
    counts["variety.relation_rows.rows"] += len(result)


def _component_after(counts, args, result):
    comp = args[0]
    counts["variety.component.builds"] += 1
    counts["variety.component.cols"] += len(getattr(comp, "monomials", ()))
    relations = getattr(comp, "relations", None)
    counts["variety.component.rank"] += relations.rank if relations is not None else 0
    counts["variety.component.quotient_dim"] += comp.quotient_dim


def _canonical_json_after(counts, args, result):
    counts["reports.canonical_json.bytes"] += len(result.encode("utf-8"))


# (module, attribute path, span name, after, prepare)
SPAN_HOOKS = [
    ("lieadm.terms", "enumerate_monomials", "terms.enumerate_monomials", None, None),
    ("lieadm.variety", "enumerate_monomials", "terms.enumerate_monomials", None, None),
    ("lieadm.variety", "relation_rows", "variety.relation_rows", _relation_rows_after, None),
    ("lieadm.variety", "FreeAlgebraComponent.__init__", "variety.component", _component_after, None),
    ("lieadm.ideals", "member", "linalg.member", None, None),
    ("lieadm.fdalg", "member", "linalg.member", None, None),
    ("lieadm.ideals", "_sum_bases", "linalg.sum_bases", None, None),
    ("lieadm.fdalg", "sum_bases", "linalg.sum_bases", None, None),
    ("lieadm.ideals", "AlgebraSlice.product_space", "ideals.product_space", None, None),
    ("lieadm.ideals", "AlgebraSlice.bracket_space", "ideals.bracket_space", None, None),
    ("lieadm.ideals", "AlgebraSlice.sum", "ideals.sum", None, None),
    ("lieadm.ideals", "AlgebraSlice.ideal_closure", "ideals.ideal_closure", None, None),
    ("lieadm.ideals", "AlgebraSlice.check_inclusion", "ideals.check_inclusion", None, None),
    ("lieadm.ideals", "check_theorem", "ideals.check_theorem", None, None),
    ("lieadm.cli", "check_theorem", "ideals.check_theorem", None, None),
    ("lieadm.fdalg", "FiniteDimAlgebra.from_doc", "fdalg.from_doc", None, None),
    ("lieadm.fdalg", "check_membership", "fdalg.check_membership", None, None),
    ("lieadm.fdalg", "lie_series_fd", "fdalg.chains", None, None),
    ("lieadm.fdalg", "lower_central_fd", "fdalg.chains", None, None),
    ("lieadm.fdalg", "commutator_ideal_nilpotency", "fdalg.chains", None, None),
    ("lieadm.fdalg", "audit", "fdalg.audit", None, None),
    ("lieadm.cli", "audit", "fdalg.audit", None, None),
    ("lieadm.cli", "canonical_json", "reports.canonical_json", _canonical_json_after, None),
    ("lieadm.cli", "main", "cli.main", None, None),
] + [
    (module, "rref", f"linalg.rref.{caller}", _rref_after(f"linalg.rref.{caller}"), _rref_prepare)
    for module, caller in RREF_CALLERS.items()
]


def per_layer_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in SPAN_LAYERS:
        units.update({f"{name}.calls": COUNT, f"{name}.s": SECONDS, f"{name}.self_s": SECONDS})
    for caller in RREF_CALLERS.values():
        prefix = f"linalg.rref.{caller}"
        for counter in ("rows_in", "rank_out", "nnz_out", "cols"):
            units[f"{prefix}.{counter}"] = COUNT
        units[f"{prefix}.useful_ratio"] = RATIO
    units["variety.relation_rows.rows"] = COUNT
    for counter in ("builds", "cols", "rank", "quotient_dim"):
        units[f"variety.component.{counter}"] = COUNT
    units["variety.component.s"] = SECONDS
    units["variety.nf_table.s"] = SECONDS
    units["variety.component_basis.calls"] = COUNT
    units["variety.component_basis.hit_ratio"] = RATIO
    units["ideals.multiply_classes.calls"] = COUNT
    units["ideals.multiply_classes.hit_ratio"] = RATIO
    units["fdalg.multiply.calls"] = COUNT
    units["reports.canonical_json.bytes"] = COUNT
    units["trace.overhead_ratio"] = RATIO
    units["trace.missing_hooks"] = COUNT
    return units


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, nested in same name]
        self.stack: list[int] = []
        self.depth: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.missing: list[str] = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None, prepare=None):
        spans, stack, depth, counts = self.spans, self.stack, self.depth, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, depth[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _component_basis(self, fn):
        counts = self.counts
        span = self._span("variety.component_basis", fn)

        def wrapper(*args, **kwargs):
            builds = counts["variety.component.builds"]
            result = span(*args, **kwargs)
            if counts["variety.component.builds"] == builds:
                counts["variety.component_basis.hits"] += 1
            return result

        return wrapper

    def _multiply_classes(self, fn):
        counts = self.counts

        def wrapper(slice_, *args):
            cache = getattr(slice_, "_mul", None)
            before = len(cache) if cache is not None else -1
            result = fn(slice_, *args)
            counts["ideals.multiply_classes.calls"] += 1
            if cache is not None and len(cache) == before:
                counts["ideals.multiply_classes.hits"] += 1
            return result

        return wrapper

    def _fd_multiply(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["fdalg.multiply.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _hook(self, module_name, path, make) -> None:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        for module, path, name, after, prepare in SPAN_HOOKS:
            self._hook(module, path, lambda fn, n=name, a=after, p=prepare: self._span(n, fn, a, p))
        for module in ("lieadm.variety", "lieadm.ideals", "lieadm.cli"):
            self._hook(module, "component_basis", self._component_basis)
        self._hook("lieadm.ideals", "AlgebraSlice.multiply_classes", self._multiply_classes)
        self._hook("lieadm.fdalg", "FiniteDimAlgebra.multiply", self._fd_multiply)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> tuple[dict, dict]:
        """(deterministic counters, seconds) of the pass since reset()."""
        counters = dict(self.counts)
        seconds: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, nested), inner in zip(self.spans, child):
            counters[f"{name}.calls"] = counters.get(f"{name}.calls", 0) + 1
            if not nested:
                seconds[f"{name}.s"] += end - start
            seconds[f"{name}.self_s"] += end - start - inner
        return counters, dict(seconds)


def layer_metrics(counters: dict, seconds: dict, missing: list[str]) -> dict:
    """Per-layer metric values from one pass's counters and seconds."""
    out = {name: 0 for name in per_layer_units()}
    for name in out:
        if name in counters:
            out[name] = counters[name]
        elif name in seconds:
            out[name] = seconds[name]
    out["variety.nf_table.s"] = seconds.get("variety.component.self_s", 0.0)
    for caller in RREF_CALLERS.values():
        prefix = f"linalg.rref.{caller}"
        rows = counters.get(f"{prefix}.rows_in", 0)
        out[f"{prefix}.useful_ratio"] = counters.get(f"{prefix}.rank_out", 0) / rows if rows else 0.0
    for prefix in ("variety.component_basis", "ideals.multiply_classes"):
        calls = counters.get(f"{prefix}.calls", 0)
        out[f"{prefix}.hit_ratio"] = counters.get(f"{prefix}.hits", 0) / calls if calls else 0.0
    out["trace.missing_hooks"] = len(missing)
    return out
