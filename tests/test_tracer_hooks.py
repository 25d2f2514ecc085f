"""The benchmark tracer still finds the functions it wraps.

``bench/tracing.py`` hooks lieadm internals by name and reports a target
that no longer exists as missing instead of failing, so a refactor can
silently drop a layer from the per-layer metrics. This test installs the
tracer, reads what it reports missing and uninstalls it. Every missing
hook must be listed below with the reason it is gone; a hook that comes
back (a benchmark change repairing it) does not fail the test.
"""

import importlib.util
from pathlib import Path

from lieadm.ideals import AlgebraSlice, check_theorem, lower_central_chain
from lieadm.linalg import GF
from lieadm.variety import builtin_variety, clear_caches

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

KNOWN_MISSING = {
    "lieadm.ideals.AlgebraSlice.multiply_classes": (
        "deleted; span products read the product table through add_product"
    ),
    "lieadm.fdalg.rref": "the audit's chains eliminate through AlgebraSlice.span",
    "lieadm.fdalg.sum_bases": "the audit's chains sum through AlgebraSlice.sum",
    "lieadm.fdalg.member": "was an unused import; the audit never reduces against a basis",
    "lieadm.fdalg.FiniteDimAlgebra.multiply": (
        "deleted; membership multiplies through terms.evaluate and add_product"
    ),
}

SPAN_METHODS = ("product_space", "bracket_space", "sum", "ideal_closure", "check_inclusion")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_missing_hook_is_known():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert set(missing) <= set(KNOWN_MISSING), sorted(set(missing) - set(KNOWN_MISSING))


def test_span_methods_live_on_the_slice_class_itself():
    # the tracer wraps vars(AlgebraSlice)[name]; a method moved to a base
    # class would drop out of the ideals.* spans without being reported
    for name in SPAN_METHODS:
        assert name in vars(AlgebraSlice), name



def traced_pass():
    """A chain and a check on a small slice over F_5 built from nothing:
    their documents."""
    clear_caches()
    s = AlgebraSlice(builtin_variety("novikov"), GF(5), 2, 4)
    chain = lower_central_chain(s, 4).to_doc()
    check = check_theorem(s, "th_pro", {"p": 1, "q": 1}).to_doc()
    return chain, check


def test_traced_documents_and_counters_repeat():
    # the tracer's rref hook lists the rows it is handed, so a traced span
    # generates every row where an untraced one stops at full rank: the
    # documents must not change, and the counters must be the same per pass
    untraced = traced_pass()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        counters = []
        for _ in range(2):
            tracer.reset()
            assert traced_pass() == untraced
            counters.append(tracer.snapshot()[0])
    finally:
        tracer.uninstall()
        clear_caches()
    assert counters[0] == counters[1]
    assert counters[0]["linalg.rref.span.calls"] and counters[0]["linalg.rref.span.rows_in"]
