"""One workload in a fresh interpreter: set up, run timed passes, report.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Prints one JSON document of raw measurements as its last stdout line;
``run.py`` turns them into metrics. Pass ``k`` runs the op list
``plan(k)`` of the workload once and records each op's seconds by key;
cache clearing and output checks are not timed. Passes repeat while the
next one is predicted to end within ``--seconds``. With ``--trace 1``
every pass repeats ``plan(0)``: the first third of the time runs untraced
passes and the rest traced ones (at least two, whose deterministic
counters must agree exactly).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_lieadm():
    sys.path.insert(0, str(ROOT / "src"))
    import lieadm.cli
    import lieadm.fdalg
    import lieadm.ideals
    import lieadm.linalg
    import lieadm.terms
    import lieadm.variety

    return lieadm


def run_pass(ops, expected) -> tuple[dict[str, float], list[str]]:
    """Seconds per op key and failure messages for one pass over ``ops``."""
    clock = time.perf_counter
    seconds, failures = {}, []
    for op in ops:
        if op.before is not None:
            op.before()
        start = clock()
        try:
            result = op.run()
            error = None
        except (Exception, SystemExit) as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        seconds[op.key] = clock() - start
        if error is None:
            error = workloads.verify(op, result, expected)
        if error is not None:
            failures.append(f"{op.key}: {error}")
    return seconds, failures


def timed_passes(plan, expected, budget, min_passes, tracer=None):
    """Passes until the next is predicted to overrun ``budget`` seconds;
    with a tracer, also each pass's (counters, seconds) snapshot. Pass
    ``k`` runs ``plan(k)``."""
    start = time.perf_counter()
    passes, snapshots = [], []
    while True:
        ops = plan(len(passes))
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        seconds, failures = run_pass(ops, expected)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        passes.append({"seconds": seconds, "failures": failures})
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - began) > budget:
            return passes, snapshots


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    expected = workloads.load_expected()
    started = time.perf_counter()
    lieadm = _import_lieadm()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        plan = workloads.WORKLOADS[args.workload](lieadm, args.seed, workdir)
        first = plan(0)
        out = {"setup_s": time.perf_counter() - started}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        if args.trace:
            plan = lambda k: first  # noqa: E731
        budget = args.seconds / 3 if args.trace else args.seconds
        out["passes"], _ = timed_passes(plan, expected, budget, 1)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                out["traced"], snapshots = timed_passes(
                    plan, expected, args.seconds - budget, 2, tracer
                )
            finally:
                tracer.uninstall()
            counters = [c for c, _ in snapshots]
            names = set().union(*(s for _, s in snapshots))
            seconds = {n: statistics.median(s.get(n, 0.0) for _, s in snapshots) for n in names}
            out["layers"] = tracing.layer_metrics(counters[0], seconds, tracer.missing)
            out["missing_hooks"] = tracer.missing
            out["counters_repeat"] = all(c == counters[0] for c in counters)
        else:
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
