"""lieadm benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Workloads (see ``workloads.py``):
``cold-cli`` and ``theorem-session``. Every op's output is checked; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``. Lines
before it print the same numbers for people.

Every pass of a run runs the workload's whole op list. An op's latency
is its mean time over the passes, so a burst of host load hits one sample
of it, not the whole of it; ``wall_s`` is the sum of the op latencies (one
pass), ``op_p50_s`` and ``op_p90_s`` are quantiles over the op list (the
maximum when fewer than ten ops lie beyond p90).

The workload runs in a fresh interpreter (``worker.py``), so its peak RSS
is its own. Set-up time (importing lieadm and generating the inputs) is
the median over that run and ``SETUP_SAMPLES`` set-up-only interpreters.
All runs are single-threaded, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 175.0


def _worker(argv: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _tail(lat: list[float]) -> tuple[float, str]:
    """p90 when at least ten ops lie beyond it, else the maximum."""
    n = len(lat)
    if n - 0.9 * (n + 1) >= 10:
        return statistics.quantiles(lat, n=10)[-1], f"p90 of {n} ops"
    return max(lat), f"max of {n} ops (under 10 beyond p90)"


def latencies(passes: list[dict]) -> dict[str, float]:
    """Each op's latency: its mean seconds over the passes that ran it."""
    runs: dict[str, list[float]] = {}
    for p in passes:
        for key, seconds in p["seconds"].items():
            runs.setdefault(key, []).append(seconds)
    return {key: statistics.fmean(s) for key, s in runs.items()}


def end_to_end(raw: dict, setups: list[float]) -> dict:
    lat = list(latencies(raw["passes"]).values())
    wall = sum(lat)
    p90, p90_note = _tail(lat)
    per_op = f"mean over {len(raw['passes'])} passes"
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "wall_s": (wall, f"one pass of {len(lat)} ops: sum of op latencies ({per_op})"),
        "ops_per_s": (len(lat) / wall, "ops / wall_s"),
        "op_p50_s": (statistics.median(lat), f"median of {len(lat)} op latencies ({per_op})"),
        "op_p90_s": (p90, f"{p90_note}, latency {per_op}"),
        "peak_rss_mb": (raw["peak_rss_mb"], "ru_maxrss of the workload process"),
    }


def per_layer(raw: dict) -> dict:
    layers = dict(raw["layers"])
    plain = sum(latencies(raw["passes"]).values())
    traced = sum(latencies(raw["traced"]).values())
    layers["trace.overhead_ratio"] = traced / plain
    note = f"per traced pass, {len(raw['traced'])} traced passes"
    return {name: (value, note) for name, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    began = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lieadm" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a lieadm checkout (src/lieadm and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_worker(common + ["--setup-only"], 15)["setup_s"] for _ in range(SETUP_SAMPLES)]
        raw = _worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            DEADLINE_S - (time.perf_counter() - began),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(raw["setup_s"])

    measured = per_layer(raw) if args.trace else end_to_end(raw, setups)
    runs = raw["passes"] + raw.get("traced", [])
    failures = [f for p in runs for f in p["failures"]]
    attempted = sum(len(p["seconds"]) for p in runs)
    correct = not failures
    if args.trace and not raw["counters_repeat"]:
        correct = False
        print("error: deterministic counters differ between traced passes", file=sys.stderr)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for hook in raw.get("missing_hooks", []):
        print(f"note: trace hook target {hook} is missing", file=sys.stderr)

    print(
        f"{args.workload} seed {args.seed}: {attempted} ops attempted, {len(failures)} failed, "
        f"fail_ratio {len(failures) / attempted:g}"
    )
    metrics = {}
    for m in wanted:
        value, note = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<6} {note}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
