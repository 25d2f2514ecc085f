"""Record the output digest of every op into ``expected.json``.

    python3 bench/record.py

Run it only at a commit whose outputs are the reference: the benchmark
counts every later output that differs from the recorded digest as a
failed op. Covers every basis op and every ``theorem-session`` op (their
outputs do not depend on the seed) and every entry of the audit pool, so
audits are checked whatever the seed.
"""

from __future__ import annotations

import json
import shutil
import sys

import corpus
import workloads
from worker import HERE, _import_lieadm


def record(ops) -> dict:
    out = {}
    for op in ops:
        if op.before is not None:
            op.before()
        result = op.run()
        doc, got = workloads.output_digest(op, result)
        error = op.check(doc)
        if error is not None:
            raise SystemExit(f"{op.key}: {error}; not recording")
        out[op.key] = got
    return dict(sorted(out.items()))


def main() -> int:
    lieadm = _import_lieadm()
    workdir = HERE / "_work" / "record"
    try:
        pool = [corpus.pool_entry(i) for i in range(corpus.POOL_SIZE)]
        ops = workloads.basis_ops(lieadm) + workloads.theorem_session(lieadm, 0, workdir)(0)
        expected = record(ops + workloads.audit_ops(lieadm, pool, workdir))
    finally:
        shutil.rmtree(HERE / "_work", ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED_PATH.name}: {len(expected)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
