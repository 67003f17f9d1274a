"""Record perfbench/goldens.json: the digest of every operation's output.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/record_goldens.py

The digests in the committed file were recorded before any optimisation,
so a later change whose outputs differ fails the benchmark.  Re-recording
them is a deliberate change of the expected outputs and needs a reason.

For each classify call it also checks, before recording, that the report
charges every pair that did not survive to exactly one filter: the raw
surviving pairs, counted here independently of the report (passes of
``run_filters`` minus the re-evaluation of each surviving class), equal
``pairs_evaluated`` minus the sum of the rejection counts.  The digest
covers those counts, so a run that matches it keeps this accounting.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, module, run_step, step_order  # noqa: E402


def record(workload: str) -> dict:
    classify_module = module("classify")
    original = classify_module.run_filters
    passed = [0]

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        passed[0] += result[2] is None
        return result

    goldens = {}
    for step in step_order(workload, 0, 0):
        classify_module.run_filters = counting
        passed[0] = 0
        try:
            ops, _, _ = run_step(step)
        finally:
            classify_module.run_filters = original
        for op in ops:
            if "error" in op:
                raise SystemExit(f"{workload}: {op['id']} failed: {op['error']}")
            if "pairs" in op and passed[0] - op["classes"] != op["pairs"] - sum(op["rejections"].values()):
                raise SystemExit(f"{workload}: {op['id']}: rejection counts do not match the surviving pairs")
            goldens[op["id"]] = {"digest": op["digest"]}
    return goldens


def main() -> None:
    out = {workload: record(workload) for workload in WORKLOADS}
    (HERE / "goldens.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
