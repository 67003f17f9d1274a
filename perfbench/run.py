"""Benchmark for klcells: run one workload for a number of seconds.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search_block --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh interpreter (perfbench/child.py), one
at a time, with ``jobs=1``. Passes repeat until ``--seconds`` have gone by. The
outputs of every pass are checked against the digests recorded in
perfbench/goldens.json. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Each metric is the median over passes, and times are scaled for
the host's speed (see child.ReferenceClock). A traced run alternates untraced
and traced passes, so that ``trace.overhead_frac`` compares the two. The exit
code is 0 only if every operation gave its golden output.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_ops, operation_count  # noqa: E402


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run_child(workload: str, seed: int, pass_index: int, trace: bool) -> tuple[float, dict | None, str]:
    """Start one pass; return (monotonic start time, its record or None, stderr)."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(pass_index), "1" if trace else "0"]
    if trace:
        cmd.append(str(HERE / "spans" / f"{workload}-pass{pass_index}.jsonl.gz"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return spawned, None, f"pass timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return spawned, None, proc.stderr
    return spawned, json.loads(lines[-1]), proc.stderr


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# The host's speed drifts by up to a third over minutes and changes within
# a second (measured on a shared 2-vCPU virtual machine), more than any bound
# a benchmark may set.  So every pass times itself in seconds at
# reference speed (child.ReferenceClock): the time between two samples of the
# host's speed counts at the speed the first one measured.  Raw values are
# kept beside the scaled ones.
PASS_METRICS = ("wall_s", "pairs_per_s", "setup_s", "peak_rss_mb", "raw.wall_s", "raw.setup_s", "host.speed_factor")


def pass_values(record: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    return {
        "wall_s": record["wall_s"],
        "pairs_per_s": record["pairs"] / record["classify_s"] if record["classify_s"] else 0.0,
        "setup_s": record["setup_s"] / record["setup_slowdown"],
        "peak_rss_mb": record["peak_rss_mb"],
        "raw.wall_s": record["raw_wall_s"],
        "raw.setup_s": record["setup_s"],
        "host.speed_factor": record["host_slowdown"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = args.trace == 1
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "klcells" / "__init__.py").is_file():
        print(f"error: no klcells sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    goldens = json.loads((HERE / "goldens.json").read_text())[args.workload]
    # Compile once here so that no pass pays for a one-off bytecode compile.
    for package in (ROOT / "src" / "klcells", HERE):
        compileall.compile_dir(str(package), quiet=1)
    if trace:
        (HERE / "spans").mkdir(exist_ok=True)
        for old in (HERE / "spans").glob(f"{args.workload}-pass*.jsonl.gz"):
            old.unlink()
    print("machine:", json.dumps(machine_info()))

    plain: list[dict] = []
    traced: list[dict] = []
    expected = operation_count(args.workload)
    attempted = failed = 0
    not_restored: set[str] = set()
    deadline = time.monotonic() + args.seconds
    pass_index = 0
    last_pass_s = 0.0
    # Start a pass only if one like the last still fits, so a run stays
    # within --seconds; a run makes at least one pass, two when traced.
    while pass_index < (2 if trace else 1) or time.monotonic() + last_pass_s <= deadline:
        traced_pass = trace and pass_index % 2 == 1
        spawned, record, stderr = run_child(args.workload, args.seed, pass_index, traced_pass)
        last_pass_s = time.monotonic() - spawned
        attempted += expected
        if record is None:
            print(f"pass {pass_index} died:\n{stderr}", file=sys.stderr)
            failed += expected
        else:
            check_ops(record["ops"], goldens)
            for op in record["ops"]:
                if "error" in op:
                    print(f"pass {pass_index}: {op['id']} failed: {op['error']}", file=sys.stderr)
                    failed += 1
            record["setup_s"] = record["ready"] - spawned
            not_restored.update(record.get("not_restored", ()))
            (traced if traced_pass else plain).append(record)
        pass_index += 1

    per_pass = [pass_values(r) for r in plain]
    values = {name: median([v[name] for v in per_pass]) for name in PASS_METRICS}
    if traced:
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
        values["trace.overhead_frac"] = median([r["wall_s"] for r in traced]) / values["wall_s"] - 1 if plain else 0.0
    values["ok_frac"] = 1 - failed / attempted
    # failed_frac is 0 on a good run, so BENCHMARK.json carries ok_frac instead.
    values["failed_frac"] = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | {"failed_frac": "ratio"}

    print(
        f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
        f"passes, {attempted} operations, {failed} failed"
    )
    if not_restored:
        print(f"wrapped attributes not restored: {sorted(not_restored)}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units.get(name, '')}")
    correct = failed == 0 and not not_restored
    # A metric no pass produced (every pass died) reads 0; correct is false then.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
