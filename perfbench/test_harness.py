"""Self-test of the benchmark harness on the seconds-long ``tiny`` workload.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace: int = 0, seed: int = 3, root: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.strip().splitlines()


def copy_tree(dest: Path, with_sources: bool) -> None:
    """Copy BENCHMARK.json and perfbench/ (and src/ if asked) into dest."""
    skip = shutil.ignore_patterns("__pycache__", "spans")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


class HarnessTest(unittest.TestCase):
    def check_metrics(self, trace: int, expected: list[dict]) -> dict:
        code, lines = run(trace=trace)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in expected},
        )
        text = lines[:-1]
        for name, unit in [(m["name"], m["unit"]) for m in expected] + [("failed_frac", "ratio")]:
            self.assertTrue(
                any(line.split()[:1] == [name] and line.split()[-1] == unit for line in text),
                f"{name} is not printed with unit {unit}",
            )
        self.assertTrue(lines[0].startswith("machine: "))
        self.assertEqual(set(json.loads(lines[0][len("machine: "):])), {"nproc", "python", "cpu"})
        return result["metrics"]

    def test_untraced_run_prints_every_end_to_end_metric(self):
        metrics = self.check_metrics(0, SPEC["end_to_end"])
        self.assertGreater(metrics["wall_s"]["value"], 0)
        self.assertEqual(metrics["ok_frac"]["value"], 1.0)

    def test_traced_run_prints_every_per_layer_metric_and_counts_repeat(self):
        first = self.check_metrics(1, SPEC["per_layer"])
        _, lines = run(trace=1, seed=4)
        second = json.loads(lines[-1])["metrics"]
        exact = [name for name in first if name.startswith("classify.rejections.")] + [
            "classify.run_filters.calls",
            "nimrep.extend.calls",
            "exact.mat_mul.calls",
        ]
        for name in exact:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["nimrep.extend.calls"]["value"], 0)

    def test_tampered_digest_is_a_failed_operation(self):
        goldens = json.loads((HERE / "goldens.json").read_text())
        digest = goldens["tiny"]["classify(n=4)"]["digest"]
        goldens["tiny"]["classify(n=4)"]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp), with_sources=True)
            (Path(tmp) / "perfbench" / "goldens.json").write_text(json.dumps(goldens))
            code, lines = run(root=Path(tmp))
        result = json.loads(lines[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_runner_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp), with_sources=False)
            code, lines = run(root=Path(tmp))
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))

    def test_untraced_pass_does_not_import_tracing(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "tiny", "0", "0", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["tracing_imported"])

    def test_reference_clock_samples_inside_one_long_call(self):
        sys.path.insert(0, str(HERE))
        try:
            import child
        finally:
            del sys.path[0]
        clock = child.ReferenceClock()
        clock.start()
        started, raw_started = clock(), clock.raw()
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:  # one long call, never returning to the harness
            pass
        elapsed, raw_elapsed = clock() - started, clock.raw() - raw_started
        clock.stop()
        self.assertGreaterEqual(len(clock.samples), 4)  # one at start, then every 0.1 s
        self.assertLess(raw_elapsed, 0.35 - 2 * min(clock.samples))  # the samples' time is left out
        self.assertGreater(elapsed, 0)

    def test_traced_pass_restores_every_wrapped_attribute(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        try:
            import child

            names = ["dihedral", "exact", "algebra", "cells", "reps", "nimrep", "classify"]
            modules = [importlib.import_module(f"klcells.{name}") for name in names]
            owners = modules + [modules[0].DihedralGroup, modules[0].GroupElement]
            before = [dict(vars(owner)) for owner in owners]
            record = child.run_pass("tiny", 0, 0, trace=True)
            self.assertEqual(record["not_restored"], [])
            self.assertTrue(all("error" not in op for op in record["ops"]))
            for owner, saved in zip(owners, before):
                for attr, value in saved.items():
                    self.assertIs(vars(owner)[attr], value, f"{owner.__name__}.{attr}")
        finally:
            del sys.path[:2]


if __name__ == "__main__":
    unittest.main()
