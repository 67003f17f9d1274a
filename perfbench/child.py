"""One pass of one workload, in a fresh interpreter (started by run.py).

Usage: python3 perfbench/child.py WORKLOAD SEED PASS_INDEX TRACE [SPANS_PATH]

Prints one JSON line: ``ready`` (CLOCK_MONOTONIC when set-up ended, which
run.py compares with the moment it started this process), ``wall_s`` of the
timed section at reference speed and as measured, the host's slowdown, seconds
and pairs inside ``classify``, ``peak_rss_mb``, the operations with their digests, and, when
TRACE is 1, the per-layer metrics and the wrapped attributes that were not
restored.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


_REF_MATRIX = tuple(tuple((3 * i + 7 * j) % 5 for j in range(4)) for i in range(4))
# A sample takes about REF_SLICE_S here, so sampling every SAMPLE_INTERVAL_S
# adds about 3% to a pass, which the clocks leave out.
REF_SLICE_S = 0.003
SAMPLE_INTERVAL_S = 0.1


def reference_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work resembles klcells' inner loops (tuple matrix products, dict
    stores) but never calls klcells: it measures how fast this host runs
    Python at the moment.  The garbage collector is off while it runs, so
    a collection its allocations would set off (which scans klcells' live
    heap) runs later, in the workload's time, and is not taken for a slower
    host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for k in range(150):
            cols = tuple(zip(*_REF_MATRIX))
            product = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in _REF_MATRIX)
            table[(k % 101, product[0][0])] = product
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class ReferenceClock:
    """Seconds at reference speed, from samples of the host's speed.

    The host's speed changes from one fraction of a second to the next, even
    inside one long call such as ``compute_cells(24)``.  So a SIGALRM handler
    times reference_slice every SAMPLE_INTERVAL_S, wherever the workload is,
    and the time since the last sample counts at the speed that sample
    measured: t seconds after a sample that took k times REF_SLICE_S count as
    t / k.  The samples' own time is left out of this clock and of ``raw``.
    The timer is re-armed only after a sample ends, so samples never nest.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._running = False
        # (reference seconds at the last sample, perf_counter then, slowdown);
        # replaced in one assignment, so a read never sees half an update.
        self._state = (0.0, 0.0, 1.0)

    def _take_sample(self, elapsed: float) -> None:
        took = reference_slice()
        self.samples.append(took)
        self.spent += took
        self._state = (elapsed, time.perf_counter(), took / REF_SLICE_S)

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self._take_sample(self())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def start(self) -> None:
        self._take_sample(0.0)
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __call__(self) -> float:
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:  # else a sample ran in between
                elapsed, mark, slowdown = state
                return elapsed + (now - mark) / slowdown

    def raw(self) -> float:
        return time.perf_counter() - self.spent


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, spans_path: str | None = None) -> dict:
    """Set up, run the timed section once, and return the pass's record.

    Every pass times itself with a ReferenceClock; a traced pass's spans
    read the same clock, so the samples' own time is left out of them too.
    """
    from workloads import WORKLOADS, module, run_step, step_order

    for n in WORKLOADS[workload][0]:
        module("cells").compute_cells(n)
    ready = time.monotonic()
    steps = step_order(workload, seed, pass_index)
    reference_slice()  # warm-up, timed neither as set-up nor as work
    clock = ReferenceClock()
    clock.start()
    if trace:
        import tracing

        tracer = tracing.Tracer(clock)
        tracer.install()
    ops: list[dict] = []
    classify_s = 0.0
    pairs = 0
    started, raw_started = clock(), clock.raw()
    try:
        for step in steps:
            step_ops, step_classify_s, step_pairs = run_step(step, clock)
            ops += step_ops
            classify_s += step_classify_s
            pairs += step_pairs
        wall_s, raw_wall_s = clock() - started, clock.raw() - raw_started
    finally:
        clock.stop()
        if trace:
            not_restored = tracer.uninstall()
    record = {
        "ready": ready,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "classify_s": classify_s,
        "pairs": pairs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "tracing_imported": "tracing" in sys.modules,
        # The first sample follows set-up at once, so it gives set-up's speed.
        "setup_slowdown": clock.samples[0] / REF_SLICE_S,
        "host_slowdown": statistics.median(clock.samples) / REF_SLICE_S,
    }
    if trace:
        record["layers"] = {**tracer.metrics(), **tracing.report_metrics(ops)}
        record["not_restored"] = not_restored
        if spans_path:
            tracer.write_spans(spans_path, f"{workload}:{seed}:{pass_index}")
    return record


def main(argv: list[str]) -> None:
    workload, seed, pass_index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import klcells

    if Path(klcells.__file__).resolve().parent != SRC / "klcells":
        sys.exit(f"imported klcells from {klcells.__file__}, not from {SRC}")
    print(json.dumps(run_pass(workload, seed, pass_index, trace, argv[4] if len(argv) > 4 else None)))


if __name__ == "__main__":
    main(sys.argv[1:])
