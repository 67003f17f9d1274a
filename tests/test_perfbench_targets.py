"""The klcells names that the benchmark's tracer wraps must stay bound.

perfbench/tracing.py replaces module attributes by name for a traced pass,
so renaming or removing one of them breaks every traced benchmark run.
This test reads that list and does not change it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound():
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, _ in tracing.SPANS]
    targets += [(module, "mat_mul") for module in tracing.MAT_MUL_OWNERS]
    for module, attr in targets:
        assert attr in vars(importlib.import_module(module)), f"{module}.{attr} is not bound"
