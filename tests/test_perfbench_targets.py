"""The klcells names that the benchmark's tracer wraps must stay bound.

perfbench/tracing.py replaces module attributes, and two class attributes,
by name for a traced pass, so renaming or removing one of them breaks every
traced benchmark run.
This test reads that list and does not change it.
"""

import importlib
import importlib.util
import time
from pathlib import Path

from klcells.dihedral import DihedralGroup, GroupElement

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


def test_traced_class_attributes_are_bound():
    # Tracer.install also replaces two class attributes through vars(), so
    # each must be defined in its own class body, and must still be what
    # group arithmetic and element construction call: a traced pass counts
    # through them
    for owner, attr in ((DihedralGroup, "multiply"), (GroupElement, "__post_init__")):
        assert attr in vars(owner), f"{owner.__name__}.{attr} is not defined in its class body"
    tracer = load_tracing().Tracer(time.perf_counter)
    try:
        tracer.install()
        group = DihedralGroup(5)
        group.element_from_word("sts")
    finally:
        assert tracer.uninstall() == []
    assert tracer.counts["dihedral.elements_built"] == 10
    assert tracer.counts["dihedral.multiply.calls"] == 3
