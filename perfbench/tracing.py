"""Spans and counts at klcells' module boundaries, for traced passes only.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` replaces
module attributes with wrappers and puts the originals back afterwards.  It
wraps the name a caller looks up at call time, which is the importing
module's copy: ``classify`` imported ``extend`` by name, so the wrapper goes
on ``klcells.classify.extend``, not on ``klcells.nimrep.extend``.

A span is (id, name, start, end, parent id); the parent is the innermost
span open when it started.  Start and end are read on the clock the Tracer
is given; a traced pass gives it the pass's ``child.ReferenceClock``.  A name's self time is the sum of its spans'
durations minus the time covered by their direct children.  Hot leaves
(``mat_mul``, group multiplication, element construction) are counted
without spans, because a span costs more than the call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import statistics
from collections import defaultdict

# (module, attribute, span name): one span name may sit on several modules.
SPANS = (
    ("klcells.classify", "classify", "classify.classify"),
    ("klcells.classify", "run_filters", "classify.run_filters"),
    ("klcells.classify", "canonical_pair", "classify.canonical"),
    ("klcells.classify", "extend", "nimrep.extend"),
    ("klcells.classify", "check_idempotent", "nimrep.F1"),
    ("klcells.classify", "check_transitive", "nimrep.F3"),
    ("klcells.classify", "check_apex_support", "nimrep.F4"),
    ("klcells.classify", "check_group_relations", "nimrep.F6"),
    ("klcells.classify", "check_block_form", "nimrep.F7"),
    ("klcells.classify", "annihilator_check", "nimrep.annihilator"),
    ("klcells.classify", "perron_analysis", "nimrep.perron"),
    ("klcells.nimrep", "perron_analysis", "nimrep.perron"),
    ("klcells.nimrep", "char_poly", "exact.char_poly"),
    ("klcells.nimrep", "check_module_relations", "reps.relations"),
    ("klcells.reps", "check_module_relations", "reps.relations"),
    ("klcells.classify", "decompose", "reps.decompose"),
    ("klcells.reps", "decompose", "reps.decompose"),
    # nimrep.check_apex_support imports compute_cells from klcells.cells
    # inside the function, so the klcells.cells wrapper covers it.
    ("klcells.classify", "compute_cells", "cells.compute_cells"),
    ("klcells.cells", "compute_cells", "cells.compute_cells"),
    ("klcells.classify", "cell_module", "cells.cell_module"),
    ("klcells.cells", "cell_module", "cells.cell_module"),
    ("klcells.cells", "structure_constants", "algebra.structure_constants"),
)
MAT_MUL_OWNERS = ("klcells.nimrep", "klcells.reps", "klcells.exact")
PERCENTILE_SPANS = ("nimrep.extend", "classify.run_filters")


def _percentiles_us(durations: list[float]) -> tuple[float, float]:
    """(p50, p99) in microseconds; 0 when nothing ran."""
    if len(durations) < 2:
        only = durations[0] * 1e6 if durations else 0.0
        return only, only
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[49] * 1e6, cuts[98] * 1e6


class Tracer:
    """Installs the wrappers, records spans and counts, restores the originals."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts = {
            "exact.mat_mul.calls": 0,
            "exact.mat_mul.mults": 0,
            "dihedral.multiply.calls": 0,
            "dihedral.elements_built": 0,
        }
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._installed: list[tuple[object, str, object]] = []
        self._extend = {"completed": 0, "matrices_built": 0}
        self._tables: dict[int, int] = {}

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, original, on_result=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self._clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, key: str, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def _mat_mul(self, original):
        counts = self.counts

        @functools.wraps(original)
        def mat_mul(a, b):
            counts["exact.mat_mul.calls"] += 1
            counts["exact.mat_mul.mults"] += len(a) * len(b) * (len(b[0]) if b else 0)
            return original(a, b)

        return mat_mul

    def _on_extend(self, result) -> None:
        # ExtendedRep carries ``family``; ExtensionFailure carries ``partial``.
        if hasattr(result, "family"):
            self._extend["completed"] += 1
            self._extend["matrices_built"] += len(result.family)
        else:
            self._extend["matrices_built"] += len(result.partial)

    def _on_table(self, table) -> None:
        self._tables[id(table)] = len(table.entries)

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        hooks = {"nimrep.extend": self._on_extend, "algebra.structure_constants": self._on_table}
        for module_name, attr, name in SPANS:
            owner = importlib.import_module(module_name)
            self._replace(owner, attr, lambda f, name=name: self._span(name, f, hooks.get(name)))
        for module_name in MAT_MUL_OWNERS:
            self._replace(importlib.import_module(module_name), "mat_mul", self._mat_mul)
        dihedral = importlib.import_module("klcells.dihedral")
        self._replace(
            dihedral.DihedralGroup, "multiply", lambda f: self._counted("dihedral.multiply.calls", f)
        )
        self._replace(
            dihedral.GroupElement, "__post_init__", lambda f: self._counted("dihedral.elements_built", f)
        )

    def uninstall(self) -> list[str]:
        """Put every original back; return the attributes that are not restored."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if vars(owner)[attr] is not original
        ]

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for sid, name, start, end, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - covered[sid]
            durations[name].append(end - start)
        out: dict[str, float] = dict(self.counts)
        for name in dict.fromkeys(name for _, _, name in SPANS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in PERCENTILE_SPANS:
            out[f"{name}.p50_us"], out[f"{name}.p99_us"] = _percentiles_us(durations[name])
        extends = calls["nimrep.extend"]
        out["nimrep.extend.completed_frac"] = self._extend["completed"] / extends if extends else 0.0
        out["nimrep.extend.matrices_built"] = self._extend["matrices_built"]
        out["algebra.structure_constants.entries"] = sum(self._tables.values())
        return out

    def write_spans(self, path, run_id: str) -> None:
        """Write every span once, as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            for sid, name, start, end, parent in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                out.write(json.dumps(record) + "\n")


def report_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer numbers read off the classify reports of one pass."""
    searches = [op for op in ops if "pairs" in op]
    pairs = sum(op["pairs"] for op in searches)
    classes = sum(op["classes"] for op in searches)
    out: dict[str, float] = {}
    for i in range(1, 8):
        out[f"classify.rejections.F{i}"] = sum(op["rejections"].get(f"F{i}", 0) for op in searches)
    survivors = pairs - sum(out.values())
    out["classify.survivor_frac"] = survivors / pairs if pairs else 0.0
    out["classify.orbit_redundancy"] = survivors / classes if classes else 0.0
    return out
