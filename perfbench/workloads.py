"""The benchmark's workloads and the digests that prove their outputs.

A workload is a fixed list of steps. Each step is one or two operations:

* ``("classify", n, kwargs)`` -- one ``classify`` call; its digest is the
  sha256 of ``report.to_json_bytes()``;
* ``("cell", n, name)`` -- ``cell_module(n, name)`` plus ``decompose`` of
  its generator pair (one operation), then ``perron_analysis(A_s + A_t)``
  (a second operation).

The search space is the input, so the seed only permutes the order of the
steps; ``fixed`` steps run first, in their given order.  Every call runs in
the calling process (``jobs=1``), and functions are looked up on their
modules at call time so that a traced pass sees them through its wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time

BLOCK = {"ranks": (1, 2, 3, 4), "entry_bound": 2}
VARIETY = {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": ("F7",), "max_states": 10**9}
CELLS = ("Le", "Ls", "Lt", "Lw0")

# name -> (n warmed with compute_cells during set-up, fixed steps, shuffled steps)
WORKLOADS = {
    "search_block": ((4, 5, 6), (), tuple(("classify", n, BLOCK) for n in (4, 5, 6))),
    "search_variety": ((4, 6), (), tuple(("classify", n, VARIETY) for n in (4, 6))),
    "cold_n24": (
        (),
        (("compute_cells", 24, None),),
        tuple(("cell", 24, c) for c in CELLS) + (("classify", 24, {}),),
    ),
    # Seconds-long stand-in with every kind of operation, for the self-test.
    "tiny": (
        (4,),
        (),
        (("classify", 4, {"ranks": (1, 2), "entry_bound": 2}), ("cell", 4, "Ls")),
    ),
}


def module(name: str):
    return importlib.import_module(f"klcells.{name}")


def step_order(workload: str, seed: int, pass_index: int) -> list[tuple]:
    """The steps of one pass: fixed ones first, the rest permuted by the seed."""
    _, fixed, shuffled = WORKLOADS[workload]
    rest = list(shuffled)
    random.Random(f"{workload}:{seed}:{pass_index}").shuffle(rest)
    return list(fixed) + rest


def _sha(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(obj).hexdigest()


def _perron_jsonable(p) -> dict:
    return {
        "irreducible": p.irreducible,
        "spectral_radius": p.spectral_radius,
        "top_eigenvalue_simple": p.top_eigenvalue_simple,
        "positive_eigenvector": p.positive_eigenvector,
    }


def operation_count(workload: str) -> int:
    _, fixed, shuffled = WORKLOADS[workload]
    return sum({"compute_cells": 0, "classify": 1, "cell": 2}[kind] for kind, _, _ in fixed + shuffled)


def run_step(step: tuple, clock=time.perf_counter) -> tuple[list[dict], float, int]:
    """Run one step; return (operations, seconds inside classify, pairs).

    ``clock`` times the classify calls; an untraced pass passes one that
    leaves out the time its speed samples take.

    Each operation is a dict with ``id`` and either ``digest`` (plus
    ``pairs``, ``rejections`` and ``classes`` for a classify call) or
    ``error``.
    """
    kind, n, arg = step
    if kind == "compute_cells":
        # Not an operation of its own: if it raises, the pass dies and
        # the runner charges every operation of the pass as failed.
        module("cells").compute_cells(n)
        return [], 0.0, 0
    if kind == "classify":
        op = {"id": f"classify(n={n})"}
        started = clock()
        try:
            report = module("classify").classify(n, jobs=1, **arg)
        except Exception as exc:
            op["error"] = repr(exc)
            return [op], 0.0, 0
        classify_s = clock() - started
        op.update(
            digest=_sha(report.to_json_bytes()),
            pairs=report.pairs_evaluated,
            rejections=dict(report.rejection_counts),
            classes=len(report.candidates),
        )
        return [op], classify_s, report.pairs_evaluated
    if kind == "cell":
        mod_op = {"id": f"cell_module(n={n},{arg})+decompose"}
        perron_op = {"id": f"perron(n={n},{arg})"}
        try:
            a_s, a_t = module("cells").cell_module(n, arg).generator_pair()
            decomposition = module("reps").decompose(n, a_s, a_t)
        except Exception as exc:
            mod_op["error"] = repr(exc)
            perron_op["error"] = "its cell module failed"
            return [mod_op, perron_op], 0.0, 0
        mod_op["digest"] = _sha(
            {"theta_s": a_s, "theta_t": a_t, "decomposition": decomposition.to_jsonable()}
        )
        try:
            q = module("exact").mat_add(a_s, a_t)
            perron_op["digest"] = _sha(_perron_jsonable(module("nimrep").perron_analysis(q)))
        except Exception as exc:
            perron_op["error"] = repr(exc)
        return [mod_op, perron_op], 0.0, 0
    raise ValueError(f"unknown step kind {kind!r}")


def check_ops(ops: list[dict], goldens: dict) -> None:
    """Mark each operation failed (``error``) whose output is not the golden one.

    A classify digest covers the whole report, ``pairs_evaluated`` and the
    rejection counts included, so it also pins how the pairs were charged
    to the filters (record_goldens.py checks that accounting once).
    """
    for op in ops:
        if "error" in op:
            continue
        golden = goldens.get(op["id"])
        if golden is None:
            op["error"] = "no golden digest recorded"
        elif op["digest"] != golden["digest"]:
            op["error"] = f"digest {op['digest'][:12]} != golden {golden['digest'][:12]}"
