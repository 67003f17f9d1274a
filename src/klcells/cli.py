"""Command line interface.

Subcommands expose the library: ``cells`` prints the cell partition (text,
JSON or DOT), ``cellrep`` a cell module with its decomposition, ``classify``
the candidate classification report, ``verify`` the acceptance suites,
``decompose`` splits a matrix pair read from a JSON file and ``klmult``
multiplies two KL basis elements.

Exit codes: 0 success, 1 a verification or decomposition check failed,
2 usage or parse error or an unwritable output file, 3 the classification
resource guard tripped.
JSON output is the text ``json.dumps`` writes for its object with
``indent=2, sort_keys=True``, from the package's own encoder
(``classify._indented_json``), so identical invocations are byte-identical
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .algebra import kl_multiply
from .cells import _CELL_NAMES, cell_diagram_dot, cell_module, compute_cells
from .classify import DEFAULT_MAX_STATES, TOGGLEABLE_FILTERS, _indented_json, classify
from .dihedral import dihedral_group, display_key, render
from .nimrep import _read_pair
from .reps import NotAModuleError, decompose
from .verification import SUITES, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE_GUARD = 3

_LEFT_CELL_NAMES = _CELL_NAMES["left"]


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _matrix_block(label: str, matrix) -> list[str]:
    lines = [f"{label}:"]
    for row in matrix:
        lines.append("  [" + ", ".join(str(v) for v in row) + "]")
    return lines


def _print_json(payload) -> None:
    print(_indented_json(payload))


# -- subcommand handlers -----------------------------------------------------


def _cmd_cells(args: argparse.Namespace) -> int:
    partition = compute_cells(args.n)
    if args.format == "dot":
        sys.stdout.write(cell_diagram_dot(args.n))
        return EXIT_OK
    payload = partition.to_jsonable()
    if args.format == "json":
        _print_json(payload)
        return EXIT_OK
    lines = [f"cells of D_{args.n}"]
    for section in ("left_cells", "right_cells", "two_sided_cells"):
        lines.append(section.replace("_", " ") + ":")
        for cell in payload[section]:
            members = ", ".join(cell["elements"])
            lines.append(f"  {cell['name']} = {{{members}}}")
    lines.append("two sided order: " + " < ".join(payload["j_order"]))
    print("\n".join(lines))
    return EXIT_OK


def _cmd_cellrep(args: argparse.Namespace) -> int:
    if args.cell not in _LEFT_CELL_NAMES:
        return _error(
            f"unknown cell {args.cell!r}; the left cells are {', '.join(_LEFT_CELL_NAMES)}"
        )
    module = cell_module(args.n, args.cell)
    theta_s, theta_t = module.generator_pair()
    decomposition = decompose(args.n, theta_s, theta_t)
    if args.format == "json":
        payload = {
            "n": args.n,
            "cell": args.cell,
            "basis": [render(w) for w in module.cell],
            "theta_s": [list(row) for row in theta_s],
            "theta_t": [list(row) for row in theta_t],
            "decomposition": decomposition.to_jsonable(),
        }
        if args.all:
            payload["matrices"] = {
                render(u): [list(row) for row in m] for u, m in module.matrices.items()
            }
        _print_json(payload)
        return EXIT_OK
    basis = ", ".join(render(w) for w in module.cell)
    lines = [f"cell {args.cell} of D_{args.n}: basis ({basis})"]
    lines += _matrix_block("A_s", theta_s)
    lines += _matrix_block("A_t", theta_t)
    if args.all:
        for u in sorted(module.matrices, key=display_key):
            lines += _matrix_block(f"A_{render(u)}", module.matrices[u])
    lines.append(f"decomposition: {decomposition.render()}")
    print("\n".join(lines))
    return EXIT_OK


def _default_jobs() -> int | str:
    raw = os.environ.get("KLCELLS_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError:
        return f"KLCELLS_JOBS must be an integer, got {raw!r}"


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be opened for writing, or None; checked before a
    search so that a bad path does not cost the search.  The file is left
    as it was: opened for appending, and removed again if this made it."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return f"cannot write {path}: {exc}"
    if not existed:
        os.remove(path)
    return None


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        ranks = tuple(int(part) for part in args.ranks.split(",") if part.strip())
    except ValueError:
        return _error(f"cannot parse ranks {args.ranks!r}; expected a list like 1,2,3")
    jobs = args.jobs
    if jobs is None:
        jobs = _default_jobs()
        if isinstance(jobs, str):
            return _error(jobs)
    if args.output:
        problem = _unwritable(args.output)
        if problem:
            return _error(problem)
    try:
        report = classify(
            args.n,
            ranks=ranks,
            entry_bound=args.entry_bound,
            disabled=tuple(args.no_filter),
            jobs=jobs,
            max_states=args.max_states,
        )
    except ValueError as exc:
        return _error(str(exc))
    if args.format == "json":
        rendered = report.to_json_bytes(include_timing=args.timing).decode("ascii")
    else:
        rendered = report.render_text(include_timing=args.timing)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            return _error(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(rendered)
    return EXIT_RESOURCE_GUARD if report.guard_tripped else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{result.check_id}: {status}  {result.detail}"
        if args.timing:
            line += f"  [{result.elapsed_seconds:.2f}s]"
        print(line)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed (suite {args.suite})")
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILURE


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        return _error(f"cannot read {args.file}: {exc}")
    except json.JSONDecodeError as exc:
        return _error(
            f"parse error in {args.file} at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        )
    try:
        theta_s, theta_t = _read_pair(obj)
    except (KeyError, TypeError, ValueError) as exc:
        return _error(f"bad matrix pair in {args.file}: {exc}")
    if obj.get("n", args.n) != args.n:
        return _error(f"the file says n={obj['n']} but --n {args.n} was given")
    try:
        decomposition = decompose(args.n, theta_s, theta_t)
    except NotAModuleError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    if args.format == "json":
        _print_json(decomposition.to_jsonable())
    else:
        print(decomposition.render())
    return EXIT_OK


def _cmd_klmult(args: argparse.Namespace) -> int:
    group = dihedral_group(args.n)
    try:
        u = group.element_from_text(args.u)
        w = group.element_from_text(args.w)
    except ValueError as exc:
        return _error(str(exc))
    product = kl_multiply(u, w)
    if args.format == "json":
        _print_json(product.to_jsonable())
    else:
        print(product.render())
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klcells",
        description="Kazhdan-Lusztig cells of dihedral groups and the "
        "classification of nonnegative integer matrix pairs extending them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cells = sub.add_parser("cells", help="print the cell partition of D_n")
    cells.add_argument("--n", type=int, required=True, help="dihedral parameter, n >= 3")
    cells.add_argument("--format", choices=("text", "json", "dot"), default="text")
    cells.set_defaults(handler=_cmd_cells)

    cellrep = sub.add_parser(
        "cellrep", help="print a left cell module's matrices and decomposition"
    )
    cellrep.add_argument("--n", type=int, required=True)
    cellrep.add_argument("--cell", required=True, help="one of Le, Ls, Lt, Lw0")
    cellrep.add_argument("--format", choices=("text", "json"), default="text")
    cellrep.add_argument(
        "--all", action="store_true", help="also print A_w for every group element"
    )
    cellrep.set_defaults(handler=_cmd_cellrep)

    cls = sub.add_parser("classify", help="classify candidate matrix pairs")
    cls.add_argument("--n", type=int, required=True)
    cls.add_argument("--ranks", default="1,2,3", help="comma-separated ranks (default 1,2,3)")
    cls.add_argument("--entry-bound", type=int, default=4, help="entry bound E (default 4)")
    cls.add_argument(
        "--no-filter",
        action="append",
        default=[],
        choices=sorted(TOGGLEABLE_FILTERS),
        metavar="ID",
        help="disable a toggleable filter (F3, F4, F6 or F7); repeatable",
    )
    cls.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: KLCELLS_JOBS or 1)",
    )
    cls.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        help=f"resource guard on the search space (default {DEFAULT_MAX_STATES})",
    )
    cls.add_argument("--format", choices=("text", "json"), default="text")
    cls.add_argument("--output", default=None, help="write the report to a file")
    cls.add_argument("--timing", action="store_true", help="include wall-clock timing")
    cls.set_defaults(handler=_cmd_classify)

    verify = sub.add_parser("verify", help="run an acceptance suite")
    verify.add_argument("--suite", choices=tuple(SUITES), default="full")
    verify.add_argument("--timing", action="store_true", help="print per-check timing")
    verify.set_defaults(handler=_cmd_verify)

    dec = sub.add_parser("decompose", help="decompose a matrix pair from a JSON file")
    dec.add_argument("--n", type=int, required=True)
    dec.add_argument("file", help="JSON file with theta_s and theta_t")
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.set_defaults(handler=_cmd_decompose)

    klm = sub.add_parser("klmult", help="multiply two KL basis elements")
    klm.add_argument("--n", type=int, required=True)
    klm.add_argument("u", help="reduced word, or e, or w0")
    klm.add_argument("w", help="reduced word, or e, or w0")
    klm.add_argument("--format", choices=("text", "json"), default="text")
    klm.set_defaults(handler=_cmd_klmult)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # every subcommand with --n checks it before reading a file or searching
    if getattr(args, "n", 3) < 3:
        return _error(f"n must be at least 3, got {args.n}")
    return args.handler(args)
