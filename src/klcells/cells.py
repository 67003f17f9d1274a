"""Kazhdan-Lusztig cells of D_n and their cell modules.

The cell preorders are defined by the structure constants: u <=_L v when
b(v) appears in some product b(h) b(u), u <=_R v when b(v) appears in some
b(u) b(h), and the two-sided preorder allows multiplication on both sides.
For every n they have the same closed form, which compute_cells builds
directly:

* left cells {e}, {words ending in s}, {words ending in t}, {w0},
* right cells mirrored (grouped by the first letter),
* two-sided cells J1 = {e}, J2 = everything of length 1..n-1, J3 = {w0},
  linearly ordered J1 < J2 < J3,

and in the left and right preorders the identity cell lies below every cell,
the w0 cell above every cell, and the two middle cells are incomparable.
Verification check A2 re-derives the cells and preorders from the structure
constants for n <= 12 and compares them with this closed form.

A left cell L carries a module: act by b(u) in the KL basis and keep only
the coefficients of basis elements inside L.  The products b(u) b(w) for w
in L are exactly the KL columns of the basis elements, so cell_module
computes those columns and nothing else of the structure-constant table.
Every discarded term is checked to lie strictly above L in the left
preorder, which is what makes the truncation a quotient of modules rather
than an arbitrary projection.
The basis of L is ordered by (leading letter, length) with s before t; for
n = 4 this is (s, sts, ts), the order in which the standard matrices for
the generators are triangular-looking blocks.  The module of a right cell R
is the module of the left cell R^{-1} transported along inversion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

# structure_constants is unused here but stays bound: perfbench/tracing.py wraps this name.
from .algebra import _kl_column, structure_constants
from .dihedral import GroupElement, dihedral_group, display_key, render
from .exact import IntMatrix

__all__ = [
    "CellPartition",
    "RegularityReport",
    "CellModule",
    "compute_cells",
    "left_cell_name",
    "right_cell_name",
    "two_sided_cell_name",
    "cell_by_name",
    "is_strongly_regular",
    "cell_module",
    "right_cell_module",
    "cell_diagram_dot",
]

Cell = tuple[GroupElement, ...]


@dataclass(frozen=True)
class CellPartition:
    """Cells of D_n plus the induced preorders on cells.

    Cells are tuples of elements sorted by (length, leading letter); the
    *_leq sets contain index pairs (i, j) meaning cell i lies below or at
    cell j in the corresponding order (reflexive pairs included).
    """

    n: int
    left_cells: tuple[Cell, ...]
    right_cells: tuple[Cell, ...]
    two_sided_cells: tuple[Cell, ...]
    left_leq: frozenset[tuple[int, int]]
    right_leq: frozenset[tuple[int, int]]
    j_leq: frozenset[tuple[int, int]]

    def left_cell_of(self, w: GroupElement) -> Cell:
        for cell in self.left_cells:
            if w in cell:
                return cell
        raise ValueError(f"{render(w)} is not in any left cell (wrong n?)")

    def right_cell_of(self, w: GroupElement) -> Cell:
        for cell in self.right_cells:
            if w in cell:
                return cell
        raise ValueError(f"{render(w)} is not in any right cell (wrong n?)")

    def two_sided_cell_of(self, w: GroupElement) -> Cell:
        for cell in self.two_sided_cells:
            if w in cell:
                return cell
        raise ValueError(f"{render(w)} is not in any two-sided cell (wrong n?)")

    def to_jsonable(self) -> dict:
        def named(cells: Sequence[Cell], namer) -> list[dict]:
            return [
                {"name": namer(cell), "elements": [render(w) for w in cell]}
                for cell in cells
            ]

        return {
            "n": self.n,
            "left_cells": named(self.left_cells, left_cell_name),
            "right_cells": named(self.right_cells, right_cell_name),
            "two_sided_cells": named(self.two_sided_cells, two_sided_cell_name),
            "j_order": [two_sided_cell_name(c) for c in self.two_sided_cells],
        }


def left_cell_name(cell: Iterable[GroupElement]) -> str:
    """Le, Ls, Lt or Lw0, read off from the cell's members."""
    members = tuple(cell)
    if all(w.is_identity() for w in members):
        return "Le"
    if all(w.is_longest() for w in members):
        return "Lw0"
    letter = members[0].trailing()
    return f"L{letter}"


def right_cell_name(cell: Iterable[GroupElement]) -> str:
    members = tuple(cell)
    if all(w.is_identity() for w in members):
        return "Re"
    if all(w.is_longest() for w in members):
        return "Rw0"
    return f"R{members[0].leading}"


def two_sided_cell_name(cell: Iterable[GroupElement]) -> str:
    members = tuple(cell)
    if all(w.is_identity() for w in members):
        return "J1"
    if all(w.is_longest() for w in members):
        return "J3"
    return "J2"


def _fan(size: int) -> frozenset[tuple[int, int]]:
    """The preorder in which the first cell lies below and the last above every cell."""
    return frozenset(
        (i, j) for i in range(size) for j in range(size) if i == j or i == 0 or j == size - 1
    )


@functools.lru_cache(maxsize=None)
def compute_cells(n: int) -> CellPartition:
    """Cells of D_n and their preorders, from the closed form."""
    group = dihedral_group(n)
    e = group.identity()
    w0 = group.longest_element()
    # all_elements is in display order, so every cell below is already sorted.
    middle = [w for w in group.all_elements() if 0 < w.length < n]

    def split(letter_of) -> tuple[Cell, ...]:
        return (
            (e,),
            tuple(w for w in middle if letter_of(w) == "s"),
            tuple(w for w in middle if letter_of(w) == "t"),
            (w0,),
        )

    return CellPartition(
        n=n,
        left_cells=split(GroupElement.trailing),
        right_cells=split(lambda w: w.leading),
        two_sided_cells=((e,), tuple(middle), (w0,)),
        left_leq=_fan(4),
        right_leq=_fan(4),
        j_leq=_fan(3),
    )


def cell_by_name(n: int, name: str) -> Cell:
    """Look up a cell by its display name (Le/Ls/Lt/Lw0, Re/.., J1/J2/J3)."""
    partition = compute_cells(n)
    for cells, namer in (
        (partition.left_cells, left_cell_name),
        (partition.right_cells, right_cell_name),
        (partition.two_sided_cells, two_sided_cell_name),
    ):
        for cell in cells:
            if namer(cell) == name:
                return cell
    raise ValueError(f"no cell named {name!r} for n={n}")


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the strong-regularity test, with a witness on failure."""

    holds: bool
    witness: str | None
    offending: tuple[GroupElement, ...] | None


def is_strongly_regular(partition: CellPartition, j_cell) -> RegularityReport:
    """Check that every left and right cell inside J meet in one element.

    ``j_cell`` may be a two-sided cell of the partition or its name
    (J1/J2/J3).  The report's witness names the first offending
    intersection in display order.
    """
    if isinstance(j_cell, str):
        members = set(cell_by_name(partition.n, j_cell))
    else:
        members = set(j_cell)
    if members not in [set(c) for c in partition.two_sided_cells]:
        raise ValueError("is_strongly_regular expects a two-sided cell of the partition")
    lefts = [c for c in partition.left_cells if set(c) <= members]
    rights = [c for c in partition.right_cells if set(c) <= members]
    for left in lefts:
        for right in rights:
            meet = tuple(sorted(set(left) & set(right), key=display_key))
            if len(meet) != 1:
                witness = (
                    f"|{left_cell_name(left)} ∩ {right_cell_name(right)}| = {len(meet)}"
                )
                return RegularityReport(holds=False, witness=witness, offending=meet)
    return RegularityReport(holds=True, witness=None, offending=None)


def _basis_key(w: GroupElement) -> tuple[int, int]:
    rank = -1 if w.leading is None else (0 if w.leading == "s" else 1)
    return (rank, w.length)


@dataclass(frozen=True)
class CellModule:
    """A left cell with its ordered basis and the action of every b(u).

    cell      -- basis, ordered by (leading letter, length), s before t
    matrices  -- for every group element u, the matrix of b(u) acting on the
                 span of the cell (coefficients outside the cell truncated)
    """

    n: int
    cell: tuple[GroupElement, ...]
    matrices: Mapping[GroupElement, IntMatrix]

    def generator_pair(self) -> tuple[IntMatrix, IntMatrix]:
        group = dihedral_group(self.n)
        return (
            self.matrices[group.generator("s")],
            self.matrices[group.generator("t")],
        )

    def to_jsonable(self) -> dict:
        ordered = sorted(self.matrices, key=display_key)
        return {
            "n": self.n,
            "cell": [render(w) for w in self.cell],
            "matrices": {render(u): [list(row) for row in self.matrices[u]] for u in ordered},
        }


def _resolve_cell(n: int, cell, cells: tuple[Cell, ...], side: str) -> Cell:
    members = set(cell_by_name(n, cell) if isinstance(cell, str) else cell)
    for candidate in cells:
        if set(candidate) == members:
            return candidate
    raise ValueError(f"expected a {side} cell of D_{n}")


def cell_module(n: int, cell) -> CellModule:
    """The module carried by a left cell (name or member tuple accepted)."""
    partition = compute_cells(n)
    resolved = _resolve_cell(n, cell, partition.left_cells, "left")
    basis = tuple(sorted(resolved, key=_basis_key))
    index = {w: i for i, w in enumerate(basis)}
    in_cell = set(basis)
    left_index = {w: i for i, c in enumerate(partition.left_cells) for w in c}
    group = dihedral_group(n)
    columns = [_kl_column(group, b) for b in basis]

    matrices: dict[GroupElement, IntMatrix] = {}
    for u in group.all_elements():
        rows = [[0] * len(basis) for _ in basis]
        for j, b in enumerate(basis):
            for v, c in columns[j][u].items():
                if v in in_cell:
                    rows[index[v]][j] = c
                else:
                    # Truncation is only sound if the term sits strictly
                    # above the cell in the left preorder.
                    dropped = left_index[v]
                    here = left_index[b]
                    assert (here, dropped) in partition.left_leq and (
                        dropped,
                        here,
                    ) not in partition.left_leq, (
                        f"dropped term {render(v)} not strictly above the cell"
                    )
        matrices[u] = tuple(tuple(row) for row in rows)
    return CellModule(n=n, cell=basis, matrices=matrices)


def right_cell_module(n: int, cell) -> CellModule:
    """Matrices of right multiplication on a right cell.

    The basis order mirrors cell_module.  Entry [i][j] of matrices[u] is the
    coefficient of basis element i in b(basis element j) * b(u); note these
    compose contravariantly, as right actions do.  Since b(w) -> b(w^{-1})
    is an anti-automorphism, that coefficient is the entry of b(u^{-1}) on
    the left cell module of the inverted cell, at the inverted basis elements.
    """
    resolved = _resolve_cell(n, cell, compute_cells(n).right_cells, "right")
    group = dihedral_group(n)
    left = cell_module(n, tuple(group.inverse(w) for w in resolved))
    basis = tuple(sorted(resolved, key=_basis_key))
    sigma = [left.cell.index(group.inverse(w)) for w in basis]
    matrices = {
        u: tuple(tuple(left.matrices[group.inverse(u)][a][b] for b in sigma) for a in sigma)
        for u in group.all_elements()
    }
    return CellModule(n=n, cell=basis, matrices=matrices)


def _hasse_edges(
    cells: Sequence[Cell], leq: frozenset[tuple[int, int]]
) -> list[tuple[int, int]]:
    strict = {(i, j) for (i, j) in leq if i != j}
    edges = []
    for i, j in sorted(strict):
        if not any((i, k) in strict and (k, j) in strict for k in range(len(cells))):
            edges.append((i, j))
    return edges


def cell_diagram_dot(n: int) -> str:
    """DOT source showing the three cell posets (edges point upwards)."""
    partition = compute_cells(n)
    lines = [f"digraph cells_D{n} {{", "  rankdir=BT;", "  node [shape=box];"]
    sections = (
        ("left", partition.left_cells, partition.left_leq, left_cell_name),
        ("right", partition.right_cells, partition.right_leq, right_cell_name),
        ("two_sided", partition.two_sided_cells, partition.j_leq, two_sided_cell_name),
    )
    for section, cells, leq, namer in sections:
        lines.append(f"  subgraph cluster_{section} {{")
        lines.append(f'    label="{section} cells";')
        for cell in cells:
            name = namer(cell)
            members = ", ".join(render(w) for w in cell)
            lines.append(f'    {section}_{name} [label="{name} = {{{members}}}"];')
        for i, j in _hasse_edges(cells, leq):
            lines.append(
                f"    {section}_{namer(cells[i])} -> {section}_{namer(cells[j])};"
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
