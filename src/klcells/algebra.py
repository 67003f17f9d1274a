"""The integer group algebra of D_n and its Kazhdan-Lusztig basis.

Two bases of Z[D_n] are used throughout.  The group basis consists of the
group elements themselves.  The KL basis element b(w) attached to w is, for
dihedral groups evaluated at q = 1, simply the sum of w and every strictly
shorter element:

    b(w) = w + sum of all v with l(v) < l(w).

Both bases are integral and the change of basis is unitriangular with
respect to length, so conversion is exact over Z in both directions.

Products of KL basis elements expand again in the KL basis with nonnegative
integer coefficients.  They are computed by one route: a recursion on the
length of the left factor, seeded by the four-case rule for multiplication
by b(s) and b(t) (double when the generator already leads the word,
concatenate for the identity and the opposite generator, and otherwise split
as b(xw) + b(yw) for the two generators x, y).  The recursion never changes
the right factor, so it is evaluated one column {u: b(u) b(w)} at a time:
``structure_constants`` assembles the cached table of all 4n^2 products from
the 2n columns and ``kl_multiply`` reads that table, while a cell module
computes only the columns of its own basis.

The independent route, plain convolution in the group basis followed by
conversion back, lives in the checks: verification check A1 compares every
table entry against it for n <= 10, and so does the test suite for small n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .dihedral import (
    DihedralGroup,
    GroupElement,
    dihedral_group,
    display_key,
    other_letter,
    render,
)

__all__ = [
    "GROUP",
    "KL",
    "GroupAlgebraElement",
    "StructureConstantTable",
    "kl_basis_element",
    "group_basis_element",
    "kl_to_group",
    "group_to_kl",
    "kl_left_multiply_generator",
    "kl_multiply",
    "kl_multiply_elements",
    "structure_constants",
    "kl_regular_matrices",
]

GROUP = "GROUP"
KL = "KL"

# Sparse coefficient dictionaries used by the internal routines.
CoeffDict = dict[GroupElement, int]


def _sorted_terms(coeffs: Mapping[GroupElement, int]) -> tuple[tuple[GroupElement, int], ...]:
    return tuple(
        (w, c) for w, c in sorted(coeffs.items(), key=lambda item: display_key(item[0])) if c != 0
    )


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An element of Z[D_n] expressed in one of the two bases.

    n      -- group parameter
    basis  -- GROUP or KL
    coeffs -- sparse coefficients as (element, coefficient) pairs, sorted by
              (length, leading letter), zero coefficients absent
    """

    n: int
    basis: str
    coeffs: tuple[tuple[GroupElement, int], ...]

    def __post_init__(self) -> None:
        if self.basis not in (GROUP, KL):
            raise ValueError(f"basis must be GROUP or KL, got {self.basis!r}")
        for w, c in self.coeffs:
            if w.n != self.n:
                raise ValueError(f"coefficient key from D_{w.n} in an element of D_{self.n}")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")

    @classmethod
    def from_dict(cls, n: int, basis: str, coeffs: Mapping[GroupElement, int]) -> "GroupAlgebraElement":
        return cls(n, basis, _sorted_terms(coeffs))

    def as_dict(self) -> CoeffDict:
        return {w: c for w, c in self.coeffs}

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "basis": self.basis,
            "coeffs": {render(w): c for w, c in self.coeffs},
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "GroupAlgebraElement":
        n = obj["n"]
        group = dihedral_group(n)
        coeffs = {
            group.element_from_text(text): int(c) for text, c in obj["coeffs"].items()
        }
        return cls.from_dict(n, obj["basis"], coeffs)

    def render(self) -> str:
        """Text form such as 'tst + t' or '2·w0', longest terms first."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for w, c in sorted(self.coeffs, key=lambda item: display_key(item[0]), reverse=True):
            body = render(w) if c == 1 else f"{c}·{render(w)}"
            parts.append(body)
        return " + ".join(parts)


def kl_basis_element(w: GroupElement) -> GroupAlgebraElement:
    return GroupAlgebraElement.from_dict(w.n, KL, {w: 1})


def group_basis_element(w: GroupElement) -> GroupAlgebraElement:
    return GroupAlgebraElement.from_dict(w.n, GROUP, {w: 1})


# -- basis conversion ------------------------------------------------------


def _kl_expansion(group: DihedralGroup, w: GroupElement) -> CoeffDict:
    """b(w) in the group basis: w plus every strictly shorter element."""
    out: CoeffDict = {v: 1 for v in group.all_elements() if v.length < w.length}
    out[w] = 1
    return out


def _kl_to_group_dict(group: DihedralGroup, coeffs: Mapping[GroupElement, int]) -> CoeffDict:
    out: CoeffDict = {}
    for w, c in coeffs.items():
        if c == 0:
            continue
        for v, e in _kl_expansion(group, w).items():
            new = out.get(v, 0) + c * e
            if new:
                out[v] = new
            else:
                out.pop(v, None)
    return out


def _group_to_kl_dict(group: DihedralGroup, coeffs: Mapping[GroupElement, int]) -> CoeffDict:
    """Unitriangular elimination from the longest element downwards."""
    work: CoeffDict = {w: c for w, c in coeffs.items() if c != 0}
    out: CoeffDict = {}
    for w in sorted(group.all_elements(), key=display_key, reverse=True):
        c = work.get(w, 0)
        if c == 0:
            continue
        out[w] = c
        for v, e in _kl_expansion(group, w).items():
            new = work.get(v, 0) - c * e
            if new:
                work[v] = new
            else:
                work.pop(v, None)
    assert not work, "basis conversion must terminate with nothing left"
    return out


def kl_to_group(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Rewrite a KL-basis element in the group basis."""
    if x.basis != KL:
        raise ValueError("kl_to_group expects a KL-basis element")
    group = dihedral_group(x.n)
    return GroupAlgebraElement.from_dict(x.n, GROUP, _kl_to_group_dict(group, x.as_dict()))


def group_to_kl(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Rewrite a group-basis element in the KL basis."""
    if x.basis != GROUP:
        raise ValueError("group_to_kl expects a group-basis element")
    group = dihedral_group(x.n)
    return GroupAlgebraElement.from_dict(x.n, KL, _group_to_kl_dict(group, x.as_dict()))


# -- KL multiplication -----------------------------------------------------


def _kl_left_gen_dict(group: DihedralGroup, letter: str, w: GroupElement) -> CoeffDict:
    """b(letter) * b(w) in the KL basis (the four-case generator rule)."""
    x = group.generator(letter)
    if w.is_identity():
        return {x: 1}
    xw = group.multiply(x, w)
    if xw.length < w.length:
        # The generator already leads some reduced word of w: doubling.
        return {w: 2}
    if w.length == 1:
        # w is the opposite generator: the product is a single KL element.
        return {xw: 1}
    # Otherwise w leads with the opposite letter and has length >= 2; the
    # product splits into the lengthened and the shortened alternating word.
    y = group.generator(other_letter(letter))
    return {xw: 1, group.multiply(y, w): 1}


def _apply_left_generator(group: DihedralGroup, letter: str, coeffs: CoeffDict) -> CoeffDict:
    out: CoeffDict = {}
    for w, c in coeffs.items():
        if c == 0:
            continue
        for v, e in _kl_left_gen_dict(group, letter, w).items():
            new = out.get(v, 0) + c * e
            if new:
                out[v] = new
            else:
                out.pop(v, None)
    return out


def kl_multiply_elements(u: GroupElement, w: GroupElement) -> CoeffDict:
    """b(u) * b(w) as a sparse KL-coefficient dictionary.

    The result is a fresh copy of the cached table entry, so the caller may
    mutate it.
    """
    if u.n != w.n:
        raise ValueError(f"cannot multiply elements of D_{u.n} and D_{w.n}")
    return dict(structure_constants(u.n).product(u, w))


def kl_multiply(u: GroupElement, w: GroupElement) -> GroupAlgebraElement:
    """b(u) * b(w) as a KL-basis algebra element."""
    return GroupAlgebraElement.from_dict(u.n, KL, kl_multiply_elements(u, w))


def kl_left_multiply_generator(letter: str, w: GroupElement) -> GroupAlgebraElement:
    """b(letter) * b(w) by the four-case generator rule."""
    if letter not in ("s", "t"):
        raise ValueError(f"generator letter must be 's' or 't', got {letter!r}")
    group = dihedral_group(w.n)
    return GroupAlgebraElement.from_dict(w.n, KL, _kl_left_gen_dict(group, letter, w))


# -- the full structure-constant table -------------------------------------


@dataclass(frozen=True)
class StructureConstantTable:
    """All KL products b(u) b(w) of D_n, checked positive at build time.

    entries[(u, w)] is the sparse dictionary of the product's KL
    coefficients.  Treat the table as read-only; it is cached per n.
    """

    n: int
    entries: Mapping[tuple[GroupElement, GroupElement], Mapping[GroupElement, int]]

    def product(self, u: GroupElement, w: GroupElement) -> Mapping[GroupElement, int]:
        return self.entries[(u, w)]


def _kl_column(group: DihedralGroup, w: GroupElement) -> dict[GroupElement, CoeffDict]:
    """{u: b(u) b(w) for every u}, checked positive.

    The recursion runs bottom-up in the length of the left factor and stays
    inside the column, so each entry costs a constant number of dictionary
    merges.  For l(u) >= 3 with leading letter x and u = x u', the generator
    rule gives b(x) b(u') = b(u) + b(u'') where u'' is the alternating word
    of length l(u) - 2 that also leads with x, so b(u) b(w) = b(x) (b(u')
    b(w)) - b(u'') b(w); for l(u) = 2, b(u) = b(x) b(y) with y the other
    letter.
    """
    column: dict[GroupElement, CoeffDict] = {}
    # all_elements is ordered by length, so u' and u'' are always done first.
    for u in group.all_elements():
        if u.length == 0:
            result: CoeffDict = {w: 1}
        elif u.length == 1:
            result = _kl_left_gen_dict(group, u.leading, w)
        elif u.length == 2:
            inner = column[group.generator(other_letter(u.leading))]
            result = _apply_left_generator(group, u.leading, inner)
        else:
            u_prime = group.element(u.length - 1, other_letter(u.leading))
            u_second = group.element(u.length - 2, u.leading)
            result = _apply_left_generator(group, u.leading, column[u_prime])
            for v, c in column[u_second].items():
                new = result.get(v, 0) - c
                if new:
                    result[v] = new
                else:
                    result.pop(v, None)
        assert all(c > 0 for c in result.values()), "KL structure constants must be positive"
        column[u] = result
    return column


@functools.lru_cache(maxsize=None)
def structure_constants(n: int) -> StructureConstantTable:
    """Compute (and cache) the full KL structure-constant table for D_n.

    The table is assembled from the columns {u: b(u) b(w)}, one per right
    factor w, each computed by the bottom-up recursion of ``_kl_column``.
    Callers that need only a few columns (a cell module) compute those
    columns directly instead.
    """
    group = dihedral_group(n)
    elements = group.all_elements()
    columns = {w: _kl_column(group, w) for w in elements}
    return StructureConstantTable(
        n, {(u, w): columns[w][u] for u in elements for w in elements}
    )


def kl_regular_matrices(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Matrices of b(s) and b(t) acting on the KL basis of Z[D_n].

    Columns follow the all_elements order; entry [i][j] is the coefficient
    of basis element i in b(generator) * b(element j).
    """
    group = dihedral_group(n)
    elements = group.all_elements()
    index = {w: i for i, w in enumerate(elements)}
    matrices = []
    for letter in ("s", "t"):
        columns = []
        for w in elements:
            col = [0] * len(elements)
            for v, c in _kl_left_gen_dict(group, letter, w).items():
                col[index[v]] = c
            columns.append(col)
        matrices.append(tuple(tuple(columns[j][i] for j in range(len(elements))) for i in range(len(elements))))
    return matrices[0], matrices[1]
