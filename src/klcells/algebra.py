"""The integer group algebra of D_n and its Kazhdan-Lusztig basis.

Two bases of Z[D_n] are used throughout.  The group basis consists of the
group elements themselves.  The KL basis element b(w) attached to w is, for
dihedral groups evaluated at q = 1, simply the sum of w and every strictly
shorter element:

    b(w) = w + sum of all v with l(v) < l(w).

Both bases are integral and the change of basis is unitriangular with
respect to length, so conversion is exact over Z in both directions.

Products of KL basis elements expand again in the KL basis with nonnegative
integer coefficients.  They are computed by one route.  Left
multiplication by b(s) and b(t) follows the four-case generator rule
(double when the generator already leads the word, concatenate for the
identity and the opposite generator, and otherwise split as b(xw) + b(yw)
for the two generators x, y); ``kl_regular_matrices`` writes it as the
regular pair of matrices.  Every longer b(u) with leading letter x is
forced by b(u) = b(x) b(u') - b(u''), where u' drops the leading letter and
u'' is the alternating word of length l(u) - 2 that also leads with x (no
u'' term at length two), so in any module A_u = A_x A_u' - A_u''.  One
kernel evaluates that recursion, ``_kl_recursion``, on a pair of prepared
generators (``_Generator``) with packed integer rows: ``structure_constants``
is the family of the regular pair and ``kl_multiply`` reads it, a cell
module is the family of its own generator pair (``cells.cell_module``),
``nimrep.extend`` runs it on one candidate pair, and the classification
search prepares each generator once and runs it on every pair it forms.

The independent route, plain convolution in the group basis followed by
conversion back, lives in the checks: verification check A1 compares every
table entry against it for n <= 10, and so does the test suite.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dihedral import (
    DihedralGroup,
    GroupElement,
    dihedral_group,
    display_key,
    other_letter,
    render,
)
from .exact import IntMatrix, identity_matrix

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


# -- the flat extension kernel ----------------------------------------------
#
# The recursion runs on prepared generators (``_Generator``): each holds its
# flat row-major tuple, the nonzero terms of each row, its largest row sum,
# its support bitmask and its packed rows, so a caller that pairs one matrix
# with many others prepares it once.  Every matrix of the family is held as
# one integer per row, entry j in the bit field [width*j, width*(j+1)):
# packing is linear, so adding rows and scaling them by integers is exact
# whatever the signs, and a row whose entries all lie strictly between
# -2^(width-1) and 2^(width-1) is read back without loss.  The width comes
# from an a-priori bound: with c the largest row sum of the two generators,
# no row of a matrix of length l has absolute values summing to more than
# (c+1)^l (induction on A_w = A_x A_w' - A_w''), so width =
# n * bitlength(c+1) + 1 suffices up to w0.  A generator keeps its packed
# rows for each width it has been asked for.  Adding the offset that puts
# 2^(width-1) in every field turns "some entry is negative" into "some high
# bit is clear", one integer operation per row.


def _support(flat: Sequence[int]) -> int:
    """The zero pattern of a flat row-major matrix: bit i*r + j is set
    exactly when entry (i, j) is nonzero."""
    return sum(1 << index for index, v in enumerate(flat) if v)


class _Generator:
    """A generator matrix prepared once for ``_kl_recursion``.

    flat    -- the flat row-major tuple
    rank    -- r, the matrix is r x r
    terms   -- the nonzero entries (l, v) of each row
    row_sum -- the largest row sum
    support -- the bitmask of ``_support``
    """

    __slots__ = ("flat", "rank", "terms", "row_sum", "support", "_packed")

    def __init__(self, flat: Sequence[int], rank: int) -> None:
        self.flat = flat = tuple(flat)
        self.rank = rank
        rows = [flat[i * rank : (i + 1) * rank] for i in range(rank)]
        self.terms = tuple(tuple(itertools.compress(enumerate(row), row)) for row in rows)
        self.row_sum = max(map(sum, rows))
        self.support = _support(flat)
        self._packed: dict[int, list[int]] = {}

    def packed(self, width: int) -> list[int]:
        """The packed rows at this width (shared: callers must not mutate)."""
        rows = self._packed.get(width)
        if rows is None:
            r = self.rank
            shifts = range(0, width * r, width)
            flat = self.flat
            rows = [sum(map(operator.lshift, flat[i * r : (i + 1) * r], shifts)) for i in range(r)]
            self._packed[width] = rows
        return rows


@functools.lru_cache(maxsize=None)
def _frame(width: int, rank: int) -> tuple[list[int], int]:
    """(packed identity rows, sign offset) for a width and a rank."""
    shifts = range(0, width * rank, width)
    return [1 << shift for shift in shifts], sum(1 << (shift + width - 1) for shift in shifts)


def _kl_recursion(
    n: int, gen_s: _Generator, gen_t: _Generator, check_support: bool = False
) -> tuple[list[list[int]], int, str | None, list[int] | None]:
    """The KL family of a pair of prepared generators, in packed rows.

    Returns (matrices, width, outcome, negative).  ``matrices`` lists the
    family built so far in the order e, s, t, st, ts, sts, tst, ..., then
    w0 when the extension completes: the element of length l leading with
    s (t) sits at index 2l - 1 (2l), w0 at 2n - 1.  The first three are
    shared with the generators and must not be mutated.  ``outcome`` is
    None for a complete family, "F2" for a negative matrix (``negative``
    holds it; its element is the next index, or w0 when all 2n - 1 lower
    matrices are built), "F5" when the two routes to w0 disagree, and "F4"
    when ``check_support`` is set, A_s or A_t is nonzero and a matrix of
    length 1..n-1 vanishes.  That is exactly when the partial family meets
    the middle two-sided cell in a mix of zero and nonzero matrices: e and
    w0 are cells of their own, and a family whose middle cell vanishes has
    A_s = A_t = 0, so w0 vanishes too and the support is downward closed.
    """
    width = n * (max(gen_s.row_sum, gen_t.row_sum) + 1).bit_length() + 1
    identity, offset = _frame(width, gen_s.rank)
    terms = (gen_s.terms, gen_t.terms)
    matrices: list[list[int]] = [identity, gen_s.packed(width), gen_t.packed(width)]
    check_support = check_support and bool(gen_s.support or gen_t.support)
    if check_support and not (gen_s.support and gen_t.support):
        return matrices, width, "F4", None

    def product(x: int, m: list[int], back: list[int] | None) -> list[int]:
        # A_x m - back, row by row
        out = []
        for i, row_terms in enumerate(terms[x]):
            acc = -back[i] if back is not None else 0
            for l, v in row_terms:
                acc += v * m[l]
            out.append(acc)
        return out

    for length in range(2, n):
        for x in (0, 1):
            shorter = matrices[2 * length - 2 - x]
            back = matrices[2 * length - 5 + x] if length > 2 else None
            a = product(x, shorter, back)
            if any((row + offset) & offset != offset for row in a):
                return matrices, width, "F2", a
            matrices.append(a)
            if check_support and not any(a):
                return matrices, width, "F4", None
    via_s = product(0, matrices[2 * n - 2], matrices[2 * n - 5])
    via_t = product(1, matrices[2 * n - 3], matrices[2 * n - 4])
    for route in (via_s, via_t):
        if any((row + offset) & offset != offset for row in route):
            return matrices, width, "F2", route
    if via_s != via_t:
        return matrices, width, "F5", None
    matrices.append(via_s)
    return matrices, width, None, None


def _unpack(packed: Sequence[list[int]], width: int) -> list[IntMatrix]:
    """Read packed matrices back as tuples of tuples."""
    if not packed:
        return []
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    shifts = range(0, width * len(packed[0]), width)
    offset = sum(half << shift for shift in shifts)
    return [
        tuple(tuple((row >> shift & mask) - half for shift in shifts) for row in [r + offset for r in m])
        for m in packed
    ]


def _flatten(m: IntMatrix) -> list[int]:
    return [v for row in m for v in row]


def _kl_family(
    n: int, theta_s: IntMatrix, theta_t: IntMatrix
) -> tuple[dict[GroupElement, IntMatrix], str | None, IntMatrix | None]:
    """The kernel's output for a generator pair, keyed by group element.

    Returns (family, outcome, negative): every matrix built, in the
    all_elements order (A_e, A_s and A_t are the inputs themselves), the
    kernel's outcome, and for F2 the negative matrix, which is not in the
    family.
    """
    rank = len(theta_s)
    gen_s, gen_t = _Generator(_flatten(theta_s), rank), _Generator(_flatten(theta_t), rank)
    matrices, width, outcome, negative = _kl_recursion(n, gen_s, gen_t)
    elements = dihedral_group(n).all_elements()
    family = {elements[0]: identity_matrix(rank), elements[1]: theta_s, elements[2]: theta_t}
    unpacked = _unpack(matrices[3:] + ([negative] if negative is not None else []), width)
    family.update(zip(elements[3 : len(matrices)], unpacked))
    return family, outcome, (unpacked[-1] if negative is not None else None)


def _module_family(n: int, theta_s: IntMatrix, theta_t: IntMatrix) -> dict[GroupElement, IntMatrix]:
    """The KL family of the generator pair of a module, checked complete.

    A module of the KL basis realises the whole family, so the kernel can
    meet neither a negative matrix (F2) nor two different A_w0 (F5).
    """
    family, outcome, _ = _kl_family(n, theta_s, theta_t)
    assert outcome is None, f"the KL family of a module cannot fail {outcome}"
    return family


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


@functools.lru_cache(maxsize=None)
def structure_constants(n: int) -> StructureConstantTable:
    """Compute (and cache) the full KL structure-constant table for D_n.

    The table is the KL family of the regular pair ``kl_regular_matrices(n)``
    built by the flat kernel: column j of A_u holds the KL coefficients of
    b(u) b(w_j), w_j the j-th element in all_elements order.  The family of
    a module is complete, so every coefficient is nonnegative.
    """
    elements = dihedral_group(n).all_elements()
    family = _module_family(n, *kl_regular_matrices(n))
    entries: dict[tuple[GroupElement, GroupElement], CoeffDict] = {}
    for u in elements:
        for w, column in zip(elements, zip(*family[u])):
            entries[(u, w)] = {v: c for v, c in zip(elements, column) if c}
    return StructureConstantTable(n, entries)


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
