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
kernel evaluates that recursion, ``_kl_recursion``, on one prepared A_s
and a list of prepared A_t (``_Generator``), the lanes, with the rows of
every lane packed side by side into integers.  A single pair is one lane:
``structure_constants`` is the family of the regular pair and
``kl_multiply`` reads it, a cell module is the family of its own
generator pair (``cells.cell_module``), and ``nimrep.extend`` runs it on
one candidate pair.  The classification search prepares each generator
once and judges all the pairs of a work unit, which share A_s, in one
call.

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
# flat row-major tuple, the nonzero terms of each row, its largest row sum
# and its support bitmask, so a caller that pairs one matrix with many
# others prepares it once.  One call judges one A_s against a list of A_t,
# the lanes.  Every matrix of the family is held as one integer per row:
# entry j of lane L sits in the bit field [L*R + width*j, L*R + width*(j+1)),
# so lane L holds its rows in [L*R, (L+1)*R).  R is rank * width rounded up
# to whole bytes, with at least one spare bit on top.  Packing is linear, so
# adding rows and scaling them by integers is exact whatever the signs, and
# the s-leading step, whose A_s every lane shares, is the one-pair code run
# on the wide integers.  The width comes from an a-priori bound: with c the
# largest row sum of A_s and of every A_t, no row of a matrix of length l
# has absolute values summing to more than (c+1)^l (induction on
# A_w = A_x A_w' - A_w'', whatever the signs), so width =
# n * bitlength(c+1) + 1 keeps every entry of every lane strictly between
# -2^(width-1) and 2^(width-1) up to w0, also in a lane that has already
# failed and is carried along.
#
# A negative entry borrows from the fields above it, across lanes too, so
# the raw rows are never tested bit by bit.  Adding ``offsets``, which puts
# 2^(width-1) in every field of every lane, gives the offset form: each
# field then holds entry + 2^(width-1), a value in [0, 2^width), and as a
# sum of such fields at disjoint places the offset form has no carry at
# all; it is the plain binary form of the entries.  On it, "entry
# negative" is "high bit of the field clear", "matrix zero" is "equal to
# the offsets", two matrices agree where their offset forms do, and a lane
# is cut out by a mask.  A term (l, v) of row i of A_t that only some lanes
# have adds v * ((M_l + offsets) & mask - offsets & mask), mask covering
# those lanes.  The spare bit makes the test "is lane L's part of x
# nonzero" one addition: x + (2^(R-1) - 1) in every lane sets bit R-1 of
# exactly those lanes (x < 2^(R-1) in each), so no operation runs per lane.


def _support(flat: Sequence[int]) -> int:
    """The zero pattern of a flat row-major matrix: bit i*r + j is set
    exactly when entry (i, j) is nonzero."""
    return sum(1 << index for index, v in enumerate(flat) if v)


class _Generator:
    """A nonnegative generator matrix prepared once for ``_kl_recursion``.

    flat        -- the flat row-major tuple
    rank        -- r, the matrix is r x r
    terms       -- the nonzero entries (l, v) of each row
    row_sum     -- the largest row sum
    support     -- the bitmask of ``_support``
    entry_bytes -- the flat tuple as bytes, or None when an entry exceeds 255
    """

    __slots__ = ("flat", "rank", "terms", "row_sum", "support", "entry_bytes")

    def __init__(self, flat: Sequence[int], rank: int) -> None:
        self.flat = flat = tuple(flat)
        self.rank = rank
        rows = [flat[i * rank : (i + 1) * rank] for i in range(rank)]
        self.terms = tuple(tuple(itertools.compress(enumerate(row), row)) for row in rows)
        self.row_sum = max(map(sum, rows))
        self.support = _support(flat)
        self.entry_bytes = bytes(flat) if max(flat) < 256 else None


_FLAT, _ROW_SUM, _SUPPORT, _ENTRY_BYTES = map(operator.attrgetter, ("flat", "row_sum", "support", "entry_bytes"))


@functools.lru_cache(maxsize=None)
def _frame(width: int, rank: int) -> tuple[tuple[int, ...], int]:
    """(packed identity rows, sign offset) of one lane, for a width and a rank."""
    shifts = range(0, width * rank, width)
    return tuple(1 << shift for shift in shifts), sum(1 << (shift + width - 1) for shift in shifts)


def _lane_starts(flags: bytes, stride: int) -> int:
    """Bit 8 * stride * L set for each lane L whose flag (0 or 1) is set."""
    buf = bytearray(len(flags) * stride)
    buf[::stride] = flags
    return int.from_bytes(buf, "little")


def _kl_recursion(
    n: int, gen_s: _Generator, gens_t: Sequence[_Generator], check_support: bool = False
) -> tuple[list[list[int]], int, list[str | None], list[int] | None]:
    """The KL families of A_s with each A_t of ``gens_t`` (the lanes), packed.

    Returns (matrices, width, outcomes, negative).  ``matrices`` lists the
    lane-packed family in the order e, s, t, st, ts, sts, tst, ..., then w0:
    the element of length l leading with s (t) sits at index 2l - 1 (2l),
    w0 at 2n - 1.  The recursion stops as soon as every lane has failed;
    the list holds what was built before that.  ``outcomes`` has one entry
    per lane: None for a complete family, "F2" for a negative matrix, "F5"
    when the two routes to w0 disagree, and "F4" when ``check_support`` is
    set, A_s or A_t is nonzero and a matrix of length 1..n-1 vanishes.
    That is exactly when the partial family meets the middle two-sided cell
    in a mix of zero and nonzero matrices: e and w0 are cells of their own,
    and a family whose middle cell vanishes has A_s = A_t = 0, so w0
    vanishes too and the support is downward closed.  ``negative`` is the
    matrix in which the last lanes still alive failed F2, else None.

    Each lane gets the first event of the one-pair recursion: at each
    length F2 on the s-leading product, then F4 on it, then F2 and F4 on
    the t-leading one; at w0 F2 on the s route, F2 on the t route, then F5.
    With one lane, ``matrices`` is that pair's packed family and, for F2,
    its element is the next index (w0 when all 2n - 1 lower matrices are
    built).
    """
    rank, lanes = gen_s.rank, len(gens_t)
    width = n * (max(gen_s.row_sum, max(map(_ROW_SUM, gens_t), default=0)) + 1).bit_length() + 1
    stride = rank * width // 8 + 1
    lane_bits = 8 * stride
    starts = _lane_starts(b"\1" * lanes, stride)
    top = starts << (lane_bits - 1)
    low = starts * ((1 << (lane_bits - 1)) - 1)
    identity, offset = _frame(width, rank)
    offsets = offset * starts

    # Entry p of every A_t: a bytes column, one byte per lane, when every
    # entry fits in a byte.
    entry_bytes = list(map(_ENTRY_BYTES, gens_t))
    if None in entry_bytes:
        columns: list = list(zip(*map(_FLAT, gens_t)))
    else:
        table = b"".join(entry_bytes)
        columns = [table[p :: rank * rank] for p in range(rank * rank)]
    # Terms of each row: (l, v) shared by every lane, and (l, v, mask) for
    # the lanes under mask; ``scaled`` holds v at the start of each lane of
    # each mask of a row, for the constant those terms leave to subtract.
    shared: tuple[list, list] = (list(gen_s.terms), [[] for _ in range(rank)])
    partial: tuple[list, list] = ([()] * rank, [[] for _ in range(rank)])
    scaled = [0] * rank
    rows_t = [0] * rank
    for index, column in enumerate(columns):
        i, l = divmod(index, rank)
        first = column[0]
        if column.count(first) == lanes:
            if first:
                shared[1][i].append((l, first))
                rows_t[i] += first * starts << (l * width)
            continue
        for v in set(column) - {0}:
            if isinstance(column, bytes):
                flags = column.translate(bytes(v) + b"\1" + bytes(255 - v))
            else:
                flags = bytes(map(v.__eq__, column))
            chosen = _lane_starts(flags, stride)
            partial[1][i].append((l, v, (chosen << lane_bits) - chosen))
            scaled[i] += v * chosen
            rows_t[i] += v * chosen << (l * width)
    # v * ((M_l + offsets) & mask) leaves v * (offsets & mask) to subtract
    constants = ([0] * rank, [offset * row for row in scaled])
    masked = (False, any(partial[1]))
    rows_s = [sum(v << (l * width) for l, v in row) * starts for row in gen_s.terms]
    matrices: list[list[int]] = [[row * starts for row in identity], rows_s, rows_t]

    def product(x: int, m: list[int], back: list[int] | None) -> list[int]:
        # A_x m - back, row by row
        shifted = [row + offsets for row in m] if masked[x] else m
        out = []
        for i, constant in enumerate(constants[x]):
            acc = -constant if back is None else -constant - back[i]
            for l, v in shared[x][i]:
                acc += v * m[l]
            for l, v, mask in partial[x][i]:
                acc += v * (shifted[l] & mask)
            out.append(acc)
        return out

    def lanes_nonzero(bits: int) -> int:
        # the top bit of each lane whose part of ``bits`` is nonzero
        return (bits + low) & top

    failed = {"F2": 0, "F4": 0, "F5": 0}
    alive = top

    def fail(tag: str, event: int) -> bool:
        # charge the lanes of ``event`` to ``tag``; True when none is left
        nonlocal alive
        failed[tag] |= event
        alive ^= event
        return not alive

    def outcomes() -> list[str | None]:
        out: list[str | None] = [None] * lanes
        for tag, bits in failed.items():
            flags = bits.to_bytes(lanes * stride, "little")[stride - 1 :: stride]
            for lane in itertools.compress(range(lanes), flags):
                out[lane] = tag
        return out

    def negative_lanes(shifted: list[int]) -> int:
        # the live lanes with an entry whose field has its high bit clear
        return lanes_nonzero(offsets & ~functools.reduce(operator.and_, shifted)) & alive

    if check_support:
        zero_t = _lane_starts(bytes(map(operator.not_, map(_SUPPORT, gens_t))), stride) << (lane_bits - 1)
        # a zero A_s fails every nonzero A_t; the all-zero pairs are exempt
        check_support = bool(gen_s.support)
        if fail("F4", zero_t if check_support else top ^ zero_t):
            return matrices, width, outcomes(), None

    for length in range(2, n):
        for x in (0, 1):
            shorter = matrices[2 * length - 2 - x]
            back = matrices[2 * length - 5 + x] if length > 2 else None
            a = product(x, shorter, back)
            shifted = [row + offsets for row in a]
            event = negative_lanes(shifted)
            if event and fail("F2", event):
                return matrices, width, outcomes(), a
            matrices.append(a)
            if check_support:
                event = alive & ~lanes_nonzero(functools.reduce(operator.or_, [row ^ offsets for row in shifted]))
                if event and fail("F4", event):
                    return matrices, width, outcomes(), None
    via_s = product(0, matrices[2 * n - 2], matrices[2 * n - 5])
    via_t = product(1, matrices[2 * n - 3], matrices[2 * n - 4])
    shifted_routes = [[row + offsets for row in route] for route in (via_s, via_t)]
    for route, shifted in zip((via_s, via_t), shifted_routes):
        event = negative_lanes(shifted)
        if event and fail("F2", event):
            return matrices, width, outcomes(), route
    event = lanes_nonzero(functools.reduce(operator.or_, map(operator.xor, *shifted_routes))) & alive
    if event and fail("F5", event):
        return matrices, width, outcomes(), None
    matrices.append(via_s)
    return matrices, width, outcomes(), None


def _unpack(packed: Sequence[list[int]], width: int) -> list[IntMatrix]:
    """Read one-lane packed matrices back as tuples of tuples.

    Eight fields of ``width`` bits fill exactly ``width`` bytes, so the
    offset form of a row is turned into bytes once and read eight fields
    at a time from a byte-aligned slice: an entry costs O(width), not a
    shift of the whole row.
    """
    if not packed:
        return []
    rank = len(packed[0])
    offset = _frame(width, rank)[1]
    half, mask = 1 << (width - 1), (1 << width) - 1
    size = (rank * width + 7) // 8
    groups = [
        (slice(first * width // 8, (last * width + 7) // 8), range(0, (last - first) * width, width))
        for first, last in ((first, min(first + 8, rank)) for first in range(0, rank, 8))
    ]

    def entries(row: int) -> tuple[int, ...]:
        data = (row + offset).to_bytes(size, "little")
        return tuple(
            (chunk >> shift & mask) - half
            for part, shifts in groups
            for chunk in (int.from_bytes(data[part], "little"),)
            for shift in shifts
        )

    return [tuple(map(entries, m)) for m in packed]


def _flatten(m: IntMatrix) -> list[int]:
    return [v for row in m for v in row]


def _kl_family(
    n: int, theta_s: IntMatrix, theta_t: IntMatrix, check_support: bool = False
) -> tuple[dict[GroupElement, IntMatrix], str | None, IntMatrix | None]:
    """The kernel's output for a generator pair, keyed by group element.

    Returns (family, outcome, negative): every matrix built, in the
    all_elements order (A_e, A_s and A_t are the inputs themselves), the
    kernel's outcome, and for F2 the negative matrix, which is not in the
    family.
    """
    rank = len(theta_s)
    gen_s, gen_t = _Generator(_flatten(theta_s), rank), _Generator(_flatten(theta_t), rank)
    matrices, width, (outcome,), negative = _kl_recursion(n, gen_s, [gen_t], check_support)
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
