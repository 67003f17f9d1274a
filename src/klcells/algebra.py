"""The integer group algebra of D_n and its Kazhdan-Lusztig basis.

Two bases of Z[D_n] are used throughout.  The group basis consists of the
group elements themselves.  The KL basis element b(w) attached to w is, for
dihedral groups evaluated at q = 1, simply the sum of w and every strictly
shorter element:

    b(w) = w + sum of all v with l(v) < l(w).

Both bases are integral and the change of basis is unitriangular with
respect to length, so conversion is exact over Z in both directions: the
group coefficient of v is its KL coefficient plus those of every longer
element, one suffix sum over the lengths either way.

Products of KL basis elements expand again in the KL basis with nonnegative
integer coefficients.  They are computed by one route.  With x_m the
element of length m that leads with the generator x, left multiplication
by b(x) follows the generator rule, for w of length l: b(x) b(w) is
2 b(w) when x leads w or w = w0, else b(x_(l+1)) when l <= 1, else
b(x_(l+1)) + b(x_(l-1)); ``_span_generators`` writes it as the matrices
of b(s) and b(t) on a span of basis elements, the whole basis for the
regular pair ``kl_regular_matrices`` and a left cell for its module.
Every longer b(u) with leading letter x is forced by b(u) = b(x) b(u') - b(u''), where u' drops the leading letter and
u'' is the alternating word of length l(u) - 2 that also leads with x (no
u'' term at length two), so in any module A_u = A_x A_u' - A_u''.  One
kernel evaluates that recursion, ``_kl_recursion``, on a list of pairs of
generators, the lanes, read entry by entry as columns (``_Columns``), with
the rows of every lane packed side by side into integers.  A single pair
is one lane: ``structure_constants`` is the family of the regular pair
and ``kl_multiply`` reads it, a cell module is the family of its own
generator pair (``cells.cell_module``, run when a matrix past the
generators is first read), and ``nimrep.extend`` runs it on one
candidate pair; a family is unpacked whole when a matrix past its
generators is first read.
The classification search prepares each generator once, judges the pairs
of several work units in one call, and keeps the columns of its calls for
every n it searches.  Every call logs its events length by length, and
every verdict, of one pair or of a lane of the search, is read off that
log (``_replay``); the log of a run to n gives the verdicts of every
smaller n as well.

The independent route, plain convolution in the group basis followed by
conversion back, lives in the checks: verification check A1 compares every
table entry against it for n <= 10, and so does the test suite.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .dihedral import (
    DihedralGroup,
    GroupElement,
    dihedral_group,
    display_key,
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

_LENGTH = operator.attrgetter("length")


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


def _kl_to_group_dict(group: DihedralGroup, coeffs: Mapping[GroupElement, int]) -> CoeffDict:
    """b(w) = w + every shorter v, so v collects c_v and every c_w with
    l(w) > l(v): one suffix sum over the lengths, from w0 down."""
    out: CoeffDict = {}
    longer = 0  # the sum of c_w over the w longer than this level
    for _, level in itertools.groupby(reversed(group.all_elements()), _LENGTH):
        terms = [(v, coeffs.get(v, 0)) for v in level]
        out.update((v, c + longer) for v, c in terms if c + longer)
        longer += sum(c for _, c in terms)
    return out


def _group_to_kl_dict(group: DihedralGroup, coeffs: Mapping[GroupElement, int]) -> CoeffDict:
    """The inverse: from w0 down, the KL coefficient of v is its group
    coefficient less the KL coefficients of every longer w."""
    out: CoeffDict = {}
    longer = 0  # the sum of the KL coefficients of the w longer than this level
    for _, level in itertools.groupby(reversed(group.all_elements()), _LENGTH):
        terms = [(v, coeffs.get(v, 0) - longer) for v in level]
        out.update((v, c) for v, c in terms if c)
        longer += sum(c for _, c in terms)
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
    """b(letter) * b(w) in the KL basis, read off the length l of w (the
    generator rule of the module docstring)."""
    if w.leading == letter or w.is_longest():
        return {w: 2}
    length = w.length
    if length <= 1:
        return {group.element(length + 1, letter): 1}
    return {group.element(length + 1, letter): 1, group.element(length - 1, letter): 1}


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
    """b(letter) * b(w) by the generator rule."""
    if letter not in ("s", "t"):
        raise ValueError(f"generator letter must be 's' or 't', got {letter!r}")
    group = dihedral_group(w.n)
    return GroupAlgebraElement.from_dict(w.n, KL, _kl_left_gen_dict(group, letter, w))


# -- the flat extension kernel ----------------------------------------------
#
# One call judges a list of pairs, the lanes: lane L is (gens_s[L],
# gens_t[L]).  Its set-up has two parts.  The first reads each generator
# entry across the lanes as a column (``_lane_columns``, on generators
# prepared once as ``_Generator``: flat tuple, largest row sum, support
# bitmask and entries as bytes): which entries are shared by every lane,
# and for each entry that varies one flags string per distinct value.  It
# depends only on the lanes, so a caller that judges the same lanes at many
# n builds it once; a single pair is read straight off the rows of its
# matrices (``_pair_columns``), as all its entries are shared.  The second
# packs those terms at the width n gives (``_lane_terms``), inside
# ``_kl_recursion``.  Every matrix of the family is held as one integer
# per row: entry j of lane L sits in the bit field
# [L*R + width*j, L*R + width*(j+1)), so lane L holds its rows in
# [L*R, (L+1)*R).  R is rank * width rounded up to whole bytes, with at
# least one spare bit on top.  Packing is linear, so adding rows and
# scaling them by integers is exact whatever the signs, and an entry of a
# generator that is equal in every lane scales a whole packed row at once.
# The width comes from an a-priori bound on the largest row l1 norm, which
# is submultiplicative whatever the signs.  With c_s and c_t the largest
# row sums of every A_s and of every A_t of the call, S_l and T_l bound the
# norm of the element of length l leading with s and with t:
# A_w = A_x A_w' - A_w'' gives S_l <= c_s T_(l-1) + S_(l-2) and
# T_l <= c_t S_(l-1) + T_(l-2), from S_0 = T_0 = 1 (the identity),
# S_1 = c_s and T_1 = c_t.  The width is the bit length of the largest
# S_l and T_l for l <= n, plus one (``_width``): it keeps every entry of
# every lane strictly between -2^(width-1) and 2^(width-1) up to both
# routes to w0, also in a lane that has already failed and is carried
# along.  The largest bound is S_n or T_n unless every A_s or every A_t
# of the call is zero; then the other letter's bound at a shorter length
# can be larger, so the maximum is taken over every l.
#
# A negative entry borrows from the fields above it, across lanes too, so
# the raw rows are never tested bit by bit.  Adding ``offsets``, which puts
# 2^(width-1) in every field of every lane, gives the offset form: each
# field then holds entry + 2^(width-1), a value in [0, 2^width), and as a
# sum of such fields at disjoint places the offset form has no carry at
# all; it is the plain binary form of the entries.  On it, "entry
# negative" is "high bit of the field clear", "matrix zero" is "equal to
# the offsets", two matrices agree where their offset forms do, and a lane
# is cut out by a mask.  An entry (i, l) that varies between lanes gets,
# for each nonzero value v it takes in some lanes, a mask covering those
# lanes; the term adds
# v * ((M_l + offsets) & mask - offsets & mask).  The spare bit makes the
# test "is lane L's part of x nonzero" one addition: x + (2^(R-1) - 1) in
# every lane sets bit R-1 of exactly those lanes (x < 2^(R-1) in each), so
# no operation runs per lane.


@functools.lru_cache(maxsize=None)
def _bits(size: int) -> tuple[int, ...]:
    """2^index for each index below size."""
    return tuple(1 << index for index in range(size))


def _support(flat: Sequence[int]) -> int:
    """The zero pattern of a flat row-major matrix: bit i*r + j is set
    exactly when entry (i, j) is nonzero."""
    return sum(itertools.compress(_bits(len(flat)), flat))


class _Generator:
    """A nonnegative generator matrix prepared once for ``_lane_columns``.

    flat        -- the flat row-major tuple
    rank        -- r, the matrix is r x r
    row_sum     -- the largest row sum
    support     -- the bitmask of ``_support``
    entry_bytes -- the flat tuple as bytes, or None when an entry exceeds 255
    """

    __slots__ = ("flat", "rank", "row_sum", "support", "entry_bytes")

    def __init__(self, flat: Sequence[int], rank: int) -> None:
        self.flat = flat = tuple(flat)
        self.rank = rank
        self.row_sum = max(sum(flat[i : i + rank]) for i in range(0, rank * rank, rank))
        self.support = _support(flat)
        self.entry_bytes = bytes(flat) if max(flat) < 256 else None


_FLAT, _ROW_SUM, _SUPPORT, _ENTRY_BYTES = map(operator.attrgetter, ("flat", "row_sum", "support", "entry_bytes"))

# The terms of one generator over the lanes of a call, row by row:
# (shared, varying), where shared[i] holds (l, v) for each entry (i, l)
# equal to v != 0 in every lane, and varying[i] holds (l, v, flags) for
# each nonzero value v of an entry (i, l) that differs between lanes, with
# one flag byte per lane, 1 where the entry is v.
_Terms = tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[tuple[int, int, bytes], ...], ...]]


class _Columns(NamedTuple):
    """The set-up of one ``_kl_recursion`` call that no n changes: its
    lanes read entry by entry as columns (``_lane_columns``).

    lanes    -- the number of lanes
    rank     -- r
    row_sums -- (c_s, c_t), the largest row sum of every A_s and of
                every A_t of the call, which bound the width (``_width``)
    sides    -- the ``_Terms`` of the A_s and of the A_t
    """

    lanes: int
    rank: int
    row_sums: tuple[int, int]
    sides: tuple[_Terms, _Terms]


def _flat_terms(rows: Sequence[Sequence[int]]) -> _Terms:
    """The terms of one matrix, given by its rows, in a call of one lane:
    every nonzero entry is shared."""
    shared = tuple([tuple([(l, v) for l, v in enumerate(row) if v]) for row in rows])
    return shared, ((),) * len(rows)


def _column_terms(gens: Sequence[_Generator]) -> _Terms:
    """The terms of one generator over the lanes of a call.

    Each entry that is nonzero in some lane (the union of the supports) is
    read across the lanes as a column: a bytes column, one byte per lane,
    when every entry fits in a byte, else a tuple.  An entry equal in every
    lane is shared, and an entry that varies gets one flags string per
    distinct nonzero value.
    """
    rank, lanes = gens[0].rank, len(gens)
    size = rank * rank
    # the flat entries of every lane, one after the other: table[p::size]
    # is the column of entry p
    entry_bytes = list(map(_ENTRY_BYTES, gens))
    if None in entry_bytes:
        table: bytes | tuple[int, ...] = tuple(itertools.chain.from_iterable(map(_FLAT, gens)))
    else:
        table = b"".join(entry_bytes)
    nonzero = functools.reduce(operator.or_, map(_SUPPORT, gens))
    shared: list[list[tuple[int, int]]] = [[] for _ in range(rank)]
    varying: list[list[tuple[int, int, bytes]]] = [[] for _ in range(rank)]
    for index in [p for p, bit in enumerate(reversed(bin(nonzero))) if bit == "1"]:
        i, l = divmod(index, rank)
        column = table[index::size]
        value = column[0]
        if column.count(value) == lanes:
            shared[i].append((l, value))
            continue
        for v in set(column) - {0}:
            if isinstance(column, bytes):
                flags = column.translate(bytes(v) + b"\1" + bytes(255 - v))
            else:
                flags = bytes(map(v.__eq__, column))
            varying[i].append((l, v, flags))
    return tuple(map(tuple, shared)), tuple(map(tuple, varying))


def _lane_columns(gens_s: Sequence[_Generator], gens_t: Sequence[_Generator]) -> _Columns:
    """The columns of the lanes (gens_s[L], gens_t[L]) for ``_kl_recursion``."""
    if not gens_t:
        return _Columns(0, 0, (0, 0), (((), ()), ((), ())))
    row_sums = (max(map(_ROW_SUM, gens_s)), max(map(_ROW_SUM, gens_t)))
    return _Columns(len(gens_t), gens_t[0].rank, row_sums, (_column_terms(gens_s), _column_terms(gens_t)))


def _pair_columns(theta_s: Sequence[Sequence[int]], theta_t: Sequence[Sequence[int]]) -> _Columns:
    """The columns of the one lane of a generator pair, read straight off
    the rows of its matrices."""
    row_sums = (max(map(sum, theta_s)), max(map(sum, theta_t)))
    return _Columns(1, len(theta_s), row_sums, (_flat_terms(theta_s), _flat_terms(theta_t)))


@functools.lru_cache(maxsize=None)
def _width(n: int, row_sums: tuple[int, int]) -> int:
    """The field width of a call whose generators have the row sums
    (c_s, c_t): one more than the bit length of the largest of the bounds
    S_l and T_l for l <= n (the comment above)."""
    c_s, c_t = row_sums
    s, t, s_back, t_back = c_s, c_t, 1, 1
    largest = max(1, s, t)
    for _ in range(2, n + 1):
        s, t, s_back, t_back = c_s * t + s_back, c_t * s + t_back, s, t
        largest = max(largest, s, t)
    return largest.bit_length() + 1


@functools.lru_cache(maxsize=None)
def _frame(width: int, rank: int) -> tuple[tuple[int, ...], int]:
    """(packed identity rows, sign offset) of one lane, for a width and a rank."""
    shifts = range(0, width * rank, width)
    return tuple(1 << shift for shift in shifts), sum(1 << (shift + width - 1) for shift in shifts)


def _stride(rank: int, width: int) -> int:
    """The bytes a lane of packed rows takes: rank * width bits rounded up,
    with at least one spare bit on top."""
    return rank * width // 8 + 1


def _lane_starts(flags: bytes, stride: int) -> int:
    """Bit 8 * stride * L set for each lane L whose flag (0 or 1) is set."""
    buf = bytearray(len(flags) * stride)
    buf[::stride] = flags
    return int.from_bytes(buf, "little")


def _lane_terms(
    terms: _Terms, width: int, stride: int, starts: int, offset: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], list[list[tuple[int, int, int]]], list[int], list[int]]:
    """One generator's ``_Terms`` packed at a width: (shared, partial,
    constants, rows).  Row i of the product A_x M is the sum of v * M_l
    over the terms (l, v) of ``shared[i]``, which every lane has, and of
    v * ((M_l + offsets) & mask) over the terms (l, v, mask) of
    ``partial[i]``, which only the lanes under mask have, minus
    ``constants[i]``, the v * (offsets & mask) those terms leave; ``rows``
    are the generator's own packed rows.
    """
    shared, varying = terms
    lane_bits = 8 * stride
    partial: list[list[tuple[int, int, int]]] = []
    constants: list[int] = []
    rows: list[int] = []
    for row_shared, row_varying in zip(shared, varying):
        row = starts * sum([v << (l * width) for l, v in row_shared])
        masks, scaled = [], 0
        for l, v, flags in row_varying:
            chosen = _lane_starts(flags, stride)
            masks.append((l, v, (chosen << lane_bits) - chosen))
            scaled += v * chosen
            row += v * chosen << (l * width)
        partial.append(masks)
        constants.append(offset * scaled)
        rows.append(row)
    return shared, partial, constants, rows


# A length's events, as lane masks over the lanes still alive when the
# length starts: (F2 on s_l, F4 on s_l, F2 on t_l, F4 on t_l, s_l = t_l).
# Each test reads only the lane's own matrices, so a mask is the same in
# a run to any n >= l.  Length 1 has only F4, for a lane with one zero
# generator.
_Record = tuple[int, int, int, int, int]
_QUIET: _Record = (0, 0, 0, 0, 0)
# (index in the record, filter) of each event, in the order charged: below
# n, and at n, where F5 is charged to the lanes whose s_n and t_n differ
_STEPS = ((0, "F2"), (1, "F4"), (2, "F2"), (3, "F4"))
_LAST_STEPS = ((0, "F2"), (2, "F2"), (4, "F5"))


def _charge(record: _Record, last: bool, alive: int, failed: dict[str, int]) -> tuple[int, int | None]:
    """Charge a length's events to the lanes in ``alive``, in the kernel's
    order, adding each event to ``failed``: below n F2 and F4 on s_l, then
    on t_l; at n, where s_n and t_n are the two routes to w0, F2 on each
    and then F5 where they differ.  Returns (the lanes left alive, the
    step after which none is, or None).  The masks may be in any lane
    layout, so long as ``alive`` has no bit outside the lanes' flag bits.
    """
    for step, (index, tag) in enumerate(_LAST_STEPS if last else _STEPS):
        bits = record[index]
        event = (~bits if tag == "F5" else bits) & alive
        if event:
            failed[tag] |= event
            alive ^= event
            if not alive:
                return 0, step
    return alive, None


def _replay(log: Sequence[_Record], lanes: int, n: int) -> tuple[dict[str, int], int]:
    """The verdicts at n of the lanes of a ``_kl_recursion`` run to some
    N >= n, read off its log: (the lanes failed, by filter, and the lanes
    alive), one byte per lane, 0x80 where set.  Below length n it charges
    the events the run logged in the kernel's order, and at n reads s_n
    and t_n as the two routes to w0 (``_charge``); no product is built.
    This is the one reader of a log, for a one-lane family
    (``_kl_family``, ``_module_family``) and for the search's calls
    (``classify._judge_units``) alike.
    """
    alive = int.from_bytes(b"\x80" * lanes, "little")
    failed = {"F2": 0, "F4": 0, "F5": 0}
    for length, record in enumerate(log[:n], 1):
        # a quiet record charges nothing below n; at n it fails F5
        if record is not _QUIET or length == n:
            alive, stop = _charge(record, length == n, alive, failed)
            if stop is not None:
                break
    return failed, alive


def _kl_recursion(
    n: int, columns: _Columns, check_support: bool = False
) -> tuple[list[list[int]], int, list[_Record], list[int] | None]:
    """The KL families of the lanes of ``columns``, packed, and their log.

    Returns (matrices, width, log, negative).  ``matrices`` lists the
    lane-packed family in the order e, s, t, st, ts, sts, tst, ..., then w0:
    the element of length l leading with s (t) sits at index 2l - 1 (2l),
    w0 at 2n - 1.  The recursion stops as soon as every lane has failed;
    the list holds what was built before that.  ``log`` holds the
    ``_Record`` of each length the call reaches, from 1, over the lanes
    alive when the length starts, and ``_replay`` reads each lane's verdict
    off it: None for a complete family, "F2" for a negative matrix, "F5"
    when the two routes to w0 disagree, and, when ``check_support`` is set,
    "F4" for a lane whose A_s or A_t is nonzero and in which a matrix of
    length 1..n-1 vanishes.  That is exactly when the partial family meets
    the middle two-sided cell in a mix of zero and nonzero matrices: e and
    w0 are cells of their own, and a family whose middle cell vanishes has
    A_s = A_t = 0, so w0 vanishes too and the support is downward closed.
    ``negative`` is the matrix in which the last lanes still alive failed
    F2, else None.  A call with no lanes builds nothing and returns
    ([], 0, [], None).

    Each lane gets the first event of the one-pair recursion: at each
    length F2 on the s-leading product, then F4 on it, then F2 and F4 on
    the t-leading one; at w0 F2 on the s route, F2 on the t route, then F5
    (``_charge``).  With one lane, ``matrices`` is that pair's packed
    family and, for F2, its element is the next index (w0 when all 2n - 1
    lower matrices are built).

    The log of a run to n also gives the verdicts of every smaller n, as
    below length n nothing depends on n and the routes to w0 at n are the
    products s_n and t_n of any longer run.  So both products of a length
    are built, and whether they agree is logged, before its events are
    charged.

    Only the width depends on n (``_width``), so the columns of a call
    serve every n (``classify`` keeps them with its search plan); this
    packs their terms at the width of n (``_lane_terms``).
    """
    lanes = columns.lanes
    if not lanes:
        return [], 0, [], None
    rank = columns.rank
    width = _width(n, columns.row_sums)
    stride = _stride(rank, width)
    lane_bits = 8 * stride
    # a lane of its own starts at bit 0, with no buffer to build
    starts = _lane_starts(b"\1" * lanes, stride) if lanes > 1 else 1
    top = starts << (lane_bits - 1)
    low = starts * ((1 << (lane_bits - 1)) - 1)
    identity, offset = _frame(width, rank)
    offsets = offset * starts
    shared, partial, constants, packed = zip(
        *(_lane_terms(terms, width, stride, starts, offset) for terms in columns.sides)
    )
    masked = (any(partial[0]), any(partial[1]))
    matrices: list[list[int]] = [[row * starts for row in identity], *packed]

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

    def negative_lanes(shifted: list[int]) -> int:
        # the lanes with an entry whose field has its high bit clear
        return lanes_nonzero(offsets & ~functools.reduce(operator.and_, shifted))

    def flags(record: _Record) -> _Record:
        # the record over the lanes alive, a flag byte per lane: the byte
        # of each lane's top bit
        size = lanes * stride
        events = [(bits & alive).to_bytes(size, "little")[stride - 1 :: stride] for bits in record]
        return tuple([int.from_bytes(lane_flags, "little") for lane_flags in events])

    # most lengths have no event, and log the shared _QUIET
    log: list[_Record] = [_QUIET]
    failed = {"F2": 0, "F4": 0, "F5": 0}
    alive = top
    if check_support:
        # the generators' entries are nonnegative, so their packed rows
        # have no borrow.  A lane with one zero generator fails at once; a
        # lane with both zero is exempt from the checks below.
        nonzero_s, nonzero_t = (lanes_nonzero(functools.reduce(operator.or_, rows)) for rows in packed)
        checked = nonzero_s | nonzero_t
        record = (0, nonzero_s ^ nonzero_t, 0, 0, 0)
        if record[1]:
            log[0] = flags(record)
            alive, stop = _charge(record, False, alive, failed)
            if stop is not None:
                return matrices, width, log, None

    for length in range(2, n + 1):
        last = length == n
        s = product(0, matrices[2 * length - 2], matrices[2 * length - 5] if length > 2 else None)
        t = product(1, matrices[2 * length - 3], matrices[2 * length - 4] if length > 2 else None)
        shifted_s = [row + offsets for row in s]
        shifted_t = [row + offsets for row in t]
        f2_s, f2_t = negative_lanes(shifted_s), negative_lanes(shifted_t)
        f4_s = f4_t = 0
        if check_support and not last:
            # the checked lanes whose product is zero
            f4_s = checked & ~lanes_nonzero(functools.reduce(operator.or_, [row ^ offsets for row in shifted_s]))
            f4_t = checked & ~lanes_nonzero(functools.reduce(operator.or_, [row ^ offsets for row in shifted_t]))
        same = top & ~lanes_nonzero(functools.reduce(operator.or_, map(operator.xor, shifted_s, shifted_t)))
        record = (f2_s, f4_s, f2_t, f4_t, same)
        log.append(flags(record) if (f2_s | f4_s | f2_t | f4_t | same) & alive else _QUIET)
        if (f2_s | f4_s | f2_t | f4_t | (top ^ same if last else 0)) & alive:
            alive, stop = _charge(record, last, alive, failed)
            if stop is not None:
                # every lane has failed: a product is kept once its F2
                # test has passed, and ``negative`` is the one that failed
                # the last lanes
                if last:
                    return matrices, width, log, (s, t, None)[stop]
                matrices += (s, t)[: (stop + 1) // 2]
                return matrices, width, log, (s, None, t, None)[stop]
        # at n the s route is w0
        matrices += (s,) if last else (s, t)
    return matrices, width, log, None


@functools.lru_cache(maxsize=None)
def _fields(width: int, rank: int) -> tuple[tuple[int, int], ...]:
    """(entry j, its shift) for each bit of a one-lane packed row."""
    return tuple((j, j * width) for j in range(rank) for _ in range(width))


def _unpack(packed: Sequence[list[int]], width: int) -> list[IntMatrix]:
    """Read one-lane packed matrices back as tuples of tuples.

    ``(row + offset) ^ offset`` holds each entry as its own ``width``-bit
    two's-complement field: the offset form never borrows across fields,
    and the xor flips each field's high bit back.  A zero row is one
    shared tuple; otherwise the nonzero fields are peeled from the top by
    ``bit_length``, so the cost follows the nonzero entries, not the rank.
    """
    rank = len(packed[0]) if packed else 0
    offset = _frame(width, rank)[1]
    half, full = 1 << (width - 1), 1 << width
    zero = (0,) * rank
    field_at = _fields(width, rank)

    def entries(row: int) -> tuple[int, ...]:
        x = (row + offset) ^ offset
        if not x:
            return zero
        out = [0] * rank
        while x:
            j, shift = field_at[x.bit_length() - 1]
            v = x >> shift
            x ^= v << shift
            out[j] = v - full if v >= half else v
        return tuple(out)

    return [tuple(map(entries, m)) for m in packed]


def _flatten(m: IntMatrix) -> list[int]:
    return [v for row in m for v in row]


class _PackedFamily(Mapping):
    """A one-lane kernel family keyed by group element, read-only.

    Its keys are the first ``size`` elements of D_n in the kernel's order
    (``all_elements``), at least A_e, A_s and A_t, which are given as
    tuples.  ``build`` returns (packed matrices in the order of the keys,
    width); it runs once, when a key past A_e, A_s and A_t is first read,
    and the whole family is then unpacked in one ``_unpack`` call, so a
    reader that stays with A_e, A_s and A_t never runs the kernel.
    """

    __slots__ = ("_keys", "_matrices", "_build")

    def __init__(
        self,
        n: int,
        size: int,
        theta_s: IntMatrix,
        theta_t: IntMatrix,
        build: Callable[[], tuple[list[list[int]], int]],
    ) -> None:
        self._keys = dihedral_group(n).all_elements()[:size]
        self._matrices = dict(zip(self._keys, (_identity(len(theta_s)), theta_s, theta_t)))
        self._build = build

    def __getitem__(self, w: GroupElement) -> IntMatrix:
        # once built, the dict holds every key
        if w not in self._matrices and w in self._keys:
            packed, width = self._build()
            self._matrices.update(zip(self._keys[3:], _unpack(packed[3:], width)))
        return self._matrices[w]

    def __contains__(self, w: object) -> bool:
        return w in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


_identity = functools.lru_cache(maxsize=None)(identity_matrix)


def _kl_family(
    n: int, theta_s: IntMatrix, theta_t: IntMatrix, check_support: bool = False
) -> tuple[Mapping[GroupElement, IntMatrix], str | None, IntMatrix | None]:
    """The kernel's output for a generator pair, keyed by group element.

    Returns (family, outcome, negative): every matrix built, in the
    all_elements order (A_e, A_s and A_t are the inputs themselves, the
    others are unpacked together when one is first read), the verdict
    read off the kernel's log, and for F2 the negative matrix, which is
    not in the family.
    """
    matrices, width, log, negative = _kl_recursion(n, _pair_columns(theta_s, theta_t), check_support)
    failed, alive = _replay(log, 1, n)
    outcome = None if alive else max(failed, key=failed.get)  # the one filter that failed the lane
    family = _PackedFamily(n, len(matrices), theta_s, theta_t, lambda: (matrices, width))
    return family, outcome, (_unpack([negative], width)[0] if negative is not None else None)


def _module_family(n: int, theta_s: IntMatrix, theta_t: IntMatrix) -> Mapping[GroupElement, IntMatrix]:
    """The KL family of the generator pair of a module, checked complete.

    The kernel runs when a matrix other than A_e, A_s and A_t is first
    read, so a caller that wants only the generator pair never runs it.
    A module of the KL basis realises the whole family, so the kernel can
    meet neither a negative matrix (F2) nor two different A_w0 (F5).
    """

    def build() -> tuple[list[list[int]], int]:
        matrices, width, log, _ = _kl_recursion(n, _pair_columns(theta_s, theta_t))
        failed, alive = _replay(log, 1, n)
        assert alive, f"the KL family of a module cannot fail {max(failed, key=failed.get)}"
        return matrices, width

    return _PackedFamily(n, 2 * n, theta_s, theta_t, build)


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


def _span_generators(
    n: int, basis: Sequence[GroupElement]
) -> tuple[IntMatrix, IntMatrix, list[GroupElement]]:
    """(A_s, A_t, dropped) of b(s) and b(t) acting on the span of ``basis``.

    Entry [i][j] of A_x is the coefficient of basis[i] in b(x) b(basis[j])
    by the generator rule; ``dropped`` lists every term of those products
    that lies outside the basis, which the matrices leave out.
    """
    group = dihedral_group(n)
    index = {w: i for i, w in enumerate(basis)}
    dropped: list[GroupElement] = []
    matrices = []
    for letter in ("s", "t"):
        rows = [[0] * len(basis) for _ in basis]
        for j, w in enumerate(basis):
            for v, c in _kl_left_gen_dict(group, letter, w).items():
                if v in index:
                    rows[index[v]][j] = c
                else:
                    dropped.append(v)
        matrices.append(tuple(map(tuple, rows)))
    return matrices[0], matrices[1], dropped


def kl_regular_matrices(n: int) -> tuple[IntMatrix, IntMatrix]:
    """Matrices of b(s) and b(t) acting on the KL basis of Z[D_n].

    Columns follow the all_elements order; entry [i][j] is the coefficient
    of basis element i in b(generator) * b(element j).
    """
    a_s, a_t, _ = _span_generators(n, dihedral_group(n).all_elements())
    return a_s, a_t
