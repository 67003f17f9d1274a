"""Extending a matrix pair along the KL recursion, and the matrix filters.

A candidate is a pair of nonnegative integer r x r matrices (A_s, A_t)
meant to be the images of b(s) and b(t) in a based representation.  The
whole KL family is then forced: A_e = I, length-two elements multiply out
exactly (A_st = A_s A_t), and for an alternating word w of length >= 3 with
leading letter x

    A_w = A_x * A_w' - A_w''

where w' drops the leading letter (length l-1, other leading letter) and
w'' is the alternating word of length l-2 that also leads with x.  The
longest element can be reached from either generator; both routes are
computed and compared.

``extend`` walks lengths upwards and stops at the first of two structural
failures: a negative entry (filter F2, with the offending element and
position as witness) or disagreement of the two w0 routes (filter F5).

One kernel runs the recursion.  It takes the generators as flat row-major
integer lists and holds each matrix of the family as one packed integer per
row, so a step A_x A_w' - A_w'' costs one integer operation per nonzero
entry of A_x and the sign test one per row.  ``extend`` is a thin wrapper
that reads the packed matrices back into the family keyed by group element
and writes the witness.  The classification search calls the kernel through
``_first_failure``, which gives ``run_filters``' verdict for a pair that
satisfies F1 without building the family: F3 from the zero pattern of
A_s + A_t, F4 from which matrices vanish as the family grows, F2 and F5
from the recursion, and F6 from ``check_group_relations``.  It judges one
representative per orbit of the block space and of the F1 variety.

The named filters on candidates:

* F1  both matrices satisfy A^2 = 2A,
* F2  the extension stays nonnegative (produced by ``extend``),
* F3  the action graph of Q = A_s + A_t (edge i -> j when Q[j][i] != 0) is
      strongly connected,
* F4  the set of elements with nonzero matrix is a union of two-sided cells
      and is downward closed in the two-sided order (checked on whatever
      part of the family exists, so a failed extension can still be
      attributed to its support),
* F5  the two recursions for A_w0 agree (produced by ``extend``),
* F6  the defining group relations hold exactly,
* F7  up to simultaneous reindexing the pair has the two-block shape
      A_s = [[2I, B], [0, 0]], A_t = [[0, 0], [B', 2I]] with both blocks
      nonempty (rank one is degenerate: each matrix is just (0) or (2)).

Separately, every two-sided cell J carries an integer polynomial that must
kill Q = A_s + A_t for any candidate whose support sits inside the cells
up to J.  Its two-dimensional part is P(x) = prod_k (y - 2cos(2k pi/n)) over
k = 1..m, m = floor((n-1)/2), with y = x^2 - 4x + 2: one quadratic factor per
two-dimensional simple module.  That product is a Chebyshev polynomial in y,
S_m(y) for even n and S_m(y) + S_{m-1}(y) for odd n, where S_0 = 1, S_1 = y
and S_{k+1} = y S_k - S_{k-1}, so P is built in Z[x] by that recursion.
Verification check A6 compares it with the regular representation, whose
b(s) + b(t) has characteristic polynomial x (x-4) (x-2)^{2e} P(x)^2, e = 1
for even n and 0 otherwise.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dihedral import GroupElement, dihedral_group, display_key, render
from .exact import (
    IntMatrix,
    IntPoly,
    bareiss_det,
    char_poly,
    first_negative_entry,
    freeze_matrix,
    identity_matrix,
    is_zero_matrix,
    mat_add,
    mat_mul,  # not called here, but perfbench's tracer wraps klcells.nimrep.mat_mul
    poly_add,
    poly_eval_matrix,
    poly_mul,
    poly_sub,
    _top_real_root_is_simple,
)
from .reps import check_module_relations

__all__ = [
    "MatrixPair",
    "ExtendedRep",
    "ExtensionFailure",
    "FilterReport",
    "PerronAnalysis",
    "extend",
    "check_idempotent",
    "check_transitive",
    "check_apex_support",
    "check_group_relations",
    "check_block_form",
    "apex_of",
    "global_annihilator",
    "annihilator_check",
    "det_identity",
    "perron_analysis",
]


@dataclass(frozen=True)
class MatrixPair:
    """Candidate images of b(s) and b(t): nonnegative integer square matrices."""

    n: int
    rank: int
    theta_s: IntMatrix
    theta_t: IntMatrix

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"dihedral parameter must be >= 3, got {self.n}")
        if self.rank < 1:
            raise ValueError("candidate pairs have rank >= 1")
        for name, m in (("theta_s", self.theta_s), ("theta_t", self.theta_t)):
            if len(m) != self.rank or any(len(row) != self.rank for row in m):
                raise ValueError(f"{name} must be {self.rank}x{self.rank}")
            if any(v < 0 for row in m for v in row):
                raise ValueError(f"{name} has negative entries; candidates are nonnegative")

    @classmethod
    def from_matrices(cls, n: int, theta_s: Sequence[Sequence[int]], theta_t: Sequence[Sequence[int]]) -> "MatrixPair":
        frozen_s = freeze_matrix(theta_s)
        frozen_t = freeze_matrix(theta_t)
        return cls(n=n, rank=len(frozen_s), theta_s=frozen_s, theta_t=frozen_t)

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "theta_s": [list(row) for row in self.theta_s],
            "theta_t": [list(row) for row in self.theta_t],
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "MatrixPair":
        pair = cls.from_matrices(int(obj["n"]), obj["theta_s"], obj["theta_t"])
        if "rank" in obj and int(obj["rank"]) != pair.rank:
            raise ValueError(
                f"declared rank {obj['rank']} does not match matrix size {pair.rank}"
            )
        return pair


@dataclass(frozen=True)
class ExtendedRep:
    """A fully extended family, one matrix per group element."""

    pair: MatrixPair
    family: Mapping[GroupElement, IntMatrix]


@dataclass(frozen=True)
class ExtensionFailure:
    """Where and why the forced extension broke down.

    filter_id is F2 (negative entry) or F5 (w0 routes disagree); partial
    holds every matrix that was built before the failure.
    """

    pair: MatrixPair
    filter_id: str
    element: GroupElement
    witness: str
    partial: Mapping[GroupElement, IntMatrix]


@dataclass(frozen=True)
class FilterReport:
    filter_id: str
    passed: bool
    witness: str | None

    def to_jsonable(self) -> dict:
        return {"id": self.filter_id, "passed": self.passed, "witness": self.witness}


# -- the flat extension kernel ----------------------------------------------
#
# The recursion runs on flat row-major generator matrices.  Every matrix of
# the family is held as one integer per row, entry j in the bit field
# [width*j, width*(j+1)): packing is linear, so adding rows and scaling them
# by integers is exact whatever the signs, and a row whose entries all lie
# strictly between -2^(width-1) and 2^(width-1) is read back without loss.
# The width comes from an a-priori bound: with c the largest row sum of the
# two generators, no row of a matrix of length l has absolute values summing
# to more than (c+1)^l (induction on A_w = A_x A_w' - A_w''), so width =
# n * bitlength(c+1) + 1 suffices up to w0.  Adding the offset that puts
# 2^(width-1) in every field turns "some entry is negative" into "some high
# bit is clear", one integer operation per row.


def _kl_recursion(
    n: int, rank: int, a_s: Sequence[int], a_t: Sequence[int], check_support: bool = False
) -> tuple[list[list[int]], int, str | None, list[int] | None]:
    """The KL family of a flat row-major generator pair, in packed rows.

    Returns (matrices, width, outcome, negative).  ``matrices`` lists the
    family built so far in the order e, s, t, st, ts, sts, tst, ..., then
    w0 when the extension completes: the element of length l leading with
    s (t) sits at index 2l - 1 (2l), w0 at 2n - 1.  ``outcome`` is None for a
    complete family, "F2" for a negative matrix (``negative`` holds it; its
    element is the next index, or w0 when all 2n - 1 lower matrices are
    built), "F5" when the two routes to w0 disagree, and "F4" when
    ``check_support`` is set, A_s or A_t is nonzero and a matrix of length
    1..n-1 vanishes.  That is exactly when the partial family meets the
    middle two-sided cell in a mix of zero and nonzero matrices: e and w0
    are cells of their own, and a family whose middle cell vanishes has
    A_s = A_t = 0, so w0 vanishes too and the support is downward closed.
    """
    r = rank
    generators = [[a[i * r : (i + 1) * r] for i in range(r)] for a in (a_s, a_t)]
    width = n * (max(map(sum, generators[0] + generators[1])) + 1).bit_length() + 1
    shifts = range(0, width * r, width)
    offset = sum(1 << (shift + width - 1) for shift in shifts)
    # the nonzero entries (l, v) of each generator row
    terms = [[tuple(itertools.compress(enumerate(row), row)) for row in rows] for rows in generators]
    matrices: list[list[int]] = [[1 << shift for shift in shifts]]
    matrices += [[sum(map(operator.lshift, row, shifts)) for row in rows] for rows in generators]
    check_support = check_support and (any(a_s) or any(a_t))
    if check_support and not (any(a_s) and any(a_t)):
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
        tuple(tuple(((row + offset) >> shift & mask) - half for shift in shifts) for row in m)
        for m in packed
    ]


def _flatten(m: IntMatrix) -> list[int]:
    return [v for row in m for v in row]


def _square(flat: Sequence[int], r: int) -> IntMatrix:
    return tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(r))


def _first_failure(n: int, rank: int, a_s: Sequence[int], a_t: Sequence[int], enabled: frozenset[str]) -> str | None:
    """First failing filter of a flat pair in the order F3, F4, F2, F5, F6.

    Its only precondition is F1: for a pair whose matrices satisfy
    A^2 = 2A this is ``classify.run_filters``' verdict with F7 off.  F1 and
    F7 are not tested; F7 comes last, so with it on the verdict differs
    only where F7 fails, which it never does in the block space.  F3 reads
    the zero pattern before any product, and F4 is judged on the partial
    family as the recursion grows.
    """
    if "F3" in enabled and _strongly_connected([x + y for x, y in zip(a_s, a_t)], rank) is not None:
        return "F3"
    _, _, outcome, _ = _kl_recursion(n, rank, a_s, a_t, check_support="F4" in enabled)
    if outcome is not None:
        return outcome
    if "F6" in enabled:
        pair = MatrixPair(n=n, rank=rank, theta_s=_square(a_s, rank), theta_t=_square(a_t, rank))
        if not check_group_relations(pair).passed:
            return "F6"
    return None


def extend(pair: MatrixPair) -> ExtendedRep | ExtensionFailure:
    """Force the whole KL family from the generator pair, or report F2/F5."""
    group = dihedral_group(pair.n)
    n = pair.n
    matrices, width, outcome, negative = _kl_recursion(
        n, pair.rank, _flatten(pair.theta_s), _flatten(pair.theta_t)
    )
    elements = group.all_elements()  # the kernel's order
    family: dict[GroupElement, IntMatrix] = {
        elements[0]: identity_matrix(pair.rank),
        elements[1]: pair.theta_s,
        elements[2]: pair.theta_t,
    }
    unpacked = _unpack(matrices[3:] + ([negative] if negative is not None else []), width)
    family.update(zip(elements[3 : len(matrices)], unpacked))
    if outcome is None:
        return ExtendedRep(pair=pair, family=family)
    w = elements[len(matrices)] if outcome == "F2" else elements[-1]
    if outcome == "F5":
        witness = "the s-leading and t-leading recursions for A_w0 disagree"
    else:
        a = unpacked[-1]
        i, j = first_negative_entry(a)
        witness = f"A_{render(w)}[{i}][{j}] = {a[i][j]} is negative"
    return ExtensionFailure(pair=pair, filter_id=outcome, element=w, witness=witness, partial=family)


# -- filters ---------------------------------------------------------------


def _twice_idempotent(a: Sequence[int], r: int) -> bool:
    """A^2 = 2A for a flat row-major r x r matrix, tested entry by entry in
    row-major order and abandoned at the first entry that differs."""
    for i in range(r):
        row = a[i * r : (i + 1) * r]
        for j in range(r):
            if sum(map(operator.mul, row, a[j::r])) != 2 * row[j]:
                return False
    return True


def check_idempotent(pair: MatrixPair) -> FilterReport:
    """F1: both generator matrices satisfy A^2 = 2A."""
    for name, m in (("A_s", pair.theta_s), ("A_t", pair.theta_t)):
        if not _twice_idempotent(_flatten(m), pair.rank):
            return FilterReport("F1", False, f"{name}^2 != 2 {name}")
    return FilterReport("F1", True, None)


def _strongly_connected(q: Sequence[int], r: int) -> int | None:
    """None when the action graph of the flat row-major r x r matrix q (edge
    i -> j iff q[j][i] != 0) is strongly connected, else a vertex missing
    from some orbit of vertex 0."""
    if r == 0:
        return None
    successors = [0] * r
    predecessors = [0] * r
    for index, v in enumerate(q):
        if v:
            j, i = divmod(index, r)
            successors[i] |= 1 << j
            predecessors[j] |= 1 << i
    everything = (1 << r) - 1
    for adjacency in (successors, predecessors):
        seen = frontier = 1
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~seen
            seen |= reached
        if seen != everything:
            missing = everything & ~seen
            return (missing & -missing).bit_length() - 1
    return None


def check_transitive(pair: MatrixPair) -> FilterReport:
    """F3: the action graph of Q = A_s + A_t is strongly connected.

    The graph has an edge i -> j exactly when Q[j][i] != 0 (basis vector i
    reaches vector j under the action).
    """
    q = [x + y for row_s, row_t in zip(pair.theta_s, pair.theta_t) for x, y in zip(row_s, row_t)]
    missing = _strongly_connected(q, pair.rank)
    if missing is None:
        return FilterReport("F3", True, None)
    return FilterReport(
        "F3", False, f"vertex {missing} is not in the two-sided orbit of vertex 0"
    )


def _family_of(obj) -> Mapping[GroupElement, IntMatrix]:
    if isinstance(obj, ExtendedRep):
        return obj.family
    if isinstance(obj, ExtensionFailure):
        return obj.partial
    return obj


def check_apex_support(n: int, extended) -> FilterReport:
    """F4: the nonzero part of the family is a downward-closed union of cells.

    Accepts an ExtendedRep, an ExtensionFailure (whose partial family is
    used) or a plain element-to-matrix mapping.
    """
    from .cells import compute_cells  # local import to avoid a cycle

    family = _family_of(extended)
    partition = compute_cells(n)
    nonzero = {w for w, m in family.items() if not is_zero_matrix(m)}
    present_levels: list[bool] = []
    for level, cell in enumerate(partition.two_sided_cells):
        present = [w for w in cell if w in family]
        hot = [w for w in present if w in nonzero]
        if hot and len(hot) != len(present):
            witness = min((w for w in present if w not in nonzero), key=display_key)
            return FilterReport(
                "F4",
                False,
                f"A_{render(witness)} = 0 inside a two-sided cell with nonzero members",
            )
        present_levels.append(bool(hot))
    # Downward closure along J1 < J2 < J3.
    for low in range(len(present_levels)):
        for high in range(low + 1, len(present_levels)):
            if present_levels[high] and not present_levels[low]:
                witness_cell = partition.two_sided_cells[low]
                return FilterReport(
                    "F4",
                    False,
                    f"support skips the lower two-sided cell containing {render(witness_cell[0])}",
                )
    return FilterReport("F4", True, None)


def check_group_relations(pair: MatrixPair) -> FilterReport:
    """F6: (A_s - I)^2 = (A_t - I)^2 = ((A_s - I)(A_t - I))^n = I exactly."""
    violation = check_module_relations(pair.n, pair.theta_s, pair.theta_t)
    if violation is None:
        return FilterReport("F6", True, None)
    return FilterReport("F6", False, violation)


def check_block_form(pair: MatrixPair) -> FilterReport:
    """F7: the pair has the simultaneous two-block triangular shape.

    Some reindexing of the basis must put the pair into
    A_s = [[2I_k, B], [0, 0]] and A_t = [[0, 0], [B', 2I_{r-k}]] with
    1 <= k <= r-1.  Equivalently: the indices split into S (diagonal 2 in
    A_s) and T (diagonal 2 in A_t), every A_s row outside S vanishes, A_s
    restricted to S x S is 2I (mirrored for A_t), and both parts are
    nonempty.  Rank one cannot split, so there each matrix must simply be
    (0) or (2).
    """
    r = pair.rank
    a_s, a_t = pair.theta_s, pair.theta_t
    if r == 1:
        if a_s[0][0] in (0, 2) and a_t[0][0] in (0, 2):
            return FilterReport("F7", True, None)
        return FilterReport("F7", False, "rank-one diagonal entries must be 0 or 2")
    s_part = {i for i in range(r) if a_s[i][i] == 2}
    t_part = {i for i in range(r) if a_t[i][i] == 2}
    if not s_part or not t_part:
        return FilterReport("F7", False, "one generator has no index where it acts by 2")
    if s_part & t_part:
        i = min(s_part & t_part)
        return FilterReport("F7", False, f"index {i} has diagonal 2 in both matrices")
    if s_part | t_part != set(range(r)):
        i = min(set(range(r)) - (s_part | t_part))
        return FilterReport("F7", False, f"index {i} has diagonal 2 in neither matrix")
    for label, matrix, own in (("A_s", a_s, s_part), ("A_t", a_t, t_part)):
        for i in range(r):
            for j in range(r):
                if i in own and j in own and matrix[i][j] != (2 if i == j else 0):
                    return FilterReport(
                        "F7", False, f"{label}[{i}][{j}] breaks the 2I diagonal block"
                    )
                if i not in own and matrix[i][j] != 0:
                    return FilterReport(
                        "F7", False, f"{label}[{i}][{j}] is nonzero outside its block rows"
                    )
    return FilterReport("F7", True, None)


def apex_of(extended) -> str:
    """Name of the highest two-sided cell with a nonzero matrix (J1/J2/J3)."""
    family = _family_of(extended)
    nonzero = {w for w, m in family.items() if not is_zero_matrix(m)}
    if not nonzero:
        raise ValueError("the family is identically zero; no apex")
    top = max(w.length for w in nonzero)
    n = next(iter(family)).n
    if top == 0:
        return "J1"
    if top == n:
        return "J3"
    return "J2"


# -- annihilator polynomials ----------------------------------------------


@functools.lru_cache(maxsize=None)
def _two_dim_factor_product(n: int) -> IntPoly:
    """Product of the quadratic factors x^2 - 4x + (2 - 2cos(2k pi/n)), exact.

    The Chebyshev recursion S_{k+1} = y S_k - S_{k-1} in y = x^2 - 4x + 2
    gives S_m for even n and S_m + S_{m-1} for odd n, m = floor((n-1)/2).
    """
    y = (2, -4, 1)
    previous, current = (1,), y
    for _ in range((n - 1) // 2 - 1):
        previous, current = current, poly_sub(poly_mul(y, current), previous)
    return current if n % 2 == 0 else poly_add(current, previous)


@functools.lru_cache(maxsize=None)
def global_annihilator(n: int, apex: str) -> IntPoly:
    """Integer polynomial killing Q = A_s + A_t for any candidate with this apex.

    J1: x.  J2: x (x-2) P(x).  J3: x (x-4) (x-2 for even n) P(x), the minimal
    polynomial of the regular action of b(s) + b(t).
    """
    if apex == "J1":
        return (0, 1)
    product = _two_dim_factor_product(n)
    if apex == "J2":
        return poly_mul((0, 1), poly_mul((-2, 1), product))
    if apex == "J3":
        out = poly_mul((0, 1), poly_mul((-4, 1), product))
        if n % 2 == 0:
            out = poly_mul((-2, 1), out)
        return out
    raise ValueError(f"apex must be J1, J2 or J3, got {apex!r}")


def annihilator_check(extended: ExtendedRep) -> FilterReport:
    """Evaluate the apex annihilator at Q = A_s + A_t, exactly."""
    pair = extended.pair
    apex = apex_of(extended)
    poly = global_annihilator(pair.n, apex)
    value = poly_eval_matrix(poly, mat_add(pair.theta_s, pair.theta_t))
    if is_zero_matrix(value):
        return FilterReport("annihilator", True, None)
    for i, row in enumerate(value):
        for j, v in enumerate(row):
            if v:
                return FilterReport(
                    "annihilator",
                    False,
                    f"p(Q)[{i}][{j}] = {v} with apex {apex}",
                )
    raise AssertionError("unreachable")


# -- the determinant identity ----------------------------------------------


def det_identity(
    k: int,
    l: int,
    lam: Sequence[int],
    mu: Sequence[int],
    v: Sequence[int],
    w: Sequence[int],
) -> tuple[int, int]:
    """Determinant of the doubly bordered block matrix, two ways.

    The matrix is [[2I_k, X], [Y, 2I_l]] with X[i][j] = lam[i] * v[j] and
    Y[i][j] = mu[i] * w[j]; lam and w have length k, mu and v length l, all
    entries are positive integers and lam[0] = mu[0] = 1.  Returns the pair
    (Bareiss determinant, closed formula 2^n - 2^{n-2} (lam.w)(mu.v)) with
    n = k + l; the two always agree, which the caller is free to assert.
    """
    if k < 1 or l < 1:
        raise ValueError("block sizes must be positive")
    if len(lam) != k or len(w) != k or len(mu) != l or len(v) != l:
        raise ValueError("lam and w must have length k; mu and v length l")
    entries = list(lam) + list(mu) + list(v) + list(w)
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in entries):
        raise ValueError("all border entries must be positive integers")
    if lam[0] != 1 or mu[0] != 1:
        raise ValueError("normalisation requires lam[0] = mu[0] = 1")
    n = k + l
    rows = []
    for i in range(k):
        rows.append(tuple(2 if i == j else 0 for j in range(k)) + tuple(lam[i] * v[j] for j in range(l)))
    for i in range(l):
        rows.append(tuple(mu[i] * w[j] for j in range(k)) + tuple(2 if i == j else 0 for j in range(l)))
    matrix = tuple(rows)
    det = bareiss_det(matrix)
    dot_lw = sum(a * b for a, b in zip(lam, w))
    dot_mv = sum(a * b for a, b in zip(mu, v))
    formula = 2**n - 2 ** (n - 2) * dot_lw * dot_mv
    return det, formula


# -- Perron-Frobenius analysis ----------------------------------------------


@dataclass(frozen=True)
class PerronAnalysis:
    """Spectral data of a nonnegative integer matrix.

    spectral_radius comes from power iteration on Q + I (the shift makes the
    iteration converge even for periodic matrices) to residual 1e-10, at
    most 200,000 steps (ArithmeticError beyond).  Each step makes one
    product, over the nonzero entries of Q + I only: the product that gives
    a step's residual is the next step's iterate before scaling.  Every
    entry is nonnegative and every row has its diagonal term, so dropping
    the zero terms from a row's sum drops only exact additions of 0.0: the
    floats are those of the dense iteration, bit for bit.
    top_eigenvalue_simple is decided exactly: the spectral radius of a
    nonnegative matrix is the largest real root of its characteristic
    polynomial p, which is simple when gcd(p, p') is constant and otherwise
    exactly when gcd(p, p') has no root in a rational interval that Sturm
    sequences isolate around it; the float radius plays no part.
    positive_eigenvector is present exactly when the matrix is irreducible.
    """

    irreducible: bool
    spectral_radius: float
    top_eigenvalue_simple: bool
    positive_eigenvector: tuple[float, ...] | None


def perron_analysis(q: Sequence[Sequence[int]]) -> PerronAnalysis:
    matrix = freeze_matrix(q)
    r = len(matrix)
    if r == 0 or any(len(row) != r for row in matrix):
        raise ValueError("perron_analysis expects a nonempty square matrix")
    if any(x < 0 for row in matrix for x in row):
        raise ValueError("perron_analysis expects a nonnegative matrix")

    irreducible = _strongly_connected(_flatten(matrix), r) is None

    # Power iteration on Q + I over its nonzero entries (j, c), row by row
    # in ascending j; the product that gives the residual is the next step's.
    shifted = [
        [(j, v + 1 if i == j else v) for j, v in enumerate(row) if v or i == j]
        for i, row in enumerate(matrix)
    ]
    vec = [1.0 / r] * r
    product = [sum(c * vec[j] for j, c in row) for row in shifted]
    for _ in range(200000):
        norm = sum(abs(x) for x in product)
        assert norm > 0, "Q + I is positive on the diagonal, the iterate cannot vanish"
        vec = [x / norm for x in product]
        product = [sum(c * vec[j] for j, c in row) for row in shifted]
        residual = max(abs(p - norm * x) for p, x in zip(product, vec))
        if residual <= 1e-10:
            break
    else:
        raise ArithmeticError("power iteration did not reach the 1e-10 residual")
    spectral_radius = norm - 1.0

    simple = _top_real_root_is_simple(char_poly(matrix))
    top = max(vec)
    eigenvector = tuple(x / top for x in vec) if irreducible else None
    return PerronAnalysis(
        irreducible=irreducible,
        spectral_radius=spectral_radius,
        top_eigenvalue_simple=simple,
        positive_eigenvector=eigenvector,
    )
