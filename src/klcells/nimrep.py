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
Asked to check the support, it also stops at the first matrix that
vanishes while A_s or A_t does not (filter F4, with that element as
witness).

One kernel runs the recursion: ``algebra._kl_recursion``, the same one
that builds the structure constants and the cell modules.  It takes a list
of generator pairs, the lanes, read entry by entry as columns that no n
changes (``algebra._Columns``: the entries every lane shares, and the
lanes that hold each value of an entry that varies), and holds each matrix
of every lane's family as one integer per row, the lanes side by side, so
a step A_x A_w' - A_w'' serves every lane with a few integer operations
per term of A_x, and the sign and zero tests cost a few operations per
row whatever the number of lanes.  Every call logs its events length by
length, and each lane's verdict is read off that log alone
(``algebra._replay``).  ``extend`` is a one-lane call, read straight off
the rows of its pair, whose family, keyed by group element, unpacks
every packed matrix when the first past A_e, A_s and A_t is looked up
(``algebra._kl_family``);
it writes the witness, and ``classify.run_filters`` renders its F4, F2
and F5 reports from it.  The classification search calls the kernel
directly, one representative per orbit per lane and the lanes of several
work units per call, with columns it builds once for every n, and keeps
each call's log, which serves every smaller n as well
(``classify._judge_units``).

The named filters on candidates:

* F1  both matrices satisfy A^2 = 2A,
* F2  the extension stays nonnegative (produced by ``extend``),
* F3  the action graph of Q = A_s + A_t (edge i -> j when Q[j][i] != 0) is
      strongly connected,
* F4  the set of elements with nonzero matrix is a union of two-sided cells
      and is downward closed in the two-sided order (judged by the kernel
      as the family grows, so a failed extension can still be attributed
      to its support; ``check_apex_support`` reads it off a family),
* F5  the two recursions for A_w0 agree (produced by ``extend``),
* F6  the defining group relations hold exactly (``check_group_relations``;
      F1 and F5 imply them),
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

from .algebra import _flatten, _kl_family, _support
from .dihedral import GroupElement, dihedral_group, display_key, render
from .exact import (
    IntMatrix,
    IntPoly,
    _check_int_entries,
    bareiss_det,
    char_poly,
    first_negative_entry,
    freeze_matrix,
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
            _check_int_entries(m)
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

    filter_id is F2 (negative entry), F5 (w0 routes disagree) or, when the
    support was checked, F4 (a matrix vanishes inside the middle cell).
    partial holds every matrix that was built: for F2 and F5 those before
    the failure, for F4 those up to the vanishing matrix (A_s and A_t are
    both there even when A_s vanishes).
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


def _square(flat: Sequence[int], r: int) -> IntMatrix:
    return tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(r))


def extend(pair: MatrixPair, check_support: bool = False) -> ExtendedRep | ExtensionFailure:
    """Force the whole KL family from the generator pair, or report where
    it breaks down: F2 or F5, and with ``check_support`` also F4, at the
    first matrix where the kernel meets one (``algebra._kl_recursion``).

    The F4 witness is the first vanishing matrix in all_elements order: A_s
    when A_s = 0, though A_t is built too; otherwise the last matrix built,
    as the kernel stops at the first that vanishes.
    """
    family, outcome, negative = _kl_family(pair.n, pair.theta_s, pair.theta_t, check_support)
    if outcome is None:
        return ExtendedRep(pair=pair, family=family)
    elements = dihedral_group(pair.n).all_elements()  # the kernel's order
    if outcome == "F4":
        w = elements[1] if is_zero_matrix(pair.theta_s) else elements[len(family) - 1]
        witness = f"A_{render(w)} = 0 inside a two-sided cell with nonzero members"
    elif outcome == "F5":
        w = elements[-1]
        witness = "the s-leading and t-leading recursions for A_w0 disagree"
    else:
        w = elements[len(family)]
        i, j = first_negative_entry(negative)
        witness = f"A_{render(w)}[{i}][{j}] = {negative[i][j]} is negative"
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


def _strongly_connected(support: int, r: int) -> int | None:
    """None when the action graph of an r x r support bitmask (see
    ``algebra._support``; edge i -> j iff bit j*r + i is set, that is
    q[j][i] != 0) is strongly connected, else a vertex missing from some
    orbit of vertex 0: the least vertex that vertex 0 does not reach, or,
    when it reaches every vertex, the least one that does not reach it.

    Row j of the bitmask is the set of predecessors of j; Warshall's
    closure (if k -> j, everything that reaches k reaches j) turns it into
    the set of vertices that reach j.
    """
    everything = (1 << r) - 1
    reach = [support >> (j * r) & everything for j in range(r)]
    for k in range(r):
        bit, row = 1 << k, reach[k]
        for j in range(r):
            if reach[j] & bit:
                reach[j] |= row
    for j in range(1, r):
        if not reach[j] & 1:
            return j
    missing = everything & ~reach[0] & ~1 if r else 0
    return (missing & -missing).bit_length() - 1 if missing else None


def check_transitive(pair: MatrixPair) -> FilterReport:
    """F3: the action graph of Q = A_s + A_t is strongly connected.

    The graph has an edge i -> j exactly when Q[j][i] != 0 (basis vector i
    reaches vector j under the action).
    """
    q = [x + y for row_s, row_t in zip(pair.theta_s, pair.theta_t) for x, y in zip(row_s, row_t)]
    missing = _strongly_connected(_support(q), pair.rank)
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
    # not a cycle (cells imports only algebra, dihedral and exact): the name
    # is looked up in klcells.cells at each call, where perfbench's tracer
    # wraps compute_cells
    from .cells import compute_cells

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
    """Name of the highest two-sided cell with a nonzero matrix (J1/J2/J3).

    The family is read from the longest element down, and only up to the
    first nonzero matrix.
    """
    family = _family_of(extended)
    for w in sorted(family, key=operator.attrgetter("length"), reverse=True):
        if not is_zero_matrix(family[w]):
            break
    else:
        raise ValueError("the family is identically zero; no apex")
    if w.length == 0:
        return "J1"
    if w.length == w.n:
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
    product, a sweep over the nonzero terms of Q + I (see perron_analysis):
    the product that gives a step's residual is the next iterate unscaled.
    The residual max |product - norm * vec| is taken in full only when one
    probe coordinate is within 1e-10 (a coordinate above it puts the max
    above it), so the iteration breaks at the same step as one that takes
    it every time; the norm is a left fold, the same floats on every
    Python (see perron_analysis).
    top_eigenvalue_simple is decided exactly, and the float radius plays no
    part.  The spectral radius of a nonnegative matrix is the largest real
    root of its characteristic polynomial p.  When the matrix is
    irreducible, Perron-Frobenius makes that root simple, and p is not
    computed.  Otherwise the root is simple when gcd(p, p') is constant,
    and else exactly when gcd(p, p') has no root in a rational interval
    that Sturm sequences isolate around it.
    positive_eigenvector is present exactly when the matrix is irreducible.
    """

    irreducible: bool
    spectral_radius: float
    top_eigenvalue_simple: bool
    positive_eigenvector: tuple[float, ...] | None


def perron_analysis(q: Sequence[Sequence[int]]) -> PerronAnalysis:
    """The PerronAnalysis of a nonempty square nonnegative integer matrix.

    The product sweeps Q + I by columns of terms: column k holds the k-th
    nonzero term (ascending j) of every row, a shorter row padded with 0.0
    on column 0, and one ``itemgetter`` per column gathers its entries of
    the iterate.  Each row is then added left to right in C doubles, and
    the norm is ``functools.reduce(operator.add, ...)``, the same left fold
    (``sum`` of floats rounds otherwise from Python 3.12 on, as does
    ``math.fsum``); 0.0 * v is +0.0 and x + 0.0 == x, since every iterate
    is finite and nonnegative; a small integer is exact as a float; and abs
    is the identity on the iterates.  So the floats are the dense
    iteration's on every Python.

    The probe gate: a step first tests the residual of one coordinate, the
    probe, and only when it is within 1e-10 takes the max over all of them.
    The max is at least each coordinate's, so a probe above 1e-10 rules out
    a break; when the full residual fails, the probe moves to its arg-max.
    The iteration therefore breaks at the same step as one that takes the
    max at every step.
    """
    matrix = freeze_matrix(q)
    r = len(matrix)
    if r == 0 or any(len(row) != r for row in matrix):
        raise ValueError("perron_analysis expects a nonempty square matrix")
    if any(x < 0 for row in matrix for x in row):
        raise ValueError("perron_analysis expects a nonnegative matrix")

    irreducible = _strongly_connected(_support(_flatten(matrix)), r) is None

    def gather(cols: tuple[int, ...]):
        # itemgetter with one index returns the entry, not a 1-tuple
        return operator.itemgetter(*cols) if r > 1 else lambda vec: (vec[cols[0]],)

    rows = [[(j, float(v + 1 if i == j else v)) for j, v in enumerate(row) if v or i == j] for i, row in enumerate(matrix)]
    columns = [tuple(zip(*column)) for column in itertools.zip_longest(*rows, fillvalue=(0, 0.0))]
    (get0, coefs0), *terms = [(gather(cols), coefs) for cols, coefs in columns]
    add, sub, mul = operator.add, operator.sub, operator.mul

    def step(vec: list[float]) -> list[float]:
        acc = map(mul, coefs0, get0(vec))
        for get, coefs in terms:
            acc = map(add, acc, map(mul, coefs, get(vec)))
        return list(acc)

    product = step([1.0 / r] * r)
    probe = 0
    for _ in range(200000):
        norm = functools.reduce(add, product)
        assert norm > 0, "Q + I is positive on the diagonal, the iterate cannot vanish"
        vec = [x / norm for x in product]
        product = step(vec)
        if abs(product[probe] - norm * vec[probe]) > 1e-10:
            continue
        gaps = list(map(abs, map(sub, product, map(norm.__mul__, vec))))
        residual = max(gaps)
        if residual <= 1e-10:
            break
        probe = gaps.index(residual)
    else:
        raise ArithmeticError("power iteration did not reach the 1e-10 residual")
    spectral_radius = norm - 1.0

    # Perron-Frobenius: the radius of an irreducible Q is a simple root
    simple = irreducible or _top_real_root_is_simple(char_poly(matrix))
    top = max(vec)
    eigenvector = tuple(x / top for x in vec) if irreducible else None
    return PerronAnalysis(
        irreducible=irreducible,
        spectral_radius=spectral_radius,
        top_eigenvalue_simple=simple,
        positive_eigenvector=eigenvector,
    )
