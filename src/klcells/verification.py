"""Self-contained verification checks A1 through A12.

Every check re-derives its expected values independently of the code under
test wherever possible: A1 multiplies KL basis elements through the group
ring instead of trusting the recursion, A2 rebuilds the cell partition and
its preorders from the structure constants and compares them with the
closed form that compute_cells returns, A6 and A10 pin exact integer
polynomials, and A8/A9/A11 compare classification output against canonical
keys of explicitly written matrices.  A check failure therefore means a
substantive disagreement, not a stale snapshot.

Checks accept a mode: "full" runs the stated parameter ranges and enforces
the stated runtime bounds, "quick" and "paper" cap sweeps at n <= 6 and skip
the bounds (the point of those suites is a fast signal).  ``run_suite``
bundles the checks into the three named suites used by the command line.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from .algebra import (
    GROUP,
    GroupAlgebraElement,
    group_to_kl,
    kl_basis_element,
    kl_to_group,
    structure_constants,
)
from .cells import CellPartition, cell_module, compute_cells, is_strongly_regular
from .classify import canonicalize, classify
from .dihedral import dihedral_group, display_key
from .exact import (
    bareiss_det,
    char_poly,
    is_zero_matrix,
    mat_add,
    poly_eval_float,
    poly_eval_matrix,
    render_poly,
)
from .nimrep import MatrixPair, det_identity, global_annihilator, perron_analysis
from .reps import OneDim, TwoDim, decompose, module_dim, simples

__all__ = [
    "CheckResult",
    "ALL_CHECK_IDS",
    "SUITES",
    "run_check",
    "run_suite",
]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    elapsed_seconds: float


ALL_CHECK_IDS = tuple(f"A{i}" for i in range(1, 13))

SUITES: dict[str, tuple[str, ...]] = {
    "paper": ("A2", "A3", "A4", "A6", "A7", "A8", "A9", "A10"),
    "quick": ALL_CHECK_IDS,
    "full": ALL_CHECK_IDS,
}

# Runtime bounds enforced in full mode, in seconds.
_TIME_LIMITS = {"A1": 5.0, "A7": 2.0, "A8": 60.0, "A9": 120.0, "A11": 600.0}


def _sweep_top(mode: str, full_top: int) -> int:
    return full_top if mode == "full" else min(6, full_top)


# -- A1: the two multiplication routes agree --------------------------------


def _check_a1(mode: str) -> tuple[bool, str]:
    top = _sweep_top(mode, 10)
    # Clear the memoized tables so the timing below measures real work.
    structure_constants.cache_clear()
    compute_cells.cache_clear()
    dihedral_group.cache_clear()
    pairs = 0
    for n in range(3, top + 1):
        group = dihedral_group(n)
        elements = group.all_elements()
        table = structure_constants(n)
        if set(table.entries) != {(u, w) for u in elements for w in elements}:
            return False, f"structure constant table for n={n} is not complete"
        for u in elements:
            u_group = kl_to_group(kl_basis_element(u)).as_dict()
            for w in elements:
                w_group = kl_to_group(kl_basis_element(w)).as_dict()
                convolution: dict = {}
                for a, ca in u_group.items():
                    for b, cb in w_group.items():
                        ab = group.multiply(a, b)
                        convolution[ab] = convolution.get(ab, 0) + ca * cb
                independent = group_to_kl(
                    GroupAlgebraElement.from_dict(n, GROUP, convolution)
                ).as_dict()
                if independent != dict(table.product(u, w)):
                    return False, (
                        f"recursion and group convolution disagree for n={n} "
                        f"at the pair ({u}, {w})"
                    )
                pairs += 1
    return True, f"{pairs} KL products agree with group-ring convolution for n=3..{top}"


# -- A2: cells re-derived from the table; strong regularity at n=4 -------------


def _close(reach: dict) -> bool:
    """Transitively close in place (Warshall); return whether anything was added."""
    added = False
    for mid in reach:
        for a in reach:
            if mid in reach[a] and not reach[mid] <= reach[a]:
                reach[a] |= reach[mid]
                added = True
    return added


def _cells_from_reach(elements, reach: dict) -> tuple[tuple, frozenset]:
    seen: dict = {}
    for w in elements:
        members = frozenset(v for v in elements if v in reach[w] and w in reach[v])
        seen.setdefault(members, None)
    cells = sorted(
        (tuple(sorted(c, key=display_key)) for c in seen),
        key=lambda c: display_key(c[0]),
    )
    leq = frozenset(
        (i, j)
        for i, ci in enumerate(cells)
        for j, cj in enumerate(cells)
        if cj[0] in reach[ci[0]]
    )
    return tuple(cells), leq


def _cells_from_table(n: int) -> CellPartition:
    """The cell partition derived from the structure-constant table.

    Because all structure constants are nonnegative, composing two one-step
    relations never cancels a term, so the one-sided relations must already
    be transitive; a closure that adds anything raises ValueError.
    """
    elements = dihedral_group(n).all_elements()
    left_reach: dict = {w: set() for w in elements}
    right_reach: dict = {w: set() for w in elements}
    for (u, w), product in structure_constants(n).entries.items():
        right_reach[u].update(product)
        left_reach[w].update(product)
    if _close(left_reach) or _close(right_reach):
        raise ValueError(f"the one-sided cell preorders at n={n} are not transitive")
    both_reach = {w: left_reach[w] | right_reach[w] for w in elements}
    _close(both_reach)
    left_cells, left_leq = _cells_from_reach(elements, left_reach)
    right_cells, right_leq = _cells_from_reach(elements, right_reach)
    two_sided, j_leq = _cells_from_reach(elements, both_reach)
    return CellPartition(n, left_cells, right_cells, two_sided, left_leq, right_leq, j_leq)


def _check_a2(mode: str) -> tuple[bool, str]:
    top = _sweep_top(mode, 12)
    for n in range(3, top + 1):
        derived = _cells_from_table(n)
        partition = compute_cells(n)
        for field in ("left_cells", "right_cells", "two_sided_cells", "left_leq", "right_leq", "j_leq"):
            if getattr(partition, field) != getattr(derived, field):
                return False, f"{field} differ from the structure-constant derivation at n={n}"
    partition4 = compute_cells(4)
    j2 = is_strongly_regular(partition4, "J2")
    if j2.holds:
        return False, "J2 at n=4 must fail strong regularity"
    if j2.witness != "|Ls ∩ Rs| = 2":
        return False, f"unexpected regularity witness {j2.witness!r} for J2 at n=4"
    for name in ("J1", "J3"):
        if not is_strongly_regular(partition4, name).holds:
            return False, f"{name} at n=4 must be strongly regular"
    return True, (
        f"cells and cell preorders derived from the structure constants match the "
        f"closed form for n=3..{top}; at n=4 J2 fails strong regularity with witness "
        f"{j2.witness} and J1, J3 hold"
    )


# -- A3: the rank-3 cell module matrices ------------------------------------


def _check_a3(mode: str) -> tuple[bool, str]:
    module = cell_module(4, "Ls")
    basis = tuple((w.leading, w.length) for w in module.cell)
    if basis != (("s", 1), ("s", 3), ("t", 2)):
        return False, f"unexpected basis order {basis} for the Ls cell module at n=4"
    a_s, a_t = module.generator_pair()
    if a_s != ((2, 0, 1), (0, 2, 1), (0, 0, 0)):
        return False, f"A_s on the Ls cell module is {a_s}"
    if a_t != ((0, 0, 0), (0, 0, 0), (1, 1, 2)):
        return False, f"A_t on the Ls cell module is {a_t}"
    if char_poly(a_s) != (0, 4, -4, 1):
        return False, f"char poly of A_s is {render_poly(char_poly(a_s))}, not x(x-2)^2"
    if char_poly(a_t) != (0, 0, -2, 1):
        return False, f"char poly of A_t is {render_poly(char_poly(a_t))}, not x^2(x-2)"
    return True, (
        "cell_module(4, Ls) has basis (s, sts, ts) with the pinned matrices; "
        "char polys x(x-2)^2 and x^2(x-2)"
    )


# -- A4: decompositions of the four cell modules at n=4 ----------------------


def _check_a4(mode: str) -> tuple[bool, str]:
    expected = {
        "Le": {OneDim(-1, -1): 1},
        "Lw0": {OneDim(1, 1): 1},
        "Ls": {TwoDim(1): 1, OneDim(1, -1): 1},
        "Lt": {TwoDim(1): 1, OneDim(-1, 1): 1},
    }
    found: dict[str, dict] = {}
    for name, want in expected.items():
        module = cell_module(4, name)
        a_s, a_t = module.generator_pair()
        got = decompose(4, a_s, a_t).as_dict()
        if got != want:
            return False, f"[C_{name}] decomposes as {got}, expected {want}"
        found[name] = got
    if found["Ls"] == found["Lt"]:
        return False, "the Ls and Lt decompositions must differ as multisets"
    return True, (
        "[C_Le] = V(-1,-1), [C_Lw0] = V(1,1), [C_Ls] = V(4,1) + V(1,-1), "
        "[C_Lt] = V(4,1) + V(-1,1), and the last two differ"
    )


# -- A5: cell modules assemble the regular representation ---------------------


def _check_a5(mode: str) -> tuple[bool, str]:
    top = _sweep_top(mode, 10)
    for n in range(3, top + 1):
        totals: dict = {}
        for cell in compute_cells(n).left_cells:
            module = cell_module(n, cell)
            a_s, a_t = module.generator_pair()
            for simple, mult in decompose(n, a_s, a_t).terms:
                totals[simple] = totals.get(simple, 0) + mult
        for simple in simples(n):
            if totals.get(simple, 0) != module_dim(simple):
                return False, (
                    f"at n={n} the cell modules contain {simple} with multiplicity "
                    f"{totals.get(simple, 0)}, its dimension is {module_dim(simple)}"
                )
        if set(totals) != set(simples(n)):
            return False, f"at n={n} the cell modules contain an unexpected simple"
    return True, (
        f"for n=3..{top} the left cell modules sum to the regular representation "
        "(each simple with multiplicity equal to its dimension)"
    )


# -- A6: the J2 annihilator at n=4 --------------------------------------------


def _check_a6(mode: str) -> tuple[bool, str]:
    poly = global_annihilator(4, "J2")
    if poly != (0, -4, 10, -6, 1):
        return False, f"global_annihilator(4, J2) is {render_poly(poly)}"
    report = classify(4, ranks=(1, 2, 3), entry_bound=4)
    checked = 0
    for candidate in report.candidates:
        if candidate.apex not in ("J1", "J2"):
            continue
        q = mat_add(candidate.pair.theta_s, candidate.pair.theta_t)
        value = poly_eval_matrix(global_annihilator(4, candidate.apex), q)
        if not is_zero_matrix(value):
            return False, (
                f"the apex-{candidate.apex} annihilator does not kill Q for the "
                f"rank-{candidate.pair.rank} candidate"
            )
        if not candidate.annihilator_passed:
            return False, "a candidate report disagrees with the direct p(Q) = 0 check"
        checked += 1
    if checked < 3:
        return False, f"only {checked} n=4 candidates have apex J1/J2, expected 3"
    return True, (
        f"global_annihilator(4, J2) = {render_poly(poly)}; p(Q) = 0 exactly for all "
        f"{checked} n=4 candidates with apex J1 or J2"
    )


# -- A7: the block determinant identity ---------------------------------------


def _check_a7(mode: str) -> tuple[bool, str]:
    rng = random.Random(20260413)
    trials = 1000
    for trial in range(trials):
        k = rng.randint(1, 4)
        l = rng.randint(1, 4)
        lam = [1] + [rng.randint(1, 9) for _ in range(k - 1)]
        mu = [1] + [rng.randint(1, 9) for _ in range(l - 1)]
        v = [rng.randint(1, 9) for _ in range(l)]
        w = [rng.randint(1, 9) for _ in range(k)]
        det, formula = det_identity(k, l, lam, mu, v, w)
        if det != formula:
            return False, (
                f"trial {trial}: Bareiss determinant {det} differs from the closed "
                f"formula {formula} (k={k}, l={l}, lam={lam}, mu={mu}, v={v}, w={w})"
            )
    det, formula = det_identity(2, 1, (1, 1), (1,), (1,), (1, 1))
    if (det, formula) != (4, 4):
        return False, f"the all-ones k=2, l=1 instance gives {det}, expected 4"
    q_det = bareiss_det(((2, 0, 1), (0, 2, 1), (1, 1, 2)))
    if q_det != 4:
        return False, f"det Q = {q_det} for the rank-3 Q, expected 4"
    return True, (
        f"{trials} random block determinants match 2^n - 2^(n-2)(lam.w)(mu.v) "
        "exactly; the rank-3 Q has det 4"
    )


# -- A8/A9: classification outcomes -------------------------------------------

# Reference pairs written out explicitly; comparisons go through canonical keys
# so the checks do not depend on which orbit representative the report prints.
_RANK2_N4_REFERENCE = (((2, 2), (0, 0)), ((0, 0), (1, 2)))
_RANK2_N6_REFERENCE = (((2, 3), (0, 0)), ((0, 0), (1, 2)))
_RANK3_N4_REFERENCE = (
    ((2, 0, 1), (0, 2, 1), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (1, 1, 2)),
)


def _reference_key(n: int, matrices: tuple) -> bytes:
    theta_s, theta_t = matrices
    return canonicalize(MatrixPair.from_matrices(n, theta_s, theta_t))


def _check_a8(mode: str) -> tuple[bool, str]:
    report = classify(4, ranks=(1, 2, 3), entry_bound=4, jobs=1)
    by_rank = {r: [c for c in report.candidates if c.pair.rank == r] for r in (1, 2, 3)}

    rank1_pairs = {(c.pair.theta_s, c.pair.theta_t) for c in by_rank[1]}
    if rank1_pairs != {(((0,),), ((0,),)), (((2,),), ((2,),))}:
        return False, f"rank-1 candidates are {sorted(rank1_pairs)}"
    rank1_tags = {(c.tag.kind, c.tag.detail) for c in by_rank[1]}
    if rank1_tags != {("REALIZED_CELL", "Le"), ("REALIZED_CELL", "Lw0")}:
        return False, f"rank-1 tags are {sorted(rank1_tags)}"

    if len(by_rank[2]) != 1:
        return False, f"{len(by_rank[2])} rank-2 candidates, expected exactly 1"
    cand2 = by_rank[2][0]
    if cand2.canonical_key != _reference_key(4, _RANK2_N4_REFERENCE):
        return False, "the rank-2 candidate is not the expected pair"
    if (cand2.tag.kind, cand2.tag.detail) != ("MATRIX_ADMISSIBLE_UNREALIZED", "Thm. noSimple"):
        return False, f"rank-2 tag is {cand2.tag}"

    if len(by_rank[3]) != 1:
        return False, f"{len(by_rank[3])} rank-3 candidates, expected exactly 1"
    cand3 = by_rank[3][0]
    if cand3.canonical_key != _reference_key(4, _RANK3_N4_REFERENCE):
        return False, "the rank-3 candidate is not the expected pair"
    if cand3.tag.kind != "REALIZED_CELL" or cand3.tag.detail not in ("Ls", "Lt"):
        return False, f"rank-3 tag is {cand3.tag}"
    return True, (
        "n=4, E=4: rank 1 gives ((0),(0)) and ((2),(2)) realized; rank 2 gives one "
        "unrealized candidate; rank 3 gives the realized cell pair"
    )


def _check_a9(mode: str) -> tuple[bool, str]:
    report5 = classify(5, ranks=(2,), entry_bound=4)
    if report5.candidates:
        return False, f"n=5 rank 2 has {len(report5.candidates)} candidates, expected none"

    report6 = classify(6, ranks=(2,), entry_bound=4)
    if len(report6.candidates) != 1:
        return False, f"n=6 rank 2 has {len(report6.candidates)} candidates, expected 1"
    cand6 = report6.candidates[0]
    if cand6.canonical_key != _reference_key(6, _RANK2_N6_REFERENCE):
        return False, "the n=6 rank-2 candidate is not the expected pair"
    if cand6.tag.kind != "MATRIX_ADMISSIBLE_UNREALIZED":
        return False, f"n=6 rank-2 tag is {cand6.tag}"

    report3 = classify(3, ranks=(2,), entry_bound=4)
    if len(report3.candidates) != 1:
        return False, f"n=3 rank 2 has {len(report3.candidates)} candidates, expected 1"
    cand3 = report3.candidates[0]
    if cand3.tag.kind != "REALIZED_CELL":
        return False, f"n=3 rank-2 tag is {cand3.tag}"
    return True, (
        "rank-2 classifications: empty at n=5, one unrealized candidate at n=6, "
        "one realized cell at n=3"
    )


# -- A10: Perron data of the rank-3 Q -----------------------------------------


def _check_a10(mode: str) -> tuple[bool, str]:
    q = ((2, 0, 1), (0, 2, 1), (1, 1, 2))
    poly = char_poly(q)
    if poly != (-4, 10, -6, 1):
        return False, f"char poly of Q is {render_poly(poly)}, not (x-2)(x^2-4x+2)"
    root2 = math.sqrt(2.0)
    for eigenvalue in (2.0 - root2, 2.0, 2.0 + root2):
        if abs(poly_eval_float(poly, eigenvalue)) > 1e-9:
            return False, f"{eigenvalue} is not a root of the characteristic polynomial"
    analysis = perron_analysis(q)
    if not analysis.irreducible:
        return False, "Q must be irreducible"
    if abs(analysis.spectral_radius - (2.0 + root2)) > 1e-9:
        return False, f"spectral radius {analysis.spectral_radius} is not 2 + sqrt(2)"
    if not analysis.top_eigenvalue_simple:
        return False, "the top eigenvalue must be algebraically simple"
    vector = analysis.positive_eigenvector
    if vector is None or min(vector) <= 0:
        return False, "the Perron eigenvector must exist and be strictly positive"
    residual = max(
        abs(sum(q[i][j] * vector[j] for j in range(3)) - analysis.spectral_radius * vector[i])
        for i in range(3)
    )
    if residual > 1e-6:
        return False, f"eigenvector residual {residual} is too large"
    return True, (
        "Q has eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2); the top one is simple with "
        "a strictly positive eigenvector"
    )


# -- A11: candidate sets are stable under a larger entry bound -----------------


def _key_set(report) -> set:
    return {(c.pair.rank, c.canonical_key) for c in report.candidates}


def _check_a11(mode: str) -> tuple[bool, str]:
    sites = (
        (4, (1, 2, 3)),
        (5, (2,)),
        (6, (2,)),
        (3, (2,)),
    )
    compared = 0
    for n, ranks in sites:
        small = classify(n, ranks=ranks, entry_bound=4)
        large = classify(n, ranks=ranks, entry_bound=8)
        if _key_set(small) != _key_set(large):
            return False, f"candidate set changes between E=4 and E=8 at n={n}"
        compared += len(_key_set(small))
    return True, (
        f"E=8 reproduces the E=4 candidate sets at all four classification sites "
        f"({compared} candidates total)"
    )


# -- A12: worker count cannot change the report --------------------------------


def _check_a12(mode: str) -> tuple[bool, str]:
    serial = classify(4, ranks=(1, 2, 3), entry_bound=4, jobs=1).to_json_bytes()
    parallel = classify(4, ranks=(1, 2, 3), entry_bound=4, jobs=8).to_json_bytes()
    if serial != parallel:
        return False, "reports with 1 and 8 workers differ byte for byte"
    return True, f"1-worker and 8-worker reports are byte-identical ({len(serial)} bytes)"


_CHECKS: dict[str, Callable[[str], tuple[bool, str]]] = {
    "A1": _check_a1,
    "A2": _check_a2,
    "A3": _check_a3,
    "A4": _check_a4,
    "A5": _check_a5,
    "A6": _check_a6,
    "A7": _check_a7,
    "A8": _check_a8,
    "A9": _check_a9,
    "A10": _check_a10,
    "A11": _check_a11,
    "A12": _check_a12,
}


def run_check(check_id: str, mode: str = "full") -> CheckResult:
    """Run one acceptance check; exceptions count as failures, not crashes."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; valid ids are {ALL_CHECK_IDS}")
    if mode not in ("full", "quick", "paper"):
        raise ValueError(f"mode must be full, quick or paper, not {mode!r}")
    started = time.monotonic()
    try:
        passed, detail = _CHECKS[check_id](mode)
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - started
    limit = _TIME_LIMITS.get(check_id)
    if passed and mode == "full" and limit is not None:
        if elapsed > limit:
            passed = False
            detail += f"; runtime {elapsed:.2f}s exceeds the {limit:.0f}s bound"
        else:
            detail += f"; {elapsed:.2f}s within the {limit:.0f}s bound"
    return CheckResult(check_id=check_id, passed=passed, detail=detail, elapsed_seconds=elapsed)


def run_suite(suite: str) -> tuple[CheckResult, ...]:
    """Run a named suite (paper, quick or full) and return all results."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {sorted(SUITES)}, not {suite!r}")
    mode = "full" if suite == "full" else suite
    return tuple(run_check(check_id, mode) for check_id in SUITES[suite])
