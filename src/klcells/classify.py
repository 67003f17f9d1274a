"""Exhaustive classification of candidate matrix pairs.

The search space depends on whether the block-form filter F7 participates.
With F7 on (the default) the space is its parametrization: a split
k in 1..r-1 together with nonnegative integer blocks B (k x (r-k)) and
B' ((r-k) x k) bounded entrywise by the entry bound, assembled as
A_s = [[2I_k, B], [0, 0]] and A_t = [[0, 0], [B', 2I_{r-k}]]; rank one
cannot split and instead contributes the four diagonal pairs built from
(0) and (2) (their diagonal 2 is structural, like the 2I blocks, so the
entry bound does not apply to it).  With F7 off, the space is the full
variety of pairs of matrices satisfying A^2 = 2A with entries up to the
bound; its matrices are built from the normal form of nonnegative
idempotents (see ``_f1_matrices``), not found by scanning the entry cube.

Both spaces are searched by orbits of a group of simultaneous
conjugations (A_s, A_t) -> (P A_s P^-1, P A_t P^-1), which commute with
the KL recursion and so change no filter verdict.  One representative per
orbit is judged and its verdict is charged to all |G|/|Stab| pairs of the
orbit: ``pairs_evaluated`` and every rejection count are those of the raw
pair-by-pair search.  The variety is one space under S_r.  The block space
of split k is the set of pairs (A_s for every B, A_t for every B') under
S_k x S_{r-k}, which permutes the first k and the last r-k indices; its
rank one is the variety of rank one at bound 2 under the trivial group.
In every space (``_spaces``) the representative is the orbit's least
(flat A_s, flat A_t): a work unit is an A_s that is least in its orbit,
and its representatives are the A_t that are least under the stabiliser
of A_s (``_orbits``), so each orbit falls in exactly one work unit.

Every matrix is prepared once per rank (``algebra._Generator``).  F3
reads only the zero pattern of A_s + A_t and is invariant under
conjugation, so each space groups its A_t by zero pattern once, F3 is
judged once per zero pattern of A_s in each space, and a unit charges
|O_s| = |G|/|Stab(A_s)| rejections to each A_t whose pattern fails with
A_s (``_f3_split``); only the A_t that pass reach the stabiliser test.
The representatives are judged by lane-packed KL recursions, one lane
each (``_judge_units``): a call takes whole units in order until it
holds at least ``_CALL_LANES`` lanes, so small units share one lane
set-up and one recursion.

Below length n nothing of this depends on n, so a search plan holds it
(``_plan``), one per (rank, bound, block_space, judge_f3): the F3
failures and the representatives of every unit, the latter as indices
into the space with their orbit sizes, the calls, and, for a plan of at
most ``_PLAN_COLUMN_LANES`` lanes, the lane columns of each call
(``algebra._lane_columns``: the entries every lane shares and the lanes
that hold each value of an entry that varies).  The parent builds it and
keeps it with the spaces of its rank (``_spaces``), so a search that
follows one with the same ranks and bound, at any n and worker count,
builds neither, and a call at n only packs its columns at the width n
needs; forked workers inherit it and judge runs of its calls.  The F3
table of verdicts by zero pattern lives only while a plan is built.

The kernel's verdicts do not depend on n below length n either: an F2 or
F4 event at length l decides every n > l, and the two routes to w0 at n
are the two products of length n of any longer run.  So each run of a
call logs its events length by length, and a plan that keeps its columns
keeps the log of each call beside it in the ``_spaces`` entry, by
judge_f3 and F4, from the largest n run so far.  A search at that n or
below replays the log and runs no kernel (``_judge_units``); a larger n
runs the kernel and replaces the log.  So a sweep from the largest n
down runs the kernel once per call.

The kernel skips F1, F6 and F7: F1 holds by construction in both spaces,
F6 follows from F1 and F5, and F7 holds in the block space (and it is off
in the variety).  The kernel only judges: a worker returns its surviving
representatives as flat (A_s, A_t), and the parent canonicalises them and
keeps one per class.  The s <-> t swap, which maps the block space of
split k onto that of r-k, is not used to merge orbits in either space: F4
is judged on the partial family built before an F2 failure, and a swapped
pair can fail at the other leading letter.

``run_filters`` is the one pipeline that renders a verdict with its
witnesses, and ``_annotate`` the one builder of a surviving
``Candidate``: it runs no filter, and reads the annotation from the
decomposition of the pair into simple D_n-modules, counted from the
traces a_j = tr (ST)^j of the powers of ST (``reps._module_decomposition``,
with no relation checked).  The search calls it once on the canonical
pair of each surviving class, which passes every filter the search
enabled (``_classify_rank``); ``inspect_pair`` runs ``run_filters`` on any
pair and calls it on a survivor with the family its extension built.

Pairs count as the same candidate when simultaneous row/column permutation
and/or exchanging the roles of s and t carries one to the other;
``canonicalize`` picks the lexicographically smallest representative and
serialises it to bytes.  Filters are evaluated in the attribution order
F1, F3, F4, F2, F5, F6, F7 and a rejected pair is charged to the first
failure (F4 is judged as the extension grows, so a support defect is
reported as F4 even when the extension would break down slightly later).

A survivor is tagged by one lookup of its canonical key in the table of
its (n, rank) (``_tags``): REALIZED_CELL(name) for the class of a left
cell module's generator pair, MATRIX_ADMISSIBLE_UNREALIZED(citation) for
that of an entry of the literal table ``_RECORDED`` of this rank whose
Coxeter number h divides n (the B2 pair, h = 4, and the G2 pair, h = 6,
both "Thm. noSimple"), and
MATRIX_ADMISSIBLE_UNREALIZED("unknown: no recorded classification") for
any other key.  A cell beats an entry, and an earlier cell (Le, Ls, Lt,
Lw0) or entry beats a later one.

A block survivor is Coxeter data.  Put S = A_s - I, T = A_t - I,
D = diag(I_k, -I_(r-k)) and C = D(A_s + A_t)D = [[2I, -B], [-B', 2I]].
Then D(-S)D and D(-T)D are the products of the simple reflections of C
over the two sides of the bipartition, so ST is conjugate to the bipartite
Coxeter element c of C, and F5, which is (ST)^n = I (``run_filters``),
says c^n = 1.  When the zero pattern is symmetric (B_ij = 0 exactly when
B'_ji = 0), C is a generalised Cartan matrix, indecomposable by F3, and a
Coxeter element has finite order exactly in finite type, where its order
is the Coxeter number h (Humphreys, Reflection Groups and Coxeter Groups,
sections 3.16-3.19; infinite order otherwise, Howlett 1982).  So F5 holds
exactly when C is a Dynkin diagram with h | n, and for a survivor of apex
J2, h = n, by the proof below.  Every block survivor of rank > 1 has apex
J2: J1 needs A_s = A_t = 0, and J3 a copy of V(1,1), on which Q acts by
4, its spectral radius; its eigenvector is then the positive Perron
vector v of step 2 below, and A_s v = 2v fails on the zero rows of A_s.
The off-pattern survivors are open.  Split 1 is a corollary: when
min(k, r - k) = 1, F3 forces every B_j and B'_j to be at least 1, so the
pattern is symmetric and C is a star: A2, B2, A3, G2, B3, C3 or D4, with
h = 3, 4 or 6.

The proof that h = n.  Take a survivor of apex J2, a D_n-module by F1
and F5, with Q = A_s + A_t, and write x_l and y_l for the two elements
of length l.
1. The identity.  In Z[D_n] let sigma_l be the sum of the elements of
   length l, sigma_0 = e.  Multiplying an alternating word by s or t
   adds or drops a letter, so (s + t) sigma_1 = sigma_2 + 2 sigma_0 and
   (s + t) sigma_l = sigma_(l+1) + sigma_(l-1) for 2 <= l <= n - 2.  So up
   to l = n - 1, sigma_l is a polynomial in y = s + t: sigma_0 = 1,
   sigma_1 = y, sigma_2 = y^2 - 2 and sigma_(l+1) = y sigma_l - sigma_(l-1).
   As b(w) is w plus every shorter element,
   b(x_l) + b(y_l) = 2(sigma_0 + ... + sigma_(l-1)) + sigma_l for
   1 <= l <= n - 1.  In the module y acts by S + T = Q - 2I.
2. The Perron root.  Q is nonnegative, and irreducible by F3, so it has a
   positive eigenvector v for its spectral radius rho (Perron-Frobenius;
   Horn and Johnson, Matrix Analysis, ch. 8).  On the simple modules,
   S + T has the eigenvalues 2cos(j pi/n), 0 < j < n, on the V(n,k), and
   eps + delta on V(eps, delta).  So rho - 2 = 2cos(theta) with theta in
   [0, pi], and theta = 0 only on V(1,1), which a module of apex J2 lacks:
   b(w0), the sum of all 2n elements, acts by 2n on V(1,1) and by
   A_w0 = 0 on the module.  On v, sigma_l acts by 2cos(l theta) for l >= 1, and
   summing, (A_x_l + A_y_l) v = 2 sin(l theta) cot(theta/2) v.  By F2,
   A_x_l + A_y_l is nonnegative.  By F4 it is nonzero, since the apex is
   J2 and the support is a union of two-sided cells.  As v is positive,
   (A_x_l + A_y_l) v is then nonnegative and nonzero, so
   2 sin(l theta) cot(theta/2) > 0 for every l <= n - 1, which forces
   0 < theta < pi/(n - 1).  The only eigenvalue of S + T of that form is
   2cos(pi/n), which only V(n,1) carries: theta = pi/n,
   rho = 2 + 2cos(pi/n), and V(n,1) occurs.
3. h = n.  On V(n,1), ST has the eigenvalue exp(2 pi i/n), of order n, so
   the Coxeter element c, conjugate to ST, has order a multiple of n, and
   F5 gives c^n = 1.  So c has order n, which for a symmetric pattern is h.

Corollaries, for a survivor of apex J2.
4. V(n,k) occurs once for each k with gcd(k, n) = 1, so the rank is at
   least phi(n).  The Perron root rho is a simple eigenvalue of Q, and
   2cos(pi/n) = rho - 2 is an eigenvalue of S + T only on V(n,1), once
   per copy, so V(n,1) occurs once.  Then exp(2 pi i/n) is an eigenvalue
   of ST exactly once, and ST is an integer matrix, so each of its Galois
   conjugates, the primitive n-th roots of unity, is too: each V(n,k) with
   gcd(k, n) = 1, which carries exp(+-2 pi i k/n), occurs once.
5. A block-form survivor contains neither V(1,1) nor the sign module
   V(-1,-1).  In block form tr S = 2k - r and tr T = r - 2k, so
   tr(S + T) = 0.  S + T has trace 0 on each V(n,k) and eps + delta on
   V(eps, delta), which is 0 on the mixed V(1,-1) and V(-1,1), so V(1,1)
   and V(-1,-1) occur equally often, and step 2 rules out V(1,1).  In the
   F7-off variety the sign module does occur (n = 3, rank 3:
   V(-1,-1) + V(3,1)), because tr(S + T) = 0 needs the block form.
6. At odd n, s and t are conjugate, so the mixed modules do not exist and
   a J2 survivor is a sum of V(n,k); at prime n every k is prime to n, so
   it is exactly the sum of V(n,k) over 0 < k < n/2, of rank n - 1.

The closed cases.  Write S + T = [[0, B], [B', 0]] in block form, so
(S + T)^2 = [[BB', 0], [0, B'B]] and tr (S + T)^(2j) = 2 tr (BB')^j.
Every nonzero entry of B or B' lies on a cycle of the quiver of Q, as F3
makes Q irreducible.
- n = 3.  Only V(3,1), once (step 6), so r = 2, and S + T has the
  eigenvalues +-1, so tr(BB') = 1: B = B' = (1), the diagram A2.
- n = 4.  Only V(4,1) occurs, beside the mixed one-dimensional modules,
  on which S + T is 0.  So S + T has rank 2, and B and B' rank 1 each.
  F3 leaves no zero row or column in B, so B = u v^T with u, v of full
  support, and likewise B'; every product B_ij B'_ji is then at least 1,
  and they sum to tr(BB') = 2, as S + T has the eigenvalues +-sqrt 2 on
  V(4,1).  Hence k(r - k) <= 2 and every entry is at most 2: r <= 3 and
  E <= 2, so the default ``classify(4)`` (check A8) is complete for
  block-form pairs.  That is the matrix half of the paper's result.
- n = 5.  Exactly V(5,1) + V(5,2) (step 6), so r = 4, and from the
  eigenvalues +-2cos(pi/5) and +-2cos(2 pi/5) of S + T, tr(BB') = 3 and
  tr((BB')^2) = 7.  Split 1 is a star (above), and no star of rank 4 has
  h = 5, so k = 2.  An entry on a 2-cycle is at most its product
  B_ij B'_ji, and these sum to tr(BB') = 3; an entry on a 4-cycle is at
  most the cycle's product, which tr((BB')^2) = 7 counts twice.  So
  E <= 3, and rank 4 at E = 3 is complete: it finds A4, the cell Ls.
n = 6 is open: it needs a bound on the multiplicity of V(6,2).

The tests check step 1 exactly on every survivor of their searches and
on every left cell module at n = 3..30, the order n of ST on every J2
survivor (``test_every_j2_survivor_rotates_with_order_n``), steps 4-5 on
every J2 survivor (``test_every_j2_candidate_has_each_coprime_simple_once``)
and the closed searches at n = 3 and 5
(``test_the_closed_searches_find_the_cell_modules_only``).

Reports are deterministic byte for byte: candidates are sorted by
(rank, canonical key), every candidate is annotated on its canonical
representative in the parent process, and wall-clock timing is excluded
from serialisation unless explicitly requested.  The worker count can
therefore never change the output.  A resource guard sizes the search
space a priori and refuses to start when it exceeds the allowed number of
states.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import time
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .algebra import (
    _Columns,
    _Generator,
    _flatten,
    _kl_recursion,
    _lane_columns,
    _module_family,
    _replay,
)
from .cells import cell_module, compute_cells, left_cell_name
from .exact import _check_int, is_zero_matrix, mat_add
from .nimrep import (
    ExtendedRep,
    ExtensionFailure,
    FilterReport,
    MatrixPair,
    PerronAnalysis,
    apex_of,
    check_block_form,
    check_idempotent,
    check_transitive,
    extend,
    perron_analysis,
    _square,
    _strongly_connected,
)
from .reps import Decomposition, OneDim, _module_decomposition
# unused here but stay bound: perfbench/tracing.py wraps these names
from .nimrep import annihilator_check, check_apex_support, check_group_relations
from .reps import decompose

__all__ = [
    "ALL_FILTERS",
    "TOGGLEABLE_FILTERS",
    "DEFAULT_MAX_STATES",
    "MAX_CANONICAL_RANK",
    "Tag",
    "Candidate",
    "ClassificationReport",
    "canonicalize",
    "canonical_pair",
    "run_filters",
    "inspect_pair",
    "enumerate_candidates",
    "classify",
]

ALL_FILTERS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")
# the order in which run_filters evaluates them and charges a rejection
_ATTRIBUTION_ORDER = ("F1", "F3", "F4", "F2", "F5", "F6", "F7")
# F1 defines the variety, F2/F5 are produced by the extension itself; only
# the remaining checks can be switched off.
TOGGLEABLE_FILTERS = frozenset({"F3", "F4", "F6", "F7"})
DEFAULT_MAX_STATES = 10_000_000
MAX_CANONICAL_RANK = 6
# A kernel call takes whole work units in order until it holds at least
# this many lanes: below about this size the fixed cost of a call (lane
# set-up, Python overhead per step) outweighs its big-integer work, so
# small units share calls while large ones still run nearly alone.
_CALL_LANES = 64
# A search plan keeps the lane columns of its calls when it has at most
# this many lanes.  They take 20-50 bytes a lane at ranks 4 and 5 (E <= 4),
# so a plan keeps at most a few MB of them: rank 4 of the block space at
# E=4 (69,608 lanes) keeps its columns, the F7-off frontier at rank 5, E=2
# (2.5 million) builds them call by call.
_PLAN_COLUMN_LANES = 1 << 17


# -- canonical representatives ---------------------------------------------


def _canonical_flat(
    r: int, flat_s: tuple[int, ...], flat_t: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The flat (A_s, A_t) of the canonical pair of the class of a flat
    r x r pair."""
    if r > MAX_CANONICAL_RANK:
        raise ValueError(
            f"canonical keys are only computed up to rank {MAX_CANONICAL_RANK} "
            f"(got {r}); the orbit grows factorially beyond that"
        )
    images = [(flat_s, flat_t)] + [(g(flat_s), g(flat_t)) for g in _conjugations(r)]
    return min(min(image, image[::-1]) for image in images)


def canonical_pair(pair: MatrixPair) -> MatrixPair:
    """The representative of the pair's symmetry class used everywhere."""
    r = pair.rank
    flat_s, flat_t = _canonical_flat(r, tuple(_flatten(pair.theta_s)), tuple(_flatten(pair.theta_t)))
    return MatrixPair(n=pair.n, rank=r, theta_s=_square(flat_s, r), theta_t=_square(flat_t, r))


def canonicalize(pair: MatrixPair) -> bytes:
    """Canonical bytes of the pair's class (stable across processes/runs)."""
    return _serialise(canonical_pair(pair))


def _serialise(rep: MatrixPair) -> bytes:
    """The canonical bytes of a pair that is its class's canonical pair."""
    payload = {
        "rank": rep.rank,
        "theta_s": [list(row) for row in rep.theta_s],
        "theta_t": [list(row) for row in rep.theta_t],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")


# -- the filter pipeline ----------------------------------------------------


def normalize_filters(disabled: Iterable[str] = ()) -> tuple[str, ...]:
    """Enabled filter ids in canonical order, validating the disabled set."""
    if isinstance(disabled, str):
        raise TypeError("disabled must be a collection of filter ids, not a str")
    disabled_set = set(disabled)
    unknown = disabled_set - TOGGLEABLE_FILTERS
    if unknown:
        raise ValueError(
            f"only {sorted(TOGGLEABLE_FILTERS)} can be disabled, not {sorted(unknown)}"
        )
    return tuple(f for f in ALL_FILTERS if f not in disabled_set)


def run_filters(
    pair: MatrixPair, enabled: Sequence[str]
) -> tuple[tuple[FilterReport, ...], ExtendedRep | ExtensionFailure | None, str | None]:
    """Evaluate the enabled filters in the attribution order
    (``_ATTRIBUTION_ORDER``).

    Returns (reports, extension outcome, first failing filter id or None).
    Evaluation stops at the first failure; the reports list covers exactly
    the filters that ran.  F1 always runs; F2 and F5 are the extension
    itself and always run.  F4, F2, F5 and F6 are read off one one-lane
    kernel call, ``extend`` with the support checked when F4 is enabled,
    made when the first of them is reached: the first of them to fail
    stops it, with its witness.

    F6 is reported passed without a check: it holds for every pair that
    passes F1 and F5.  F1 makes S = A_s - I and T = A_t - I involutions,
    as A^2 = 2A is (A - I)^2 = I.  In the infinite dihedral group
    <s, t | s^2 = t^2 = 1>, where u <= w exactly when u = w or
    l(u) < l(w), let b_w be the sum of the u <= w.  For w of length l >= 3
    leading with x, w' and w'' as in the recursion, b_x b_w' = b_w + b_w'':
    b_x = 1 + x takes w' to w' + w and each u of length <= l - 2 to
    u + xu, and the xu are the element of length l - 1 leading with x,
    w'' and every element of length <= l - 3, once each.  With rho(s) = S
    and rho(t) = T, A_e = I = rho(b_e), A_x = I + rho(x) = rho(b_x) and
    A_st = A_s A_t = rho(b_st), so the recursion gives A_w = rho(b_w)
    below length n, and its two routes to w0 are rho(b) of the two
    alternating words of length n.  Those share every shorter element, so
    the routes differ by exactly rho(sts...) - rho(tst...), which vanishes
    exactly when rho(sts...) rho(tst...)^-1 = (ST)^n is I.  So F5 is
    (ST)^n = I, the third relation of F6 (``check_group_relations``, which
    the tests run in their oracle of this pipeline).
    """
    enabled_set = set(enabled) | {"F1", "F2", "F5"}
    checks = {"F1": check_idempotent, "F3": check_transitive, "F7": check_block_form}
    reports = []
    ext = None
    for filter_id in _ATTRIBUTION_ORDER:
        if filter_id not in enabled_set:
            continue
        if filter_id in checks:
            report = checks[filter_id](pair)
        else:
            if ext is None:
                ext = extend(pair, check_support="F4" in enabled_set)
            failed = isinstance(ext, ExtensionFailure) and ext.filter_id == filter_id
            report = FilterReport(filter_id, not failed, ext.witness if failed else None)
        reports.append(report)
        if not report.passed:
            return tuple(reports), ext, filter_id
    return tuple(reports), ext, None


# -- tags of surviving classes ----------------------------------------------


@dataclass(frozen=True)
class Tag:
    """Classification verdict: kind plus a detail (cell name, citation, filter)."""

    kind: str
    detail: str


UNKNOWN_CITATION = "unknown: no recorded classification"
# The matrix-admissible classes recorded as unrealised, (h, A_s, A_t,
# citation), each at every n that h divides: the block pairs of B2 (h = 4)
# and G2 (h = 6), which the paper rules out on categorical grounds.
_RECORDED = (
    (4, ((2, 2), (0, 0)), ((0, 0), (1, 2)), "Thm. noSimple"),
    (6, ((2, 3), (0, 0)), ((0, 0), (1, 2)), "Thm. noSimple"),
)


@functools.lru_cache(maxsize=None)
def _tags(n: int, rank: int) -> dict[bytes, Tag]:
    """Canonical key -> Tag of the recorded classes of rank ``rank`` at n:
    the first item to name a key wins, the left cells of size ``rank`` in
    the order Le, Ls, Lt, Lw0 of ``compute_cells`` (only those cells'
    modules are built) before the entries of ``_RECORDED`` of this rank, in
    order, whose h divides n."""
    tags: dict[bytes, Tag] = {}
    for cell in compute_cells(n).left_cells:
        if len(cell) == rank:
            a_s, a_t = cell_module(n, cell).generator_pair()
            key = canonicalize(MatrixPair(n=n, rank=rank, theta_s=a_s, theta_t=a_t))
            tags.setdefault(key, Tag("REALIZED_CELL", left_cell_name(cell)))
    for h, a_s, a_t, citation in _RECORDED:
        if len(a_s) == rank and n % h == 0:
            key = canonicalize(MatrixPair(n=n, rank=rank, theta_s=a_s, theta_t=a_t))
            tags.setdefault(key, Tag("MATRIX_ADMISSIBLE_UNREALIZED", citation))
    return tags


# -- candidates and reports ---------------------------------------------------


_INFINITY = float("inf")
_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _indented_json(obj: object, margin: str = "\n") -> str:
    """The text ``json.dumps`` writes for ``obj`` with
    ``indent=2, sort_keys=True``, for dicts with str keys, lists, tuples,
    str, int, float, bool and None; anything else raises TypeError.

    json writes indented output with its pure-Python encoder, one generator
    step per token; here each scalar goes through the C function json
    itself calls for it, and each container is one join.  ``margin`` is
    the newline and indentation of the line ``obj`` closes on.
    """
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = margin + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f(v) if (f := _JSON_SCALARS.get(type(v))) else _indented_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + margin + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            v = obj[key]
            f = _JSON_SCALARS.get(type(v))
            items.append(_json_str(key) + ": " + (f(v) if f else _indented_json(v, inner)))
        return "{" + inner + ("," + inner).join(items) + margin + "}"
    # subclasses of the scalar types, which json also accepts
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass(frozen=True)
class Candidate:
    """One fully annotated pair.

    Candidates in a ClassificationReport are survivors annotated on their
    canonical representative; ``inspect_pair`` also produces REJECTED
    candidates, whose tag detail names the first failing filter and whose
    apex/decomposition fields stay None when never reached.  The extension
    is kept on the object but not serialised.
    """

    pair: MatrixPair
    canonical_key: bytes
    filters: tuple[FilterReport, ...]
    extension: ExtendedRep | ExtensionFailure | None
    apex: str | None
    tag: Tag
    decomposition: Decomposition | None
    annihilator_passed: bool | None
    perron: PerronAnalysis | None

    def to_jsonable(self) -> dict:
        perron = None
        if self.perron is not None:
            perron = {
                "irreducible": self.perron.irreducible,
                "spectral_radius": self.perron.spectral_radius,
                "top_eigenvalue_simple": self.perron.top_eigenvalue_simple,
                "positive_eigenvector": (
                    list(self.perron.positive_eigenvector)
                    if self.perron.positive_eigenvector is not None
                    else None
                ),
            }
        return {
            "pair": self.pair.to_jsonable(),
            "apex": self.apex,
            "tag": {"kind": self.tag.kind, "detail": self.tag.detail},
            "filters": [f.to_jsonable() for f in self.filters],
            "decomposition": self.decomposition.to_jsonable() if self.decomposition else None,
            "annihilator_passed": self.annihilator_passed,
            "perron": perron,
        }


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    ranks: tuple[int, ...]
    entry_bound: int
    enabled_filters: tuple[str, ...]
    candidates: tuple[Candidate, ...]
    states_budget: int
    pairs_evaluated: int
    rejection_counts: tuple[tuple[str, int], ...]
    guard_limit: int
    guard_tripped: bool
    elapsed_seconds: float

    def to_jsonable(self, include_timing: bool = False) -> dict:
        out = {
            "n": self.n,
            "ranks": list(self.ranks),
            "entry_bound": self.entry_bound,
            "filters": list(self.enabled_filters),
            "guard": {
                "limit": self.guard_limit,
                "states_budget": self.states_budget,
                "tripped": self.guard_tripped,
            },
            "pairs_evaluated": self.pairs_evaluated,
            "rejections": {f: c for f, c in self.rejection_counts},
            "candidates": [c.to_jsonable() for c in self.candidates],
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out

    def to_json_bytes(self, include_timing: bool = False) -> bytes:
        """The report as indented JSON: exactly what ``json.dumps`` writes
        for ``self.to_jsonable(include_timing)`` with ``indent=2,
        sort_keys=True``, plus a newline, in ASCII.  ``_indented_json``
        writes it, and the tests hold every report they build to that
        ``json.dumps`` oracle."""
        return (_indented_json(self.to_jsonable(include_timing)) + "\n").encode("ascii")

    def render_text(self, include_timing: bool = False) -> str:
        lines = [
            f"classification for n={self.n}, ranks {','.join(map(str, self.ranks))}, "
            f"entry bound {self.entry_bound}, filters {','.join(self.enabled_filters)}"
        ]
        if self.guard_tripped:
            lines.append(
                f"resource guard tripped: the space has {self.states_budget} states, "
                f"limit {self.guard_limit}"
            )
            return "\n".join(lines) + "\n"
        lines.append(
            f"{self.pairs_evaluated} pairs evaluated "
            f"(budget {self.states_budget}, guard {self.guard_limit})"
        )
        rejected = ", ".join(f"{f}: {c}" for f, c in self.rejection_counts if c)
        lines.append(f"rejections: {rejected if rejected else 'none'}")
        for rank in self.ranks:
            chosen = [c for c in self.candidates if c.pair.rank == rank]
            lines.append(f"rank {rank}: {len(chosen)} candidate(s)")
            for idx, cand in enumerate(chosen, start=1):
                lines.append(f"  [{idx}] {cand.tag.kind}({cand.tag.detail})")
                lines.append(f"      theta_s = {[list(r) for r in cand.pair.theta_s]}")
                lines.append(f"      theta_t = {[list(r) for r in cand.pair.theta_t]}")
                extras = [f"apex {cand.apex}"]
                extras.append("annihilator ok" if cand.annihilator_passed else "annihilator FAILS")
                if cand.decomposition is not None:
                    extras.append(f"decomposes as {cand.decomposition.render()}")
                if cand.perron is not None:
                    extras.append(f"spectral radius {cand.perron.spectral_radius:.12g}")
                lines.append("      " + "; ".join(extras))
        if include_timing:
            lines.append(f"elapsed: {self.elapsed_seconds:.3f}s")
        return "\n".join(lines) + "\n"


# -- enumeration --------------------------------------------------------------


def _f1_matrices(rank: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """All flat row-major matrices with entries in 0..bound satisfying
    A^2 = 2A (F1), ascending and without repeats, built from their normal
    form (that of the nonnegative idempotent A/2; Flor 1969).

    Let i -> j mean A[i][j] > 0.  As A >= 0, A^2 = 2A says that i -> j
    exactly when i -> k -> j for some k: the relation is transitive and
    every edge factors.  Factoring i -> j again and again gives vertices
    with ... -> k2 -> k1 -> j and i -> k_m for every m; one repeats, so by
    transitivity some d with d -> d lies on it, and i -> d -> j.  Entry
    (d, d) reads A[d][d]^2 + sum_{k != d} A[d][k] A[k][d] = 2 A[d][d], so a
    looped d has A[d][d] = 2 and no 2-cycle through it, or A[d][d] = 1
    and exactly one partner e with A[d][e] = A[e][d] = 1, and then entry
    (e, e) gives A[e][e] = 1.  For looped d -> d', d' != d, entry (d, d')
    holds the terms A[d][d] A[d][d'] + A[d][d'] A[d'][d'] >= 2 A[d][d'],
    so A[d][d] = A[d'][d'] = 1 and every other term is zero; the term
    A[d][e] A[e][d'] of d's partner e is not (e -> d -> d' gives e -> d')
    unless d' = e.  So:

    * the looped indices form J blocks (2) and [[1, 1], [1, 1]], with no
      edge between two blocks; both have trace 2 and rank one;
    * any other index i has a zero row or a zero column: i -> d and
      d' -> i with d, d' looped give d' -> d, so d and d' share a block,
      d -> d' -> i, and i -> d -> i contradicts A[i][i] = 0.

    Order the indices as [J blocks | column-only | row-only | zero], where
    a column-only index has a zero row and a row-only one a zero column.
    The other entries of A^2 = 2A then say exactly this, and any matrix
    so built satisfies A^2 = 2A:

    * each column-only column holds one value a in 0..bound per J block,
      repeated across a 2-block {d, e} (entry (d, c) reads
      A[d][c] + A[e][c] = 2 A[d][c]); each row-only row likewise holds
      one value b per J block;
    * the row-only x column-only corner is
      sum_{k in J} A[rho][k] A[k][c] / 2, that is the sum of a*b/2 over
      the (2) blocks and of a*b over the 2-blocks, and must be an integer
      in 0..bound;
    * every other entry is zero.

    Reordering the column-only (or the row-only) indices is a conjugation,
    so their nonzero value vectors are chosen as multisets; the normal
    forms are then closed under the r! conjugations.  The entry-cube scan
    this replaces is the oracle in ``tests/oracles.py``.
    """
    conjugations = _conjugations(rank)
    found: set[tuple[int, ...]] = set()
    for flat in _normal_forms(rank, bound):
        found.add(flat)
        found.update(g(flat) for g in conjugations)
    return tuple(sorted(found))


def _normal_forms(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The F1 matrices in the normal form of ``_f1_matrices``: the (2)
    blocks, then the 2-blocks, column-only, row-only and zero indices, with
    the column-only columns and the row-only rows each in multiset order."""
    r = rank
    for twos in range(r + 1 if bound >= 2 else 1):
        for ones in range((r - twos) // 2 + 1 if bound >= 1 else 1):
            width = twos + 2 * ones
            blocks = [(d,) for d in range(twos)] + [(d, d + 1) for d in range(twos, width, 2)]
            # twice a corner entry: a*b over a (2) block, 2*a*b over a 2-block
            weights = [1] * twos + [2] * ones
            vectors = list(itertools.product(range(bound + 1), repeat=len(blocks)))[1:]
            # each J block has trace 2: (2), or [[1, 1], [1, 1]]
            j_part = [0] * (r * r)
            for block in blocks:
                for d in block:
                    for e in block:
                        j_part[d * r + e] = 2 // len(block)
            for cols in range(r - width + 1):
                for rows in range(r - width - cols + 1):
                    for col_vectors, row_vectors in itertools.product(
                        itertools.combinations_with_replacement(vectors, cols),
                        itertools.combinations_with_replacement(vectors, rows),
                    ):
                        corners = [
                            [sum(map(operator.mul, weights, map(operator.mul, a, b))) for a in col_vectors]
                            for b in row_vectors
                        ]
                        if any(v % 2 or v > 2 * bound for row in corners for v in row):
                            continue
                        m = list(j_part)
                        for c, a in enumerate(col_vectors, start=width):
                            for block, v in zip(blocks, a):
                                for d in block:
                                    m[d * r + c] = v
                        for rho, (b, row) in enumerate(zip(row_vectors, corners), start=width + cols):
                            for block, v in zip(blocks, b):
                                for d in block:
                                    m[rho * r + d] = v
                            for c, v in enumerate(row, start=width):
                                m[rho * r + c] = v // 2
                        yield tuple(m)


@functools.lru_cache(maxsize=None)
def _conjugations(*blocks: int) -> tuple[operator.itemgetter, ...]:
    """The non-identity elements of S_b1 x S_b2 x ..., each factor permuting
    its own run of consecutive indices, acting on flat r x r matrices
    (r = b1 + b2 + ...) by A -> (A[p(i)][p(j)])_{ij}, as item getters
    (empty when every run has length one)."""
    r = sum(blocks)
    starts = itertools.accumulate(blocks, initial=0)
    runs = [list(itertools.permutations(range(start, start + b))) for start, b in zip(starts, blocks)]
    perms = [sum(parts, ()) for parts in itertools.product(*runs)][1:]
    return tuple(operator.itemgetter(*(p[i] * r + p[j] for i in range(r) for j in range(r))) for p in perms)


class _Space(NamedTuple):
    """One search space: A_s and A_t lists, each ascending by flat matrix
    and closed under the conjugations, and the A_t grouped by support
    (``_support_classes``)."""

    conjugations: tuple[operator.itemgetter, ...]
    gens_s: tuple[_Generator, ...]
    gens_t: tuple[_Generator, ...]
    classes: tuple[tuple[int, tuple[int, ...]], ...]


class _Call(NamedTuple):
    """One kernel call of a search plan (``_plan``).

    f3_failures -- the pairs of its units that fail F3
    parts       -- (space, index of A_s in space.gens_s, representatives)
                   of each of its units with a representative, the
                   representatives as ``_part_lanes`` reads them: the bytes
                   of the A_t indices into space.gens_t (unsigned int) and
                   of the orbit sizes (unsigned short, as an orbit size
                   divides |G| <= 6! = 720)
    columns     -- its ``algebra._Columns``, or None for a plan too large
                   to keep them (``_PLAN_COLUMN_LANES``)
    """

    f3_failures: int
    parts: tuple[tuple[_Space, int, bytes, bytes], ...]
    columns: _Columns | None


class _Rank(NamedTuple):
    """What ``_spaces`` keeps for one (rank, bound, block_space): the
    spaces, the work units, the search plans built on them, by judge_f3
    (``_plan``), and the kernel's event logs of their calls, by
    (judge_f3, whether F4 is on) and then by the call's position in the
    plan: (N, the log of the call's run to N), which gives its verdicts at
    every n <= N (``_judge_units``)."""

    spaces: tuple[_Space, ...]
    units: tuple[tuple[int, int], ...]
    plans: dict[bool, tuple[_Call, ...]]
    logs: dict[tuple[bool, bool], dict[int, tuple[int, list]]]


def _support_classes(gens: Sequence[_Generator]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(support, indices into ``gens`` of the generators with that support)
    for each support, in order of first appearance, each group ascending."""
    classes: dict[int, list[int]] = {}
    for index, gen in enumerate(gens):
        classes.setdefault(gen.support, []).append(index)
    return tuple((support, tuple(members)) for support, members in classes.items())


def _f3_split(
    rank: int, support_s: int, classes: Sequence[tuple[int, Sequence[int]]], connected: dict[int, bool]
) -> tuple[int, bytes]:
    """(number of A_t that fail F3 with A_s, one flag per support class,
    1 for the classes whose A_t pass).

    The pairs are nonnegative, so nothing cancels in A_s + A_t and its zero
    pattern is ``support_s | support``: F3 is judged once per support
    class.  Verdicts are looked up in, or added to, ``connected``, a table
    of verdicts by zero pattern for matrices of this rank.
    """
    failing = 0
    passing = bytearray(len(classes))
    for position, (support, members) in enumerate(classes):
        union = support_s | support
        verdict = connected.get(union)
        if verdict is None:
            verdict = connected[union] = _strongly_connected(union, rank) is None
        if verdict:
            passing[position] = 1
        else:
            failing += len(members)
    return failing, bytes(passing)


@functools.lru_cache(maxsize=2 * MAX_CANONICAL_RANK)
def _spaces(rank: int, bound: int, block_space: bool) -> _Rank:
    """The search spaces of one rank with their work units; kept for both
    spaces of every rank at one bound, together with the plans built on
    them (``_plan``), so a search that follows one with the same ranks and
    bound builds neither again, also when it alternates with a search of
    the other space, and forked workers inherit them.

    The block space has one space per split k in 1..r-1: A_s for every B
    and A_t for every B', under S_k x S_{r-k}, which permutes the first k
    and the last r-k indices by (sigma, tau) and so sends the blocks to
    (P_sigma B P_tau^-1, P_tau B' P_sigma^-1).  Rank one cannot split: its
    block space is the rank-one variety at bound 2, (0) and (2), under the
    trivial group.  The F1 variety is one space, under S_r.

    A work unit (j, i) holds the orbits of space j whose least member has
    the i-th A_s of that space; only an A_s that is least in its orbit gets
    one.
    """
    if not block_space or rank == 1:
        variety = tuple(_Generator(a, rank) for a in _f1_matrices(rank, 2 if block_space else bound))
        spaces = [_Space(_conjugations(rank), variety, variety, _support_classes(variety))]
    else:
        spaces = []
        for k in range(1, rank):
            m = rank - k
            gens_s, gens_t = [], []
            for entries in itertools.product(range(bound + 1), repeat=k * m):
                a_s = [0] * (rank * rank)
                a_t = [0] * (rank * rank)
                for i in range(k):
                    a_s[i * rank + i] = 2
                    a_s[i * rank + k : (i + 1) * rank] = entries[i * m : (i + 1) * m]
                for j in range(k, rank):
                    a_t[j * rank : j * rank + k] = entries[(j - k) * k : (j - k + 1) * k]
                    a_t[j * rank + j] = 2
                gens_s.append(_Generator(a_s, rank))
                gens_t.append(_Generator(a_t, rank))
            spaces.append(_Space(_conjugations(k, m), tuple(gens_s), tuple(gens_t), _support_classes(gens_t)))
    units = tuple(
        (j, i)
        for j, space in enumerate(spaces)
        for i, gen_s in enumerate(space.gens_s)
        if all(g(gen_s.flat) >= gen_s.flat for g in space.conjugations)
    )
    return _Rank(tuple(spaces), units, {}, {})


def _orbits(space: _Space, i: int, failing: int, passing: bytes) -> tuple[int, array, array]:
    """(pairs of the unit that fail F3, indices of the representatives' A_t
    in space.gens_t, their orbit sizes) of the unit with the i-th A_s of
    ``space``.  ``failing`` and ``passing`` are the ``_f3_split`` of A_s.

    The space's group G acts on pairs by simultaneous conjugation, and an
    orbit's representative is its least (A_s, A_t).  A_s is fixed by the
    unit and least in its orbit O_s, so the unit holds the pairs of
    O_s x (every A_t), and the orbits through A_s are the orbits of A_t
    under Stab(A_s); the representative has the least A_t of each, and the
    orbit has |G| / |Stab(A_s) & Stab(A_t)| members.  F3 is invariant under
    conjugation and reads only the supports, so the unit has
    |O_s| = |G| / |Stab(A_s)| times as many F3 failures as A_t fail with
    A_s, and only the A_t that pass get representatives.  When Stab(A_s)
    is trivial every one of them is a representative of a whole orbit.
    """
    flat_s = space.gens_s[i].flat
    stabiliser = [g for g in space.conjugations if g(flat_s) == flat_s]
    group_order = len(space.conjugations) + 1
    candidates = itertools.chain.from_iterable(
        itertools.compress(map(operator.itemgetter(1), space.classes), passing)
    )
    if not stabiliser:
        indices = array("I", candidates)
        return failing * group_order, indices, array("H", [group_order]) * len(indices)
    indices, weights = array("I"), array("H")
    gens_t = space.gens_t
    for index in candidates:
        a_t = gens_t[index].flat
        fixed = 1
        for g in stabiliser:
            image = g(a_t)
            if image < a_t:
                break
            fixed += image == a_t
        else:
            indices.append(index)
            weights.append(group_order // fixed)
    return failing * (group_order // (len(stabiliser) + 1)), indices, weights


def _part_lanes(part: tuple[_Space, int, bytes, bytes]) -> Iterator[tuple[_Generator, _Generator, int]]:
    """(A_s, A_t, orbit size) of each representative of a part of a plan
    call, in lane order."""
    space, i, indices, weights = part
    gens_t = map(space.gens_t.__getitem__, memoryview(indices).cast("I"))
    return zip(itertools.repeat(space.gens_s[i]), gens_t, memoryview(weights).cast("H"))


def _call_generators(parts: Sequence[tuple[_Space, int, bytes, bytes]]) -> tuple[list[_Generator], list[_Generator]]:
    """(A_s of each lane, A_t of each lane) of the parts of a plan call."""
    lanes = [lane for part in parts for lane in _part_lanes(part)]
    return [gen_s for gen_s, _, _ in lanes], [gen_t for _, gen_t, _ in lanes]


def _plan(rank: int, bound: int, block_space: bool, judge_f3: bool) -> tuple[_Call, ...]:
    """The kernel calls that judge every unit of a rank, built once per
    (rank, bound, block_space, judge_f3) and kept in the ``_spaces`` entry
    of the rank, so every n and worker count searches with the same plan.

    Nothing in it depends on n.  F3 is judged once per A_s support of each
    space (``_f3_split``), with one table of verdicts by zero pattern that
    lives only while the splits are built.  The orbits of each unit
    follow (``_orbits``), and the calls take whole units in order until
    one holds at least ``_CALL_LANES`` lanes.  A plan of at most
    ``_PLAN_COLUMN_LANES`` lanes keeps the columns of each call
    (``algebra._lane_columns``), so that at each n a call only packs them
    at its width, and only such a plan has the kernel's logs of its calls
    kept beside it (``_Rank``), which lie outside the plan so that the plan
    stays immutable.  It depends on its arguments alone, so a worker that
    did not inherit it would build the same one.
    """
    spaces, units, plans, _ = _spaces(rank, bound, block_space)
    if judge_f3 in plans:
        return plans[judge_f3]
    splits: dict[tuple[int, int], tuple[int, bytes]] = {}
    if judge_f3:
        connected: dict[int, bool] = {}
        for j, i in units:
            support = spaces[j].gens_s[i].support
            if (j, support) not in splits:
                splits[j, support] = _f3_split(rank, support, spaces[j].classes, connected)
        del connected
    groups = []
    failures, parts, lanes, total = 0, [], 0, 0
    for position, (j, i) in enumerate(units, start=1):
        space = spaces[j]
        split = splits[j, space.gens_s[i].support] if judge_f3 else (0, b"\1" * len(space.classes))
        failing, indices, weights = _orbits(space, i, *split)
        failures += failing
        if indices:
            parts.append((space, i, indices.tobytes(), weights.tobytes()))
            lanes += len(indices)
        if lanes < _CALL_LANES and position < len(units):
            continue
        groups.append((failures, tuple(parts)))
        total += lanes
        failures, parts, lanes = 0, [], 0
    keep = total <= _PLAN_COLUMN_LANES
    calls = plans[judge_f3] = tuple(
        _Call(failures, parts, _lane_columns(*_call_generators(parts)) if keep else None) for failures, parts in groups
    )
    return calls


def _judge_units(
    payload: tuple,
) -> tuple[int, tuple[tuple[str, int], ...], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Worker entry point: judge the calls start:stop of the plan
    (``_plan``) of a rank, given (n, rank, bound, enabled, start, stop).

    Returns (pairs evaluated, rejection counts, survivors), each survivor
    the flat (A_s, A_t) of a surviving representative.  Each call charges
    its F3 failures (``_f3_split``) and judges its representatives one lane
    each.  The verdicts come from the call's event log
    (``algebra._replay``): the one the rank's ``_spaces`` entry keeps when
    it was run to some N >= n, else a new ``algebra._kl_recursion`` run to
    n, which replaces the kept one when the plan keeps its columns.  Each
    filter is charged the orbit sizes of the lanes it failed, and the
    surviving lanes are picked, both by the log's lane flags.  A forked
    worker reads the logs the parent kept, and the ones it builds die with
    it, so the reports are the same at every worker count.

    The kernel gives each lane's first failing filter in the order F4, F2,
    F5.  Its preconditions are F1, nonnegative entries and, when F3 is
    enabled, F3: for such pairs this is ``run_filters``' verdict with F7
    off.  F3 is judged before, once per support class of A_t
    (``_f3_split``), so only the pairs that pass it reach the kernel.  F1
    and F7 are not tested; F7 comes last, so with it on the verdict differs
    only where F7 fails, which it never does in the block space.  F4 is
    judged on the partial family as the recursion grows, and F6 is not run:
    F1 and F5 imply it (``run_filters``).
    """
    n, rank, bound, enabled, start, stop = payload
    check_support = "F4" in enabled
    block_space, judge_f3 = "F7" in enabled, "F3" in enabled
    plan = _plan(rank, bound, block_space, judge_f3)
    logs = _spaces(rank, bound, block_space).logs.setdefault((judge_f3, check_support), {})
    evaluated = 0
    rejections: dict[str, int] = {}
    survivors = []
    for position in range(start, stop):
        call = plan[position]
        if call.f3_failures:
            evaluated += call.f3_failures
            rejections["F3"] = rejections.get("F3", 0) + call.f3_failures
        kept = logs.get(position)
        if kept is not None and kept[0] >= n:
            log = kept[1]
        else:
            columns = call.columns if call.columns is not None else _lane_columns(*_call_generators(call.parts))
            log = _kl_recursion(n, columns, check_support)[2]
            if call.columns is not None:
                logs[position] = (n, log)
        weights = memoryview(b"".join([part[3] for part in call.parts])).cast("H")
        lanes = len(weights)
        failed, alive = _replay(log, lanes, n)
        evaluated += sum(weights)
        for tag, bits in failed.items():
            if bits:
                charged = sum(itertools.compress(weights, bits.to_bytes(lanes, "little")))
                rejections[tag] = rejections.get(tag, 0) + charged
        if alive:
            call_lanes = itertools.chain.from_iterable(map(_part_lanes, call.parts))
            chosen = itertools.compress(call_lanes, alive.to_bytes(lanes, "little"))
            survivors += [(gen_s.flat, gen_t.flat) for gen_s, gen_t, _ in chosen]
    return evaluated, tuple(sorted(rejections.items())), survivors


def _rank_budget(rank: int, bound: int, block_space: bool) -> int:
    """A priori size of the search space for one rank (the guard's measure)."""
    if block_space:
        if rank == 1:
            return 4
        return sum((bound + 1) ** (2 * k * (rank - k)) for k in range(1, rank))
    return (bound + 1) ** (rank * rank) + (bound + 1) ** (2 * rank * rank)


def _annotate(
    pair: MatrixPair,
    key: bytes,
    filters: tuple[FilterReport, ...],
    family: Mapping | None = None,
) -> Candidate:
    """The Candidate of a pair that passes every filter it was judged by,
    with the reports ``filters``, whose class has the canonical key ``key``.

    Nothing here runs a filter.  The search passes the pass reports of its
    enabled filters in the attribution order, ``inspect_pair`` those
    ``run_filters`` gave.  The apex and annihilator verdict follow from the
    decomposition by proof, with no further matrix product (``apex_of`` and
    ``annihilator_check`` are the tests' oracles for them).  The extension
    holds ``family``, or else the pair's KL family built when first read
    (``algebra._module_family``).

    Decomposition.  ``reps._module_decomposition`` counts the simples from
    the traces of (ST)^j for j <= n/2, in ceil(floor(n/2)/2) products
    (``reps._rotation_traces``), and checks no relation: a survivor passes
    F1 and F5, so it is a D_n-module, as F1 makes S = A_s - I and
    T = A_t - I involutions and F5 is (ST)^n = I (``run_filters``).
    ``decompose``, which checks them, is the tests' oracle.

    Apex.  A_w0 is rho(b) of an alternating word of length n
    (``run_filters``), the sum of that word and every shorter element,
    which in D_n is the sum of D_n.  So A_w0 = 2n e with e the projection
    onto the V(1,1)-isotypic part: A_w0 is nonzero exactly when V(1,1)
    occurs, and then the apex is J3.  Otherwise it is J1 exactly when A_s = A_t = 0,
    as every longer A_w is then 0 too and A_e = I is not, and J2 else.

    Annihilator.  By Maschke the module is a sum of simples, on which
    Q = A_s + A_t = S + T + 2I acts by 2 + eps + delta on V(eps, delta)
    and on V(n,k) has the two distinct roots of
    x^2 - 4x + 2 - 2cos(2k pi/n), the k-th quadratic factor of
    ``nimrep._two_dim_factor_product``.  So Q is diagonalisable, and
    p(Q) = 0 when p vanishes on its eigenvalues.  Each apex polynomial of
    ``nimrep.global_annihilator`` does: J1 has Q = 0; J2 has no V(1,1),
    so no eigenvalue 4, and x (x-2) P(x) covers 0, 2 and every V(n,k);
    J3's polynomial also has x - 4, and x - 2 for even n, the only n with
    V(1,-1) and V(-1,1).  So the verdict is True.
    """
    n, rank = pair.n, pair.rank
    theta_s, theta_t = pair.theta_s, pair.theta_t
    decomposition = _module_decomposition(n, theta_s, theta_t)
    if decomposition.multiplicity(OneDim(1, 1)):
        apex = "J3"
    elif is_zero_matrix(theta_s) and is_zero_matrix(theta_t):
        apex = "J1"
    else:
        apex = "J2"
    try:
        perron = perron_analysis(mat_add(theta_s, theta_t))
    except ArithmeticError:
        perron = None
    return Candidate(
        pair=pair,
        canonical_key=key,
        filters=filters,
        extension=ExtendedRep(pair, _module_family(n, theta_s, theta_t) if family is None else family),
        apex=apex,
        tag=_tags(n, rank).get(key, Tag("MATRIX_ADMISSIBLE_UNREALIZED", UNKNOWN_CITATION)),
        decomposition=decomposition,
        annihilator_passed=True,
        perron=perron,
    )


def inspect_pair(pair: MatrixPair, disabled: Iterable[str] = ()) -> Candidate:
    """Run the whole pipeline on one pair, REJECTED tags included.

    The pair goes through ``run_filters``.  A rejected pair is tagged
    REJECTED with the first failing filter; a survivor is annotated
    (``_annotate``) with its reports and the family its extension built.
    """
    enabled = normalize_filters(disabled)
    key = canonicalize(pair)
    reports, ext, failed = run_filters(pair, enabled)
    if failed is None:
        return _annotate(pair, key, reports, ext.family)
    return Candidate(
        pair=pair,
        canonical_key=key,
        filters=reports,
        extension=ext,
        apex=apex_of(ext) if ext is not None else None,
        tag=Tag("REJECTED", failed),
        decomposition=None,
        annihilator_passed=None,
        perron=None,
    )


def _classify_rank(
    n: int, rank: int, bound: int, enabled: tuple[str, ...], jobs: int
) -> tuple[int, dict[str, int], list[Candidate]]:
    """(pairs evaluated, rejection counts, candidates by canonical key) of
    one rank.

    The rank's plan (``_plan``) is built, or found, before any worker
    starts, so the kernel calls are the same at every worker count.  With
    ``jobs`` > 1 and more than one call, forked workers judge
    min(4 jobs, calls) runs of consecutive calls (``_judge_units``).  The
    workers' counts are summed, and their survivors are deduped by the
    canonical pair of their class (``_canonical_flat``).  The MatrixPair
    and the key are built once per class, and the class is annotated on
    its canonical pair (``_annotate``) with no filter run again.  That is
    sound: the canonical pair is a simultaneous conjugate P A P^-1 of a
    survivor, possibly with s and t exchanged.  F1, F3 and F7 read
    properties that conjugation and the swap keep (A^2 = 2A, the strong
    connectivity of the graph of A_s + A_t, the two-block shape up to
    reindexing).  The KL recursion commutes with both: the family of the
    conjugate is P A_w P^-1, and the swap relabels the family, the matrix of w going to the element of the same
    length that exchanges s and t in w, and the route to w0 through s to
    the route through t.  So the canonical pair's family is the
    survivor's, conjugated and relabelled: it is nonnegative up to w0
    (F2), no matrix of length 1..n-1 vanishes (F4), and its two routes to
    w0 agree (F5).
    ``test_every_candidate_is_its_inspect_pair`` runs the canonical pair
    of every class of its searches through ``run_filters`` as the
    independent check.
    """
    calls = len(_plan(rank, bound, "F7" in enabled, "F3" in enabled))
    if jobs > 1 and calls > 1:
        import multiprocessing

        # four runs per worker, as pool.map's default chunking cuts a
        # list, so that the runs balance across the pool
        runs = min(4 * jobs, calls)
        payloads = [(n, rank, bound, enabled, k * calls // runs, (k + 1) * calls // runs) for k in range(runs)]
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_judge_units, payloads, chunksize=1)
    else:
        results = [_judge_units((n, rank, bound, enabled, 0, calls))]
    evaluated = 0
    rejections: dict[str, int] = {}
    classes: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for unit_evaluated, unit_rejections, survivors in results:
        evaluated += unit_evaluated
        for filter_id, count in unit_rejections:
            rejections[filter_id] = rejections.get(filter_id, 0) + count
        classes.update(_canonical_flat(rank, flat_s, flat_t) for flat_s, flat_t in survivors)
    passed = tuple(FilterReport(f, True, None) for f in _ATTRIBUTION_ORDER if f in enabled)
    candidates = []
    for flat_s, flat_t in classes:
        pair = MatrixPair(n=n, rank=rank, theta_s=_square(flat_s, rank), theta_t=_square(flat_t, rank))
        candidates.append(_annotate(pair, _serialise(pair), passed))
    candidates.sort(key=operator.attrgetter("canonical_key"))
    return evaluated, rejections, candidates


def _check_search_arguments(n: int, ranks: tuple[int, ...], entry_bound: int, jobs: int, max_states: int = 0) -> None:
    """Reject the arguments of a search that cannot run, before any space
    is built: TypeError for one that is not an int (a bool is not one
    here), ValueError for one out of range, which no int ``max_states`` is."""
    named = (("n", n), *(("a rank", r) for r in ranks), ("the entry bound", entry_bound), ("jobs", jobs))
    for name, value in (*named, ("max_states", max_states)):
        _check_int(value, name)
    if n < 3:
        raise ValueError(f"dihedral parameter must be >= 3, got {n}")
    if not ranks:
        raise ValueError("classify needs at least one rank")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    if len(set(ranks)) != len(ranks):
        raise ValueError("ranks must not repeat")
    if any(r > MAX_CANONICAL_RANK for r in ranks):
        raise ValueError(f"ranks above {MAX_CANONICAL_RANK} are not supported")
    if entry_bound < 1:
        raise ValueError("the entry bound must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


def enumerate_candidates(
    n: int,
    rank: int,
    entry_bound: int = 4,
    disabled: Iterable[str] = (),
    jobs: int = 1,
) -> tuple[Candidate, ...]:
    """All surviving symmetry classes of one rank (no resource guard)."""
    enabled = normalize_filters(disabled)
    _check_search_arguments(n, (rank,), entry_bound, jobs)
    _, _, candidates = _classify_rank(n, rank, entry_bound, enabled, jobs)
    return tuple(candidates)


def classify(
    n: int,
    ranks: Sequence[int] = (1, 2, 3),
    entry_bound: int = 4,
    disabled: Iterable[str] = (),
    jobs: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
) -> ClassificationReport:
    """Classify all ranks, with the a-priori resource guard and full report."""
    started = time.monotonic()
    enabled = normalize_filters(disabled)
    ranks = tuple(ranks)
    _check_search_arguments(n, ranks, entry_bound, jobs, max_states)
    block_space = "F7" in enabled
    budget = sum(_rank_budget(r, entry_bound, block_space) for r in ranks)
    guard_tripped = budget > max_states
    total_evaluated = 0
    total_rejections: dict[str, int] = {}
    all_candidates: list[Candidate] = []
    for rank in () if guard_tripped else ranks:
        evaluated, rejections, candidates = _classify_rank(n, rank, entry_bound, enabled, jobs)
        total_evaluated += evaluated
        for filter_id, count in rejections.items():
            total_rejections[filter_id] = total_rejections.get(filter_id, 0) + count
        all_candidates.extend(candidates)
    all_candidates.sort(key=lambda c: (c.pair.rank, c.canonical_key))
    return ClassificationReport(
        n=n,
        ranks=ranks,
        entry_bound=entry_bound,
        enabled_filters=enabled,
        candidates=tuple(all_candidates),
        states_budget=budget,
        pairs_evaluated=total_evaluated,
        rejection_counts=tuple(sorted(total_rejections.items())),
        guard_limit=max_states,
        guard_tripped=guard_tripped,
        elapsed_seconds=time.monotonic() - started,
    )
