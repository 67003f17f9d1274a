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

Every matrix is prepared once per rank (``algebra._Generator``); the
spaces of every rank of a search stay cached, and forked workers inherit
them, so a unit ships only two indices.  F3 reads only the zero pattern of
A_s + A_t and is invariant under conjugation, so each space groups its A_t
by zero pattern once, one table of F3 verdicts by pattern serves every
space of a rank, and a unit charges |O_s| = |G|/|Stab(A_s)| rejections to
each A_t whose pattern fails with A_s (``_f3_split``); only the A_t that
pass reach the stabiliser test.  The unit's representatives are then
judged together by ``nimrep._first_failure``, one lane each of a single
lane-packed KL recursion.  It skips F1 and F7: F1 holds by construction in
both spaces, F7 in the block space (and it is off in the variety).  It
skips F6 too, which F1 and F5 imply.  Only survivors are squared into a
``MatrixPair``.  The s <-> t swap, which maps the block space of split k
onto that of r-k, is not used to merge orbits in either space: F4 is
judged on the partial family built before an F2 failure, and a swapped
pair can fail at the other leading letter.

``run_filters`` is the one pipeline that renders a verdict with its
witnesses.  Each surviving class goes through it once more, on its
canonical pair, and its extension gives the family the annotation reads
(``_build_candidate``); ``inspect_pair`` runs it on any pair.

Pairs count as the same candidate when simultaneous row/column permutation
and/or exchanging the roles of s and t carries one to the other;
``canonicalize`` picks the lexicographically smallest representative and
serialises it to bytes.  Filters are evaluated in the attribution order
F1, F3, F4, F2, F5, F6, F7 and a rejected pair is charged to the first
failure (F4 is judged as the extension grows, so a support defect is
reported as F4 even when the extension would break down slightly later).

Survivors are tagged:

* REALIZED_CELL(name) when the canonical pair equals a cell module's
  generator pair (checked against Le, Ls, Lt, Lw0 in that order),
* MATRIX_ADMISSIBLE_UNREALIZED(citation) otherwise, with the citation
  looked up in the packaged knowledge table (falling back to
  "unknown: no recorded classification").

Reports are deterministic byte for byte: candidates are sorted by
(rank, canonical key), every candidate is re-evaluated on its canonical
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
import multiprocessing
import operator
import time
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import _Generator, _flatten
from .cells import cell_module, compute_cells, left_cell_name
from .exact import IntMatrix, mat_add
from .nimrep import (
    ExtendedRep,
    ExtensionFailure,
    FilterReport,
    MatrixPair,
    PerronAnalysis,
    annihilator_check,
    apex_of,
    check_block_form,
    check_idempotent,
    check_transitive,
    extend,
    perron_analysis,
    _first_failure,
    _square,
    _strongly_connected,
)
# unused here but stay bound: perfbench/tracing.py wraps these names
from .nimrep import check_apex_support, check_group_relations
from .reps import Decomposition, NotAModuleError, decompose

__all__ = [
    "ALL_FILTERS",
    "TOGGLEABLE_FILTERS",
    "DEFAULT_MAX_STATES",
    "MAX_CANONICAL_RANK",
    "KnowledgeEntry",
    "Tag",
    "Candidate",
    "ClassificationReport",
    "canonicalize",
    "canonical_pair",
    "run_filters",
    "inspect_pair",
    "match_cell_reps",
    "enumerate_candidates",
    "classify",
]

ALL_FILTERS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")
# F1 defines the variety, F2/F5 are produced by the extension itself; only
# the remaining checks can be switched off.
TOGGLEABLE_FILTERS = frozenset({"F3", "F4", "F6", "F7"})
DEFAULT_MAX_STATES = 10_000_000
MAX_CANONICAL_RANK = 6


# -- canonical representatives ---------------------------------------------


def _canonical_flat(pair: MatrixPair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    r = pair.rank
    if r > MAX_CANONICAL_RANK:
        raise ValueError(
            f"canonical keys are only computed up to rank {MAX_CANONICAL_RANK} "
            f"(got {r}); the orbit grows factorially beyond that"
        )
    flat_s, flat_t = tuple(_flatten(pair.theta_s)), tuple(_flatten(pair.theta_t))
    images = [(flat_s, flat_t)] + [(g(flat_s), g(flat_t)) for g in _conjugations(r)]
    return min(min(image, image[::-1]) for image in images)


def canonical_pair(pair: MatrixPair) -> MatrixPair:
    """The representative of the pair's symmetry class used everywhere."""
    flat_s, flat_t = _canonical_flat(pair)
    r = pair.rank
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
    """Evaluate the enabled filters in the attribution order F1, F3, F4, F2,
    F5, F6, F7.

    Returns (reports, extension outcome, first failing filter id or None).
    Evaluation stops at the first failure; the reports list covers exactly
    the filters that ran.  F2 and F5 are the extension itself and always
    run.  After F1 and F3, one one-lane kernel call, ``extend`` with the
    support checked when F4 is enabled, gives F4, F2 and F5 with their
    witnesses: the first of them to fail stops it.

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
    enabled_set = set(enabled) | {"F2", "F5"}
    reports = [check_idempotent(pair)]
    if not reports[-1].passed:
        return tuple(reports), None, "F1"

    if "F3" in enabled_set:
        reports.append(check_transitive(pair))
        if not reports[-1].passed:
            return tuple(reports), None, "F3"

    ext = extend(pair, check_support="F4" in enabled_set)
    outcome = ext.filter_id if isinstance(ext, ExtensionFailure) else None
    for filter_id in ("F4", "F2", "F5", "F6"):
        if filter_id == outcome:
            reports.append(FilterReport(filter_id, False, ext.witness))
            return tuple(reports), ext, outcome
        if filter_id in enabled_set:
            reports.append(FilterReport(filter_id, True, None))

    if "F7" in enabled_set:
        reports.append(check_block_form(pair))
        if not reports[-1].passed:
            return tuple(reports), ext, "F7"

    return tuple(reports), ext, None


# -- knowledge table ---------------------------------------------------------


@dataclass(frozen=True)
class KnowledgeEntry:
    """A recorded verdict about a matrix class that passes all filters."""

    n_pattern: str
    rank: int
    theta_s: IntMatrix
    theta_t: IntMatrix
    status: str
    citation: str

    def matches_n(self, n: int) -> bool:
        pattern = self.n_pattern.strip()
        if pattern == "any":
            return True
        if pattern.startswith("=="):
            return n == int(pattern[2:])
        residue_text, _, modulus_text = pattern.partition("mod")
        if modulus_text:
            return n % int(modulus_text) == int(residue_text)
        raise ValueError(f"unreadable n_pattern {self.n_pattern!r}")


UNKNOWN_CITATION = "unknown: no recorded classification"


@functools.lru_cache(maxsize=None)
def load_knowledge() -> tuple[KnowledgeEntry, ...]:
    raw = json.loads(resources.files("klcells").joinpath("knowledge.json").read_text())
    entries = []
    for item in raw["entries"]:
        entries.append(
            KnowledgeEntry(
                n_pattern=item["n_pattern"],
                rank=int(item["rank"]),
                theta_s=tuple(tuple(int(v) for v in row) for row in item["theta_s"]),
                theta_t=tuple(tuple(int(v) for v in row) for row in item["theta_t"]),
                status=item["status"],
                citation=item["citation"],
            )
        )
    return tuple(entries)


@functools.lru_cache(maxsize=None)
def _knowledge_keys() -> tuple[tuple[int, bytes, KnowledgeEntry], ...]:
    out = []
    for entry in load_knowledge():
        probe = MatrixPair(n=max(3, entry.rank), rank=entry.rank, theta_s=entry.theta_s, theta_t=entry.theta_t)
        out.append((entry.rank, canonicalize(probe), entry))
    return tuple(out)


# -- matching cell modules ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cell_keys(n: int, rank: int) -> tuple[tuple[bytes, str], ...]:
    """(canonical key, cell name) of each left cell of size ``rank``, in the
    order Le, Ls, Lt, Lw0; only those cells' modules are built."""
    order = ["Le", "Ls", "Lt", "Lw0"]
    cells = sorted(
        (cell for cell in compute_cells(n).left_cells if len(cell) == rank),
        key=lambda cell: order.index(left_cell_name(cell)),
    )
    out = []
    for cell in cells:
        a_s, a_t = cell_module(n, cell).generator_pair()
        out.append((canonicalize(MatrixPair(n=n, rank=rank, theta_s=a_s, theta_t=a_t)), left_cell_name(cell)))
    return tuple(out)


def _cell_name(n: int, rank: int, key: bytes) -> str | None:
    """The name of the left cell whose generator pair has this canonical key."""
    for cell_key, name in _cell_keys(n, rank):
        if cell_key == key:
            return name
    return None


def match_cell_reps(n: int, pairs: Sequence[MatrixPair]) -> tuple[str | None, ...]:
    """For each pair, the name of the left cell realizing it, or None."""
    return tuple(_cell_name(n, pair.rank, canonicalize(pair)) for pair in pairs)


# -- candidates and reports ---------------------------------------------------


@dataclass(frozen=True)
class Tag:
    """Classification verdict: kind plus a detail (cell name, citation, filter)."""

    kind: str
    detail: str


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
        return (
            json.dumps(self.to_jsonable(include_timing), indent=2, sort_keys=True) + "\n"
        ).encode("ascii")

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
    and closed under the conjugations, the A_t grouped by support, and
    the F3 verdicts by support, one table for every space of a rank."""

    conjugations: tuple[operator.itemgetter, ...]
    gens_s: tuple[_Generator, ...]
    gens_t: tuple[_Generator, ...]
    classes: tuple[tuple[int, tuple[_Generator, ...]], ...]
    connected: dict[int, bool]


def _support_classes(gens: Iterable[_Generator]) -> tuple[tuple[int, tuple[_Generator, ...]], ...]:
    """(support, generators with that support) for each support, in order
    of first appearance; each group keeps the order of ``gens``."""
    classes: dict[int, list[_Generator]] = {}
    for gen in gens:
        classes.setdefault(gen.support, []).append(gen)
    return tuple((support, tuple(members)) for support, members in classes.items())


def _f3_split(
    rank: int, support_s: int, classes: Iterable[tuple[int, Sequence[_Generator]]], connected: dict[int, bool]
) -> tuple[int, list[_Generator]]:
    """(number of A_t that fail F3 with A_s, the A_t that pass, class by class).

    The pairs are nonnegative, so nothing cancels in A_s + A_t and its zero
    pattern is ``support_s | support``: F3 is judged once per support
    class.  Verdicts are looked up in, or added to, ``connected``, a table
    of verdicts by zero pattern for matrices of this rank.
    """
    failing = 0
    passing: list[_Generator] = []
    for support, members in classes:
        union = support_s | support
        verdict = connected.get(union)
        if verdict is None:
            verdict = connected[union] = _strongly_connected(union, rank) is None
        if verdict:
            passing += members
        else:
            failing += len(members)
    return failing, passing


@functools.lru_cache(maxsize=MAX_CANONICAL_RANK)
def _spaces(rank: int, bound: int, block_space: bool) -> tuple[_Space, ...]:
    """The search spaces of one rank; kept for as many (rank, bound,
    block_space) as one search has ranks, so a search that follows one
    with the same ranks builds none, and forked workers inherit them.

    The block space has one space per split k in 1..r-1: A_s for every B
    and A_t for every B', under S_k x S_{r-k}, which permutes the first k
    and the last r-k indices by (sigma, tau) and so sends the blocks to
    (P_sigma B P_tau^-1, P_tau B' P_sigma^-1).  Rank one cannot split: its
    block space is the rank-one variety at bound 2, (0) and (2), under the
    trivial group.  The F1 variety is one space, under S_r.
    """
    connected: dict[int, bool] = {}
    if not block_space or rank == 1:
        variety = tuple(_Generator(a, rank) for a in _f1_matrices(rank, 2 if block_space else bound))
        return (_Space(_conjugations(rank), variety, variety, _support_classes(variety), connected),)
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
        spaces.append(_Space(_conjugations(k, m), tuple(gens_s), tuple(gens_t), _support_classes(gens_t), connected))
    return tuple(spaces)


def _rank_units(rank: int, bound: int, block_space: bool) -> list[tuple[int, int]]:
    """Deterministic work units for one rank (shipped to workers as-is).

    A unit (j, i) holds the orbits of space j of ``_spaces`` whose least
    member has the i-th A_s of that space; only an A_s that is least in its
    orbit gets one.
    """
    return [
        (j, i)
        for j, space in enumerate(_spaces(rank, bound, block_space))
        for i, gen_s in enumerate(space.gens_s)
        if all(g(gen_s.flat) >= gen_s.flat for g in space.conjugations)
    ]


def _orbits(
    rank: int, bound: int, block_space: bool, unit: tuple[int, int], judge_f3: bool
) -> tuple[_Generator, int, list[tuple[_Generator, int]]]:
    """(prepared A_s, pairs of the unit that fail F3, representatives) of a
    unit, each representative an (A_t, orbit size).

    The space's group G acts on pairs by simultaneous conjugation, and an
    orbit's representative is its least (A_s, A_t).  A_s is fixed by the
    unit and least in its orbit O_s, so the unit holds the pairs of
    O_s x (every A_t), and the orbits through A_s are the orbits of A_t
    under Stab(A_s); the representative has the least A_t of each, and the
    orbit has |G| / |Stab(A_s) & Stab(A_t)| members.  F3 is invariant under
    conjugation and reads only the supports, so with ``judge_f3`` the unit
    has |O_s| = |G| / |Stab(A_s)| times as many F3 failures as A_t fail
    with A_s (``_f3_split``), and only the A_t that pass get representatives.
    """
    j, i = unit
    space = _spaces(rank, bound, block_space)[j]
    gen_s = space.gens_s[i]
    stabiliser = [g for g in space.conjugations if g(gen_s.flat) == gen_s.flat]
    group_order = len(space.conjugations) + 1
    failing, candidates = (
        _f3_split(rank, gen_s.support, space.classes, space.connected) if judge_f3 else (0, space.gens_t)
    )
    representatives = []
    for gen_t in candidates:
        a_t = gen_t.flat
        fixed = 1
        for g in stabiliser:
            image = g(a_t)
            if image < a_t:
                break
            fixed += image == a_t
        else:
            representatives.append((gen_t, group_order // fixed))
    return gen_s, failing * (group_order // (len(stabiliser) + 1)), representatives


def _evaluate_unit(payload: tuple) -> tuple[int, tuple[tuple[str, int], ...], list[tuple]]:
    """Worker entry point: run the pipeline over one unit.

    Returns (pairs evaluated, rejection counts, survivors), where each
    survivor is (canonical key, canonical theta_s, canonical theta_t).
    Survivors are deduplicated within the unit, preserving first-seen order.
    F3 is charged per support class; the representatives of the other
    orbits are judged together, one lane each, and each verdict is charged
    to every pair of its orbit.
    """
    n, rank, bound, enabled, unit = payload
    enabled_set = frozenset(enabled)
    gen_s, f3_failures, representatives = _orbits(rank, bound, "F7" in enabled_set, unit, "F3" in enabled_set)
    evaluated = f3_failures
    rejections: dict[str, int] = {"F3": f3_failures} if f3_failures else {}
    survivors: dict[bytes, tuple] = {}
    outcomes = _first_failure(n, gen_s, [gen_t for gen_t, _ in representatives], enabled_set)
    theta_s = _square(gen_s.flat, rank)
    for (gen_t, weight), failed in zip(representatives, outcomes):
        evaluated += weight
        if failed is not None:
            rejections[failed] = rejections.get(failed, 0) + weight
            continue
        pair = MatrixPair(n=n, rank=rank, theta_s=theta_s, theta_t=_square(gen_t.flat, rank))
        rep = canonical_pair(pair)
        key = _serialise(rep)
        if key not in survivors:
            survivors[key] = (key, rep.theta_s, rep.theta_t)
    return evaluated, tuple(sorted(rejections.items())), list(survivors.values())


def _rank_budget(rank: int, bound: int, block_space: bool) -> int:
    """A priori size of the search space for one rank (the guard's measure)."""
    if block_space:
        if rank == 1:
            return 4
        return sum((bound + 1) ** (2 * k * (rank - k)) for k in range(1, rank))
    return (bound + 1) ** (rank * rank) + (bound + 1) ** (2 * rank * rank)


def _annotate_survivor(
    pair: MatrixPair,
    key: bytes,
    reports: tuple[FilterReport, ...],
    ext: ExtendedRep,
) -> Candidate:
    n, rank = pair.n, pair.rank
    apex = apex_of(ext)
    cell_match = _cell_name(n, rank, key)
    if cell_match is not None:
        tag = Tag("REALIZED_CELL", cell_match)
    else:
        citation = UNKNOWN_CITATION
        for entry_rank, entry_key, entry in _knowledge_keys():
            if entry_rank == rank and entry_key == key and entry.matches_n(n):
                citation = entry.citation
                break
        tag = Tag("MATRIX_ADMISSIBLE_UNREALIZED", citation)
    try:
        decomposition = decompose(n, pair.theta_s, pair.theta_t)
    except NotAModuleError:
        decomposition = None
    annihilator = annihilator_check(ext).passed
    try:
        perron = perron_analysis(mat_add(pair.theta_s, pair.theta_t))
    except ArithmeticError:
        perron = None
    return Candidate(
        pair=pair,
        canonical_key=key,
        filters=reports,
        extension=ext,
        apex=apex,
        tag=tag,
        decomposition=decomposition,
        annihilator_passed=annihilator,
        perron=perron,
    )


def inspect_pair(pair: MatrixPair, disabled: Iterable[str] = ()) -> Candidate:
    """Run the whole pipeline on one pair, REJECTED tags included."""
    enabled = normalize_filters(disabled)
    reports, ext, failed = run_filters(pair, enabled)
    key = canonicalize(pair)
    if failed is not None:
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
    assert isinstance(ext, ExtendedRep)
    return _annotate_survivor(pair, key, reports, ext)


def _build_candidate(n: int, rank: int, key: bytes, theta_s: IntMatrix, theta_t: IntMatrix, enabled: tuple[str, ...]) -> Candidate:
    """Annotate a surviving class on its canonical pair.

    The canonical pair is a conjugate of a pair the search judged a
    survivor, possibly with s and t exchanged, so it survives
    ``run_filters``, whose extension gives the family that ``apex_of`` and
    ``annihilator_check`` read.
    """
    pair = MatrixPair(n=n, rank=rank, theta_s=theta_s, theta_t=theta_t)
    reports, ext, failed = run_filters(pair, enabled)
    assert failed is None, "canonical representatives must survive the same filters"
    return _annotate_survivor(pair, key, reports, ext)


def _merge_unit_results(
    results: Iterable[tuple[int, tuple[tuple[str, int], ...], list[tuple]]],
) -> tuple[int, dict[str, int], dict[bytes, tuple]]:
    evaluated = 0
    rejections: dict[str, int] = {}
    survivors: dict[bytes, tuple] = {}
    for unit_evaluated, unit_rejections, unit_survivors in results:
        evaluated += unit_evaluated
        for filter_id, count in unit_rejections:
            rejections[filter_id] = rejections.get(filter_id, 0) + count
        for key, theta_s, theta_t in unit_survivors:
            survivors.setdefault(key, (key, theta_s, theta_t))
    return evaluated, rejections, survivors


def _classify_rank(
    n: int, rank: int, bound: int, enabled: tuple[str, ...], jobs: int
) -> tuple[int, dict[str, int], list[Candidate]]:
    block_space = "F7" in enabled
    units = _rank_units(rank, bound, block_space)
    payloads = [(n, rank, bound, enabled, unit) for unit in units]
    if jobs > 1 and len(payloads) > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_evaluate_unit, payloads)
    else:
        results = [_evaluate_unit(p) for p in payloads]
    evaluated, rejections, survivors = _merge_unit_results(results)
    ordered = sorted(survivors.values(), key=lambda item: item[0])
    candidates = [
        _build_candidate(n, rank, key, theta_s, theta_t, enabled)
        for key, theta_s, theta_t in ordered
    ]
    return evaluated, rejections, candidates


def _check_search_arguments(n: int, ranks: tuple[int, ...], entry_bound: int, jobs: int) -> None:
    """Reject the arguments of a search that cannot run (ValueError)."""
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
    _check_search_arguments(n, ranks, entry_bound, jobs)
    block_space = "F7" in enabled
    budget = sum(_rank_budget(r, entry_bound, block_space) for r in ranks)
    if budget > max_states:
        return ClassificationReport(
            n=n,
            ranks=ranks,
            entry_bound=entry_bound,
            enabled_filters=enabled,
            candidates=(),
            states_budget=budget,
            pairs_evaluated=0,
            rejection_counts=(),
            guard_limit=max_states,
            guard_tripped=True,
            elapsed_seconds=time.monotonic() - started,
        )
    total_evaluated = 0
    total_rejections: dict[str, int] = {}
    all_candidates: list[Candidate] = []
    for rank in ranks:
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
        guard_tripped=False,
        elapsed_seconds=time.monotonic() - started,
    )
