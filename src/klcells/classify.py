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
bound; its matrices are enumerated flat, each dropped at the first entry
of A^2 that differs from 2A.

Both spaces are searched by orbits of a group that changes no filter
verdict, and one representative per orbit is judged and its verdict is
charged to all |G|/|Stab| pairs of the orbit: ``pairs_evaluated`` and
every rejection count are those of the raw pair-by-pair search.

* In the block space, reindexing within the two blocks, S_k x S_{r-k},
  permutes the rows and columns of the k x (r-k) grid of joint entries
  (B[i][j], B'[j][i]).  The representative is the orbit's
  lexicographically least grid, so each orbit falls in exactly one work
  unit.
* In the variety, S_r acts by simultaneous conjugation
  (A_s, A_t) -> (P A_s P^-1, P A_t P^-1), which commutes with the KL
  recursion.  A work unit is an A_s that is least in its S_r orbit, its
  representatives are the A_t that are least under the stabiliser of A_s,
  and a pair's weight is r! over the order of its stabiliser.

Representatives are judged by ``nimrep``'s flat kernel, which skips F1 and
F7: F1 holds by construction in both spaces, F7 in the block space (and it
is off in the variety), and both are still reported for every survivor,
whose canonical pair re-runs ``run_filters``.  The s <-> t swap, which
maps the block space of split k onto that of r-k, is not used to merge
orbits in either space: F4 is judged on the partial family built before
an F2 failure, and a swapped pair can fail at the other leading letter.

Pairs count as the same candidate when simultaneous row/column permutation
and/or exchanging the roles of s and t carries one to the other;
``canonicalize`` picks the lexicographically smallest representative and
serialises it to bytes.  Filters are evaluated in the attribution order
F1, F3, F4, F2, F5, F6, F7 and a rejected pair is charged to the first
failure (F4 inspects whatever part of the family the extension managed to
build, so a support defect is reported as F4 even when the extension also
broke down slightly later).

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

import bisect
import collections
import functools
import itertools
import json
import math
import multiprocessing
import operator
import time
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

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
    check_apex_support,
    check_block_form,
    check_group_relations,
    check_idempotent,
    check_transitive,
    extend,
    perron_analysis,
    _first_failure,
    _square,
    _twice_idempotent,
)
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


def _apply_permutation(m: IntMatrix, perm: Sequence[int]) -> tuple[int, ...]:
    r = len(perm)
    return tuple(m[perm[i]][perm[j]] for i in range(r) for j in range(r))


def _canonical_flat(pair: MatrixPair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    r = pair.rank
    if r > MAX_CANONICAL_RANK:
        raise ValueError(
            f"canonical keys are only computed up to rank {MAX_CANONICAL_RANK} "
            f"(got {r}); the orbit grows factorially beyond that"
        )
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for perm in itertools.permutations(range(r)):
        flat_s = _apply_permutation(pair.theta_s, perm)
        flat_t = _apply_permutation(pair.theta_t, perm)
        for candidate in ((flat_s, flat_t), (flat_t, flat_s)):
            if best is None or candidate < best:
                best = candidate
    assert best is not None
    return best


def canonical_pair(pair: MatrixPair) -> MatrixPair:
    """The representative of the pair's symmetry class used everywhere."""
    flat_s, flat_t = _canonical_flat(pair)
    r = pair.rank
    return MatrixPair(n=pair.n, rank=r, theta_s=_square(flat_s, r), theta_t=_square(flat_t, r))


def canonicalize(pair: MatrixPair) -> bytes:
    """Canonical bytes of the pair's class (stable across processes/runs)."""
    rep = canonical_pair(pair)
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
    """Evaluate the enabled filters in attribution order.

    Returns (reports, extension outcome, first failing filter id or None).
    Evaluation stops at the first failure; the reports list covers exactly
    the filters that ran.
    """
    enabled_set = set(enabled)
    reports: list[FilterReport] = []

    f1 = check_idempotent(pair)
    reports.append(f1)
    if not f1.passed:
        return tuple(reports), None, "F1"

    if "F3" in enabled_set:
        f3 = check_transitive(pair)
        reports.append(f3)
        if not f3.passed:
            return tuple(reports), None, "F3"

    ext = extend(pair)

    if "F4" in enabled_set:
        f4 = check_apex_support(pair.n, ext)
        reports.append(f4)
        if not f4.passed:
            return tuple(reports), ext, "F4"

    if isinstance(ext, ExtensionFailure):
        if ext.filter_id == "F5":
            reports.append(FilterReport("F2", True, None))
        reports.append(FilterReport(ext.filter_id, False, ext.witness))
        return tuple(reports), ext, ext.filter_id
    reports.append(FilterReport("F2", True, None))
    reports.append(FilterReport("F5", True, None))

    if "F6" in enabled_set:
        f6 = check_group_relations(pair)
        reports.append(f6)
        if not f6.passed:
            return tuple(reports), ext, "F6"

    if "F7" in enabled_set:
        f7 = check_block_form(pair)
        reports.append(f7)
        if not f7.passed:
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
def _cell_keys(n: int) -> tuple[tuple[int, bytes, str], ...]:
    """(size, canonical key, cell name) for Le, Ls, Lt, Lw0 in that order."""
    partition = compute_cells(n)
    ordered = sorted(partition.left_cells, key=lambda c: ["Le", "Ls", "Lt", "Lw0"].index(left_cell_name(c)))
    out = []
    for cell in ordered:
        if len(cell) > MAX_CANONICAL_RANK:
            continue
        module = cell_module(n, cell)
        a_s, a_t = module.generator_pair()
        probe = MatrixPair(n=n, rank=len(cell), theta_s=a_s, theta_t=a_t)
        out.append((len(cell), canonicalize(probe), left_cell_name(cell)))
    return tuple(out)


def match_cell_reps(n: int, pairs: Sequence[MatrixPair]) -> tuple[str | None, ...]:
    """For each pair, the name of the left cell realizing it, or None."""
    matches = []
    for pair in pairs:
        key = canonicalize(pair)
        found = None
        for size, cell_key, name in _cell_keys(n):
            if size == pair.rank and cell_key == key:
                found = name
                break
        matches.append(found)
    return tuple(matches)


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
    """All flat row-major matrices with entries in 0..bound satisfying A^2 = 2A
    (F1, by the predicate ``check_idempotent`` uses)."""
    return tuple(a for a in itertools.product(range(bound + 1), repeat=rank * rank) if _twice_idempotent(a, rank))


def _conjugations(rank: int) -> list[operator.itemgetter]:
    """The non-identity elements of S_r acting on flat r x r matrices,
    A -> (A[p(i)][p(j)])_{ij}, as item getters (empty for rank one)."""
    r = rank
    return [
        operator.itemgetter(*(p[i] * r + p[j] for i in range(r) for j in range(r)))
        for p in itertools.permutations(range(r))
    ][1:]


def _rank_units(n: int, rank: int, bound: int, block_space: bool) -> list[tuple]:
    """Deterministic work units for one rank (shipped to workers as-is).

    A block unit (k, row0) holds the orbits whose least member has B row 0
    equal to row0; that row is sorted, so only sorted rows get a unit.  A
    variety unit (matrices, i) holds the orbits whose least member has
    A_s = matrices[i]; only an A_s that is least in its S_r orbit gets one.
    """
    units: list[tuple] = []
    if block_space:
        if rank == 1:
            for a in (0, 2):
                for b in (0, 2):
                    units.append(("degenerate", a, b))
            return units
        for k in range(1, rank):
            for row0 in itertools.combinations_with_replacement(range(bound + 1), rank - k):
                units.append(("block", k, row0))
        return units
    matrices = _f1_matrices(rank, bound)
    conjugations = _conjugations(rank)
    for i, a in enumerate(matrices):
        if all(g(a) >= a for g in conjugations):
            units.append(("variety", matrices, i))
    return units


def _variety_orbits(rank: int, unit: tuple) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(flat A_s, flat A_t, orbit size) for each S_r orbit of a variety unit.

    S_r acts on pairs by simultaneous conjugation.  A_s is fixed by the
    unit and least in its orbit, so the orbits of pairs through it are the
    orbits of A_t under Stab(A_s); the representative is the least A_t of
    each, and the pair's orbit has r! / |Stab(A_s) & Stab(A_t)| members.
    """
    _, matrices, i = unit
    a_s = matrices[i]
    stabiliser = [g for g in _conjugations(rank) if g(a_s) == a_s]
    group_order = math.factorial(rank)
    for a_t in matrices:
        fixed = 1
        for g in stabiliser:
            image = g(a_t)
            if image < a_t:
                break
            fixed += image == a_t
        else:
            yield a_s, a_t, group_order // fixed


def _block_orbits(rank: int, bound: int, unit: tuple) -> Iterator[tuple[list[int], list[int], int]]:
    """(flat A_s, flat A_t, orbit size) for each orbit of a unit.

    S_k x S_{r-k} permutes the rows and columns of the k x (r-k) grid of
    joint entries (B[i][j], B'[j][i]), coded as B[i][j] * (bound+1) +
    B'[j][i].  The representative is the orbit's least grid, read row by
    row: its rows are sorted, which the choice of rows as a multiset
    (combinations with replacement) already ensures, and no column
    permutation followed by re-sorting the rows gives a smaller grid.  The
    orbit size is k! (r-k)! over the stabiliser: the column permutations
    that give the grid back, times the row permutations among equal rows.
    """
    if unit[0] == "degenerate":
        _, a, b = unit
        yield [a], [b], 1
        return
    _, k, row0 = unit
    m = rank - k
    base = bound + 1
    group_order = math.factorial(k) * math.factorial(m)
    column_perms = list(itertools.permutations(range(m)))[1:]
    rows = list(itertools.product(range(base * base), repeat=m)) if k > 1 else []
    least = [tuple(sorted(row)) for row in rows]
    for first in itertools.product(*([b * base + c for c in range(base)] for b in row0)):
        # row 0 is the least row under every column permutation, so it is
        # sorted and no other row sorts below it
        if first != tuple(sorted(first)):
            continue
        start = bisect.bisect_left(rows, first)
        pool = [row for row, low in zip(rows[start:], least[start:]) if low >= first]
        for rest in itertools.combinations_with_replacement(pool, k - 1):
            grid = [first, *rest]
            stabiliser = 1
            for perm in column_perms:
                image = sorted(tuple(row[j] for j in perm) for row in grid)
                if image < grid:
                    break
                stabiliser += image == grid
            else:
                for count in collections.Counter(grid).values():
                    stabiliser *= math.factorial(count)
                a_s = [0] * (rank * rank)
                a_t = [0] * (rank * rank)
                for i, row in enumerate(grid):
                    a_s[i * rank + i] = 2
                    for j, code in enumerate(row):
                        a_s[i * rank + k + j], a_t[(k + j) * rank + i] = divmod(code, base)
                for j in range(k, rank):
                    a_t[j * rank + j] = 2
                yield a_s, a_t, group_order // stabiliser


def _evaluate_unit(payload: tuple) -> tuple[int, tuple[tuple[str, int], ...], list[tuple]]:
    """Worker entry point: run the pipeline over one unit.

    Returns (pairs evaluated, rejection counts, survivors), where each
    survivor is (canonical key, canonical theta_s, canonical theta_t).
    Survivors are deduplicated within the unit, preserving first-seen order.
    One representative per orbit is judged with the flat kernel, and its
    verdict is charged to every pair of the orbit.
    """
    n, rank, bound, enabled, unit = payload
    if unit[0] == "variety":
        orbits = _variety_orbits(rank, unit)
    else:
        orbits = _block_orbits(rank, bound, unit)
    enabled_set = frozenset(enabled)
    evaluated = 0
    rejections: dict[str, int] = {}
    survivors: dict[bytes, tuple] = {}
    for a_s, a_t, weight in orbits:
        evaluated += weight
        failed = _first_failure(n, rank, a_s, a_t, enabled_set)
        if failed is not None:
            rejections[failed] = rejections.get(failed, 0) + weight
            continue
        pair = MatrixPair(n=n, rank=rank, theta_s=_square(a_s, rank), theta_t=_square(a_t, rank))
        rep = canonical_pair(pair)
        key = canonicalize(rep)
        if key not in survivors:
            survivors[key] = (key, rep.theta_s, rep.theta_t)
    return evaluated, tuple(sorted(rejections.items())), list(survivors.values())


def _rank_budget(rank: int, bound: int, block_space: bool) -> int:
    """A priori size of the search space for one rank (the guard's measure)."""
    if block_space:
        if rank == 1:
            return 4
        return sum((bound + 1) ** (2 * k * (rank - k)) for k in range(1, rank))
    # Worst case for the brute-force space: every matrix could satisfy F1.
    return (bound + 1) ** (rank * rank) + (bound + 1) ** (2 * rank * rank)


def _annotate_survivor(
    pair: MatrixPair,
    key: bytes,
    reports: tuple[FilterReport, ...],
    ext: ExtendedRep,
) -> Candidate:
    n, rank = pair.n, pair.rank
    apex = apex_of(ext)
    cell_match = match_cell_reps(n, [pair])[0]
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
    pair = MatrixPair(n=n, rank=rank, theta_s=theta_s, theta_t=theta_t)
    reports, ext, failed = run_filters(pair, enabled)
    assert failed is None and isinstance(ext, ExtendedRep), (
        "canonical representatives must survive the same filters"
    )
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
    units = _rank_units(n, rank, bound, block_space)
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
