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
bound, found by brute force.

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

import functools
import itertools
import json
import multiprocessing
import time
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

from .cells import cell_module, compute_cells, left_cell_name
from .exact import IntMatrix, mat_add, mat_mul, mat_scale
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
    unflatten = lambda flat: tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(r))
    return MatrixPair(n=pair.n, rank=r, theta_s=unflatten(flat_s), theta_t=unflatten(flat_t))


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


def _block_pair(
    rank: int, k: int, b_rows: Sequence[Sequence[int]], bp_rows: Sequence[Sequence[int]], n: int
) -> MatrixPair:
    theta_s = tuple(
        tuple((2 if i == j else 0) for j in range(k)) + tuple(b_rows[i]) for i in range(k)
    ) + tuple((0,) * rank for _ in range(rank - k))
    theta_t = tuple((0,) * rank for _ in range(k)) + tuple(
        tuple(bp_rows[i]) + tuple((2 if i == j else 0) for j in range(rank - k))
        for i in range(rank - k)
    )
    return MatrixPair(n=n, rank=rank, theta_s=theta_s, theta_t=theta_t)


def _f1_matrices(rank: int, bound: int) -> tuple[IntMatrix, ...]:
    """All matrices with entries in 0..bound satisfying A^2 = 2A (brute force)."""
    found = []
    for flat in itertools.product(range(bound + 1), repeat=rank * rank):
        m = tuple(tuple(flat[i * rank + j] for j in range(rank)) for i in range(rank))
        if mat_mul(m, m) == mat_scale(2, m):
            found.append(m)
    return tuple(found)


def _rank_units(n: int, rank: int, bound: int, block_space: bool) -> list[tuple]:
    """Deterministic work units for one rank (shipped to workers as-is)."""
    units: list[tuple] = []
    if block_space:
        if rank == 1:
            for a in (0, 2):
                for b in (0, 2):
                    units.append(("degenerate", a, b))
            return units
        for k in range(1, rank):
            for row0 in itertools.product(range(bound + 1), repeat=rank - k):
                units.append(("block", k, row0))
        return units
    matrices = _f1_matrices(rank, bound)
    for i in range(len(matrices)):
        units.append(("pair_row", matrices, i))
    return units


def _unit_pairs(n: int, rank: int, bound: int, unit: tuple) -> Iterator[MatrixPair]:
    kind = unit[0]
    if kind == "degenerate":
        _, a, b = unit
        yield MatrixPair(n=n, rank=1, theta_s=((a,),), theta_t=((b,),))
        return
    if kind == "block":
        _, k, row0 = unit
        rest_b = itertools.product(
            itertools.product(range(bound + 1), repeat=rank - k), repeat=k - 1
        )
        for tail in rest_b:
            b_rows = (tuple(row0),) + tuple(tail)
            for bp_rows in itertools.product(
                itertools.product(range(bound + 1), repeat=k), repeat=rank - k
            ):
                yield _block_pair(rank, k, b_rows, bp_rows, n)
        return
    if kind == "pair_row":
        _, matrices, i = unit
        left = matrices[i]
        for right in matrices:
            yield MatrixPair(n=n, rank=rank, theta_s=left, theta_t=right)
        return
    raise AssertionError(f"unknown unit kind {kind!r}")


def _evaluate_unit(payload: tuple) -> tuple[int, tuple[tuple[str, int], ...], list[tuple]]:
    """Worker entry point: run the pipeline over one unit's pairs.

    Returns (pairs evaluated, rejection counts, survivors), where each
    survivor is (canonical key, canonical theta_s, canonical theta_t).
    Survivors are deduplicated within the unit, preserving first-seen order.
    """
    n, rank, bound, enabled, unit = payload
    evaluated = 0
    rejections: dict[str, int] = {}
    survivors: dict[bytes, tuple] = {}
    for pair in _unit_pairs(n, rank, bound, unit):
        evaluated += 1
        _, _, failed = run_filters(pair, enabled)
        if failed is not None:
            rejections[failed] = rejections.get(failed, 0) + 1
            continue
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


def enumerate_candidates(
    n: int,
    rank: int,
    entry_bound: int = 4,
    disabled: Iterable[str] = (),
    jobs: int = 1,
) -> tuple[Candidate, ...]:
    """All surviving symmetry classes of one rank (no resource guard)."""
    enabled = normalize_filters(disabled)
    if n < 3:
        raise ValueError(f"dihedral parameter must be >= 3, got {n}")
    if rank > MAX_CANONICAL_RANK:
        raise ValueError(f"ranks above {MAX_CANONICAL_RANK} are not supported")
    if entry_bound < 1:
        raise ValueError("the entry bound must be at least 1")
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
