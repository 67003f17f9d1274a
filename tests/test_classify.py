"""Canonical forms, the filter pipeline, and the rank-by-rank search."""

import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from klcells.algebra import structure_constants
from klcells.cells import cell_module, right_cell_module
from klcells.classify import (
    ALL_FILTERS,
    DEFAULT_MAX_STATES,
    MAX_CANONICAL_RANK,
    TOGGLEABLE_FILTERS,
    UNKNOWN_CITATION,
    KnowledgeEntry,
    _cell_keys,
    _f1_matrices,
    _orbits,
    _rank_units,
    canonical_pair,
    canonicalize,
    classify,
    enumerate_candidates,
    inspect_pair,
    load_knowledge,
    match_cell_reps,
    normalize_filters,
    run_filters,
)
from klcells.nimrep import MatrixPair, _flatten, _square, check_block_form, check_transitive
import oracles
from oracles import (
    block_pair,
    decompose_oracle,
    evaluate_raw_unit,
    extend_oracle,
    f1_matrices_oracle,
    mat_mul_oracle,
    raw_units,
    run_filters_oracle,
)

# the package's ``classify`` attribute is the function; this is the module
classify_module = sys.modules["klcells.classify"]

CELL3_S = ((0, 0, 0), (0, 0, 0), (1, 1, 2))
CELL3_T = ((2, 0, 1), (0, 2, 1), (0, 0, 0))
UNREAL2_S = ((2, 2), (0, 0))
UNREAL2_T = ((0, 0), (1, 2))
ONES = ((1, 1), (1, 1))


def pair(n, theta_s, theta_t):
    return MatrixPair.from_matrices(n, theta_s, theta_t)


def permuted(p, perm, swap):
    rank = p.rank
    def apply(m):
        return tuple(
            tuple(m[perm[i]][perm[j]] for j in range(rank)) for i in range(rank)
        )
    theta_s, theta_t = apply(p.theta_s), apply(p.theta_t)
    if swap:
        theta_s, theta_t = theta_t, theta_s
    return MatrixPair.from_matrices(p.n, theta_s, theta_t)


def test_canonicalize_is_orbit_invariant():
    rng = random.Random(60221)
    for _ in range(150):
        rank = rng.randint(1, 4)
        p = pair(
            4,
            tuple(tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(rank)),
            tuple(tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(rank)),
        )
        perm = list(range(rank))
        rng.shuffle(perm)
        other = permuted(p, perm, rng.random() < 0.5)
        assert canonicalize(other) == canonicalize(p)


def test_canonical_pair_matches_the_permutation_oracle():
    # the least (flat A_s, flat A_t) over every simultaneous permutation,
    # with and without the s <-> t swap
    rng = random.Random(5040)
    for _ in range(120):
        rank = rng.randint(1, 5)
        p = pair(
            4,
            tuple(tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rank)),
            tuple(tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rank)),
        )
        flat_s, flat_t = tuple(_flatten(p.theta_s)), tuple(_flatten(p.theta_t))
        images = [(conjugate(flat_s, perm), conjugate(flat_t, perm)) for perm in itertools.permutations(range(rank))]
        best = min(min(image, image[::-1]) for image in images)
        assert canonical_pair(p) == pair(4, _square(best[0], rank), _square(best[1], rank))


def test_canonical_pair_is_idempotent():
    rng = random.Random(1202)
    for _ in range(60):
        rank = rng.randint(1, 3)
        p = pair(
            5,
            tuple(tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rank)),
            tuple(tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rank)),
        )
        cp = canonical_pair(p)
        assert canonical_pair(cp) == cp
        assert canonicalize(cp) == canonicalize(p)


def test_canonicalize_examples():
    p = pair(4, UNREAL2_S, UNREAL2_T)
    swapped = pair(4, UNREAL2_T, UNREAL2_S)
    assert canonicalize(p) == canonicalize(swapped)
    assert canonicalize(p) == b'{"rank":2,"theta_s":[[0,0],[1,2]],"theta_t":[[2,2],[0,0]]}'
    zero = pair(4, ((0,),), ((0,),))
    assert canonical_pair(zero) == zero
    # canonical bytes are valid compact JSON
    obj = json.loads(canonicalize(pair(4, CELL3_S, CELL3_T)))
    assert obj["rank"] == 3


def test_canonicalize_rank_cap():
    big = pair(4, tuple((0,) * 7 for _ in range(7)), tuple((0,) * 7 for _ in range(7)))
    with pytest.raises(ValueError):
        canonicalize(big)
    assert MAX_CANONICAL_RANK == 6


def test_normalize_filters():
    assert normalize_filters(()) == ALL_FILTERS
    assert normalize_filters(("F7",)) == ("F1", "F2", "F3", "F4", "F5", "F6")
    assert set(normalize_filters(("F3", "F4", "F6", "F7"))) == {"F1", "F2", "F5"}
    with pytest.raises(ValueError):
        normalize_filters(("F1",))  # F1 is structural, not toggleable
    with pytest.raises(ValueError):
        normalize_filters(("F9",))
    assert TOGGLEABLE_FILTERS == frozenset({"F3", "F4", "F6", "F7"})


def test_knowledge_entries():
    entries = load_knowledge()
    assert len(entries) == 2
    assert all(e.status == "EXCLUDED_CATEGORICALLY" for e in entries)
    assert all(e.citation == "Thm. noSimple" for e in entries)
    by_pattern = {e.n_pattern: e for e in entries}
    assert by_pattern["0 mod 4"].theta_s == ((2, 2), (0, 0))
    assert by_pattern["0 mod 6"].theta_s == ((2, 3), (0, 0))
    assert by_pattern["0 mod 4"].matches_n(4)
    assert by_pattern["0 mod 4"].matches_n(8)
    assert not by_pattern["0 mod 4"].matches_n(6)
    assert by_pattern["0 mod 6"].matches_n(6)
    assert not by_pattern["0 mod 6"].matches_n(4)


def test_knowledge_pattern_grammar():
    def entry(p):
        return KnowledgeEntry(
            n_pattern=p, rank=1, theta_s=((0,),), theta_t=((0,),), status="X", citation="c"
        )

    assert entry("any").matches_n(3)
    assert entry("== 5").matches_n(5)
    assert not entry("== 5").matches_n(6)
    assert entry("2 mod 3").matches_n(5)
    assert not entry("2 mod 3").matches_n(6)
    with pytest.raises(ValueError):
        entry("sometimes").matches_n(5)


def test_match_cell_reps():
    probes = (
        pair(4, UNREAL2_S, UNREAL2_T),
        pair(4, ((0,),), ((0,),)),
        pair(4, ((2,),), ((2,),)),
        pair(4, CELL3_S, CELL3_T),
    )
    assert match_cell_reps(4, probes) == (None, "Le", "Lw0", "Ls")


def test_run_filters_attribution_order():
    enabled = normalize_filters(())
    # disconnected quiver: F3 speaks first
    reports, extension, first_fail = run_filters(pair(4, ((2,), ), ((2,),)), enabled)
    assert first_fail is None and extension is not None
    reports, extension, first_fail = run_filters(
        pair(4, ((2, 0), (0, 2)), ((2, 0), (0, 2))), enabled
    )
    assert first_fail == "F3"
    # vanishing generator inside a live cell: F4 wins over the F2 breakdown
    reports, extension, first_fail = run_filters(pair(4, ((2,),), ((0,),)), enabled)
    assert first_fail == "F4"
    # negative entry without a support defect: F2
    reports, extension, first_fail = run_filters(
        pair(4, ((2, 1), (0, 0)), ((0, 0), (1, 2))), enabled
    )
    assert first_fail == "F4"  # partial family has A_sts = 0 at n=4
    # route disagreement: F5
    reports, extension, first_fail = run_filters(
        pair(4, ((2, 1), (0, 0)), ((0, 0), (3, 2))), enabled
    )
    assert first_fail == "F5"
    # group relations: all-ones passes F6 but fails F7 last
    reports, extension, first_fail = run_filters(pair(4, ONES, ONES), enabled)
    assert first_fail == "F7"
    assert [r.filter_id for r in reports] == ["F1", "F3", "F4", "F2", "F5", "F6", "F7"]
    # with F7 off the same pair survives
    reports, extension, first_fail = run_filters(pair(4, ONES, ONES), normalize_filters(("F7",)))
    assert first_fail is None
    assert extension is not None
    # the F4 witness is the first vanishing matrix, one input per length (F3
    # off, which the first four fail): A_s though A_t is built too, A_t,
    # then the first matrix the extension finds zero
    no_f3 = normalize_filters(("F3",))
    for n, theta_s, theta_t, element in (
        (4, ((0, 0), (0, 0)), ((0, 0), (0, 2)), "s"),
        (4, ((0, 0), (0, 2)), ((0, 0), (0, 0)), "t"),
        (4, ((0, 0), (0, 2)), ((2, 0), (0, 0)), "st"),
        (4, ((0, 0), (0, 2)), ((2, 0), (1, 0)), "ts"),
        (4, ((0, 0), (1, 2)), ((2, 1), (0, 0)), "sts"),
        (5, ((0, 0), (0, 2)), ((1, 1), (1, 1)), "stst"),
    ):
        witness = f"A_{element} = 0 inside a two-sided cell with nonzero members"
        for pipeline in (run_filters, run_filters_oracle):
            reports, _, first_fail = pipeline(pair(n, theta_s, theta_t), no_f3)
            assert first_fail == "F4" and reports[-1].witness == witness, (pipeline.__name__, element)


def test_inspect_pair_rejected():
    candidate = inspect_pair(pair(4, ((2,),), ((0,),)))
    assert candidate.tag.kind == "REJECTED"
    assert candidate.tag.detail == "F4"
    failed = [r for r in candidate.filters if not r.passed]
    assert failed and failed[0].filter_id == "F4"
    assert candidate.decomposition is None


def test_inspect_pair_survivor():
    candidate = inspect_pair(pair(4, UNREAL2_S, UNREAL2_T))
    assert candidate.tag.kind == "MATRIX_ADMISSIBLE_UNREALIZED"
    assert candidate.tag.detail == "Thm. noSimple"
    assert candidate.apex == "J2"
    assert candidate.annihilator_passed is True
    assert candidate.decomposition is not None
    assert candidate.decomposition.render() == "V(4,1)"
    assert candidate.perron is not None
    assert candidate.perron.irreducible


def test_inspect_pair_with_disabled_filter():
    default = inspect_pair(pair(4, ONES, ONES))
    assert default.tag.kind == "REJECTED"
    assert default.tag.detail == "F7"
    relaxed = inspect_pair(pair(4, ONES, ONES), disabled=("F7",))
    assert relaxed.tag.kind == "MATRIX_ADMISSIBLE_UNREALIZED"
    assert relaxed.tag.detail == UNKNOWN_CITATION
    assert "F7" not in [r.filter_id for r in relaxed.filters]
    assert relaxed.decomposition is not None
    assert relaxed.decomposition.render() == "V(1,1) ⊕ V(-1,-1)"


def test_enumerate_rank_one():
    candidates = enumerate_candidates(4, 1)
    keys = {c.pair.theta_s[0][0] for c in candidates}
    assert keys == {0, 2}
    tags = {(c.tag.kind, c.tag.detail) for c in candidates}
    assert tags == {("REALIZED_CELL", "Le"), ("REALIZED_CELL", "Lw0")}


def test_enumerate_rank_two():
    candidates = enumerate_candidates(4, 2)
    assert len(candidates) == 1
    assert candidates[0].canonical_key == canonicalize(pair(4, UNREAL2_S, UNREAL2_T))
    assert candidates[0].tag.kind == "MATRIX_ADMISSIBLE_UNREALIZED"


def test_enumerate_rank_three():
    candidates = enumerate_candidates(4, 3)
    assert len(candidates) == 1
    assert candidates[0].canonical_key == canonicalize(pair(4, CELL3_S, CELL3_T))
    assert candidates[0].tag.kind == "REALIZED_CELL"
    assert candidates[0].tag.detail in ("Ls", "Lt")


def test_candidates_are_swap_closed():
    # the emitted canonical key is invariant under exchanging the two matrices
    report = classify(4)
    assert report.candidates
    for candidate in report.candidates:
        mirrored = pair(4, candidate.pair.theta_t, candidate.pair.theta_s)
        assert canonicalize(mirrored) == candidate.canonical_key


def test_realized_cells_are_sound():
    # every REALIZED_CELL label points at a cell whose module has the same key
    found = 0
    for n in (3, 4, 5):
        for candidate in classify(n).candidates:
            if candidate.tag.kind != "REALIZED_CELL":
                continue
            found += 1
            module = cell_module(n, candidate.tag.detail)
            module_pair = MatrixPair.from_matrices(n, *module.generator_pair())
            assert canonicalize(module_pair) == candidate.canonical_key
    assert found >= 6


def test_f7_off_admits_the_all_ones_pair():
    candidates = enumerate_candidates(4, 2, disabled=("F7",))
    keys = {c.canonical_key for c in candidates}
    assert canonicalize(pair(4, ONES, ONES)) in keys
    assert canonicalize(pair(4, UNREAL2_S, UNREAL2_T)) in keys
    ones_candidate = next(
        c for c in candidates if c.canonical_key == canonicalize(pair(4, ONES, ONES))
    )
    assert ones_candidate.tag.kind == "MATRIX_ADMISSIBLE_UNREALIZED"
    assert ones_candidate.tag.detail == UNKNOWN_CITATION


def test_cold_classify_builds_no_structure_constant_table():
    # matching survivors against cell modules, and building any cell module,
    # needs only the generator pair of the cell, never the whole 4n^2 table
    structure_constants.cache_clear()
    _cell_keys.cache_clear()
    report = classify(24, ranks=(1,))
    assert [c.tag.detail for c in report.candidates] == ["Le", "Lw0"]
    for name in ("Le", "Ls", "Lt", "Lw0"):
        cell_module(24, name)
    for name in ("Re", "Rs", "Rt", "Rw0"):
        right_cell_module(24, name)
    assert structure_constants.cache_info().currsize == 0


def test_cell_matching_builds_only_the_cells_of_a_searched_rank(monkeypatch):
    # at n = 6, Ls and Lt have five elements: a search of ranks 1-4 builds
    # the modules of Le and Lw0 only, a rank-5 search those of Ls and Lt
    built = []
    original = classify_module.cell_module

    def counting(n, cell):
        built.append(len(cell))
        return original(n, cell)

    monkeypatch.setattr(classify_module, "cell_module", counting)
    _cell_keys.cache_clear()
    try:
        report = classify(6, ranks=(1, 2, 3, 4), entry_bound=2)
        assert built == [1, 1]
        assert [c.tag.detail for c in report.candidates if c.tag.kind == "REALIZED_CELL"] == ["Le", "Lw0"]
        assert _cell_keys(6, 5) == (
            (canonicalize(pair(6, *original(6, "Ls").generator_pair())), "Ls"),
            (canonicalize(pair(6, *original(6, "Lt").generator_pair())), "Lt"),
        )
        assert built == [1, 1, 5, 5]
    finally:
        _cell_keys.cache_clear()


def test_entry_bound_stability_small():
    # raising the entry bound does not create or destroy rank <= 2 candidates
    for n in (3, 4):
        for rank in (1, 2):
            low = {c.canonical_key for c in enumerate_candidates(n, rank, entry_bound=4)}
            high = {c.canonical_key for c in enumerate_candidates(n, rank, entry_bound=6)}
            assert low == high


def test_classify_report_shape():
    report = classify(4)
    assert report.n == 4
    assert report.ranks == (1, 2, 3)
    assert report.entry_bound == 4
    assert report.enabled_filters == ALL_FILTERS
    assert report.states_budget == 1279
    assert report.pairs_evaluated == 1279
    assert report.rejection_counts == (("F3", 747), ("F4", 3), ("F5", 523))
    assert not report.guard_tripped
    assert report.guard_limit == DEFAULT_MAX_STATES
    assert len(report.candidates) == 4
    ranks = [c.pair.rank for c in report.candidates]
    assert ranks == sorted(ranks)


def test_classify_render_text():
    text = classify(4).render_text()
    assert "rank 1: 2 candidate(s)" in text
    assert "rank 2: 1 candidate(s)" in text
    assert "rank 3: 1 candidate(s)" in text
    assert "REALIZED_CELL(Le)" in text
    assert "MATRIX_ADMISSIBLE_UNREALIZED(Thm. noSimple)" in text
    assert "rejections: F3: 747, F4: 3, F5: 523" in text


def test_classify_json_bytes():
    report = classify(4, ranks=(1, 2))
    blob = report.to_json_bytes()
    obj = json.loads(blob)
    assert obj["n"] == 4
    assert obj["pairs_evaluated"] == 29
    assert "elapsed_seconds" not in obj
    timed = json.loads(json.dumps(report.to_jsonable(include_timing=True)))
    assert "elapsed_seconds" in timed
    # repeated runs serialize to identical bytes
    assert classify(4, ranks=(1, 2)).to_json_bytes() == blob


def test_classify_parallel_matches_serial():
    # rank 3 and 4 have nontrivial S_k x S_{r-k} orbits, spread over units;
    # with F7 off the S_r orbits of the variety are spread over units too
    searches = (
        {"ranks": (1, 2), "entry_bound": 4},
        {"ranks": (1, 2, 3, 4), "entry_bound": 2},
        {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": ("F7",), "max_states": 10**9},
    )
    for search in searches:
        serial = classify(4, jobs=1, **search).to_json_bytes()
        parallel = classify(4, jobs=2, **search).to_json_bytes()
        assert serial == parallel


# -- orbit representatives of the block space ----------------------------------


def orbits(rank, bound, block_space):
    """(flat A_s, flat A_t, orbit size) of the representatives of one rank."""
    for unit in _rank_units(rank, bound, block_space):
        gen_s, _, representatives = _orbits(rank, bound, block_space, unit, False)
        for gen_t, weight in representatives:
            yield gen_s.flat, gen_t.flat, weight


def block_split(rank, a_s):
    """k of a block pair: A_s = [[2I_k, B], [0, 0]]."""
    return sum(a_s[i * (rank + 1)] for i in range(rank)) // 2


def block_grid(rank, k, a_s, a_t):
    """The k x (r-k) grid of joint entries (B[i][j], B'[j][i])."""
    return tuple(
        tuple((a_s[i * rank + k + j], a_t[(k + j) * rank + i]) for j in range(rank - k)) for i in range(k)
    )


def block_flats(rank, k, grid):
    """The flat (A_s, A_t) of the block pair with this joint grid."""
    b_rows = [[b for b, _ in row] for row in grid]
    bp_rows = [[grid[i][j][1] for i in range(k)] for j in range(rank - k)]
    p = block_pair(4, rank, k, b_rows, bp_rows)
    return tuple(_flatten(p.theta_s)), tuple(_flatten(p.theta_t))


def block_orbits(rank, bound, k):
    """Representatives of one split, as (flat A_s, flat A_t, orbit size)."""
    for a_s, a_t, weight in orbits(rank, bound, True):
        if block_split(rank, a_s) == k:
            yield a_s, a_t, weight


def test_degenerate_rank_one_units():
    for bound in (1, 2):
        # rank one cannot split: the four pairs of (0) and (2), one per orbit
        assert list(orbits(1, bound, True)) == [
            ((0,), (0,), 1), ((0,), (2,), 1), ((2,), (0,), 1), ((2,), (2,), 1)
        ]


def test_orbit_weights_sum_to_the_block_space():
    for rank in range(2, 6):
        for bound in (1, 2):
            for k in range(1, rank):
                total = sum(weight for _, _, weight in block_orbits(rank, bound, k))
                assert total == (bound + 1) ** (2 * k * (rank - k)), (rank, bound, k)


def test_orbit_representatives_are_least_and_partition_the_space():
    # the oracle orbit permutes the rows and the columns of the joint grid
    for rank in range(2, 5):
        for bound in (1, 2):
            base = bound + 1
            for k in range(1, rank):
                m = rank - k
                covered = set()
                for a_s, a_t, weight in block_orbits(rank, bound, k):
                    grid = block_grid(rank, k, a_s, a_t)
                    assert block_flats(rank, k, grid) == (a_s, a_t)
                    orbit = {
                        block_flats(rank, k, [[grid[rows[i]][cols[j]] for j in range(m)] for i in range(k)])
                        for rows in itertools.permutations(range(k))
                        for cols in itertools.permutations(range(m))
                    }
                    assert min(orbit) == (a_s, a_t)
                    assert len(orbit) == weight
                    assert len({canonicalize(pair(4, _square(s, rank), _square(t, rank))) for s, t in orbit}) == 1
                    assert not orbit & covered
                    covered |= orbit
                assert len(covered) == base ** (2 * k * m)


def raw_pair_report(monkeypatch, n, **kwargs):
    """The report of a search that runs run_filters_oracle on every raw pair.

    Block pairs are extended by the tuple oracle, both for their verdicts
    and for the family of each survivor's annotation; variety pairs by
    ``extend``, which the whole-space tests compare with that oracle.
    """
    with monkeypatch.context() as patched:
        patched.setattr(classify_module, "_rank_units", raw_units)
        patched.setattr(classify_module, "_evaluate_unit", evaluate_raw_unit)
        if "F7" not in kwargs.get("disabled", ()):
            patched.setattr(oracles, "extend", extend_oracle)
            patched.setattr(classify_module, "extend", extend_oracle)
        return classify(n, **kwargs).to_json_bytes()


@pytest.mark.parametrize("n", range(3, 7))
def test_reports_match_the_raw_pair_oracle(monkeypatch, n):
    for ranks, bound in (((1, 2, 3, 4), 2), ((1, 2, 3), 4)):
        expected = raw_pair_report(monkeypatch, n, ranks=ranks, entry_bound=bound)
        assert classify(n, ranks=ranks, entry_bound=bound).to_json_bytes() == expected, (n, ranks, bound)


VARIETY_REPORTS = [(n, ("F7",)) for n in range(3, 7)] + [(4, ("F7", off)) for off in ("F3", "F4", "F6")]


@pytest.mark.parametrize("n, disabled", VARIETY_REPORTS)
def test_variety_reports_match_the_raw_pair_oracle(monkeypatch, n, disabled):
    search = {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": disabled, "max_states": 10**9}
    assert classify(n, **search).to_json_bytes() == raw_pair_report(monkeypatch, n, **search)


BLOCK_SEARCH = {"ranks": (1, 2, 3, 4), "entry_bound": 2}
VARIETY_SEARCH = {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": ("F7",), "max_states": 10**9}
SURVIVOR_SEARCHES = (
    [(n, BLOCK_SEARCH) for n in range(3, 9)]
    + [(n, VARIETY_SEARCH) for n in range(3, 9)]
    + [(4, {**BLOCK_SEARCH, "disabled": (off,)}) for off in ("F3", "F4", "F6")]
    + [(4, {**VARIETY_SEARCH, "disabled": ("F7", off)}) for off in ("F3", "F4", "F6")]
)


@pytest.mark.parametrize("n, search", SURVIVOR_SEARCHES)
def test_every_candidate_is_its_inspect_pair(n, search):
    # a surviving class is annotated on its canonical pair; inspect_pair
    # on that pair must give the same candidate, key and family included,
    # and decompose the word-product oracle's decomposition
    disabled = search.get("disabled", ())
    report = classify(n, **search)
    assert report.candidates
    for candidate in report.candidates:
        expected = inspect_pair(candidate.pair, disabled)
        assert candidate.to_jsonable() == expected.to_jsonable(), candidate.pair
        assert candidate.canonical_key == expected.canonical_key
        assert list(candidate.extension.family.items()) == list(expected.extension.family.items())
        assert candidate.decomposition == decompose_oracle(n, candidate.pair.theta_s, candidate.pair.theta_t)


def test_survivor_reports_follow_the_run_filters_order():
    # survivors list their pass reports in the attribution order
    order = ("F1", "F3", "F4", "F2", "F5", "F6", "F7")
    report = classify(4, ranks=(1, 2, 3), entry_bound=2)
    assert report.candidates
    for candidate in report.candidates:
        reports, _, failed = run_filters(candidate.pair, ALL_FILTERS)
        assert failed is None
        assert tuple(r.filter_id for r in reports) == order
        assert tuple(r.filter_id for r in candidate.filters) == order


# -- orbit representatives of the F1 variety ------------------------------------

VARIETY_SPACES = [(rank, bound) for rank in (1, 2, 3) for bound in (1, 2)] + [(4, 1)]


def conjugate(flat, perm):
    r = len(perm)
    return tuple(flat[perm[i] * r + perm[j]] for i in range(r) for j in range(r))


@pytest.mark.parametrize("rank, bound", VARIETY_SPACES + [(1, 3), (2, 3), (3, 3)])
def test_f1_matrices_match_the_tuple_oracle(rank, bound):
    # the normal-form generator against the scan of the whole entry cube
    assert _f1_matrices(rank, bound) == f1_matrices_oracle(rank, bound)


@pytest.mark.parametrize("rank, bound, count", [(4, 2, 2451), (5, 1, 376)])
def test_f1_matrices_beyond_the_scan(rank, bound, count):
    # the scan of 3^16 or 2^25 tuples takes about a minute, so these spaces
    # are checked by their defining properties instead
    matrices = _f1_matrices(rank, bound)
    assert len(matrices) == count
    assert all(a < b for a, b in zip(matrices, matrices[1:]))
    members = set(matrices)
    for flat in matrices:
        m = _square(flat, rank)
        assert mat_mul_oracle(m, m) == tuple(tuple(2 * v for v in row) for row in m)
        assert max(flat) <= bound
        for perm in itertools.permutations(range(rank)):
            assert conjugate(flat, perm) in members


def test_variety_search_at_rank_five():
    # 376 matrices at r=5, E=1, so 376^2 pairs; the survivors are the pairs
    # of the reported classes, under S_5 conjugation and the s <-> t swap
    report = classify(4, ranks=(5,), entry_bound=1, disabled=("F7",), max_states=10**30)
    assert report.pairs_evaluated == 376**2 == 141_376
    surviving = set()
    for candidate in report.candidates:
        flat_s, flat_t = (tuple(_flatten(m)) for m in (candidate.pair.theta_s, candidate.pair.theta_t))
        for perm in itertools.permutations(range(5)):
            image = (conjugate(flat_s, perm), conjugate(flat_t, perm))
            surviving |= {image, image[::-1]}
    assert sum(count for _, count in report.rejection_counts) == report.pairs_evaluated - len(surviving)
    # none of the classes is in block form, and the block space has none
    assert len(report.candidates) == 10
    assert not any(check_block_form(c.pair).passed for c in report.candidates)
    assert classify(4, ranks=(5,), entry_bound=1).candidates == ()


def test_variety_units_pickle_small():
    # a unit names its space and its A_s by index; workers read the matrices
    # from their own _spaces cache, so no payload carries the 2,451 matrices
    # of the variety or the 2 x 135 matrices of the block space
    for disabled, block_space, count in ((("F7",), False, 160), ((), True, 47)):
        enabled = normalize_filters(disabled)
        units = _rank_units(4, 2, block_space)
        assert len(units) == count
        for unit in units:
            assert len(pickle.dumps((4, 4, 2, enabled, unit))) < 200, unit


def test_variety_weights_sum_to_the_pair_space():
    for rank, bound in VARIETY_SPACES:
        total = sum(weight for _, _, weight in orbits(rank, bound, False))
        assert total == len(_f1_matrices(rank, bound)) ** 2, (rank, bound)


def test_variety_representatives_are_least_and_partition_the_space():
    for rank, bound in VARIETY_SPACES:
        covered = set()
        for a_s, a_t, weight in orbits(rank, bound, False):
            orbit = {
                (conjugate(a_s, perm), conjugate(a_t, perm))
                for perm in itertools.permutations(range(rank))
            }
            assert min(orbit) == (a_s, a_t)
            assert len(orbit) == weight
            assert not orbit & covered
            covered |= orbit
        assert len(covered) == len(_f1_matrices(rank, bound)) ** 2, (rank, bound)


ORBIT_SPACES = (
    [(rank, bound, True) for rank in range(1, 6) for bound in (1, 2)]
    + [(rank, bound, False) for rank, bound in VARIETY_SPACES]
)


@pytest.mark.parametrize("rank, bound, block_space", ORBIT_SPACES)
def test_bulk_f3_matches_plain_enumeration_of_each_unit(rank, bound, block_space):
    # F3 charged per support class against check_transitive on every
    # representative of the unit: the same rejected pairs and the same
    # surviving representatives with the same orbit sizes
    for unit in _rank_units(rank, bound, block_space):
        gen_s, failing, representatives = _orbits(rank, bound, block_space, unit, True)
        plain_s, zero, everything = _orbits(rank, bound, block_space, unit, False)
        assert plain_s is gen_s and zero == 0
        theta_s = _square(gen_s.flat, rank)
        transitive = [
            check_transitive(MatrixPair(4, rank, theta_s, _square(gen_t.flat, rank))).passed
            for gen_t, _ in everything
        ]
        assert failing == sum(weight for (_, weight), ok in zip(everything, transitive) if not ok), unit
        kept = [(gen_t.flat, weight) for (gen_t, weight), ok in zip(everything, transitive) if ok]
        assert sorted((gen_t.flat, weight) for gen_t, weight in representatives) == kept, unit


def test_a_search_after_another_builds_no_space():
    # every rank of a search stays cached, so the next search with the same
    # ranks and bound builds none; both reports are those of a cold process
    search = {"ranks": (1, 2, 3, 4), "entry_bound": 2}
    first = classify(4, **search).to_json_bytes()
    misses = classify_module._spaces.cache_info().misses
    second = classify(5, **search).to_json_bytes()
    assert classify_module._spaces.cache_info().misses == misses
    script = (
        "import sys; from klcells.classify import classify; "
        "sys.stdout.write(classify(4, ranks=(1, 2, 3, 4), entry_bound=2).to_json_bytes().decode()); "
        "sys.stdout.write(classify(5, ranks=(1, 2, 3, 4), entry_bound=2).to_json_bytes().decode())"
    )
    src = str(Path(classify_module.__file__).resolve().parents[1])
    cold = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert cold.stdout == first + second


def test_resource_guard():
    report = classify(4, ranks=(3,), max_states=10)
    assert report.guard_tripped
    assert report.states_budget == 1250
    assert report.guard_limit == 10
    assert report.candidates == ()
    assert report.pairs_evaluated == 0
    # the budget is a-priori: nothing is enumerated, so this returns instantly
    big = classify(4, ranks=(6,), max_states=10)
    assert big.guard_tripped


def test_validation_errors():
    with pytest.raises(ValueError):
        classify(2)
    with pytest.raises(ValueError):
        classify(4, ranks=())
    with pytest.raises(ValueError):
        classify(4, ranks=(0,))
    with pytest.raises(ValueError):
        classify(4, ranks=(7,))
    with pytest.raises(ValueError, match="ranks must not repeat"):
        classify(4, ranks=(1, 1), entry_bound=1)
    with pytest.raises(ValueError):
        classify(4, entry_bound=0)
    with pytest.raises(ValueError):
        classify(4, jobs=0)
    with pytest.raises(ValueError):
        classify(4, disabled=("F2",))
    with pytest.raises(ValueError):
        enumerate_candidates(2, 1)
    with pytest.raises(ValueError):
        enumerate_candidates(4, 7)
    with pytest.raises(ValueError):
        enumerate_candidates(4, 1, entry_bound=0)
    with pytest.raises(ValueError, match="ranks must be positive"):
        enumerate_candidates(4, 0)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            enumerate_candidates(4, 2, jobs=jobs)
