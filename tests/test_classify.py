"""Canonical forms, the filter pipeline, and the rank-by-rank search."""

import json
import random

import pytest

from klcells.algebra import structure_constants
from klcells.cells import cell_module
from klcells.classify import (
    ALL_FILTERS,
    DEFAULT_MAX_STATES,
    MAX_CANONICAL_RANK,
    TOGGLEABLE_FILTERS,
    UNKNOWN_CITATION,
    KnowledgeEntry,
    _cell_keys,
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
from klcells.nimrep import MatrixPair

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
    # matching survivors against cell modules needs only the KL columns of
    # the small cells, never the whole 4n^2 table
    structure_constants.cache_clear()
    _cell_keys.cache_clear()
    report = classify(24, ranks=(1,))
    assert [c.tag.detail for c in report.candidates] == ["Le", "Lw0"]
    assert structure_constants.cache_info().currsize == 0


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
    serial = classify(4, ranks=(1, 2), jobs=1).to_json_bytes()
    parallel = classify(4, ranks=(1, 2), jobs=2).to_json_bytes()
    assert serial == parallel


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
