"""Canonical forms, the filter pipeline, and the rank-by-rank search."""

import hashlib
import itertools
import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from klcells.algebra import _Generator, _charge, _kl_recursion, _lane_columns, structure_constants
from klcells.cells import cell_module, compute_cells, left_cell_name, right_cell_module
from klcells.classify import (
    ALL_FILTERS,
    DEFAULT_MAX_STATES,
    MAX_CANONICAL_RANK,
    TOGGLEABLE_FILTERS,
    UNKNOWN_CITATION,
    Tag,
    _f1_matrices,
    _f3_split,
    _indented_json,
    _orbits,
    _part_lanes,
    _plan,
    _spaces,
    canonical_pair,
    canonicalize,
    classify,
    enumerate_candidates,
    inspect_pair,
    normalize_filters,
    run_filters,
)
from klcells.dihedral import dihedral_group, render
from klcells.exact import identity_matrix, mat_add, mat_mul, mat_scale, mat_sub, trace
from klcells.nimrep import (
    FilterReport,
    MatrixPair,
    _flatten,
    _square,
    annihilator_check,
    apex_of,
    check_block_form,
    check_transitive,
)
from klcells.reps import OneDim, TwoDim, _rotation_traces, decompose
import oracles
from oracles import (
    block_pair,
    decompose_oracle,
    eigenvalue_orders,
    evaluate_raw_units,
    extend_oracle,
    f1_matrices_oracle,
    mat_mul_oracle,
    module_traces_oracle,
    raw_units,
    replayed,
    run_filters_oracle,
)

# the package's ``classify`` attribute is the function; this is the module
classify_module = sys.modules["klcells.classify"]

CELL3_S = ((0, 0, 0), (0, 0, 0), (1, 1, 2))
CELL3_T = ((2, 0, 1), (0, 2, 1), (0, 0, 0))
UNREAL2_S = ((2, 2), (0, 0))
UNREAL2_T = ((0, 0), (1, 2))
G2_S = ((2, 3), (0, 0))
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
    # the literal table of recorded classes: the B2 pair (h = 4) and the G2
    # pair (h = 6), both cited "Thm. noSimple", each at every n that h divides
    assert classify_module._RECORDED == (
        (4, UNREAL2_S, UNREAL2_T, "Thm. noSimple"),
        (6, G2_S, UNREAL2_T, "Thm. noSimple"),
    )
    cited = Tag("MATRIX_ADMISSIBLE_UNREALIZED", "Thm. noSimple")
    for n in range(3, 31):
        keys = {key for key, tag in classify_module._tags(n, 2).items() if tag == cited}
        expected = {canonicalize(pair(n, a_s, UNREAL2_T)) for h, a_s in ((4, UNREAL2_S), (6, G2_S)) if n % h == 0}
        assert keys == expected, n
        assert bool(keys) == (n % 4 == 0 or n % 6 == 0), n
    assert inspect_pair(pair(4, UNREAL2_S, UNREAL2_T)).tag == cited
    assert inspect_pair(pair(6, G2_S, UNREAL2_T)).tag == cited


def test_match_cell_reps():
    probes = (
        pair(4, UNREAL2_S, UNREAL2_T),
        pair(4, ((0,),), ((0,),)),
        pair(4, ((2,),), ((2,),)),
        pair(4, CELL3_S, CELL3_T),
    )
    tags = [classify_module._tags(4, p.rank).get(canonicalize(p)) for p in probes]
    assert tags == [
        Tag("MATRIX_ADMISSIBLE_UNREALIZED", "Thm. noSimple"),
        Tag("REALIZED_CELL", "Le"),
        Tag("REALIZED_CELL", "Lw0"),
        Tag("REALIZED_CELL", "Ls"),
    ]


def test_tag_table_precedence(monkeypatch):
    # one table per (n, rank): a cell name beats a citation, of two entries
    # for one class the first wins, and an entry whose h does not divide n
    # is ignored
    ls_s, ls_t = cell_module(4, "Ls").generator_pair()
    b2 = pair(4, UNREAL2_S, UNREAL2_T)
    b2_swapped = permuted(b2, (1, 0), swap=True)
    entries = (
        (1, ls_s, ls_t, "cites the cell Ls"),
        (3, UNREAL2_S, UNREAL2_T, "misses n = 4"),
        (4, b2_swapped.theta_s, b2_swapped.theta_t, "first"),
        (2, UNREAL2_S, UNREAL2_T, "second"),
    )
    monkeypatch.setattr(classify_module, "_RECORDED", entries)
    classify_module._tags.cache_clear()
    try:
        tags = {(c.pair.rank, c.tag.kind, c.tag.detail) for c in classify(4, ranks=(2, 3), entry_bound=2).candidates}
        assert tags == {(2, "MATRIX_ADMISSIBLE_UNREALIZED", "first"), (3, "REALIZED_CELL", "Ls")}
        assert inspect_pair(pair(4, ls_t, ls_s)).tag.detail == "Ls"
    finally:
        classify_module._tags.cache_clear()


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


@pytest.mark.parametrize(
    "theta_s, theta_t, witness",
    [
        (((0, 0, 0), (0, 0, 0), (0, 1, 2)), ((2, 0, 1), (2, 0, 1), (0, 0, 0)), "index 1 has diagonal 2 in neither matrix"),
        (((0, 1), (0, 2)), ((2, 0), (1, 0)), "A_s[0][1] is nonzero outside its block rows"),
    ],
)
def test_inspect_pair_prints_the_f7_witness(theta_s, theta_t, witness):
    # survivors of the F7-off search at n = 3 that are not in block form
    assert inspect_pair(pair(3, theta_s, theta_t), disabled=("F7",)).tag.kind == "MATRIX_ADMISSIBLE_UNREALIZED"
    candidate = inspect_pair(pair(3, theta_s, theta_t))
    assert candidate.tag == Tag("REJECTED", "F7")
    assert candidate.filters[-1] == FilterReport("F7", False, witness)
    assert all(report.passed for report in candidate.filters[:-1])


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
    classify_module._tags.cache_clear()
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
    classify_module._tags.cache_clear()
    try:
        report = classify(6, ranks=(1, 2, 3, 4), entry_bound=2)
        assert built == [1, 1]
        assert [c.tag.detail for c in report.candidates if c.tag.kind == "REALIZED_CELL"] == ["Le", "Lw0"]
        assert classify_module._tags(6, 5) == {
            canonicalize(pair(6, *original(6, "Ls").generator_pair())): Tag("REALIZED_CELL", "Ls"),
            canonicalize(pair(6, *original(6, "Lt").generator_pair())): Tag("REALIZED_CELL", "Ls"),
        }
        assert built == [1, 1, 5, 5]
    finally:
        classify_module._tags.cache_clear()


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
        serial = classify(4, jobs=1, **search)
        parallel = classify(4, jobs=2, **search)
        assert serial.to_json_bytes() == parallel.to_json_bytes() == json_dumps_report(serial)
        for report in (serial, parallel):
            assert report.to_json_bytes(include_timing=True) == json_dumps_report(report, include_timing=True)


# -- orbit representatives of the block space ----------------------------------


def orbits(rank, bound, block_space):
    """(flat A_s, flat A_t, orbit size) of the representatives of one rank,
    read from the search's plan with F3 off."""
    for call in _plan(rank, bound, block_space, False):
        for part in call.parts:
            for gen_s, gen_t, weight in _part_lanes(part):
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


@pytest.fixture
def cold_plans():
    """No search plan before or after the test: the search's spaces, units
    and plans are all dropped (``_spaces``)."""
    _spaces.cache_clear()
    yield
    _spaces.cache_clear()


def raw_pair_report(monkeypatch, n, **kwargs):
    """The report of a search that runs run_filters_oracle on every raw pair.

    Block pairs are extended by the tuple oracle for their verdicts;
    variety pairs by ``extend``, which the whole-space tests compare with
    that oracle.  The plan is the list of raw units, and their judge reads
    its start:stop slice of them: each must run once per rank, and no
    space or plan may be built or read.
    """
    calls = []

    def counted(name, oracle):
        def call(*args):
            calls.append(name)
            return oracle(*args)

        return call

    def raw_plan(rank, bound, block_space, judge_f3):
        return raw_units(rank, bound, block_space)

    plans = _spaces.cache_info()
    with monkeypatch.context() as patched:
        patched.setattr(classify_module, "_plan", counted("plan", raw_plan))
        patched.setattr(classify_module, "_judge_units", counted("judge", evaluate_raw_units))
        if "F7" not in kwargs.get("disabled", ()):
            patched.setattr(oracles, "extend", extend_oracle)
        report = classify(n, **kwargs).to_json_bytes()
    ranks = len(kwargs["ranks"])
    assert sorted(calls) == ["judge"] * ranks + ["plan"] * ranks
    assert _spaces.cache_info() == plans
    return report


@pytest.mark.parametrize("n", range(3, 7))
def test_reports_match_the_raw_pair_oracle(monkeypatch, cold_plans, n):
    for ranks, bound in (((1, 2, 3, 4), 2), ((1, 2, 3), 4)):
        expected = raw_pair_report(monkeypatch, n, ranks=ranks, entry_bound=bound)
        assert classify(n, ranks=ranks, entry_bound=bound).to_json_bytes() == expected, (n, ranks, bound)


VARIETY_REPORTS = [(n, ("F7",)) for n in range(3, 7)] + [(4, ("F7", off)) for off in ("F3", "F4", "F6")]


@pytest.mark.parametrize("n, disabled", VARIETY_REPORTS)
def test_variety_reports_match_the_raw_pair_oracle(monkeypatch, cold_plans, n, disabled):
    search = {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": disabled, "max_states": 10**9}
    expected = raw_pair_report(monkeypatch, n, **search)
    assert classify(n, **search).to_json_bytes() == expected


BLOCK_SEARCH = {"ranks": (1, 2, 3, 4), "entry_bound": 2}
VARIETY_SEARCH = {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": ("F7",), "max_states": 10**9}
RANK4_VARIETY_SEARCH = {**VARIETY_SEARCH, "ranks": (4,), "max_states": 10**16}
SURVIVOR_SEARCHES = (
    [(n, BLOCK_SEARCH) for n in range(3, 9)]
    + [(n, VARIETY_SEARCH) for n in range(3, 9)]
    + [(4, {**BLOCK_SEARCH, "disabled": (off,)}) for off in ("F3", "F4", "F6")]
    + [(4, {**VARIETY_SEARCH, "disabled": ("F7", off)}) for off in ("F3", "F4", "F6")]
    # the CI --jobs searches not listed above
    + [(6, {**BLOCK_SEARCH, "entry_bound": bound}) for bound in (3, 4)]
    + [(30, BLOCK_SEARCH)]
    + [(4, RANK4_VARIETY_SEARCH)]
    + [(4, {**VARIETY_SEARCH, "ranks": (6,), "entry_bound": 1, "max_states": 10**22})]
    # Galois-conjugate V(12,1) + V(12,5): two k share the order 12
    + [(12, {**BLOCK_SEARCH, "entry_bound": 3})]
    # two workers: the survivors of each class come back from a worker
    + [(6, {**BLOCK_SEARCH, "entry_bound": 4, "jobs": 2}), (6, {**VARIETY_SEARCH, "jobs": 2})]
)


def assert_sigma_identity(n, family):
    # the first step of the Perron theorem (classify docstring): below
    # length n, A_x_l + A_y_l = 2(sigma_0 + ... + sigma_(l-1)) + sigma_l,
    # sigma_l the sum of the elements of length l, at y = Q - 2I = S + T:
    # sigma_0 = I, sigma_1 = y, sigma_2 = y^2 - 2I and
    # sigma_(l+1) = y sigma_l - sigma_(l-1), one product per length
    elements = dihedral_group(n).all_elements()
    identity = identity_matrix(len(family[elements[0]]))
    y = mat_sub(mat_add(family[elements[1]], family[elements[2]]), mat_scale(2, identity))
    previous, current, below = identity, y, identity  # sigma_(l-1), sigma_l, their sum below l
    for length in range(1, n):
        both = mat_add(family[elements[2 * length - 1]], family[elements[2 * length]])
        assert both == mat_add(mat_scale(2, below), current), (n, length)
        if length < n - 1:
            below = mat_add(below, current)
            previous, current = current, mat_sub(mat_mul(y, current), mat_scale(1 + (length == 1), previous))


@pytest.mark.parametrize("n, search", SURVIVOR_SEARCHES)
def test_every_candidate_is_its_inspect_pair(n, search):
    # a surviving class is annotated on its canonical pair with no filter
    # run again; inspect_pair runs the canonical pair through run_filters,
    # and must give the same candidate, key and family included.
    # The annotation decomposes without a relation check; its oracles are
    # decompose, which checks them, the word-product decomposition,
    # apex_of, and the annihilator evaluated at Q
    disabled = search.get("disabled", ())
    report = classify(n, **search)
    assert report.candidates
    for candidate in report.candidates:
        expected = inspect_pair(candidate.pair, disabled)
        assert candidate.to_jsonable() == expected.to_jsonable(), candidate.pair
        assert candidate.canonical_key == expected.canonical_key
        assert list(candidate.extension.family.items()) == list(expected.extension.family.items())
        theta_s, theta_t = candidate.pair.theta_s, candidate.pair.theta_t
        assert candidate.decomposition == decompose(n, theta_s, theta_t) == decompose_oracle(n, theta_s, theta_t)
        assert candidate.apex == apex_of(candidate.extension)
        assert annihilator_check(candidate.extension).passed is True
        assert candidate.annihilator_passed is True
        assert_sigma_identity(n, candidate.extension.family)


def test_the_sigma_identity_holds_on_every_left_cell_module():
    for n in range(3, 31):
        for cell in compute_cells(n).left_cells:
            assert_sigma_identity(n, cell_module(n, cell).matrices)


def test_every_j2_candidate_has_each_coprime_simple_once():
    # the Perron corollaries, on every search above with F3 and F4 on: the
    # Perron root of Q is simple, so V(n,1) occurs once, and so does each
    # Galois conjugate V(n,k), gcd(k, n) = 1; so the rank is at least
    # phi(n), and V(1,1), the J3 case, does not occur.  In block form
    # tr(S + T) = 0 also rules out the sign module V(-1,-1), and J1 and J3
    # occur at rank 1 only; in the F7-off variety V(-1,-1) does occur, as
    # in V(-1,-1) + V(3,1) at n = 3
    seen = {"block": 0, "variety": 0}
    for n, search in SURVIVOR_SEARCHES:
        disabled = search.get("disabled", ())
        if "F3" in disabled or "F4" in disabled:
            continue
        space = "variety" if "F7" in disabled else "block"
        coprime = [k for k in range(1, n) if math.gcd(k, n) == 1]
        for candidate in classify(n, **search).candidates:
            simples = candidate.decomposition.as_dict()
            if candidate.apex != "J2":
                assert space == "variety" or candidate.pair.rank == 1, (n, candidate.pair)
                continue
            assert all(simples.get(TwoDim(k)) == 1 for k in coprime if 2 * k < n), (n, candidate.pair)
            assert OneDim(1, 1) not in simples, (n, candidate.pair)
            assert candidate.pair.rank >= len(coprime), (n, candidate.pair)
            if space == "block":
                assert OneDim(-1, -1) not in simples, (n, candidate.pair)
            seen[space] += 1
    assert seen == {"block": 33, "variety": 224}


CLOSED_SEARCHES = [
    (3, {"ranks": (1, 2), "entry_bound": 1}, 8, "V(3,1)"),
    (5, {"ranks": (1, 2, 3, 4), "entry_bound": 3}, 74_260, "V(5,1) ⊕ V(5,2)"),
]


@pytest.mark.parametrize("n, search, pairs, middle", CLOSED_SEARCHES)
def test_the_closed_searches_find_the_cell_modules_only(n, search, pairs, middle):
    # at n = 3 and n = 5 these searches cover every block-form class (n = 4
    # is check A8): Le, Lw0 and Ls, of rank n - 1, and nothing else
    report = classify(n, **search)
    assert report.pairs_evaluated == pairs
    assert [(c.pair.rank, c.tag, c.apex, c.decomposition.render()) for c in report.candidates] == [
        (1, Tag("REALIZED_CELL", "Le"), "J1", "V(-1,-1)"),
        (1, Tag("REALIZED_CELL", "Lw0"), "J3", "V(1,1)"),
        (n - 1, Tag("REALIZED_CELL", "Ls"), "J2", middle),
    ]


def json_dumps_report(report, include_timing=False):
    """The report as json.dumps writes it: the oracle of to_json_bytes."""
    return (json.dumps(report.to_jsonable(include_timing), indent=2, sort_keys=True) + "\n").encode("ascii")


@pytest.mark.parametrize("n, search", SURVIVOR_SEARCHES)
def test_report_bytes_are_json_dumps(n, search):
    report = classify(n, **search)
    for include_timing in (False, True):
        assert report.to_json_bytes(include_timing) == json_dumps_report(report, include_timing)


class Count(int):
    pass


@pytest.mark.parametrize("entry", (int, Count))
def test_indented_json_of_a_candidate_with_a_witness(entry):
    # fails F4 at n = 4, so its filter reports carry a witness; a matrix
    # entry may be a subclass of int, which the report then holds too
    a_s = ((entry(2), entry(1)), (0, 0))
    candidate = inspect_pair(MatrixPair.from_matrices(4, a_s, ((0, 0), (1, 2))))
    assert candidate.tag == Tag("REJECTED", "F4")
    obj = candidate.to_jsonable()
    assert type(obj["pair"]["theta_s"][0][0]) is entry
    assert any(report["witness"] is not None for report in obj["filters"])
    assert _indented_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_indented_json_refuses_what_json_cannot_write():
    for obj in ({"a": [{(1, 2): None}]}, {1, 2}, [{"a": {3}}], {"a": b"x"}, object()):
        for encode in (_indented_json, lambda tree: json.dumps(tree, indent=2, sort_keys=True)):
            with pytest.raises(TypeError):
                encode(obj)
    # json writes an int key as a string; reports have none, and the
    # encoder refuses every key that is not a str
    with pytest.raises(TypeError, match="keys must be str, not int"):
        _indented_json({"a": {1: "one"}})


@pytest.mark.parametrize("n", range(3, 31))
def test_module_traces_of_every_left_cell_module(n):
    # the traces a_j, j <= n/2, that decompose and the check-free
    # decomposition read, and the traces of the powers up to about n/4 that
    # give them, on which decompose checks (ST)^n = I; the oracle inverts
    # every trace of the KL family
    for cell in compute_cells(n).left_cells:
        module = cell_module(n, cell)
        a_s, a_t = module.generator_pair()
        ident = identity_matrix(len(a_s))
        s_mat, t_mat = mat_sub(a_s, ident), mat_sub(a_t, ident)
        expected = module_traces_oracle(n, module.matrices)
        traces, powers = _rotation_traces(s_mat, t_mat, n // 2)
        assert traces == expected, (n, left_cell_name(cell))
        assert [trace(p) for p in powers] == expected[: len(powers)], (n, left_cell_name(cell))


def rotation_order(n, a_s, a_t):
    """The least m >= 1 with ((A_s - I)(A_t - I))^m = I, looked for up to n."""
    ident = identity_matrix(len(a_s))
    rotation = mat_mul(mat_sub(a_s, ident), mat_sub(a_t, ident))
    power = ident
    for m in range(1, n + 1):
        power = mat_mul(power, rotation)
        if power == ident:
            return m
    return None


J2_ORDER_SEARCHES = (
    [(n, {"ranks": (1, 2, 3, 4), "entry_bound": 3}) for n in range(3, 13)]
    + [(n, BLOCK_SEARCH) for n in (18, 24, 30)]
    + [(4, RANK4_VARIETY_SEARCH)]
    + [(n, VARIETY_SEARCH) for n in (4, 6)]
)


def test_every_j2_survivor_rotates_with_order_n():
    # ST is conjugate to a bipartite Coxeter element, of order the Coxeter
    # number; read it from the decomposition (the lcm of the orders of the
    # eigenvalues of ST) and from the powers of ST themselves
    seen = 0
    for n, search in J2_ORDER_SEARCHES:
        for candidate in classify(n, **search).candidates:
            if candidate.apex != "J2":
                continue
            assert math.lcm(*eigenvalue_orders(n, candidate.decomposition)) == n, (n, candidate.pair)
            assert rotation_order(n, candidate.pair.theta_s, candidate.pair.theta_t) == n, (n, candidate.pair)
            seen += 1
    assert seen == 159


def symmetric_pattern(candidate):
    """B_ij = 0 exactly when B'_ji = 0: the zero pattern of A_s + A_t is
    symmetric, which no conjugation or s <-> t swap changes."""
    q = mat_add(candidate.pair.theta_s, candidate.pair.theta_t)
    return all((q[i][j] == 0) == (q[j][i] == 0) for i in range(len(q)) for j in range(i))


# (n, ranks, E, the Dynkin diagrams with h = n there, off-pattern classes,
# and for each of these its exponents and the Dynkin diagrams with h = n of
# its rank that share them): the off-pattern classes of ranks 2-4 are all
# rank 4, split 2; those at n=8 and n=12 are isospectral to B4/C4 and F4,
# and those at n=6 and n=10 to no Dynkin diagram
DYNKIN_SEARCHES = [
    (3, (2, 3, 4), 3, "A2", 0, []),
    (4, (2, 3, 4), 3, "A3 B2", 0, []),
    (5, (2, 3, 4), 3, "A4", 0, []),
    (6, (2, 3, 4), 3, "B3 C3 D4 G2", 1, [((1, 2, 4, 5), "")]),
    (7, (2, 3, 4), 3, "", 0, []),
    (8, (2, 3, 4), 3, "B4 C4", 2, [((1, 3, 5, 7), "B4 C4")] * 2),
    (9, (2, 3, 4), 3, "", 0, []),
    (10, (2, 3, 4), 3, "", 1, [((1, 3, 7, 9), "")]),
    (11, (2, 3, 4), 3, "", 0, []),
    (12, (2, 3, 4), 3, "F4", 3, [((1, 5, 7, 11), "F4")] * 3),
    (6, (5, 6), 1, "A5", 0, []),
    (7, (5, 6), 1, "A6", 0, []),
    (8, (5, 6), 1, "D5", 0, []),
    (10, (5, 6), 1, "D6", 0, []),
    (12, (5, 6), 1, "E6", 0, []),
    # no Dynkin diagram of rank <= 4 has h >= 13, and no class survives
    *[(n, (2, 3, 4), 2, "", 0, []) for n in range(13, 31)],
    # rank 5 at E=2: the off-pattern classes, V(-1,1) + V(n,1) + V(n,3),
    # are isospectral to D5 at n=8 and to B5/C5 at n=10; rank 6 at E=2 is
    # past the default resource guard
    *[(n, (5,), 2, names, 0, []) for n, names in ((3, ""), (4, ""), (5, ""), (6, "A5"), (7, ""), (9, ""), (11, ""), (12, ""))],
    (8, (5,), 2, "D5", 2, [((1, 3, 4, 5, 7), "D5")] * 2),
    (10, (5,), 2, "B5 C5", 6, [((1, 3, 5, 7, 9), "B5 C5")] * 6),
]


def exponents(n, decomposition):
    """The exponents of a module, ascending: the m in 0..n-1 with
    exp(2 pi i m/n) an eigenvalue of ST, with multiplicity.  V(n, k) has
    k and n - k, V(eps, delta) has 0 or n/2; for a Dynkin pair with h = n
    they are the exponents of its diagram."""
    out = []
    for module, mult in decomposition.terms:
        if isinstance(module, OneDim):
            out += [0 if module.eps == module.delta else n // 2] * mult
        else:
            out += [module.k, n - module.k] * mult
    return tuple(sorted(out))


def split(candidate):
    """min(k, r - k) for the block pair of a candidate, k its indices with
    diagonal 2 in A_s."""
    theta_s = candidate.pair.theta_s
    k = sum(theta_s[i][i] == 2 for i in range(len(theta_s)))
    return min(k, len(theta_s) - k)


@pytest.mark.parametrize("n, ranks, bound, names, off_pattern, off_exponents", DYNKIN_SEARCHES)
def test_pattern_symmetric_survivors_are_the_dynkin_diagrams_with_h_n(n, ranks, bound, names, off_pattern, off_exponents):
    # with a symmetric zero pattern, C = [[2I, -B], [-B', 2I]] is a Cartan
    # matrix and ST is conjugate to its bipartite Coxeter element, of order
    # the Coxeter number h: F5 gives h | n, and the survivors have h = n
    # (the ADE picture of arXiv:1612.06325)
    diagrams = oracles.dynkin_block_pairs(n, ranks, bound)
    assert sorted({name for name, _ in diagrams}) == names.split()
    candidates = classify(n, ranks=ranks, entry_bound=bound).candidates
    symmetric = {c.canonical_key for c in candidates if symmetric_pattern(c)}
    assert symmetric == {canonicalize(p) for _, p in diagrams}
    assert len(candidates) - len(symmetric) == off_pattern
    # every Dynkin diagram with h = n has an entry of -C at most 3
    shared = []
    for candidate in candidates:
        if candidate.canonical_key not in symmetric:
            found = exponents(n, candidate.decomposition)
            sharing = {
                name
                for name, diagram in oracles.dynkin_block_pairs(n, (candidate.pair.rank,), 3)
                if exponents(n, decompose(n, diagram.theta_s, diagram.theta_t)) == found
            }
            shared.append((found, " ".join(sorted(sharing))))
    assert sorted(shared) == off_exponents
    # split 1: F3 makes every B_j and B'_j positive, so the pattern is
    # symmetric and the class a star-shaped diagram, at n = 3, 4 or 6 only
    for candidate in candidates:
        if split(candidate) == 1:
            assert symmetric_pattern(candidate) and n in (3, 4, 6), (n, candidate.pair)


def test_dynkin_pairs_fail_f4_at_a_proper_multiple_of_h():
    # a Dynkin diagram with Coxeter number h gives (ST)^h = I, so at every
    # n = mh, m >= 2, the matrices of the two elements of length h, where
    # sin(h pi/h) = 0, vanish inside the middle cell
    seen = 0
    for h in range(3, 13):
        for name, diagram in oracles.dynkin_block_pairs(h, range(1, 7), 3):
            for n in range(2 * h, 31, h):
                candidate = inspect_pair(MatrixPair(n, diagram.rank, diagram.theta_s, diagram.theta_t))
                assert candidate.tag == Tag("REJECTED", "F4"), (name, n)
                words = {render(dihedral_group(n).element(h, letter)) for letter in "st"}
                (failed,) = [f for f in candidate.filters if not f.passed]
                assert failed.filter_id == "F4"
                assert failed.witness.split(" = 0 ")[0] in {f"A_{word}" for word in words}, (name, n, failed.witness)
                seen += 1
    assert seen == 130


def diagram_exponents(name):
    """The exponents of a Dynkin diagram (Humphreys, Reflection Groups and
    Coxeter Groups, section 3.20)."""
    kind, m = name[0], int(name[1:])
    if kind == "A":
        return tuple(range(1, m + 1))
    if kind in "BC":
        return tuple(range(1, 2 * m, 2))
    if kind == "D":
        return tuple(sorted([*range(1, 2 * m - 2, 2), m - 1]))
    return {
        "G2": (1, 5),
        "F4": (1, 5, 7, 11),
        "E6": (1, 4, 5, 7, 8, 11),
        "E7": (1, 5, 7, 9, 11, 13, 17),
        "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    }[name]


def test_dynkin_pairs_up_to_rank_8_survive_at_h_and_fail_f4_at_2h():
    # every block pair of a Dynkin diagram of rank <= 8 with h <= 30, E7
    # (h = 18) and E8 (h = 30) among them, passes every filter at n = h with
    # the diagram's exponents, and fails F4 at n = 2h; canonical keys stop at
    # rank 6, so this goes through run_filters, not inspect_pair
    names = set()
    for h in range(3, 31):
        for name, diagram in oracles.dynkin_block_pairs(h, range(2, 9), 3):
            _, _, failed = run_filters(diagram, ALL_FILTERS)
            assert failed is None, (name, h)
            assert exponents(h, decompose(h, diagram.theta_s, diagram.theta_t)) == diagram_exponents(name), name
            doubled = MatrixPair(2 * h, diagram.rank, diagram.theta_s, diagram.theta_t)
            assert run_filters(doubled, ALL_FILTERS)[2] == "F4", (name, h)
            names.add(name)
    assert {"E6", "E7", "E8", "F4", "G2", "A8", "B8", "C8", "D8"} <= names
    assert len(names) == 7 + 7 + 6 + 5 + 5  # A, B, C, D, then G2 F4 E6 E7 E8


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
    # a payload names a run of the plan's calls by two indices; forked
    # workers read the plan from the _spaces cache they inherit, so no
    # payload carries the 2,451 matrices of the variety, the 2 x 135
    # matrices of the block space or the representatives of their units
    for disabled, block_space, count in ((("F7",), False, 160), ((), True, 47)):
        enabled = normalize_filters(disabled)
        assert len(_spaces(4, 2, block_space).units) == count
        calls = len(_plan(4, 2, block_space, True))
        assert calls > 1
        for start in range(calls):
            payload = (4, 4, 2, enabled, start, calls)
            assert len(pickle.dumps(payload)) < 200, payload


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
    # surviving representatives with the same orbit sizes.  The plan, which
    # judges F3 once per support of A_s, charges the same failures and
    # keeps the same representatives.
    spaces, units, *_ = _spaces(rank, bound, block_space)
    failures, lanes = 0, []
    for j, i in units:
        space = spaces[j]
        gen_s = space.gens_s[i]
        failing, indices, weights = _orbits(space, i, *_f3_split(rank, gen_s.support, space.classes, {}))
        zero, everything, sizes = _orbits(space, i, 0, b"\1" * len(space.classes))
        assert zero == 0
        theta_s = _square(gen_s.flat, rank)
        transitive = [
            check_transitive(MatrixPair(4, rank, theta_s, _square(space.gens_t[k].flat, rank))).passed
            for k in everything
        ]
        assert failing == sum(weight for weight, ok in zip(sizes, transitive) if not ok), (j, i)
        kept = [
            (gen_s.flat, space.gens_t[k].flat, weight) for k, weight, ok in zip(everything, sizes, transitive) if ok
        ]
        assert sorted((gen_s.flat, space.gens_t[k].flat, weight) for k, weight in zip(indices, weights)) == sorted(kept)
        failures += failing
        lanes += kept
    plan = _plan(rank, bound, block_space, True)
    assert sum(call.f3_failures for call in plan) == failures
    planned = [(s.flat, t.flat, weight) for call in plan for part in call.parts for s, t, weight in _part_lanes(part)]
    assert sorted(planned) == sorted(lanes)


def test_a_search_after_another_builds_no_space(cold_plans):
    # every rank of a search stays cached with its plan, so the next search
    # with the same ranks and bound builds neither; both reports are those
    # of a cold process
    search = {"ranks": (1, 2, 3, 4), "entry_bound": 2}
    first = classify(4, **search).to_json_bytes()
    misses = _spaces.cache_info().misses
    plans = {rank: dict(_spaces(rank, 2, True).plans) for rank in search["ranks"]}
    assert all(len(kept) == 1 for kept in plans.values())
    second = classify(5, **search).to_json_bytes()
    assert _spaces.cache_info().misses == misses
    for rank, kept in plans.items():
        now = _spaces(rank, 2, True).plans
        assert now.keys() == kept.keys() and all(now[key] is plan for key, plan in kept.items()), rank
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


def test_alternating_searches_keep_both_spaces(cold_plans):
    # the block search and the F7-off search alternate at every n: each
    # space of each rank is built once, 4 block and 3 variety
    for n in range(3, 7):
        classify(n, **BLOCK_SEARCH)
        classify(n, **VARIETY_SEARCH)
    assert _spaces.cache_info().misses == 7


def test_a_parallel_sweep_keeps_one_plan_per_rank(cold_plans):
    # the parent builds each rank's plan before it starts a pool, so a
    # jobs=2 sweep over n reuses it at every n like a jobs=1 sweep does.
    # Ranks 1-3 have a single call, judged in this process; rank 4 has more
    # calls than the 4 * jobs runs it is cut into.
    search = {"ranks": (1, 2, 3, 4), "entry_bound": 2}
    serial = {n: classify(n, **search).to_json_bytes() for n in range(3, 9)}
    _spaces.cache_clear()
    plans = None
    for n in range(3, 9):
        assert classify(n, jobs=2, **search).to_json_bytes() == serial[n], n
        kept = {rank: _spaces(rank, 2, True).plans for rank in search["ranks"]}
        assert all(list(entry) == [True] for entry in kept.values()), n
        if plans is None:
            misses = _spaces.cache_info().misses
            plans = {rank: entry[True] for rank, entry in kept.items()}
        assert _spaces.cache_info().misses == misses, n
        assert all(kept[rank][True] is plan for rank, plan in plans.items()), n
    assert [len(plans[rank]) for rank in (1, 2, 3)] == [1, 1, 1]
    assert len(plans[4]) > 4 * 2


# (classes, pairs, sha256 of the JSON report) of the F7-off variety at n=4
# and E=1.  These ranks canonicalise the most per survivor (5! and 6!
# conjugations, each with the s <-> t swap), and no other test covers them.
F7_OFF_FRONTIER = {
    5: (10, 141_376, "d697fc30fd8bb33b14fd994fc04b9a1c40b8542963dd67f798bd82cf01980787"),
    6: (19, 11_195_716, "74d06fa6be0215e4ac1b0d99c52c9e2b3f84eb3562998fe9b2c36f7cf7bd2b25"),
}


@pytest.mark.parametrize("rank", sorted(F7_OFF_FRONTIER))
def test_f7_off_frontier_reports_frozen(rank):
    classes, pairs, digest = F7_OFF_FRONTIER[rank]
    report = classify(4, ranks=(rank,), entry_bound=1, disabled=("F7",), max_states=10**22)
    assert (len(report.candidates), report.pairs_evaluated) == (classes, pairs)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "arguments",
    [
        {"n": 4.0},
        {"n": True},
        {"n": "4"},
        {"n": 4, "ranks": (2.0,)},
        {"n": 4, "ranks": (True,), "entry_bound": 2},
        {"n": 4, "ranks": (1, "2")},
        {"n": 4, "entry_bound": True},
        {"n": 4, "entry_bound": 2.0},
        {"n": 4, "jobs": 1.0},
        {"n": 4, "jobs": True},
        {"n": 4, "ranks": (1, 2), "entry_bound": 2, "max_states": True},
        {"n": 4, "ranks": (1, 2), "entry_bound": 2, "max_states": 10.0},
        {"n": 4, "ranks": (1, 2), "entry_bound": 2, "max_states": None},
    ],
)
def test_search_arguments_of_the_wrong_type(cold_plans, arguments):
    # an argument that is not an int, or is a bool, is refused before any
    # space is built, by both entry points; only classify has max_states
    with pytest.raises(TypeError, match="must be an int"):
        classify(**arguments)
    if "max_states" not in arguments:
        rank = arguments.get("ranks", (1,))[-1]
        with pytest.raises(TypeError, match="must be an int"):
            enumerate_candidates(arguments["n"], rank, arguments.get("entry_bound", 2), jobs=arguments.get("jobs", 1))
    assert _spaces.cache_info().currsize == 0


def test_a_str_of_disabled_filters_is_refused():
    # a str is a collection of characters, not of filter ids: "F3" would
    # be read as the ids "F" and "3"
    with pytest.raises(TypeError, match="disabled must be a collection of filter ids, not a str"):
        classify(4, disabled="F3")
    with pytest.raises(TypeError, match="disabled must be a collection of filter ids, not a str"):
        inspect_pair(pair(4, CELL3_S, CELL3_T), "F7")


# (search, the filters it runs with off): F3 on, F3 off, and F3 and F4 off,
# at the same ranks and bound, so plans with and without F3 share a space
WARM_SEARCHES = (
    ({"ranks": (1, 2, 3, 4), "entry_bound": 2}, ((), ("F3",), ("F3", "F4"))),
    (
        {"ranks": (1, 2, 3), "entry_bound": 2, "max_states": 10**9},
        (("F7",), ("F7", "F3"), ("F7", "F3", "F4")),
    ),
)


@pytest.mark.parametrize("search, variants", WARM_SEARCHES)
def test_a_warm_plan_is_invisible(cold_plans, search, variants):
    # one process sweeps n = 3..12 up and then down, each n with every
    # variant in turn: the spaces and plans built at the first n serve all
    # the others (one plan with F3 judged and one without, per rank), and
    # every report is byte for byte that of a cold run
    cold = {}
    for n in range(3, 13):
        for disabled in variants:
            _spaces.cache_clear()
            cold[n, disabled] = classify(n, disabled=disabled, **search).to_json_bytes()
    _spaces.cache_clear()
    block_space = "F7" not in variants[0]
    for step, n in enumerate([*range(3, 13), *range(12, 2, -1)]):
        for disabled in variants:
            assert classify(n, disabled=disabled, **search).to_json_bytes() == cold[n, disabled], (n, disabled)
        if step == 0:
            misses = _spaces.cache_info().misses
            plans = {rank: dict(_spaces(rank, 2, block_space).plans) for rank in search["ranks"]}
    assert _spaces.cache_info().misses == misses
    for rank, kept in plans.items():
        assert sorted(kept) == [False, True], rank
        now = _spaces(rank, 2, block_space).plans
        assert now.keys() == kept.keys() and all(now[key] is plan for key, plan in kept.items()), rank


# every plan of the searches the kernel logs, with and without F3
LOGGED_PLANS = [(rank, True) for rank in (1, 2, 3, 4)] + [(rank, False) for rank in (1, 2, 3)]


@pytest.mark.parametrize("rank, block_space", LOGGED_PLANS)
def test_one_logged_run_gives_the_verdicts_of_every_smaller_n(rank, block_space):
    # every call of the plan, F3 judged or not, F4 on or off: the events
    # one run to N = 12 logs, replayed at each n = 3..12, are lane by lane
    # the verdicts of a fresh kernel run to n, replayed at n
    for judge_f3 in (False, True):
        for call in _plan(rank, 2, block_space, judge_f3):
            lanes = call.columns.lanes
            for check_support in (False, True):
                log = _kl_recursion(12, call.columns, check_support)[2]
                assert len(log) <= 12
                for n in range(3, 13):
                    expected = replayed(_kl_recursion(n, call.columns, check_support)[2], lanes, n)
                    assert replayed(log, lanes, n) == expected, (judge_f3, check_support, n)


def test_a_run_that_stops_early_is_read_at_its_stop_length_and_either_side():
    # calls of the rank-3 variety at E=2 whose every lane fails at a length
    # L before N = 12, grouped by L and by the event that fails the lane
    # last (F2 or F4 on s_L, F2 or F4 on t_L): the log ends at L, and its
    # record of L holds t_L and whether s_L = t_L also where every lane
    # failed on s_L, so it is read at n = L, the routes to w0, as well as
    # at L - 1 and L + 1
    rank = 3
    gens = [_Generator(a, rank) for a in _f1_matrices(rank, 2)]
    groups = {}
    for gen_s, gen_t in itertools.product(gens, repeat=2):
        log = _kl_recursion(12, _lane_columns([gen_s], [gen_t]), True)[2]
        if len(log) < 12:
            alive, failed = int.from_bytes(b"\x80", "little"), {"F2": 0, "F4": 0, "F5": 0}
            for record in log:
                alive, stop = _charge(record, False, alive, failed)
            lanes = groups.setdefault(len(log), {}).setdefault(stop, [])
            if len(lanes) < 8:
                lanes.append((gen_s, gen_t))
    assert sorted(groups) == [1, 2, 3, 4, 5, 6, 7]
    assert {stop for stops in groups.values() for stop in stops} == {0, 1, 2, 3}
    for stop_length, stops in groups.items():
        lanes = [lane for group in stops.values() for lane in group]
        columns = _lane_columns(*zip(*lanes))
        for check_support in (False, True):
            log = _kl_recursion(12, columns, check_support)[2]
            if check_support:
                assert len(log) == stop_length
            for n in range(max(3, stop_length - 1), stop_length + 2):
                expected = replayed(_kl_recursion(n, columns, check_support)[2], len(lanes), n)
                assert replayed(log, len(lanes), n) == expected, (stop_length, check_support, n)


def test_a_search_below_a_logged_n_runs_no_kernel(monkeypatch, cold_plans):
    # a search at n = 12 runs the kernel once per call of its plans and logs
    # each call; every smaller n of the same search then reads the logs and
    # runs none.  A sweep upwards runs every call again at every n, as a
    # log only serves the n up to its own.
    calls = []
    kernel = classify_module._kl_recursion

    def counted(n, *args):
        calls.append(n)
        return kernel(n, *args)

    monkeypatch.setattr(classify_module, "_kl_recursion", counted)
    for search in (BLOCK_SEARCH, VARIETY_SEARCH):
        block_space = "F7" not in search.get("disabled", ())
        planned = sum(len(_plan(rank, 2, block_space, True)) for rank in search["ranks"])
        classify(12, **search)
        assert calls == [12] * planned
        calls.clear()
        for n in range(11, 2, -1):
            classify(n, **search)
        assert calls == []
        _spaces.cache_clear()
        for n in range(3, 13):
            classify(n, **search)
            assert calls == [n] * planned, n
            calls.clear()


def test_cached_plans_are_immutable():
    # the units and plans a search keeps are tuples, named tuples and bytes
    # all the way down, so no caller can change what the next search reads
    def frozen(value):
        if isinstance(value, (int, bytes, type(None), operator.itemgetter, _Generator)):
            return True
        return isinstance(value, tuple) and all(map(frozen, value))

    for rank, bound, block_space in ((3, 2, False), (4, 2, True)):
        entry = _spaces(rank, bound, block_space)
        assert isinstance(entry.units, tuple) and frozen(entry.units)
        for judge_f3 in (False, True):
            plan = _plan(rank, bound, block_space, judge_f3)
            assert isinstance(plan, tuple) and frozen(plan)
            assert all(call.columns is not None for call in plan)


def test_a_plan_without_columns_gives_the_same_reports(monkeypatch, cold_plans):
    # a plan too large to keep its lane columns builds them per call at
    # every n, with the same reports as one that keeps them
    searches = (
        {"ranks": (1, 2, 3, 4), "entry_bound": 2},
        {"ranks": (1, 2, 3), "entry_bound": 2, "disabled": ("F7",), "max_states": 10**9},
    )
    kept = [[classify(n, **search).to_json_bytes() for n in (4, 5)] for search in searches]
    _spaces.cache_clear()
    monkeypatch.setattr(classify_module, "_PLAN_COLUMN_LANES", 0)
    assert [[classify(n, **search).to_json_bytes() for n in (4, 5)] for search in searches] == kept
    for rank in (1, 2, 3):
        (plan,) = _spaces(rank, 2, False).plans.values()
        assert all(call.columns is None for call in plan)
