"""Extending generator pairs to the whole basis, and the matrix filters."""

import itertools
import math
import random
import sys

import pytest

from klcells.cells import cell_module
from klcells.classify import _f1_matrices, _f3_split, _support_classes, normalize_filters, run_filters
from klcells.dihedral import dihedral_group, render
from klcells.exact import _top_real_root_is_simple, char_poly, is_zero_matrix, mat_add, poly_eval_matrix, poly_mul
from klcells.nimrep import (
    ExtendedRep,
    ExtensionFailure,
    MatrixPair,
    annihilator_check,
    apex_of,
    check_apex_support,
    check_block_form,
    check_group_relations,
    check_idempotent,
    check_transitive,
    det_identity,
    extend,
    global_annihilator,
    perron_analysis,
    _first_failure,
    _flatten,
    _square,
    _strongly_connected,
)
from klcells.algebra import _Generator, _kl_recursion, _support, _unpack, kl_regular_matrices
from oracles import (
    extend_oracle,
    kl_recursion_oracle,
    mat_mul_oracle,
    perron_iteration_oracle,
    raw_block_pairs,
    run_filters_oracle_from_extension,
    strongly_connected_oracle,
)

CELL3_S = ((0, 0, 0), (0, 0, 0), (1, 1, 2))
CELL3_T = ((2, 0, 1), (0, 2, 1), (0, 0, 0))
UNREAL2_S = ((2, 2), (0, 0))
UNREAL2_T = ((0, 0), (1, 2))
UNREAL3_S = ((2, 3), (0, 0))
UNREAL3_T = ((0, 0), (1, 2))
ONES = ((1, 1), (1, 1))


def pair(n, theta_s, theta_t):
    return MatrixPair.from_matrices(n, theta_s, theta_t)


def test_matrix_pair_validation():
    with pytest.raises(ValueError):
        pair(4, ((-1,),), ((0,),))
    with pytest.raises(ValueError):
        pair(4, (), ())
    with pytest.raises(ValueError):
        pair(4, ((1, 0),), ((1, 0),))
    with pytest.raises(ValueError):
        pair(2, ((1,),), ((1,),))
    with pytest.raises(ValueError):
        pair(4, ((1,),), ((1, 0), (0, 1)))


def test_matrix_pair_jsonable():
    p = pair(5, ((1, 2), (3, 4)), ((0, 1), (1, 0)))
    obj = p.to_jsonable()
    assert obj == {
        "n": 5,
        "rank": 2,
        "theta_s": [[1, 2], [3, 4]],
        "theta_t": [[0, 1], [1, 0]],
    }
    assert MatrixPair.from_jsonable(obj) == p
    with pytest.raises(ValueError):
        MatrixPair.from_jsonable({"n": 4, "rank": 3, "theta_s": [[1]], "theta_t": [[1]]})


def test_extend_reproduces_cell_modules():
    # a generator pair coming from an honest module must extend to exactly
    # the matrices of that module, for every basis element including w0
    for n in range(3, 7):
        for name in ("Le", "Ls", "Lt", "Lw0"):
            module = cell_module(n, name)
            result = extend(pair(n, *module.generator_pair()))
            assert isinstance(result, ExtendedRep)
            assert dict(result.family) == dict(module.matrices)


def variety_pairs(n, rank, bound):
    """Every pair of the F1 variety, read from the search's flat enumeration."""
    matrices = [_square(m, rank) for m in _f1_matrices(rank, bound)]
    for theta_s, theta_t in itertools.product(matrices, repeat=2):
        yield MatrixPair(n=n, rank=rank, theta_s=theta_s, theta_t=theta_t)


def assert_same_extension(pair, check_support=False):
    got, expected = extend(pair, check_support), extend_oracle(pair, check_support)
    assert type(got) is type(expected), pair
    if isinstance(expected, ExtendedRep):
        assert list(got.family.items()) == list(expected.family.items()), pair
    else:
        assert (got.filter_id, got.element, got.witness) == (
            expected.filter_id,
            expected.element,
            expected.witness,
        ), pair
        assert list(got.partial.items()) == list(expected.partial.items()), pair


@pytest.mark.parametrize("n", range(3, 8))
def test_extend_matches_the_tuple_oracle_on_whole_spaces(n):
    # every block pair of rank <= 3 at E <= 2 and every pair of the F1
    # variety at rank <= 2, E = 2: families, failing elements and witnesses
    for rank in (1, 2, 3):
        for bound in (1, 2):
            for pair in raw_block_pairs(n, rank, bound):
                assert_same_extension(pair)
    for rank in (1, 2):
        for p in variety_pairs(n, rank, 2):
            assert_same_extension(p)


def random_pairs():
    """600 arbitrary nonnegative pairs, large entries and long words."""
    rng = random.Random(4242)
    for _ in range(600):
        rank = rng.randint(1, 5)
        n = rng.choice((3, 4, 5, 6, 9, 16, 30))
        bound = rng.choice((1, 2, 8, 40))
        matrices = [
            [[rng.randint(0, bound) if rng.random() < 0.5 else 0 for _ in range(rank)] for _ in range(rank)]
            for _ in range(2)
        ]
        yield pair(n, *matrices)


def test_extend_matches_the_tuple_oracle_on_random_pairs():
    # the packed rows must hold every entry the recursion reaches; with the
    # support checked, F4 stops both at the same vanishing matrix
    for p in random_pairs():
        assert_same_extension(p)
        assert_same_extension(p, check_support=True)


# The kernel judges every block pair and every pair of the F1 variety the way
# run_filters_oracle does, and run_filters renders the oracle's reports.
# Disabling a filter can only change the verdict when that filter is the one
# that failed, so the oracle is re-run with a filter off only for those pairs.
BLOCK_SPACES = [(rank, 2) for rank in (1, 2, 3, 4)] + [(rank, bound) for bound in (1, 3) for rank in (1, 2, 3)]


def kernel_verdicts(n, gen_s, gens_t, enabled, connected):
    """The search's verdict on each pair (A_s, A_t): F3 per support class,
    then one kernel call with a lane for each A_t that passes."""
    if "F3" in enabled:
        _, passing = _f3_split(gen_s.rank, gen_s.support, _support_classes(gens_t), connected)
    else:
        passing = list(gens_t)
    verdicts = {id(gen_t): "F3" for gen_t in gens_t}
    verdicts.update(zip(map(id, passing), _first_failure(n, gen_s, passing, frozenset(enabled))))
    return [verdicts[id(gen_t)] for gen_t in gens_t]


def assert_kernel_verdicts(n, pairs, base_disabled, offs=("F3", "F4", "F6")):
    # the pairs are batched by A_s, so pairs with different outcomes share
    # one kernel call
    default = normalize_filters(base_disabled)
    variants = [(None, default)] + [(off, normalize_filters(base_disabled + (off,))) for off in offs]
    batches = {}
    for p in pairs:
        batches.setdefault((p.rank, tuple(_flatten(p.theta_s))), []).append(p)
    seen = set()
    connected = {}  # one F3 table per rank, as the search keeps one
    for (rank, a_s), batch in batches.items():
        gen_s = _Generator(a_s, rank)
        gens_t = [_Generator(_flatten(p.theta_t), rank) for p in batch]
        # F1 and F3 are the same checks in both pipelines, so the oracle
        # takes their reports from run_filters and starts at the extension
        prefixes, firsts = [], []
        for p in batch:
            got_reports, got_ext, first = run_filters(p, default)
            prefixes.append([r for r in got_reports if r.filter_id in ("F1", "F3")])
            if first not in ("F1", "F3"):
                reports, ext, expected = run_filters_oracle_from_extension(p, default, prefixes[-1])
                assert (got_reports, first) == (reports, expected), p
                assert apex_of(got_ext) == apex_of(ext), p
            firsts.append(first)
        memo = connected.setdefault(rank, {})
        for off, enabled in variants:
            # a pair re-run with the filter it failed off passed the checks
            # before that filter
            expected = [
                run_filters_oracle_from_extension(p, enabled, [r for r in prefix if r.filter_id in enabled])[2]
                if off is not None and first == off
                else first
                for p, prefix, first in zip(batch, prefixes, firsts)
            ]
            assert kernel_verdicts(n, gen_s, gens_t, enabled, memo) == expected, (a_s, off)
            seen.update(expected)
    return seen


@pytest.mark.parametrize("n", range(3, 8))
def test_kernel_verdict_matches_run_filters(n):
    block = (p for rank, bound in BLOCK_SPACES for p in raw_block_pairs(n, rank, bound))
    assert {"F3", "F2", "F5", None} <= assert_kernel_verdicts(n, block, ())
    # The F1 variety at ranks <= 3 and E = 2, plus rank 4 at E = 1 for n = 5.
    # Most of the variety fails F3 and re-running it without F3 costs most,
    # so filters are switched off at n = 5 only; test_classify compares whole
    # F7-off reports with each of them off at n = 4.
    variety = [(rank, 2) for rank in (1, 2, 3)] + ([(4, 1)] if n == 5 else [])
    pairs = (p for rank, bound in variety for p in variety_pairs(n, rank, bound))
    offs = ("F3", "F4", "F6") if n == 5 else ()
    assert {"F3", "F4", None} <= assert_kernel_verdicts(n, pairs, ("F7",), offs)


@pytest.mark.parametrize("n", range(3, 8))
def test_prepared_kernel_matches_the_flat_pair_oracle(n):
    # the kernel on generators prepared once against the flat-pair kernel
    # that rebuilds everything per call: a one-lane call gives the same
    # matrices, width, outcome and negative matrix, and one call with a
    # lane for every A_t of the same A_s gives each lane's outcome, with
    # and without the support check.  Every block pair for each n; the F1
    # variety at rank <= 3, E = 2 at n = 4, where the benchmark searches
    # it; the random pairs once, each at its own n.
    prepared = {}

    def generator(flat, rank):
        if flat not in prepared:
            prepared[flat] = _Generator(flat, rank)
        return prepared[flat]

    def flat(pairs):
        return [(p.n, p.rank, tuple(_flatten(p.theta_s)), tuple(_flatten(p.theta_t))) for p in pairs]

    cases = flat(p for rank, bound in BLOCK_SPACES for p in raw_block_pairs(n, rank, bound))
    if n == 4:
        cases += [(n, rank, *ab) for rank in (1, 2, 3) for ab in itertools.product(_f1_matrices(rank, 2), repeat=2)]
    if n == 3:
        cases += flat(random_pairs())
    assert len(cases) == 8766 + (19773 if n == 4 else 0) + (600 if n == 3 else 0)
    batches = {}
    for m, rank, a_s, a_t in cases:
        gen_s, gen_t = generator(a_s, rank), generator(a_t, rank)
        for check_support in (False, True):
            expected = kl_recursion_oracle(m, rank, a_s, a_t, check_support)
            matrices, width, (outcome,), negative = _kl_recursion(m, gen_s, [gen_t], check_support)
            assert (matrices, width, outcome, negative) == expected, (m, a_s, a_t, check_support)
            batches.setdefault((m, rank, a_s, check_support), []).append((gen_t, expected[2]))
    for (m, rank, a_s, check_support), lanes in batches.items():
        gens_t = [gen_t for gen_t, _ in lanes]
        outcomes = _kl_recursion(m, generator(a_s, rank), gens_t, check_support)[2]
        assert outcomes == [outcome for _, outcome in lanes], (m, a_s, check_support)


def lane_entries(matrices, lane, width):
    """The entries of lane ``lane`` of lane-packed matrices."""
    rank = len(matrices[0])
    lane_bits = 8 * (rank * width // 8 + 1)
    offset = sum(1 << (width * j + width - 1) for j in range(rank))
    offsets = sum(offset << (lane_bits * l) for l in range(lane + 1))
    rows = [[((row + offsets) >> (lane_bits * lane) & ((1 << lane_bits) - 1)) - offset for row in m] for m in matrices]
    return _unpack(rows, width)


def test_lanes_with_mixed_outcomes_share_one_call():
    # A_s = [[1, 2], [1, 0]] at n = 5 with eleven lanes: F2 at lengths 3
    # (both letters) and 4 and at w0, F4 from a zero A_t and at lengths 3
    # and 4, F5 and two survivors.  Both F4 lanes and a survivor sit
    # directly above a lane that is negative there, so a bit test on raw
    # rows would see that lane's borrow.  Lanes hold their one-lane
    # families bit for bit until they fail.
    n, rank, a_s = 5, 2, (1, 2, 1, 0)
    lanes = [
        (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 2), (1, 2, 1, 0), (0, 0, 0, 0), (0, 1, 1, 0),
        (1, 1, 0, 0), (0, 3, 2, 0), (0, 2, 1, 0), (1, 0, 0, 1), (1, 2, 1, 0),
    ]
    gen_s, gens_t = _Generator(a_s, rank), [_Generator(a_t, rank) for a_t in lanes]
    expected = {
        True: ["F2", "F4", "F2", None, "F4", "F2", "F4", "F5", "F2", "F2", None],
        False: ["F2", "F2", "F2", None, "F2", "F2", "F2", "F5", "F2", "F2", None],
    }
    for check_support in (False, True):
        oracles = [kl_recursion_oracle(n, rank, a_s, a_t, check_support) for a_t in lanes]
        assert [oracle[2] for oracle in oracles] == expected[check_support]
        matrices, width, outcomes, negative = _kl_recursion(n, gen_s, gens_t, check_support)
        assert outcomes == expected[check_support]
        for lane, (family, lane_width, _, _) in enumerate(oracles):
            assert lane_entries(matrices[: len(family)], lane, width) == _unpack(family, lane_width), lane
        assert len(matrices) == 2 * n and negative is None
    # entries above 255 do not fit the byte columns of the lane set-up
    big = [(0, 0, 0, 1), (256, 0, 0, 0), (1, 2, 1, 0), (1, 0, 0, 300), (0, 0, 0, 0), (1, 2, 1, 0), (300, 300, 0, 0)]
    for check_support in (False, True):
        oracles = [kl_recursion_oracle(n, rank, a_s, a_t, check_support) for a_t in big]
        matrices, width, outcomes, _ = _kl_recursion(n, gen_s, [_Generator(a_t, rank) for a_t in big], check_support)
        assert outcomes == [oracle[2] for oracle in oracles]
        for lane, (family, lane_width, _, _) in enumerate(oracles):
            assert lane_entries(matrices[: len(family)], lane, width) == _unpack(family, lane_width), lane
    assert outcomes == ["F2", "F5", None, "F2", "F4", None, "F5"]
    # the lanes of a zero A_s: the all-zero pairs are exempt from F4, the
    # others fail it at once, whatever lies between them
    zero = (0, 0, 0, 0)
    lanes = [zero, (2, 0, 0, 0), zero, (1, 1, 1, 1), zero]
    gens_t = [_Generator(a_t, rank) for a_t in lanes]
    for check_support in (False, True):
        expected = [kl_recursion_oracle(n, rank, zero, a_t, check_support)[2] for a_t in lanes]
        assert _kl_recursion(n, _Generator(zero, rank), gens_t, check_support)[2] == expected
    assert expected == [None, "F4", None, "F4", None]


def test_one_lane_call_is_the_oracle_family_at_large_rank():
    # the regular pair (rank 2n) and the cell modules' pairs, one lane
    # each, against the flat-pair oracle matrix for matrix
    for n in range(3, 13):
        pairs = [kl_regular_matrices(n)] + [cell_module(n, name).generator_pair() for name in ("Ls", "Lt")]
        for theta_s, theta_t in pairs:
            rank = len(theta_s)
            a_s, a_t = tuple(_flatten(theta_s)), tuple(_flatten(theta_t))
            matrices, width, (outcome,), negative = _kl_recursion(n, _Generator(a_s, rank), [_Generator(a_t, rank)])
            assert (matrices, width, outcome, negative) == kl_recursion_oracle(n, rank, a_s, a_t), (n, rank)
            assert outcome is None and len(matrices) == 2 * n


def first_failure(n, rank, a_s, a_t, enabled):
    (verdict,) = kernel_verdicts(n, _Generator(a_s, rank), [_Generator(a_t, rank)], enabled, {})
    return verdict


def test_kernel_verdict_outside_the_block_space():
    # F4 from a vanishing generator, F3 skipped, and F6 never judged
    assert first_failure(4, 1, [2], [0], {"F3", "F4", "F6"}) == "F4"
    assert first_failure(4, 1, [2], [0], {"F3", "F6"}) == "F2"
    assert first_failure(4, 2, [2, 1, 0, 0], [0, 0, 1, 2], {"F3", "F4", "F6"}) == "F4"
    assert first_failure(3, 2, [2, 1, 0, 0], [0, 0, 1, 2], {"F3", "F4", "F6"}) is None
    assert first_failure(4, 2, [2, 0, 0, 2], [2, 0, 0, 2], {"F3"}) == "F3"
    # F1, a precondition of the kernel, and F5 imply F6.  The pair (1), (1)
    # fails F1, which run_filters charges first, and F6 at n = 3; the
    # kernel does not run F6, so it passes it with F6 on or off
    bad = pair(3, ((1,),), ((1,),))
    assert run_filters(bad, normalize_filters(("F7",)))[2] == "F1"
    assert not check_group_relations(bad).passed
    assert first_failure(3, 1, [1], [1], {"F3", "F4", "F6"}) is None
    assert first_failure(3, 1, [1], [1], {"F3", "F4"}) is None
    # with F1, F5 is (ST)^n = I: here ST = [[1, 0], [1, 1]] has infinite
    # order, so with F3 off (Q is not transitive) the kernel charges F5 at
    # every n, and F6 fails with it
    for n in (3, 4, 5, 6):
        assert first_failure(n, 2, [0, 0, 0, 2], [0, 0, 1, 2], {"F6"}) == "F5"
        assert not check_group_relations(pair(n, ((0, 0), (0, 2)), ((0, 0), (1, 2)))).passed


def test_extend_failure_negative_entry():
    result = extend(pair(4, ((2,),), ((0,),)))
    assert isinstance(result, ExtensionFailure)
    assert result.filter_id == "F2"
    assert render(result.element) == "sts"
    assert result.witness == "A_sts[0][0] = -2 is negative"
    # the partial family holds everything computed before the failure
    assert sorted(render(w) for w in result.partial) == ["e", "s", "st", "t", "ts"]


def test_extend_failure_at_longest_element():
    # entries stay nonnegative through length n-1 but the final step breaks
    result = extend(pair(4, ((2, 1), (0, 0)), ((0, 0), (1, 2))))
    assert isinstance(result, ExtensionFailure)
    assert result.filter_id == "F2"
    assert result.element == dihedral_group(4).longest_element()
    assert result.witness == "A_w0[0][0] = -1 is negative"


def test_extend_failure_vanishing_matrix():
    # with the support checked, the extension stops at the first vanishing
    # matrix, which the partial family ends with, before the F2 at sts
    result = extend(pair(4, ((2,),), ((0,),)), check_support=True)
    assert isinstance(result, ExtensionFailure)
    assert (result.filter_id, render(result.element)) == ("F4", "t")
    assert result.witness == "A_t = 0 inside a two-sided cell with nonzero members"
    assert [render(w) for w in result.partial] == ["e", "s", "t"]
    # A_s = 0 is the witness although A_t is built too
    result = extend(pair(4, ((0,),), ((2,),)), check_support=True)
    assert (result.filter_id, render(result.element)) == ("F4", "s")
    assert [render(w) for w in result.partial] == ["e", "s", "t"]
    # A_sts = 0 at n = 4: the partial family ends there, and it would
    # otherwise fail F2 at w0
    result = extend(pair(4, ((2, 1), (0, 0)), ((0, 0), (1, 2))), check_support=True)
    assert (result.filter_id, render(result.element)) == ("F4", "sts")
    assert [render(w) for w in result.partial] == ["e", "s", "t", "st", "ts", "sts"]
    assert is_zero_matrix(result.partial[result.element])
    # the zero pair has no support to break, and a full family passes
    assert isinstance(extend(pair(4, ((0,),), ((0,),)), check_support=True), ExtendedRep)
    assert isinstance(extend(pair(4, CELL3_S, CELL3_T), check_support=True), ExtendedRep)


def test_extend_failure_route_disagreement():
    result = extend(pair(4, ((2, 1), (0, 0)), ((0, 0), (3, 2))))
    assert isinstance(result, ExtensionFailure)
    assert result.filter_id == "F5"
    assert result.element == dihedral_group(4).longest_element()
    assert result.witness == "the s-leading and t-leading recursions for A_w0 disagree"


def test_extend_borderline_pairs():
    # the product of the off-diagonal entries decides everything at rank 2:
    # bb' = 2 extends, with the longest element acting by zero
    for n, theta_s, theta_t in ((4, UNREAL2_S, UNREAL2_T), (6, UNREAL3_S, UNREAL3_T)):
        result = extend(pair(n, theta_s, theta_t))
        assert isinstance(result, ExtendedRep)
        w0 = dihedral_group(n).longest_element()
        assert is_zero_matrix(result.family[w0])
    # but the same shape fails one step from the top at odd n
    result = extend(pair(5, UNREAL2_S, UNREAL2_T))
    assert isinstance(result, ExtensionFailure)
    assert result.filter_id == "F2"
    assert result.element == dihedral_group(5).longest_element()


def test_check_idempotent():
    good = check_idempotent(pair(4, ((2,),), ((0,),)))
    assert good.filter_id == "F1" and good.passed and good.witness is None
    bad = check_idempotent(pair(4, ((1,),), ((0,),)))
    assert not bad.passed
    assert bad.witness == "A_s^2 != 2 A_s"
    bad_t = check_idempotent(pair(4, ((2,),), ((1,),)))
    assert not bad_t.passed
    assert bad_t.witness == "A_t^2 != 2 A_t"
    # the flat entry-by-entry predicate against A^2 = 2A by the dense product
    rng = random.Random(77)
    for _ in range(500):
        rank = rng.randint(1, 4)
        theta_s, theta_t = (
            tuple(tuple(rng.choice((0, 0, 1, 2, 2, 3)) for _ in range(rank)) for _ in range(rank)) for _ in range(2)
        )
        expected = None
        for name, m in (("A_s", theta_s), ("A_t", theta_t)):
            if mat_mul_oracle(m, m) != tuple(tuple(2 * v for v in row) for row in m):
                expected = f"{name}^2 != 2 {name}"
                break
        assert check_idempotent(pair(4, theta_s, theta_t)).witness == expected, (theta_s, theta_t)


def test_check_transitive():
    # two decoupled vertices: the quiver of A_s + A_t is disconnected
    report = check_transitive(pair(4, ((2, 0), (0, 2)), ((2, 0), (0, 2))))
    assert report.filter_id == "F3"
    assert not report.passed
    assert report.witness == "vertex 1 is not in the two-sided orbit of vertex 0"
    assert check_transitive(pair(4, CELL3_S, CELL3_T)).passed
    # one-way flow is not enough; the orbit must be two-sided
    one_way = check_transitive(pair(4, ((0, 1), (0, 0)), ((0, 0), (0, 0))))
    assert not one_way.passed


def test_strongly_connected_matches_the_adjacency_set_oracle():
    # every support pattern of rank <= 4: verdict and missing vertex
    for r in range(1, 5):
        for support in range(1 << (r * r)):
            flat = [support >> index & 1 for index in range(r * r)]
            assert _support(flat) == support
            assert _strongly_connected(support, r) == strongly_connected_oracle(flat, r), (r, support)


def test_shared_f3_memo_gives_the_fresh_verdicts():
    # one table over the whole rank-3 variety, as the search keeps one per
    # rank, against a fresh table for every A_s and against check_transitive
    matrices = [_Generator(a, 3) for a in _f1_matrices(3, 2)]
    classes = _support_classes(matrices)
    shared = {}
    failures = set()
    for gen_s in matrices:
        failing, passing = _f3_split(3, gen_s.support, classes, shared)
        assert (failing, passing) == _f3_split(3, gen_s.support, classes, {}), gen_s.flat
        theta_s = _square(gen_s.flat, 3)
        passed = [g for g in matrices if check_transitive(MatrixPair(4, 3, theta_s, _square(g.flat, 3))).passed]
        assert sorted(g.flat for g in passing) == [g.flat for g in passed]
        assert failing == len(matrices) - len(passed)
        failures.add(failing)
    assert set(shared) == {gen_s.support | gen_t.support for gen_s in matrices for gen_t in matrices}
    assert max(failures) > 0 and min(failures) < len(matrices)


def test_check_apex_support():
    # a failed extension still carries enough of the family to test support
    failure = extend(pair(4, ((2,),), ((0,),)))
    report = check_apex_support(4, failure)
    assert report.filter_id == "F4"
    assert not report.passed
    assert report.witness == "A_t = 0 inside a two-sided cell with nonzero members"
    # mirrored pair blames the other generator
    mirrored = check_apex_support(4, extend(pair(4, ((0,),), ((2,),))))
    assert mirrored.witness == "A_s = 0 inside a two-sided cell with nonzero members"
    # full modules pass
    for name in ("Le", "Ls", "Lt", "Lw0"):
        module = cell_module(4, name)
        assert check_apex_support(4, extend(pair(4, *module.generator_pair()))).passed
    # support must also be downward closed: vanishing only on the identity cell
    group = dihedral_group(4)
    family = {w: ((0,),) if w.is_identity() else ((1,),) for w in group.all_elements()}
    skipped = check_apex_support(4, family)
    assert not skipped.passed
    assert skipped.witness == "support skips the lower two-sided cell containing e"


def test_check_group_relations():
    # (A_s - I) and (A_t - I) generate a dihedral group action when the pair
    # is a module; the rotation order must divide n
    report = check_group_relations(pair(4, ((2, 1), (0, 0)), ((0, 0), (1, 2))))
    assert report.filter_id == "F6"
    assert not report.passed
    assert report.witness == "((A_s - I)(A_t - I))^4 != I"
    # the same rotation has order 3, so it is fine at n=3
    assert check_group_relations(pair(3, ((2, 1), (0, 0)), ((0, 0), (1, 2)))).passed
    assert check_group_relations(pair(4, ONES, ONES)).passed
    assert check_group_relations(pair(4, CELL3_S, CELL3_T)).passed
    broken = check_group_relations(pair(4, ((1,),), ((0,),)))
    assert not broken.passed
    assert broken.witness == "(A_s - I)^2 != I"


def test_check_block_form():
    report = check_block_form(pair(4, ONES, ONES))
    assert report.filter_id == "F7"
    assert not report.passed
    assert report.witness == "one generator has no index where it acts by 2"
    assert check_block_form(pair(4, CELL3_S, CELL3_T)).passed
    assert check_block_form(pair(4, UNREAL2_S, UNREAL2_T)).passed
    # rank one: each generator must act by 0 or 2
    assert check_block_form(pair(4, ((2,),), ((0,),))).passed
    bad = check_block_form(pair(4, ((1,),), ((1,),)))
    assert not bad.passed
    assert bad.witness == "rank-one diagonal entries must be 0 or 2"


def test_apex_of():
    assert apex_of(extend(pair(4, *cell_module(4, "Le").generator_pair()))) == "J1"
    assert apex_of(extend(pair(4, *cell_module(4, "Ls").generator_pair()))) == "J2"
    assert apex_of(extend(pair(4, *cell_module(4, "Lt").generator_pair()))) == "J2"
    assert apex_of(extend(pair(4, *cell_module(4, "Lw0").generator_pair()))) == "J3"
    assert apex_of(extend(pair(4, UNREAL2_S, UNREAL2_T))) == "J2"
    group = dihedral_group(4)
    with pytest.raises(ValueError):
        apex_of({w: ((0,),) for w in group.all_elements()})


def test_global_annihilator_frozen():
    assert global_annihilator(4, "J2") == (0, -4, 10, -6, 1)
    assert global_annihilator(3, "J2") == (0, -6, 11, -6, 1)
    for n in range(3, 7):
        assert global_annihilator(n, "J1") == (0, 1)
    with pytest.raises(ValueError):
        global_annihilator(4, "J4")


def test_global_annihilators_kill_the_regular_module():
    # p_J(Q) A_w = 0 for every w with apex <= J; in particular the J3
    # polynomial kills Q itself on the regular module
    for n in range(3, 7):
        m_s, m_t = kl_regular_matrices(n)
        q = mat_add(m_s, m_t)
        assert is_zero_matrix(poly_eval_matrix(global_annihilator(n, "J3"), q))


def test_closed_form_annihilator_matches_the_regular_module():
    # char(b(s) + b(t) on Z[D_n]) = x (x-4) (x-2)^{2e} P^2, so multiplying it
    # by x (x-4) gives the square of the J3 annihilator x (x-4) (x-2)^e P
    for n in range(3, 21):
        regular = char_poly(mat_add(*kl_regular_matrices(n)))
        j3 = global_annihilator(n, "J3")
        assert poly_mul((0, -4, 1), regular) == poly_mul(j3, j3), n


def test_annihilator_check_on_cell_modules():
    for n in range(3, 7):
        for name in ("Le", "Ls", "Lt", "Lw0"):
            module = cell_module(n, name)
            extended = extend(pair(n, *module.generator_pair()))
            report = annihilator_check(extended)
            assert report.filter_id == "annihilator"
            assert report.passed, (n, name, report.witness)


def test_det_identity_validation():
    with pytest.raises(ValueError):
        det_identity(0, 1, (1,), (1,), (1,), (1,))
    with pytest.raises(ValueError):
        det_identity(2, 1, (1,), (1,), (1,), (1, 1))  # lam has the wrong length
    with pytest.raises(ValueError):
        det_identity(2, 1, (2, 1), (1,), (1,), (1, 1))  # lam[0] must be 1
    with pytest.raises(ValueError):
        det_identity(2, 1, (1, 0), (1,), (1,), (1, 1))  # entries must be positive
    with pytest.raises(ValueError):
        det_identity(2, 1, (1, True), (1,), (1,), (1, 1))  # and actual ints


def test_det_identity_values():
    # both routes agree and match 2^(k+l) - 2^(k+l-2) (lam.w)(mu.v)
    assert det_identity(2, 1, (1, 1), (1,), (1,), (1, 1)) == (4, 4)
    assert det_identity(4, 4, (1,) * 4, (1,) * 4, (1,) * 4, (1,) * 4) == (-768, -768)
    direct, closed = det_identity(3, 2, (1, 2, 1), (1, 3), (2, 1), (1, 1, 2))
    assert direct == closed
    lam_dot_w = 1 * 1 + 2 * 1 + 1 * 2
    mu_dot_v = 1 * 2 + 3 * 1
    assert closed == 2**5 - 2**3 * lam_dot_w * mu_dot_v


def test_perron_analysis_rank3_pair():
    q = mat_add(CELL3_S, CELL3_T)
    assert q == ((2, 0, 1), (0, 2, 1), (1, 1, 2))
    analysis = perron_analysis(q)
    assert analysis.irreducible
    assert analysis.top_eigenvalue_simple
    assert analysis.spectral_radius == pytest.approx(2 + math.sqrt(2), abs=1e-9)
    vec = analysis.positive_eigenvector
    assert vec is not None and all(x > 0 for x in vec)
    assert max(vec) == pytest.approx(1.0)
    # eigenvector (1, 1, sqrt(2)) normalized by its maximum entry
    assert vec[0] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert vec[1] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert vec[2] == pytest.approx(1.0, abs=1e-6)


def test_perron_analysis_jordan_blocks():
    # a defective top eigenvalue is double, however close the float radius is
    jordan = perron_analysis(((1, 1), (0, 1)))
    assert not jordan.top_eigenvalue_simple
    nilpotent = perron_analysis(((0, 1), (0, 0)))
    assert not nilpotent.top_eigenvalue_simple
    scalar = perron_analysis(((2, 0), (0, 2)))
    assert not scalar.top_eigenvalue_simple
    assert scalar.spectral_radius == pytest.approx(2.0)
    # a repeated eigenvalue below the radius leaves the top one simple
    lower_double = perron_analysis(((3, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert lower_double.top_eigenvalue_simple


def random_nonnegative(rng):
    """A random nonnegative matrix of rank <= 6: dense, sparse, block
    triangular (reducible) or a weighted permutation (periodic)."""
    r = rng.randint(1, 6)
    kind = rng.choice(("dense", "sparse", "reducible", "periodic"))
    if kind == "periodic":
        perm = rng.sample(range(r), r)
        return tuple(tuple(rng.randint(1, 3) if j == perm[i] else 0 for j in range(r)) for i in range(r))
    if kind == "reducible" and r > 1:
        k = rng.randint(1, r - 1)
        return tuple(tuple(0 if i >= k > j else rng.randint(0, 3) for j in range(r)) for i in range(r))
    values = (0, 1, 2, 3) if kind == "dense" else (0, 0, 0, 1, 2)
    return tuple(tuple(rng.choice(values) for _ in range(r)) for _ in range(r))


def assert_same_perron(q):
    """perron_analysis(q) has the oracle's floats or raises as it does;
    returns whether it raised."""
    try:
        expected = perron_iteration_oracle(q)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            perron_analysis(q)
        return True
    got = perron_analysis(q)
    assert (got.spectral_radius, got.positive_eigenvector) == expected, q
    return False


def test_perron_analysis_matches_the_dense_iteration_oracle():
    # the same floats, bit for bit, as the dense iteration with two products
    # per step: every cell module for n = 3..30 and 400 random matrices
    for n in range(3, 31):
        for name in ("Le", "Ls", "Lt", "Lw0"):
            assert not assert_same_perron(mat_add(*cell_module(n, name).generator_pair()))
    # A defective top eigenvalue takes up to 200,000 steps (about a second
    # each), so the random matrices are those whose top eigenvalue is simple,
    # and two Jordan blocks stand for the rest: one converges, one raises.
    for q in random_simple_top_matrices():
        assert not assert_same_perron(q)
    assert not assert_same_perron(((0, 1), (0, 0)))
    assert assert_same_perron(((2, 1), (0, 2)))


def random_simple_top_matrices():
    """The first 400 matrices of ``random_nonnegative`` whose largest real
    eigenvalue is simple, from a fixed seed."""
    rng = random.Random(2015)
    found = []
    while len(found) < 400:
        q = random_nonnegative(rng)
        if _top_real_root_is_simple(char_poly(q)):
            found.append(q)
    return found


def test_perron_simplicity_matches_the_sturm_path(monkeypatch):
    # Perron-Frobenius decides an irreducible matrix without its
    # characteristic polynomial; the verdict is the Sturm path's on every
    # cell module for n = 3..30, the 400 random matrices and reducible
    # matrices with a simple or a repeated top eigenvalue
    ones = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
    reducible = {
        ((2, 0), (0, 2)): False,
        ((2, 0), (0, 1)): True,
        ((3, 0, 0), (0, 1, 0), (0, 0, 1)): True,
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)): False,
        ones: False,
        tuple(row[:3] for row in ones[:3]): True,
    }
    cells = [mat_add(*cell_module(n, name).generator_pair()) for n in range(3, 31) for name in ("Le", "Ls", "Lt", "Lw0")]
    cases = cells + random_simple_top_matrices() + list(reducible)
    verdicts = {}
    for q in cases:
        analysis = perron_analysis(q)
        assert analysis.top_eigenvalue_simple == _top_real_root_is_simple(char_poly(q)), q
        verdicts[q] = analysis.irreducible
    assert {q: _top_real_root_is_simple(char_poly(q)) for q in reducible} == reducible
    assert not any(verdicts[q] for q in reducible)
    assert all(verdicts[q] for q in cells) and 0 < sum(verdicts.values()) < len(verdicts)

    def refuse(q):
        raise AssertionError("char_poly on an irreducible matrix")

    monkeypatch.setattr(sys.modules["klcells.nimrep"], "char_poly", refuse)
    for q, irreducible in verdicts.items():
        if irreducible:
            assert perron_analysis(q).top_eigenvalue_simple


def test_perron_analysis_edge_cases():
    reducible = perron_analysis(((2, 0), (0, 1)))
    assert not reducible.irreducible
    assert reducible.positive_eigenvector is None
    assert reducible.spectral_radius == pytest.approx(2.0, abs=1e-6)

    swap = perron_analysis(((0, 1), (1, 0)))
    assert swap.irreducible
    assert swap.spectral_radius == pytest.approx(1.0, abs=1e-9)
    assert swap.top_eigenvalue_simple
    assert swap.positive_eigenvector == pytest.approx((1.0, 1.0))

    ones = perron_analysis(((1, 1), (1, 1)))
    assert ones.irreducible
    assert ones.spectral_radius == pytest.approx(2.0, abs=1e-9)
    # charpoly x^2 - 2x has distinct roots, so the top eigenvalue is simple
    assert ones.top_eigenvalue_simple

    single = perron_analysis(((0,),))
    assert single.spectral_radius == 0.0

    with pytest.raises(ValueError):
        perron_analysis(((1, 2),))  # not square
    with pytest.raises(ValueError):
        perron_analysis(((-1,),))  # negative entry
