"""Extending generator pairs to the whole basis, and the matrix filters."""

import itertools
import math
import random

import pytest

from klcells.cells import cell_module
from klcells.classify import _f1_matrices, normalize_filters, run_filters
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
)
from klcells.algebra import kl_regular_matrices
from oracles import extend_oracle, mat_mul_oracle, perron_iteration_oracle, raw_block_pairs

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


def assert_same_extension(pair):
    got, expected = extend(pair), extend_oracle(pair)
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


def test_extend_matches_the_tuple_oracle_on_random_pairs():
    # arbitrary nonnegative pairs, large entries and long words: the packed
    # rows must hold every entry the recursion reaches
    rng = random.Random(4242)
    for _ in range(600):
        rank = rng.randint(1, 5)
        n = rng.choice((3, 4, 5, 6, 9, 16, 30))
        bound = rng.choice((1, 2, 8, 40))
        matrices = [
            [[rng.randint(0, bound) if rng.random() < 0.5 else 0 for _ in range(rank)] for _ in range(rank)]
            for _ in range(2)
        ]
        assert_same_extension(pair(n, *matrices))


# The kernel judges every block pair and every pair of the F1 variety the way
# run_filters does.  Disabling a filter can only change run_filters' verdict
# when that filter is the one that failed, so run_filters is re-run with a
# filter off only for those pairs.
BLOCK_SPACES = [(rank, 2) for rank in (1, 2, 3, 4)] + [(rank, bound) for bound in (1, 3) for rank in (1, 2, 3)]


def assert_kernel_verdicts(n, pairs, base_disabled, offs=("F3", "F4", "F6")):
    default = normalize_filters(base_disabled)
    variants = [(None, default)] + [(off, normalize_filters(base_disabled + (off,))) for off in offs]
    seen = set()
    for p in pairs:
        a_s, a_t = _flatten(p.theta_s), _flatten(p.theta_t)
        first = run_filters(p, default)[2]
        for off, enabled in variants:
            expected = run_filters(p, enabled)[2] if off is not None and first == off else first
            assert _first_failure(n, p.rank, a_s, a_t, frozenset(enabled)) == expected, (p, off)
            seen.add(expected)
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


def test_kernel_verdict_outside_the_block_space():
    # F4 from a vanishing generator, F6 on a pair that extends, F3 skipped
    assert _first_failure(4, 1, [2], [0], frozenset({"F3", "F4", "F6"})) == "F4"
    assert _first_failure(4, 1, [2], [0], frozenset({"F3", "F6"})) == "F2"
    assert _first_failure(4, 2, [2, 1, 0, 0], [0, 0, 1, 2], frozenset({"F3", "F4", "F6"})) == "F4"
    assert _first_failure(3, 2, [2, 1, 0, 0], [0, 0, 1, 2], frozenset({"F3", "F4", "F6"})) is None
    assert _first_failure(4, 2, [2, 0, 0, 2], [2, 0, 0, 2], frozenset({"F3"})) == "F3"
    assert _first_failure(3, 1, [1], [1], frozenset({"F3", "F4", "F6"})) == "F6"
    assert _first_failure(3, 1, [1], [1], frozenset({"F3", "F4"})) is None


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
    rng = random.Random(2015)
    random_cases = 0
    while random_cases < 400:
        q = random_nonnegative(rng)
        if _top_real_root_is_simple(char_poly(q)):
            assert not assert_same_perron(q)
            random_cases += 1
    assert not assert_same_perron(((0, 1), (0, 0)))
    assert assert_same_perron(((2, 1), (0, 2)))


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
