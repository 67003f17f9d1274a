"""Simple modules, characters, and decomposition of integer representations."""

import itertools
import math
import random

import pytest

from klcells.algebra import kl_regular_matrices
from klcells.cells import cell_module
from klcells.dihedral import dihedral_group
from klcells.exact import identity_matrix, mat_mul, mat_sub, trace, zero_matrix
from klcells.nimrep import _square
from klcells import reps
from klcells.reps import (
    Decomposition,
    NotAModuleError,
    OneDim,
    TwoDim,
    char_poly_two_dim,
    decompose,
    module_dim,
    simple_name,
    check_module_relations,
    simples,
    _module_decomposition,
)
from oracles import (
    block_matrix,
    character,
    decompose_oracle,
    eigenvalue_orders,
    group_matrices_oracle,
    kl_generator_matrices,
    module_relations_oracle,
)


def test_simples_inventory():
    for n in range(3, 10):
        modules = simples(n)
        onedims = [m for m in modules if isinstance(m, OneDim)]
        twodims = [m for m in modules if isinstance(m, TwoDim)]
        if n % 2 == 0:
            assert len(onedims) == 4
        else:
            assert len(onedims) == 2
            assert all(m.eps == m.delta for m in onedims)
        assert len(twodims) == (n - 1) // 2 if n % 2 else n // 2 - 1
        assert sum(module_dim(m) ** 2 for m in modules) == 2 * n
    with pytest.raises(ValueError):
        simples(2)


def test_simple_names():
    assert [simple_name(m, 4) for m in simples(4)] == [
        "V(1,1)",
        "V(1,-1)",
        "V(-1,1)",
        "V(-1,-1)",
        "V(4,1)",
    ]
    assert [simple_name(m, 5) for m in simples(5)] == [
        "V(1,1)",
        "V(-1,-1)",
        "V(5,1)",
        "V(5,2)",
    ]


def test_character_values():
    group = dihedral_group(4)
    text = group.element_from_text
    v = TwoDim(1)
    assert character(v, 4, group.identity()) == pytest.approx(2.0)
    assert character(v, 4, text("s")) == pytest.approx(0.0)
    assert character(v, 4, text("st")) == pytest.approx(2 * math.cos(math.pi / 2), abs=1e-12)
    assert character(v, 4, group.longest_element()) == pytest.approx(-2.0)
    triv = OneDim(1, 1)
    sign = OneDim(-1, -1)
    for w in group.all_elements():
        assert character(triv, 4, w) == pytest.approx(1.0)
        assert character(sign, 4, w) == pytest.approx((-1.0) ** w.length)
    mixed = OneDim(1, -1)
    assert character(mixed, 4, text("s")) == pytest.approx(1.0)
    assert character(mixed, 4, text("t")) == pytest.approx(-1.0)
    assert character(mixed, 4, text("st")) == pytest.approx(-1.0)


def test_character_orthogonality():
    # characters of the simples form an orthonormal family for the
    # normalized pairing <x, y> = (1/2n) sum_w x(w) y(w)
    for n in range(3, 9):
        group = dihedral_group(n)
        modules = simples(n)
        for a in modules:
            for b in modules:
                pairing = sum(
                    character(a, n, w) * character(b, n, w) for w in group.all_elements()
                ) / (2 * n)
                assert pairing == pytest.approx(1.0 if a == b else 0.0, abs=1e-9)


def test_kl_generator_matrices():
    b_s, b_t = kl_generator_matrices(4, TwoDim(1))
    assert len(b_s) == 2
    # b(s) acts with eigenvalues 2 and 0 in the two-dimensional module
    assert b_s[0][0] == pytest.approx(2.0)
    assert b_s[0][1] == pytest.approx(0.0)
    assert b_s[1][0] == pytest.approx(0.0)
    assert b_s[1][1] == pytest.approx(0.0)
    for n in (3, 4, 5):
        for module in simples(n):
            m_s, m_t = kl_generator_matrices(n, module)
            dim = module_dim(module)
            # both generator images square to twice themselves
            for m in (m_s, m_t):
                sq = [
                    [sum(m[i][k] * m[k][j] for k in range(dim)) for j in range(dim)]
                    for i in range(dim)
                ]
                for i in range(dim):
                    for j in range(dim):
                        assert sq[i][j] == pytest.approx(2 * m[i][j], abs=1e-9)


def test_char_poly_two_dim_integral_cases():
    # x^2 - 4x + c with c = 3, 2, 1 exactly when n/k is 3, 4, 6
    assert char_poly_two_dim(3, 1).integer_coefficients == (3, -4, 1)
    assert char_poly_two_dim(4, 1).integer_coefficients == (2, -4, 1)
    assert char_poly_two_dim(6, 1).integer_coefficients == (1, -4, 1)
    assert char_poly_two_dim(6, 2).integer_coefficients == (3, -4, 1)
    assert char_poly_two_dim(8, 2).integer_coefficients == (2, -4, 1)
    assert char_poly_two_dim(12, 2).integer_coefficients == (1, -4, 1)
    for n, k in ((5, 1), (5, 2), (7, 3), (8, 1)):
        q = char_poly_two_dim(n, k)
        assert not q.has_integer_coefficients
        assert q.integer_coefficients is None
        # the exact constant term is 2 - 2cos(2 pi k / n)
        assert q.coefficients[0] == pytest.approx(2 - 2 * math.cos(2 * math.pi * k / n))
    with pytest.raises(ValueError):
        char_poly_two_dim(4, 0)
    with pytest.raises(ValueError):
        char_poly_two_dim(4, 2)


def test_decompose_cell_modules_frozen():
    assert decompose(4, *cell_module(4, "Le").generator_pair()).render() == "V(-1,-1)"
    assert decompose(4, *cell_module(4, "Lw0").generator_pair()).render() == "V(1,1)"
    assert decompose(4, *cell_module(4, "Ls").generator_pair()).render() == "V(1,-1) ⊕ V(4,1)"
    assert decompose(4, *cell_module(4, "Lt").generator_pair()).render() == "V(-1,1) ⊕ V(4,1)"
    ls = decompose(4, *cell_module(4, "Ls").generator_pair())
    lt = decompose(4, *cell_module(4, "Lt").generator_pair())
    assert ls.as_dict() != lt.as_dict()
    assert ls.multiplicity(TwoDim(1)) == 1
    assert ls.multiplicity(OneDim(1, -1)) == 1
    assert ls.multiplicity(OneDim(-1, 1)) == 0
    assert ls.total_dim() == 3


def test_decompose_regular_representation():
    # every simple occurs with multiplicity equal to its dimension
    for n in (3, 4, 5, 6):
        m_s, m_t = kl_regular_matrices(n)
        dec = decompose(n, m_s, m_t)
        assert dec.as_dict() == {m: module_dim(m) for m in simples(n)}
        assert dec.total_dim() == 2 * n


def test_decompose_odd_n_cells():
    # odd n has no mixed-sign one-dimensionals; middle cells give sums of
    # two-dimensionals only
    dec = decompose(5, *cell_module(5, "Ls").generator_pair())
    assert dec.as_dict() == {TwoDim(1): 1, TwoDim(2): 1}


def test_decompose_rejects_non_modules():
    with pytest.raises(NotAModuleError) as info:
        decompose(4, ((3,),), ((0,),))
    assert info.value.relation == "(A_s - I)^2 != I"
    with pytest.raises(NotAModuleError):
        decompose(4, ((1, 0),), ((0,),))  # not square
    # generator images fine, braid relation broken: order-3 rotation at n=4
    a_s = ((2, 1), (0, 0))
    a_t = ((0, 0), (1, 2))
    with pytest.raises(NotAModuleError) as info:
        decompose(4, a_s, a_t)
    assert "^4 != I" in info.value.relation
    # and the same pair is a perfectly good module at n=3
    assert decompose(3, a_s, a_t).as_dict() == {TwoDim(1): 1}


def unimodular_pair(rng, dim):
    """A random integer matrix with determinant +-1, and its exact inverse."""
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    u_inv = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        # row_j += c * row_i on u; the inverse composes on the other side
        for k in range(dim):
            u[j][k] += c * u[i][k]
        for k in range(dim):
            u_inv[k][i] -= c * u_inv[k][j]
    return tuple(map(tuple, u)), tuple(map(tuple, u_inv))


def direct_sum(pairs):
    """The block-diagonal (A_s, A_t) of a list of (A_s, A_t)."""
    sizes = [len(a_s) for a_s, _ in pairs]
    return tuple(
        block_matrix(
            [
                [pair[letter] if i == j else zero_matrix(sizes[i], size) for j, size in enumerate(sizes)]
                for i, pair in enumerate(pairs)
            ]
        )
        for letter in (0, 1)
    )


def conjugated(rng, a_s, a_t):
    """(U A_s U^-1, U A_t U^-1) for a random unimodular U."""
    u, u_inv = unimodular_pair(rng, len(a_s))
    assert mat_mul(u, u_inv) == identity_matrix(len(a_s))
    return mat_mul(u, mat_mul(a_s, u_inv)), mat_mul(u, mat_mul(a_t, u_inv))


def test_decompose_random_conjugated_sums():
    # sums of cell modules, conjugated by a unimodular matrix: at composite
    # n (12, 24, 30) a sum mixes eigenvalues of ST of many orders
    rng = random.Random(40320)
    names = ("Le", "Ls", "Lt", "Lw0")
    for _ in range(120):
        n = rng.randint(3, 30)
        picks = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        modules = [cell_module(n, name) for name in picks]
        conj_s, conj_t = conjugated(rng, *direct_sum([module.generator_pair() for module in modules]))

        expected: dict = {}
        for module in modules:
            for simple, mult in decompose(n, *module.generator_pair()).as_dict().items():
                expected[simple] = expected.get(simple, 0) + mult
        assert decompose(n, conj_s, conj_t).as_dict() == expected


def explicit_traces(s_mat, t_mat, top):
    """[tr (ST)^j for j = 0 .. top], one power after another."""
    rotation = mat_mul(s_mat, t_mat)
    power, traces = identity_matrix(len(s_mat)), []
    for _ in range(top + 1):
        traces.append(trace(power))
        power = mat_mul(power, rotation)
    return traces


def test_rotation_traces_where_the_traces_vary():
    # a_j is the same for every 0 < j < n on a cell module of D_n and on
    # the regular pair, so those tell little about which powers
    # _rotation_traces pairs.  Here a_j varies: the regular pair up to
    # top = n, where a_n = 2n; conjugated sums of Ls or Lt of D_d for a
    # proper divisor d >= 3 of n, a D_n-module of rank d - 1 with a_j = -1
    # for 0 < j < d and a_d = d - 1, and up to two one-dimensional modules
    # (a_j = (-1)^j on V(1,-1) and V(-1,1)); and random integer pairs
    def check(s_mat, t_mat, tops):
        expected = explicit_traces(s_mat, t_mat, max(tops))
        for top in tops:
            assert reps._rotation_traces(s_mat, t_mat, top)[0] == expected[: top + 1], (s_mat, t_mat, top)
        return expected

    for n in range(3, 13):
        a_s, a_t = kl_regular_matrices(n)
        ident = identity_matrix(2 * n)
        assert check(mat_sub(a_s, ident), mat_sub(a_t, ident), range(1, n + 1))[n] == 2 * n
    rng = random.Random(5040)
    for _ in range(40):
        n = rng.choice([n for n in range(6, 31) if any(n % d == 0 for d in range(3, n))])
        d = rng.choice([d for d in range(3, n) if n % d == 0])
        signs = [(1, 1), (-1, -1)] + ([(1, -1), (-1, 1)] if n % 2 == 0 else [])
        parts = [cell_module(d, rng.choice(("Ls", "Lt"))).generator_pair()]
        parts += [(((1 + eps,),), ((1 + delta,),)) for eps, delta in rng.sample(signs, rng.randint(0, 2))]
        a_s, a_t = conjugated(rng, *direct_sum(parts))
        ident = identity_matrix(len(a_s))
        expected = check(mat_sub(a_s, ident), mat_sub(a_t, ident), sorted({n // 2, n - 1, n}))
        assert expected[d] != expected[1], (n, d)
    for _ in range(200):
        r = rng.randint(1, 4)
        s_mat, t_mat = (tuple(tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(r)) for _ in "st")
        check(s_mat, t_mat, range(1, 9))


def test_decomposition_render_and_json():
    dec = decompose(4, *kl_regular_matrices(4))
    assert dec.render() == "V(1,1) ⊕ V(1,-1) ⊕ V(-1,1) ⊕ V(-1,-1) ⊕ 2·V(4,1)"
    assert dec.to_jsonable() == {
        "V(1,1)": 1,
        "V(1,-1)": 1,
        "V(-1,1)": 1,
        "V(-1,-1)": 1,
        "V(4,1)": 2,
    }
    empty = Decomposition(4, ())
    assert empty.render() == "0"
    assert empty.total_dim() == 0


def test_group_matrices_match_word_products():
    # rho(w) built from its prefix equals the product over w's whole word
    for n in range(3, 13):
        group = dihedral_group(n)
        pairs = [cell_module(n, name).generator_pair() for name in ("Le", "Ls", "Lt", "Lw0")]
        pairs.append(kl_regular_matrices(n))
        for a_s, a_t in pairs:
            ident = identity_matrix(len(a_s))
            gen = {"s": mat_sub(a_s, ident), "t": mat_sub(a_t, ident)}
            rho = group_matrices_oracle(n, a_s, a_t)
            assert set(rho) == set(group.all_elements())
            for w in group.all_elements():
                product = ident
                for letter in w.word():
                    product = mat_mul(product, gen[letter])
                assert rho[w] == product


def test_decompose_matches_the_cyclotomic_factors_of_the_characteristic_polynomial():
    # sympy divides the characteristic polynomial of ST by Phi_d for each
    # d | n; Phi_d has the phi(d) primitive d-th roots as its roots
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in list(range(3, 25)) + [30, 36]:
        for name in ("Le", "Ls", "Lt", "Lw0"):
            a_s, a_t = cell_module(n, name).generator_pair()
            ident = identity_matrix(len(a_s))
            rotation = sympy.Matrix(mat_mul(mat_sub(a_s, ident), mat_sub(a_t, ident)))
            remainder = sympy.Poly(rotation.charpoly(x).as_expr(), x)
            counts = {}
            for d in sympy.divisors(n):
                phi_d = sympy.Poly(sympy.cyclotomic_poly(d, x), x)
                while True:
                    quotient, rest = sympy.div(remainder, phi_d)
                    if not rest.is_zero:
                        break
                    remainder = quotient
                    counts[d] = counts.get(d, 0) + phi_d.degree()
            assert remainder.degree() == 0, (n, name)
            assert eigenvalue_orders(n, decompose(n, a_s, a_t)) == counts, (n, name)


def same_decomposition(n, a_s, a_t):
    """decompose(n, a_s, a_t) against the word-product oracle: the same
    terms, or NotAModuleError with the same relation text; on a module,
    the check-free route of the search's annotation gives the same terms."""
    try:
        expected = decompose_oracle(n, a_s, a_t)
    except NotAModuleError as error:
        with pytest.raises(NotAModuleError) as info:
            decompose(n, a_s, a_t)
        assert info.value.relation == error.relation, (n, a_s, a_t)
        return error.relation
    assert decompose(n, a_s, a_t) == expected, (n, a_s, a_t)
    assert _module_decomposition(n, a_s, a_t) == expected, (n, a_s, a_t)
    return None


def test_decompose_matches_the_word_product_oracle_on_cell_modules():
    # the traces from the powers of ST against the matrices of all 2n
    # elements: every cell module for n = 3..30, the regular pair up to 12
    for n in range(3, 31):
        pairs = [cell_module(n, name).generator_pair() for name in ("Le", "Ls", "Lt", "Lw0")]
        if n <= 12:
            pairs.append(kl_regular_matrices(n))
        for a_s, a_t in pairs:
            assert same_decomposition(n, a_s, a_t) is None


def test_decomposition_products_on_cell_modules(monkeypatch):
    # both routes make the powers of ST up to h = ceil(m/2), m = floor(n/2),
    # h products: S T first, then P_1 P_j; they read the further traces off
    # pairs of powers without a product.  decompose adds S^2 and T^2
    # before, and checks (ST)^n after: P_m = P_h P_(m-h) when m > h, P_m
    # squared, times P_1 when n is odd.  That is never more than the
    # ceil(n/2) + 3 products of building every power up to ceil(n/2), and
    # fewer from n = 8 on.  The check-free route checks nothing
    products = []

    def counted(a, b):
        products.append((a, b))
        return mat_mul(a, b)

    modules = [(n, cell_module(n, name).generator_pair()) for n in range(3, 31) for name in ("Le", "Ls", "Lt", "Lw0")]
    monkeypatch.setattr(reps, "mat_mul", counted)
    for n, (a_s, a_t) in modules:
        products.clear()
        decompose(n, a_s, a_t)
        top = n // 2
        half = (top + 1) // 2
        assert len(products) == 2 + half + (top > half) + 1 + n % 2, n
        every_power = (n + 1) // 2 + 3
        assert len(products) < every_power if n >= 8 else len(products) == every_power, n
        assert n != 24 or len(products) == 10
        products.clear()
        _module_decomposition(n, a_s, a_t)
        assert len(products) == (n // 2 + 1) // 2, n
        ident = identity_matrix(len(a_s))
        (s_mat, t_mat), rotation = products[0], mat_mul(*products[0])
        assert s_mat == mat_sub(a_s, ident) and t_mat == mat_sub(a_t, ident), n
        assert all(left == rotation for left, _ in products[1:]), n


def test_decompose_relation_errors_match_the_oracle():
    # each relation text, the non-square and unequal shapes, and every pair
    # of rank <= 2 with entries up to 2 at n = 3 and 4
    cases = {
        "(A_s - I)^2 != I": (4, ((3,),), ((0,),)),
        "(A_t - I)^2 != I": (4, ((2,),), ((3,),)),
        "((A_s - I)(A_t - I))^4 != I": (4, ((2, 1), (0, 0)), ((0, 0), (1, 2))),
        "matrices must be square and of equal size": (4, ((1, 0),), ((0,),)),
    }
    for relation, (n, a_s, a_t) in cases.items():
        assert same_decomposition(n, a_s, a_t) == relation
        assert check_module_relations(n, a_s, a_t) == module_relations_oracle(n, a_s, a_t) == relation
    assert same_decomposition(4, ((2, 0), (0, 2)), ((0,),)) == "matrices must be square and of equal size"
    seen = set()
    for rank in (1, 2):
        matrices = [_square(flat, rank) for flat in itertools.product(range(3), repeat=rank * rank)]
        for n in (3, 4):
            for a_s, a_t in itertools.product(matrices, repeat=2):
                seen.add(same_decomposition(n, a_s, a_t))
                assert check_module_relations(n, a_s, a_t) == module_relations_oracle(n, a_s, a_t)
    assert {None, "(A_s - I)^2 != I", "(A_t - I)^2 != I", "((A_s - I)(A_t - I))^3 != I"} <= seen
