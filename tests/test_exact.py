"""Exact integer matrix and polynomial arithmetic underneath everything else."""

import random

import pytest

from klcells.exact import (
    bareiss_det,
    char_poly,
    first_negative_entry,
    freeze_matrix,
    identity_matrix,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    poly_add,
    poly_degree,
    poly_derivative,
    poly_eval_float,
    poly_eval_int,
    poly_eval_matrix,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_trim,
    render_poly,
    trace,
    transpose,
    zero_matrix,
    _top_real_root_is_simple,
)
from oracles import block_matrix, mat_mul_oracle, mat_pow

Q3 = ((2, 0, 1), (0, 2, 1), (1, 1, 2))


def det_cofactor(m):
    """Independent oracle: Laplace expansion along the first row."""
    r = len(m)
    if r == 0:
        return 1
    if r == 1:
        return m[0][0]
    total = 0
    for j in range(r):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def random_matrix(rng, r, lo=-5, hi=5):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(r)) for _ in range(r))


def test_freeze_matrix_validation():
    assert freeze_matrix([[1, 2], [3, 4]]) == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        freeze_matrix([[1, 2], [3]])  # ragged
    with pytest.raises(ValueError):
        freeze_matrix([[1.5]])
    with pytest.raises(ValueError):
        freeze_matrix([[True]])  # bools are not matrix entries
    # a matrix that is not all plain ints has each entry checked: a
    # subclass of int other than bool is still an entry, and the first bad
    # entry is named, here after a row of plain ints
    class Count(int):
        pass

    frozen = freeze_matrix([[1, Count(2)], [3, 4]])
    assert frozen == ((1, 2), (3, 4)) and type(frozen[0][1]) is Count
    with pytest.raises(ValueError, match=r"^matrix entries must be plain ints, got '3'$"):
        freeze_matrix([[1, 2], [3, "3"]])
    with pytest.raises(ValueError, match=r"^matrix entries must be plain ints, got True$"):
        freeze_matrix([[0, 1], [True, 1]])
    with pytest.raises(ValueError, match="unequal lengths"):
        freeze_matrix([[1, 2], [3]])
    assert freeze_matrix([]) == ()


def test_shape_helpers():
    assert identity_matrix(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert zero_matrix(2) == ((0, 0), (0, 0))
    assert zero_matrix(2, 3) == ((0, 0, 0), (0, 0, 0))
    assert is_zero_matrix(zero_matrix(4))
    assert not is_zero_matrix(identity_matrix(1))
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert trace(Q3) == 6
    assert first_negative_entry(((0, 1), (2, -3))) == (1, 1)
    assert first_negative_entry(identity_matrix(2)) is None


def test_matrix_arithmetic():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_add(a, b) == ((1, 3), (4, 4))
    assert mat_sub(a, b) == ((1, 1), (2, 4))
    assert mat_scale(3, b) == ((0, 3), (3, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_pow(a, 0) == identity_matrix(2)
    assert mat_pow(a, 1) == a
    assert mat_pow(a, 3) == mat_mul(a, mat_mul(a, a))


def test_mat_mul_shapes():
    with pytest.raises(ValueError, match="matrix shapes do not compose"):
        mat_mul(((1, 2, 3), (4, 5, 6)), ())
    with pytest.raises(ValueError, match="matrix shapes do not compose"):
        mat_mul(((1, 2),), ((1, 2),))
    assert mat_mul((), ((1, 2),)) == ()
    assert mat_mul(((), ()), ()) == ((), ())
    assert mat_mul(((1,), (-2,)), ((3, 0, 5),)) == ((3, 0, 5), (-6, 0, -10))


def test_mat_mul_matches_the_dense_oracle():
    # the product skips the zeros of its left factor and adds or subtracts
    # a row of the right one for an entry 1 or -1: sparse, signed,
    # rectangular and empty operands, zero rows and zero columns; left
    # factors of 0 and ±1 alone, with every row zero or none; and entries
    # beyond 2**64
    rng = random.Random(1234)
    values = {
        "small": lambda: rng.randint(-9, 9),
        "unit": lambda: rng.choice((1, -1)),
        "huge": lambda: rng.choice((1, -1)) * rng.randrange(2**64, 2**80),
    }
    for kind in ("small", "unit", "huge"):
        value = values[kind]
        for _ in range(2000):
            rows, inner, cols = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            density = rng.choice((0.0, rng.random(), 1.0))

            def entries(height, width):
                zero_row = rng.randrange(height + 1)
                zero_col = rng.randrange(width + 1)
                return tuple(
                    tuple(0 if i == zero_row or j == zero_col or rng.random() >= density else value() for j in range(width))
                    for i in range(height)
                )

            a, b = entries(rows, inner), entries(inner, cols)
            assert mat_mul(a, b) == mat_mul_oracle(a, b), (a, b)
            big = tuple(tuple(values["huge"]() for _ in range(cols)) for _ in range(inner))
            assert mat_mul(a, big) == mat_mul_oracle(a, big), (a, big)
            c = entries(rows, inner + 1)
            if rows:
                with pytest.raises(ValueError):
                    mat_mul(c, b)
                with pytest.raises(ValueError):
                    mat_mul_oracle(c, b)


def test_mat_mul_splits_a_long_inner_dimension():
    # one lazy map per nonzero entry of a row would chain past what the C
    # stack holds; a long inner dimension is split in halves instead
    rng = random.Random(26)
    a = tuple(tuple(rng.choice((0, 1, -1, 3)) for _ in range(2500)) for _ in range(3))
    b = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2500))
    assert mat_mul(a, b) == mat_mul_oracle(a, b)
    assert mat_mul(((1,) * 100000,), ((1,),) * 100000) == ((100000,),)


def test_block_matrix():
    a = ((1, 2), (3, 4))
    direct_sum = block_matrix(
        (
            (a, zero_matrix(2, 1)),
            (zero_matrix(1, 2), ((7,),)),
        )
    )
    assert direct_sum == ((1, 2, 0), (3, 4, 0), (0, 0, 7))


def test_bareiss_known_values():
    assert bareiss_det(((1, 2), (3, 4))) == -2
    assert bareiss_det(identity_matrix(5)) == 1
    assert bareiss_det(((0, 1), (1, 0))) == -1
    assert bareiss_det(Q3) == 4


def test_bareiss_against_cofactor_oracle():
    rng = random.Random(1729)
    for _ in range(200):
        r = rng.randint(1, 5)
        m = random_matrix(rng, r)
        assert bareiss_det(m) == det_cofactor(m)


def test_char_poly_known_values():
    assert char_poly(((1, 0, 0), (0, 2, 0), (0, 0, 3))) == (-6, 11, -6, 1)
    assert char_poly(Q3) == (-4, 10, -6, 1)
    assert char_poly(((0,),)) == (0, 1)


def test_char_poly_structure_random():
    rng = random.Random(31337)
    for _ in range(100):
        r = rng.randint(1, 5)
        m = random_matrix(rng, r)
        p = char_poly(m)
        assert len(p) == r + 1
        assert p[-1] == 1  # monic
        assert p[-2] == -trace(m)
        assert p[0] == (-1) ** r * det_cofactor(m)


def test_cayley_hamilton_random():
    rng = random.Random(271828)
    for _ in range(60):
        r = rng.randint(1, 4)
        m = random_matrix(rng, r, -4, 4)
        assert is_zero_matrix(poly_eval_matrix(char_poly(m), m))


def test_poly_basics():
    # the zero polynomial is the empty tuple, with degree -1
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_trim((0, 0)) == ()
    assert poly_degree(()) == -1
    assert poly_degree((0,)) == -1
    assert poly_degree((1, 0, 3)) == 2
    assert poly_add((1, 1), (0, 0, 2)) == (1, 1, 2)
    assert poly_sub((1, 1), (1, 1)) == ()
    assert poly_mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert poly_mul((0,), (5, 5)) == ()
    assert poly_derivative((7, 3, 0, 2)) == (3, 0, 6)
    assert poly_derivative((4,)) == ()
    assert render_poly(()) == "0"


def test_poly_eval():
    p = (-4, 10, -6, 1)  # x^3 - 6x^2 + 10x - 4
    assert poly_eval_int(p, 0) == -4
    assert poly_eval_int(p, 2) == 0
    assert poly_eval_float(p, 2.0) == pytest.approx(0.0)
    root = 2.0 + 2.0**0.5
    assert poly_eval_float(p, root) == pytest.approx(0.0, abs=1e-12)
    assert poly_eval_matrix((2, 1), identity_matrix(2)) == ((3, 0), (0, 3))


def test_poly_eval_matrix_matches_the_power_sum():
    # Horner with the coefficient added on the diagonal against the sum of
    # c_k m^k, for sparse and dense matrices and trailing zero coefficients
    rng = random.Random(1729)
    for _ in range(80):
        r = rng.randint(1, 5)
        m = random_matrix(rng, r, -3, 3) if rng.random() < 0.5 else random_matrix(rng, r, 0, 1)
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 7)))
        expected = zero_matrix(r)
        for k, c in enumerate(p):
            expected = mat_add(expected, mat_scale(c, mat_pow(m, k)))
        assert poly_eval_matrix(p, m) == expected, (p, m)
    assert poly_eval_matrix((), Q3) == zero_matrix(3)


def test_poly_gcd():
    # gcd((x-1)(x-2), (x-1)(x-3)) = x - 1
    assert poly_gcd((2, -3, 1), (3, -4, 1)) == (-1, 1)
    # coprime inputs give a degree-zero gcd
    assert poly_degree(poly_gcd((1, 1), (2, 1))) == 0
    # result is primitive with a positive leading coefficient
    assert poly_gcd((-4, 0, 4), (2, 2)) == (1, 1)


def test_top_real_root_is_simple():
    def expand(*roots):
        p = (1,)
        for root in roots:
            p = poly_mul(p, (-root, 1))
        return p

    assert _top_real_root_is_simple(expand(1, 2, 3))  # squarefree
    assert not _top_real_root_is_simple(expand(1, 1))
    assert not _top_real_root_is_simple(expand(0, 2, 2))
    assert _top_real_root_is_simple(expand(2, 2, 3))  # the double root is lower
    assert _top_real_root_is_simple(expand(-1, -1, 1))
    # roots closer together than the Cauchy bound's first bisections
    assert not _top_real_root_is_simple(poly_mul(expand(5, 5), (-1, 0, 50)))  # 5, 5, ±sqrt(1/50)
    assert _top_real_root_is_simple(poly_mul(expand(-7, -7), (-1, 0, 0, 1)))  # top root 1 of x^3 - 1
    # x^2 + 1 (twice) has no real root
    with pytest.raises(ValueError):
        _top_real_root_is_simple(poly_mul((1, 0, 1), (1, 0, 1)))


def test_top_real_root_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2718)
    for _ in range(150):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        p = (1,)
        for root in roots:
            p = poly_mul(p, (-root, 1))
        if rng.random() < 0.5:
            p = poly_mul(p, (rng.randint(1, 5), rng.randint(-4, 4), 1))
        real = sympy.Poly(list(reversed(p)), x).real_roots()
        top = max(real)
        assert _top_real_root_is_simple(p) == (real.count(top) == 1), p


def test_render_poly():
    assert render_poly((0, -4, 10, -6, 1)) == "x^4 - 6x^3 + 10x^2 - 4x"
    assert render_poly((5,)) == "5"
    assert render_poly((0,)) == "0"
    assert render_poly((1, 0, 1)) == "x^2 + 1"
    assert render_poly((0, 1)) == "x"
