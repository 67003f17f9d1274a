"""Exact integer matrices and polynomials.

Everything in this module computes over Python's arbitrary-precision
integers (with short excursions into fractions.Fraction where a remainder
sequence needs division).  Floating point never enters: determinants use the
Bareiss fraction-free elimination, characteristic polynomials use the
Faddeev-LeVerrier recurrence (whose divisions are exact for integer input),
and polynomial gcds run over the rationals.

Matrices are immutable tuples of tuples of ints, polynomials are tuples of
int coefficients in ascending degree order, trimmed of trailing zeros (the
zero polynomial is the empty tuple).  Both representations hash and compare
structurally, which the classifier relies on.  ``mat_mul`` skips the zero
entries of its left factor, which makes the products of sparse integer
matrices (generators, cell modules, their shifts) cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

__all__ = [
    "IntMatrix",
    "IntPoly",
    "freeze_matrix",
    "identity_matrix",
    "zero_matrix",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_mul",
    "mat_pow",
    "transpose",
    "trace",
    "is_zero_matrix",
    "first_negative_entry",
    "block_matrix",
    "bareiss_det",
    "char_poly",
    "poly_trim",
    "poly_degree",
    "poly_add",
    "poly_sub",
    "poly_mul",
    "poly_eval_int",
    "poly_eval_float",
    "poly_eval_matrix",
    "poly_derivative",
    "poly_gcd",
    "render_poly",
]

IntMatrix = tuple[tuple[int, ...], ...]
IntPoly = tuple[int, ...]


def _check_entry(v: object) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"matrix entries must be plain ints, got {v!r}")
    return v


def freeze_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Validate a rectangular integer matrix and freeze it to nested tuples."""
    frozen = tuple(tuple(_check_entry(v) for v in row) for row in rows)
    if frozen and any(len(row) != len(frozen[0]) for row in frozen):
        raise ValueError("matrix rows have unequal lengths")
    return frozen


def identity_matrix(r: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def zero_matrix(r: int, c: int | None = None) -> IntMatrix:
    if c is None:
        c = r
    return tuple((0,) * c for _ in range(r))


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int, a: IntMatrix) -> IntMatrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b, row by row over the nonzero entries of a.

    Row i of the product accumulates a[i][k] * b[k] for each k with
    a[i][k] != 0; integer sums are exact in any order, so skipping zeros
    changes nothing but the work, which follows the sparsity of a.
    Raises ValueError when the width of a is not the height of b.
    """
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = zero
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        raise ValueError("negative matrix powers are not defined here")
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base_needed = k >> 1
        if base_needed:
            base = mat_mul(base, base)
        k = base_needed
    return result


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a: IntMatrix) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def first_negative_entry(a: IntMatrix) -> tuple[int, int] | None:
    """Row-major position of the first negative entry, or None."""
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v < 0:
                return (i, j)
    return None


def block_matrix(blocks: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a matrix from a grid of conforming blocks."""
    rows: list[tuple[int, ...]] = []
    for block_row in blocks:
        heights = {len(b) for b in block_row}
        if len(heights) != 1:
            raise ValueError("blocks in one row must have equal heights")
        for i in range(heights.pop()):
            rows.append(tuple(v for b in block_row for v in b[i]))
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("block rows produce unequal widths")
    return tuple(rows)


def bareiss_det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination, exact over Z."""
    r = len(m)
    if r == 0:
        return 1
    if any(len(row) != r for row in m):
        raise ValueError("determinant requires a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(r - 1):
        if a[k][k] == 0:
            for i in range(k + 1, r):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division must be exact"
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[r - 1][r - 1]


def char_poly(m: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - m), ascending coefficients.

    Uses the Faddeev-LeVerrier recurrence M_{k+1} = m (M_k + c_k I),
    c_k = -trace(M_k)/k, whose divisions are exact for integer matrices.
    m stays the left factor, so each product costs what m's nonzero
    entries cost.
    """
    r = len(m)
    if r == 0:
        return (1,)
    if any(len(row) != r for row in m):
        raise ValueError("characteristic polynomial requires a square matrix")
    coeffs = [0] * (r + 1)
    coeffs[r] = 1
    mk = m
    c_prev = 0
    for k in range(1, r + 1):
        if k > 1:
            shifted = tuple(
                tuple(v + (c_prev if i == j else 0) for j, v in enumerate(row))
                for i, row in enumerate(mk)
            )
            mk = mat_mul(m, shifted)
        q, rem = divmod(-trace(mk), k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[r - k] = q
        c_prev = q
    return tuple(coeffs)


# -- polynomials ---------------------------------------------------------


def poly_trim(p: Sequence[int]) -> IntPoly:
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p: Sequence[int]) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(poly_trim(p)) - 1


def poly_add(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    size = max(len(p), len(q))
    padded_p = list(p) + [0] * (size - len(p))
    padded_q = list(q) + [0] * (size - len(q))
    return poly_trim([a + b for a, b in zip(padded_p, padded_q)])


def poly_sub(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    return poly_add(p, [-c for c in q])


def poly_mul(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    p = poly_trim(p)
    q = poly_trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def poly_eval_int(p: Sequence[int], x: int) -> int:
    result = 0
    for c in reversed(p):
        result = result * x + c
    return result


def poly_eval_float(p: Sequence[int], x: float) -> float:
    result = 0.0
    for c in reversed(p):
        result = result * x + c
    return result


def poly_eval_matrix(p: Sequence[int], m: IntMatrix) -> IntMatrix:
    """Evaluate p at a square matrix (Horner, exact).

    Each partial result is a polynomial in m and commutes with it, so m
    is taken as the left factor, where ``mat_mul`` skips its zeros.
    """
    r = len(m)
    result = zero_matrix(r)
    ident = identity_matrix(r)
    for c in reversed(p):
        result = mat_add(mat_mul(m, result), mat_scale(c, ident))
    return result


def poly_derivative(p: Sequence[int]) -> IntPoly:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def _fraction_poly_mod(
    a: list[Fraction], b: list[Fraction]
) -> list[Fraction]:
    a = a[:]
    while len(a) >= len(b) and a:
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """Greatest common divisor over Q, returned primitive over Z, positive lead."""
    a = [Fraction(c) for c in poly_trim(p)]
    b = [Fraction(c) for c in poly_trim(q)]
    while b:
        a, b = b, _fraction_poly_mod(a, b)
    if not a:
        return ()
    denom = 1
    for c in a:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in a]
    content = 0
    for c in ints:
        content = gcd(content, c)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _sturm_chain(p: Sequence[int]) -> list[list[Fraction]]:
    """p, p', and the negated remainders of Euclid's algorithm, over Q."""
    chain = [[Fraction(c) for c in poly_trim(p)], [Fraction(c) for c in poly_derivative(p)]]
    while chain[-1]:
        chain.append([-c for c in _fraction_poly_mod(chain[-2], chain[-1])])
    return chain[:-1]


def _sign_changes(values: Sequence[Fraction]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _value(q: Sequence, x: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(q):
        value = value * x + c
    return value


def _roots_above(chain: list[list[Fraction]], x: Fraction) -> int:
    """Distinct real roots of chain[0] in (x, oo), for x not a root (Sturm)."""
    return _sign_changes([_value(q, x) for q in chain]) - _sign_changes([q[-1] for q in chain])


def _top_real_root_is_simple(p: Sequence[int]) -> bool:
    """Whether the largest real root of the integer polynomial p is simple.

    Exact: a Sturm chain of p over Q bisects a rational interval down to
    one that holds that root and no other root of p, and the root is
    multiple exactly when gcd(p, p') has a root in the same interval.
    Raises ValueError when p has no real root.
    """
    p = poly_trim(p)
    repeated = poly_gcd(p, poly_derivative(p))
    if len(repeated) <= 1:
        return True
    chain = _sturm_chain(p)
    # every root lies strictly inside (-bound, bound) (Cauchy)
    bound = 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))
    low, high = -bound, bound
    if _roots_above(chain, low) == 0:
        raise ValueError("the polynomial has no real root")
    while _roots_above(chain, low) > 1:
        middle = (low + high) / 2
        while _value(p, middle) == 0:
            middle = (middle + high) / 2
        if _roots_above(chain, middle) >= 1:
            low = middle
        else:
            high = middle
    return _roots_above(_sturm_chain(repeated), low) == 0


def render_poly(p: Sequence[int], var: str = "x") -> str:
    """Human-readable form, leading term first: 'x^4 - 6x^3 + 10x^2 - 4x'."""
    p = poly_trim(p)
    if not p:
        return "0"
    parts: list[str] = []
    for degree in range(len(p) - 1, -1, -1):
        c = p[degree]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if degree == 0:
            body = str(mag)
        else:
            power = var if degree == 1 else f"{var}^{degree}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
