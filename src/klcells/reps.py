"""Simple modules of D_n and decomposition of integer representations.

Over the reals, D_n has the one-dimensional modules (trivial, sign, and for
even n the two mixed signs, distinguished by the scalars eps and delta by
which the reflections s and t act) and the two-dimensional reflection-like
modules indexed by k: s acts as reflection in the horizontal axis and t as
reflection in the axis at angle k*pi/n, so the rotation st has angle
2k*pi/n.  Ranges: 1 <= k <= (n-2)/2 for even n, 1 <= k <= (n-1)/2 for odd;
together sum(dim^2) = 2n.

On the KL generators b(s) = 1 + s, b(t) = 1 + t the two-dimensional module
has matrices

    b(s) -> [[2, 0], [0, 0]],
    b(t) -> [[1 + cos(2k*pi/n), sin(2k*pi/n)],
             [sin(2k*pi/n), 1 - cos(2k*pi/n)]],

and b(s) + b(t) has characteristic polynomial x^2 - 4x + (2 - 2cos(2k*pi/n)),
whose constant term is an integer exactly when n is 3k, 4k or 6k (the
cosine being -1/2, 0 or 1/2).

``decompose`` splits an integer representation given by the matrices of
b(s) and b(t) over the integers alone: it checks the defining relations
exactly, counts the eigenvalues of the rotation st by their order from the
traces of its powers, and separates the one-dimensional modules by the
traces of s and t.  Every a_j = tr (ST)^j in the package comes from one
place (``_rotation_traces``): it builds the powers of st up to about n/4
and reads each further a_j as the trace of a product of two of them.
``decompose`` checks the relations on the powers it built, and
``_module_decomposition`` counts with no check, for the surviving classes
of the search (``classify._annotate``), which the filters have already
proved to be D_n-modules.
``char_poly_two_dim`` gives the characteristic polynomial of b(s) + b(t)
on a two-dimensional module, in floats with the exact integers where they
exist; ``decompose`` does not use it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

from .exact import (
    IntMatrix,
    freeze_matrix,
    identity_matrix,
    mat_mul,
    mat_sub,
    trace,
)

__all__ = [
    "OneDim",
    "TwoDim",
    "SimpleModule",
    "NotAModuleError",
    "Decomposition",
    "simples",
    "simple_name",
    "module_dim",
    "QuadraticCharPoly",
    "char_poly_two_dim",
    "decompose",
]


@dataclass(frozen=True)
class OneDim:
    """One-dimensional module: s acts by eps, t by delta (each +1 or -1)."""

    eps: int
    delta: int

    def __post_init__(self) -> None:
        if self.eps not in (1, -1) or self.delta not in (1, -1):
            raise ValueError("one-dimensional modules have eps, delta in {1, -1}")


@dataclass(frozen=True)
class TwoDim:
    """Two-dimensional module where the rotation st acts by angle 2k*pi/n."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("two-dimensional modules are indexed by k >= 1")


SimpleModule = Union[OneDim, TwoDim]


def simples(n: int) -> tuple[SimpleModule, ...]:
    """All simple modules of D_n, one-dimensional ones first, then k ascending."""
    if n < 3:
        raise ValueError(f"dihedral parameter must be >= 3, got {n}")
    out: list[SimpleModule] = [OneDim(1, 1)]
    if n % 2 == 0:
        out.append(OneDim(1, -1))
        out.append(OneDim(-1, 1))
    out.append(OneDim(-1, -1))
    top = (n - 1) // 2
    out.extend(TwoDim(k) for k in range(1, top + 1))
    assert sum(module_dim(v) ** 2 for v in out) == 2 * n
    return tuple(out)


def module_dim(module: SimpleModule) -> int:
    return 1 if isinstance(module, OneDim) else 2


def simple_name(module: SimpleModule, n: int) -> str:
    if isinstance(module, OneDim):
        return f"V({module.eps},{module.delta})"
    return f"V({n},{module.k})"


@dataclass(frozen=True)
class QuadraticCharPoly:
    """Characteristic polynomial of b(s) + b(t) on a two-dimensional module.

    coefficients are ascending: (constant, -4, 1).  The constant is
    2 - 2cos(2k*pi/n), an integer exactly when n is 3k, 4k or 6k; in that
    case integer_coefficients holds the exact values.
    """

    n: int
    k: int
    coefficients: tuple[float, float, float]
    has_integer_coefficients: bool
    integer_coefficients: tuple[int, int, int] | None


def char_poly_two_dim(n: int, k: int) -> QuadraticCharPoly:
    top = (n - 1) // 2
    if not 1 <= k <= top:
        raise ValueError(f"k={k} out of range for n={n} (1..{top})")
    constant = 2.0 - 2.0 * math.cos(2.0 * k * math.pi / n)
    exact: int | None = None
    if n == 3 * k:
        exact = 3
    elif n == 4 * k:
        exact = 2
    elif n == 6 * k:
        exact = 1
    return QuadraticCharPoly(
        n=n,
        k=k,
        coefficients=(constant, -4.0, 1.0),
        has_integer_coefficients=exact is not None,
        integer_coefficients=(exact, -4, 1) if exact is not None else None,
    )


class NotAModuleError(ValueError):
    """The given matrices do not satisfy the defining relations of D_n."""

    def __init__(self, relation: str) -> None:
        super().__init__(f"not a D_n module: {relation}")
        self.relation = relation


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of the simple modules in a given representation."""

    n: int
    terms: tuple[tuple[SimpleModule, int], ...]

    def multiplicity(self, module: SimpleModule) -> int:
        for v, m in self.terms:
            if v == module:
                return m
        return 0

    def as_dict(self) -> dict[SimpleModule, int]:
        return {v: m for v, m in self.terms}

    def total_dim(self) -> int:
        return sum(m * module_dim(v) for v, m in self.terms)

    def to_jsonable(self) -> dict:
        return {simple_name(v, self.n): m for v, m in self.terms}

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for v, m in self.terms:
            name = simple_name(v, self.n)
            parts.append(name if m == 1 else f"{m}·{name}")
        return " ⊕ ".join(parts)


def _rotation_traces(s_mat: IntMatrix, t_mat: IntMatrix, top: int) -> tuple[list[int], list[IntMatrix]]:
    """([a_0, ..., a_top], [P_0, ..., P_h]) with a_j = tr (ST)^j,
    P_j = (ST)^j and h = ceil(top/2), for top >= 1, in h products:
    P_1 = S T and P_(j+1) = P_1 P_j, so each power costs what the nonzero
    entries of P_1 cost.  For j > h, a_j = tr P_h P_(j-h), the sum of
    P_h[i][k] P_(j-h)[k][i] over i and k, which costs O(r^2) against the
    O(r^3) of the product."""
    half = (top + 1) // 2
    powers = [identity_matrix(len(s_mat)), mat_mul(s_mat, t_mat)]
    while len(powers) <= half:
        powers.append(mat_mul(powers[1], powers[-1]))
    left = tuple(itertools.chain.from_iterable(zip(*powers[half])))  # P_h transposed, row-major
    traces = [trace(p) for p in powers[: half + 1]]
    for j in range(half + 1, top + 1):
        traces.append(sum(map(operator.mul, left, itertools.chain.from_iterable(powers[j - half]))))
    return traces, powers


def _checked_traces(n: int, a_s: IntMatrix, a_t: IntMatrix) -> tuple[list[int], int, int]:
    """([a_0, ..., a_m], tr S, tr T) with m = floor(n/2), S = A_s - I and
    T = A_t - I, once the matrices are square of one size and the defining
    relations S^2 = T^2 = (ST)^n = I hold exactly; otherwise
    NotAModuleError names the first condition that fails.  The a_j come
    from ``_rotation_traces``, and (ST)^n is checked on the powers it
    built, P_j for j <= h = ceil(m/2): P_m = P_h P_(m-h), then P_m
    squared, times P_1 when n is odd.
    """
    r = len(a_s)
    if any(len(row) != r for row in a_s) or len(a_t) != r or any(len(row) != r for row in a_t):
        raise NotAModuleError("matrices must be square and of equal size")
    ident = identity_matrix(r)
    s_mat, t_mat = mat_sub(a_s, ident), mat_sub(a_t, ident)
    if mat_mul(s_mat, s_mat) != ident:
        raise NotAModuleError("(A_s - I)^2 != I")
    if mat_mul(t_mat, t_mat) != ident:
        raise NotAModuleError("(A_t - I)^2 != I")
    top = n // 2
    half = (top + 1) // 2
    traces, powers = _rotation_traces(s_mat, t_mat, top)
    middle = powers[half] if top == half else mat_mul(powers[half], powers[top - half])
    rotation_n = mat_mul(middle, middle)
    if n % 2:
        rotation_n = mat_mul(rotation_n, powers[1])
    if rotation_n != ident:
        raise NotAModuleError(f"((A_s - I)(A_t - I))^{n} != I")
    return traces, trace(s_mat), trace(t_mat)


def check_module_relations(n: int, a_s: IntMatrix, a_t: IntMatrix) -> str | None:
    """Exact relation check; returns the violated relation or None.

    The check is the one ``decompose`` makes first (``_checked_traces``).
    """
    try:
        _checked_traces(n, a_s, a_t)
    except NotAModuleError as error:
        return error.relation
    return None


def decompose(n: int, a_s: Sequence[Sequence[int]], a_t: Sequence[Sequence[int]]) -> Decomposition:
    """Decompose the representation with b(s), b(t) acting by a_s, a_t.

    Raises NotAModuleError when the defining relations fail
    (``_checked_traces``).  Only integers are used: the traces
    a_j = tr (ST)^j, j <= n/2 (``_rotation_traces``), and tr S and tr T,
    with S = A_s - I and T = A_t - I; ``_count_simples`` turns them into
    multiplicities.
    """
    return _count_simples(n, *_checked_traces(n, freeze_matrix(a_s), freeze_matrix(a_t)))


def _module_decomposition(n: int, a_s: IntMatrix, a_t: IntMatrix) -> Decomposition:
    """``decompose`` of a pair of square tuple matrices known to satisfy
    S^2 = T^2 = (ST)^n = I, with no relation checked: the traces a_j,
    j <= n/2, from the powers up to about n/4 in ceil(floor(n/2)/2)
    products (``_rotation_traces``).
    """
    ident = identity_matrix(len(a_s))
    s_mat, t_mat = mat_sub(a_s, ident), mat_sub(a_t, ident)
    return _count_simples(n, _rotation_traces(s_mat, t_mat, n // 2)[0], trace(s_mat), trace(t_mat))


def _count_simples(n: int, rotation_traces: Sequence[int], tr_s: int, tr_t: int) -> Decomposition:
    """The decomposition of a D_n-module from its integer traces.

    ``rotation_traces[j]`` is a_j = tr (ST)^j for 0 <= j <= n/2, and tr_s,
    tr_t are tr S and tr T, where S and T are the actions of s and t, so
    S^2 = T^2 = (ST)^n = I.  The terms come in the order of ``simples(n)``:
    V(1,1), V(1,-1), V(-1,1), V(-1,-1), then k ascending.  Both
    ``decompose`` and the check-free ``_module_decomposition`` get the a_j
    from ``_rotation_traces``.

    Why it is exact.  (ST)^n = I, so ST is diagonalisable with n-th roots
    of unity as eigenvalues; let zeta = exp(2 pi i/n).  The traces
    a_j = tr (ST)^j are integers and a_(n-j) is the conjugate of a_j, so
    a_(n-j) = a_j.  For a divisor e of n, the mean of mu^i over
    i < n/e is 1 for mu = 1 and 0 for any other (n/e)-th root of unity mu,
    so (e/n) sum_i a_(e*i) counts the eigenvalues lambda with lambda^e = 1;
    taking away those of each order d < e that divides e leaves N_e, the
    number of order exactly e.  Of the simple modules only V(n,k) has the
    eigenvalue zeta^k (and zeta^-k), and as ST is an integer matrix its
    phi(d) primitive d-th roots of unity are Galois conjugate and share
    one multiplicity: V(n,k) occurs N_d/phi(d) times, d = n/gcd(n, k).
    V(eps, delta) gives ST the eigenvalue eps*delta, of order d = 1 or 2,
    so N_d = m(eps, delta) + m(-eps, -delta); S and T have trace 0 on
    every V(n,k), so eps tr S + delta tr T = 2(m(eps, delta) - m(-eps, -delta)).
    Adding the two, m(eps, delta) = (2 N_d + eps tr S + delta tr T)/4.
    """
    divisors, modules = _simple_orders(n)
    traces = [rotation_traces[min(j, n - j)] for j in range(n)]
    counts: dict[int, int] = {}  # order -> eigenvalues of ST of that order
    for e in divisors:
        counts[e] = e * sum(traces[::e]) // n - sum(c for d, c in counts.items() if e % d == 0)
    terms: list[tuple[SimpleModule, int]] = []
    for module, order, roots in modules:
        if isinstance(module, OneDim):
            mult = (2 * counts[order] + module.eps * tr_s + module.delta * tr_t) // 4
        else:
            mult = counts[order] // roots
        if mult:
            terms.append((module, mult))
    return Decomposition(n=n, terms=tuple(terms))


@functools.lru_cache(maxsize=None)
def _simple_orders(n: int) -> tuple[tuple[int, ...], tuple[tuple[SimpleModule, int, int], ...]]:
    """What ``_count_simples`` reads of n alone: the divisors of n
    ascending and, for each of ``simples(n)`` in order, (module, the order
    d of its eigenvalues of ST, phi(d))."""
    orders = [n // math.gcd(n, j) for j in range(n)]  # the order of zeta^j
    modules = [(v, orders[v.k] if isinstance(v, TwoDim) else 1 if v.eps == v.delta else 2) for v in simples(n)]
    return tuple(sorted(set(orders))), tuple((v, d, orders.count(d)) for v, d in modules)
