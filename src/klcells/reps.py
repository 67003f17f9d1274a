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
b(s) and b(t): it first checks the defining relations exactly over Z, then
computes multiplicities by character orthogonality.  The characters of the
two-dimensional modules are irrational, so this one computation is floating
point; multiplicities are gated to be within 1e-6 of nonnegative integers
and the total dimension is re-checked exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

from .dihedral import GroupElement, dihedral_group
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
    "character",
    "kl_generator_matrices",
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
    top = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    out.extend(TwoDim(k) for k in range(1, top + 1))
    assert sum(module_dim(v) ** 2 for v in out) == 2 * n
    return tuple(out)


def module_dim(module: SimpleModule) -> int:
    return 1 if isinstance(module, OneDim) else 2


def simple_name(module: SimpleModule, n: int) -> str:
    if isinstance(module, OneDim):
        return f"V({module.eps},{module.delta})"
    return f"V({n},{module.k})"


def character(module: SimpleModule, n: int, w: GroupElement) -> float:
    """Character value on a group element (an integer for one-dim modules)."""
    if isinstance(module, OneDim):
        s_count = (w.length + 1) // 2 if w.leading == "s" else w.length // 2
        t_count = w.length - s_count
        value = (module.eps ** s_count) * (module.delta ** t_count)
        if w.length == n and n % 2 == 1:
            # Both reduced words of w0 must agree, which forces eps == delta.
            assert module.eps == module.delta
        return float(value)
    if w.length % 2 == 1:
        return 0.0
    return 2.0 * math.cos(module.k * w.length * math.pi / n)


def kl_generator_matrices(
    n: int, module: SimpleModule
) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
    """Matrices of b(s) and b(t) on a simple module (real entries)."""
    if isinstance(module, OneDim):
        return ((float(1 + module.eps),),), ((float(1 + module.delta),),)
    theta = 2.0 * module.k * math.pi / n
    c = math.cos(theta)
    s = math.sin(theta)
    m_s = ((2.0, 0.0), (0.0, 0.0))
    m_t = ((1.0 + c, s), (s, 1.0 - c))
    return m_s, m_t


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
    top = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
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


_REPORT_ORDER = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}


def _module_sort_key(module: SimpleModule) -> tuple[int, int]:
    if isinstance(module, OneDim):
        return (0, _REPORT_ORDER[(module.eps, module.delta)])
    return (1, module.k)


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


def _rotation_powers(n: int, a_s: IntMatrix, a_t: IntMatrix) -> tuple[IntMatrix, IntMatrix, list[IntMatrix]]:
    """(S, T, [P_0, ..., P_h]) with S = A_s - I, T = A_t - I, P_j = (ST)^j
    and h = ceil(n/2), once the matrices are square of one size and the
    defining relations S^2 = T^2 = (ST)^n = I hold exactly; otherwise
    NotAModuleError names the first condition that fails.

    P_{j+1} = P_1 P_j, so each power costs what the nonzero entries of P_1
    cost, and (ST)^n is the one further product P_h P_{n-h}.
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
    half = (n + 1) // 2
    powers = [ident, mat_mul(s_mat, t_mat)]
    while len(powers) <= half:
        powers.append(mat_mul(powers[1], powers[-1]))
    if mat_mul(powers[half], powers[n - half]) != ident:
        raise NotAModuleError(f"((A_s - I)(A_t - I))^{n} != I")
    return s_mat, t_mat, powers


def check_module_relations(n: int, a_s: IntMatrix, a_t: IntMatrix) -> str | None:
    """Exact relation check; returns the violated relation or None.

    The check is the one ``decompose`` makes first (``_rotation_powers``).
    """
    try:
        _rotation_powers(n, a_s, a_t)
    except NotAModuleError as error:
        return error.relation
    return None


@functools.lru_cache(maxsize=None)
def _character_table(n: int) -> tuple[tuple[SimpleModule, tuple[float, ...]], ...]:
    """Each simple module of D_n with its character on every element, in
    the all_elements order."""
    elements = dihedral_group(n).all_elements()
    return tuple((module, tuple(character(module, n, w) for w in elements)) for module in simples(n))


def _reflection_trace(p: IntMatrix, reflection: IntMatrix) -> int:
    """tr(p x) = sum of p[i][j] x[j][i], over the nonzero entries of x."""
    return sum(v * p[i][j] for j, row in enumerate(reflection) for i, v in enumerate(row) if v)


def decompose(n: int, a_s: Sequence[Sequence[int]], a_t: Sequence[Sequence[int]]) -> Decomposition:
    """Decompose the representation with b(s), b(t) acting by a_s, a_t.

    Raises NotAModuleError when the defining relations fail (checked exactly
    over the integers before any floating point happens).  The traces come
    from the powers P_m = (ST)^m, m <= ceil(n/2), of that check
    (``_rotation_powers``): the rotations of length 2m, (st)^m and
    (ts)^m = T P_m T, have trace tr P_m, and the reflections of length
    2m + 1, (st)^m s and t (st)^m, have traces tr(P_m S) and tr(P_m T),
    read off without a product.  Each multiplicity is the character sum
    over the elements in all_elements order, so its floats are those of
    the sum over the matrices of the group elements themselves.
    """
    frozen_s = freeze_matrix(a_s)
    frozen_t = freeze_matrix(a_t)
    s_mat, t_mat, powers = _rotation_powers(n, frozen_s, frozen_t)
    r = len(frozen_s)
    traces = [r]
    for length in range(1, n + 1):
        m, odd = divmod(length, 2)
        # the s-leading element, then the t-leading one; w0 is one element
        letters = (s_mat, t_mat) if length < n else (s_mat,)
        traces += [_reflection_trace(powers[m], x) if odd else trace(powers[m]) for x in letters]

    terms: list[tuple[SimpleModule, int]] = []
    for module, characters in _character_table(n):
        total = 0.0
        for chi, count in zip(characters, traces):
            total += chi * count
        value = total / (2 * n)
        nearest = round(value)
        if abs(value - nearest) > 1e-6 or nearest < 0:
            raise NotAModuleError(
                f"multiplicity of {simple_name(module, n)} is {value}, not a nonnegative integer"
            )
        if nearest:
            terms.append((module, nearest))
    terms.sort(key=lambda item: _module_sort_key(item[0]))
    result = Decomposition(n=n, terms=tuple(terms))
    if result.total_dim() != r:
        raise NotAModuleError(
            f"multiplicities account for dimension {result.total_dim()}, matrix size is {r}"
        )
    return result
