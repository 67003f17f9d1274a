"""Slow reference implementations that the fast paths are tested against.

``extend_oracle`` is the KL recursion on tuple-of-tuples matrices, one
``mat_mul`` per element; ``nimrep.extend`` must give the same family,
element and witness text.  ``f1_matrices_oracle`` is the F1 variety by
brute force with ``mat_mul`` and ``mat_scale``.  ``raw_block_pairs``
enumerates every pair of the F7 block space, ``raw_variety_units`` splits
the F1 variety into one unit per A_s, and ``evaluate_raw_unit`` runs
``run_filters`` on every pair of a unit of either kind, which is the search
before orbit representatives; the reports of ``classify`` must be the same
bytes.
``mat_mul_oracle`` is the dense integer product, one dot product per row
and column, that ``exact.mat_mul`` must equal.  ``perron_iteration_oracle``
is the power iteration on the dense Q + I with two products per step, one
for the next iterate and one for the residual; ``nimrep.perron_analysis``
must give the same floats, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import operator

from klcells.classify import canonical_pair, canonicalize, run_filters
from klcells.dihedral import dihedral_group, other_letter, render
from klcells.exact import first_negative_entry, identity_matrix, mat_mul, mat_scale, mat_sub
from klcells.nimrep import ExtendedRep, ExtensionFailure, MatrixPair, _strongly_connected


def mat_mul_oracle(a, b):
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def perron_iteration_oracle(q):
    """(spectral_radius, positive_eigenvector or None) from the dense
    two-product power iteration on Q + I; ArithmeticError after 200,000
    steps without the 1e-10 residual."""
    r = len(q)
    shifted = tuple(tuple(v + (1 if i == j else 0) for j, v in enumerate(row)) for i, row in enumerate(q))
    vec = [1.0 / r] * r
    for _ in range(200000):
        nxt = [sum(map(operator.mul, row, vec)) for row in shifted]
        norm = sum(abs(x) for x in nxt)
        nxt = [x / norm for x in nxt]
        radius = norm
        residual = max(abs(sum(map(operator.mul, row, nxt)) - radius * x) for row, x in zip(shifted, nxt))
        vec = nxt
        if residual <= 1e-10:
            break
    else:
        raise ArithmeticError("power iteration did not reach the 1e-10 residual")
    top = max(vec)
    irreducible = _strongly_connected([v for row in q for v in row], r) is None
    return radius - 1.0, (tuple(x / top for x in vec) if irreducible else None)


def extend_oracle(pair):
    group = dihedral_group(pair.n)
    n = pair.n
    family = {
        group.identity(): identity_matrix(pair.rank),
        group.generator("s"): pair.theta_s,
        group.generator("t"): pair.theta_t,
    }

    def build(length, leading):
        if length == 2:
            return mat_mul(family[group.generator(leading)], family[group.generator(other_letter(leading))])
        shorter = group.element(length - 1, other_letter(leading))
        back = group.element(length - 2, leading)
        return mat_sub(mat_mul(family[group.generator(leading)], family[shorter]), family[back])

    def negative(w, a):
        i, j = first_negative_entry(a)
        return ExtensionFailure(
            pair=pair,
            filter_id="F2",
            element=w,
            witness=f"A_{render(w)}[{i}][{j}] = {a[i][j]} is negative",
            partial=dict(family),
        )

    for length in range(2, n):
        for leading in ("s", "t"):
            w = group.element(length, leading)
            a = build(length, leading)
            if first_negative_entry(a) is not None:
                return negative(w, a)
            family[w] = a
    w0 = group.longest_element()
    via_s = build(n, "s")
    via_t = mat_sub(
        mat_mul(family[group.generator("t")], family[group.element(n - 1, "s")]),
        family[group.element(n - 2, "t")],
    )
    for route in (via_s, via_t):
        if first_negative_entry(route) is not None:
            return negative(w0, route)
    if via_s != via_t:
        return ExtensionFailure(
            pair=pair,
            filter_id="F5",
            element=w0,
            witness="the s-leading and t-leading recursions for A_w0 disagree",
            partial=dict(family),
        )
    family[w0] = via_s
    return ExtendedRep(pair=pair, family=dict(family))


@functools.lru_cache(maxsize=None)
def f1_matrices_oracle(rank, bound):
    """Every matrix with entries in 0..bound and A^2 = 2A, as tuples of rows."""
    found = []
    for flat in itertools.product(range(bound + 1), repeat=rank * rank):
        m = tuple(tuple(flat[i * rank + j] for j in range(rank)) for i in range(rank))
        if mat_mul(m, m) == mat_scale(2, m):
            found.append(m)
    return tuple(found)


def block_pair(n, rank, k, b_rows, bp_rows):
    theta_s = tuple(
        tuple((2 if i == j else 0) for j in range(k)) + tuple(b_rows[i]) for i in range(k)
    ) + tuple((0,) * rank for _ in range(rank - k))
    theta_t = tuple((0,) * rank for _ in range(k)) + tuple(
        tuple(bp_rows[i]) + tuple((2 if i == j else 0) for j in range(rank - k))
        for i in range(rank - k)
    )
    return MatrixPair(n=n, rank=rank, theta_s=theta_s, theta_t=theta_t)


def raw_block_units(rank, bound):
    """The search's work units before orbits: every first row of B."""
    if rank == 1:
        return [("degenerate", a, b) for a in (0, 2) for b in (0, 2)]
    return [
        ("block", k, row0)
        for k in range(1, rank)
        for row0 in itertools.product(range(bound + 1), repeat=rank - k)
    ]


def raw_variety_units(rank, bound):
    """The F7-off search's work units before orbits: every A_s of the variety."""
    matrices = f1_matrices_oracle(rank, bound)
    return [("pair_row", matrices, i) for i in range(len(matrices))]


def raw_units(rank, bound, block_space):
    return raw_block_units(rank, bound) if block_space else raw_variety_units(rank, bound)


def raw_unit_pairs(n, rank, bound, unit):
    if unit[0] == "pair_row":
        _, matrices, i = unit
        for theta_t in matrices:
            yield MatrixPair(n=n, rank=rank, theta_s=matrices[i], theta_t=theta_t)
        return
    if unit[0] == "degenerate":
        _, a, b = unit
        yield MatrixPair(n=n, rank=1, theta_s=((a,),), theta_t=((b,),))
        return
    _, k, row0 = unit
    for tail in itertools.product(itertools.product(range(bound + 1), repeat=rank - k), repeat=k - 1):
        b_rows = (tuple(row0),) + tuple(tail)
        for bp_rows in itertools.product(itertools.product(range(bound + 1), repeat=k), repeat=rank - k):
            yield block_pair(n, rank, k, b_rows, bp_rows)


def raw_block_pairs(n, rank, bound):
    """Every pair of the block space of one rank, in the search's old order."""
    for unit in raw_block_units(rank, bound):
        yield from raw_unit_pairs(n, rank, bound, unit)


def evaluate_raw_unit(payload):
    """Every pair of a raw unit through run_filters, as the search did."""
    n, rank, bound, enabled, unit = payload
    evaluated = 0
    rejections = {}
    survivors = {}
    for pair in raw_unit_pairs(n, rank, bound, unit):
        evaluated += 1
        _, _, failed = run_filters(pair, enabled)
        if failed is not None:
            rejections[failed] = rejections.get(failed, 0) + 1
            continue
        rep = canonical_pair(pair)
        key = canonicalize(rep)
        if key not in survivors:
            survivors[key] = (key, rep.theta_s, rep.theta_t)
    return evaluated, tuple(sorted(rejections.items())), list(survivors.values())
