"""Slow reference implementations that the fast paths are tested against.

``extend_oracle`` is the KL recursion on tuple-of-tuples matrices, one
``mat_mul`` per element; ``nimrep.extend`` must give the same family,
element and witness text.  ``run_filters_oracle`` is the filter pipeline
that reads F4 off the extended family with ``check_apex_support`` (a walk
over ``compute_cells``) and checks F6 with ``check_group_relations``;
``classify.run_filters``, which renders F4, F2 and F5 from one kernel call
and F6 from F1 and F5, must give the same reports, failing filter and
apex.  ``f1_matrices_oracle`` is the F1 variety by
scanning the entry cube with the F1 predicate of ``check_idempotent``,
which ``classify._f1_matrices`` builds from the normal form instead.  ``raw_block_pairs``
enumerates every pair of the F7 block space, ``raw_variety_units`` splits
the F1 variety into one unit per A_s, and ``evaluate_raw_unit`` runs
``run_filters_oracle`` on every pair of a unit of either kind, which is the
search before orbit representatives; the reports of ``classify`` must be
the same bytes.
``kl_recursion_oracle`` is the flat-pair KL kernel that slices, sums and
packs both generators on every call; ``algebra._kl_recursion``, which takes
generators prepared once, must return the same tuple.
``strongly_connected_oracle`` is F3 by breadth-first search over adjacency
sets; ``nimrep._strongly_connected`` on a support bitmask must give the
same verdict and the same missing vertex.
``mat_mul_oracle`` is the dense integer product, one dot product per row
and column, that ``exact.mat_mul`` must equal.  ``perron_iteration_oracle``
is the power iteration on the dense Q + I with two products per step, one
for the next iterate and one for the residual; ``nimrep.perron_analysis``
must give the same floats, bit for bit.
``group_matrices_oracle`` builds the matrix of every group element from
its reduced word, one product per element, and ``decompose_oracle`` reads
the multiplicities from their traces after ``module_relations_oracle``,
which checks the relations with ``mat_pow``; ``reps.decompose`` must give
the same decomposition, or raise with the same text.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque

from klcells.classify import canonical_pair, canonicalize
from klcells.dihedral import dihedral_group, other_letter, render
from klcells.exact import (
    first_negative_entry,
    freeze_matrix,
    identity_matrix,
    is_zero_matrix,
    mat_mul,
    mat_pow,
    mat_sub,
    trace,
)
from klcells.nimrep import (
    ExtendedRep,
    ExtensionFailure,
    FilterReport,
    MatrixPair,
    check_apex_support,
    check_block_form,
    check_group_relations,
    check_idempotent,
    check_transitive,
    extend,
    _square,
    _twice_idempotent,
)
from klcells.reps import Decomposition, NotAModuleError, _module_sort_key, character, simple_name, simples


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
    irreducible = strongly_connected_oracle([v for row in q for v in row], r) is None
    return radius - 1.0, (tuple(x / top for x in vec) if irreducible else None)


def strongly_connected_oracle(q, r):
    """None when the action graph of the flat r x r matrix q (edge i -> j
    iff q[j][i] != 0) is strongly connected; else the least vertex that
    vertex 0 does not reach, or, if it reaches all, the least vertex that
    does not reach vertex 0."""
    successors = {i: {j for j in range(r) if q[j * r + i]} for i in range(r)}
    predecessors = {j: {i for i in range(r) if q[j * r + i]} for j in range(r)}
    for adjacency in (successors, predecessors):
        seen = {0}
        queue = deque([0])
        while queue:
            for j in adjacency[queue.popleft()] - seen:
                seen.add(j)
                queue.append(j)
        missing = set(range(r)) - seen
        if missing:
            return min(missing)
    return None


def kl_recursion_oracle(n, rank, a_s, a_t, check_support=False):
    """The KL kernel on a flat generator pair, everything rebuilt per call:
    (matrices, width, outcome, negative) as ``algebra._kl_recursion``."""
    r = rank
    generators = [[a[i * r : (i + 1) * r] for i in range(r)] for a in (a_s, a_t)]
    width = n * (max(map(sum, generators[0] + generators[1])) + 1).bit_length() + 1
    shifts = range(0, width * r, width)
    offset = sum(1 << (shift + width - 1) for shift in shifts)
    terms = [[tuple(itertools.compress(enumerate(row), row)) for row in rows] for rows in generators]
    matrices = [[1 << shift for shift in shifts]]
    matrices += [[sum(map(operator.lshift, row, shifts)) for row in rows] for rows in generators]
    check_support = check_support and (any(a_s) or any(a_t))
    if check_support and not (any(a_s) and any(a_t)):
        return matrices, width, "F4", None

    def product(x, m, back):
        out = []
        for i, row_terms in enumerate(terms[x]):
            acc = -back[i] if back is not None else 0
            for l, v in row_terms:
                acc += v * m[l]
            out.append(acc)
        return out

    for length in range(2, n):
        for x in (0, 1):
            shorter = matrices[2 * length - 2 - x]
            back = matrices[2 * length - 5 + x] if length > 2 else None
            a = product(x, shorter, back)
            if any((row + offset) & offset != offset for row in a):
                return matrices, width, "F2", a
            matrices.append(a)
            if check_support and not any(a):
                return matrices, width, "F4", None
    via_s = product(0, matrices[2 * n - 2], matrices[2 * n - 5])
    via_t = product(1, matrices[2 * n - 3], matrices[2 * n - 4])
    for route in (via_s, via_t):
        if any((row + offset) & offset != offset for row in route):
            return matrices, width, "F2", route
    if via_s != via_t:
        return matrices, width, "F5", None
    matrices.append(via_s)
    return matrices, width, None, None


def extend_oracle(pair, check_support=False):
    """``nimrep.extend`` on tuples.  With ``check_support`` and a nonzero
    A_s or A_t, the first vanishing matrix of length 1..n-1 is an F4
    failure, checked after F2 on the same matrix."""
    group = dihedral_group(pair.n)
    n = pair.n
    family = {
        group.identity(): identity_matrix(pair.rank),
        group.generator("s"): pair.theta_s,
        group.generator("t"): pair.theta_t,
    }
    check_support = check_support and not (is_zero_matrix(pair.theta_s) and is_zero_matrix(pair.theta_t))

    def vanishing(w):
        return ExtensionFailure(
            pair=pair,
            filter_id="F4",
            element=w,
            witness=f"A_{render(w)} = 0 inside a two-sided cell with nonzero members",
            partial=dict(family),
        )

    if check_support:
        for letter in ("s", "t"):
            if is_zero_matrix(family[group.generator(letter)]):
                return vanishing(group.generator(letter))

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
            if check_support and is_zero_matrix(a):
                return vanishing(w)
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


def run_filters_oracle(pair, enabled):
    """The filter pipeline with F4 from ``check_apex_support`` and F6 from
    ``check_group_relations``: (reports, extension outcome, first failing
    filter id or None), as ``classify.run_filters``."""
    enabled_set = set(enabled)
    reports = []

    f1 = check_idempotent(pair)
    reports.append(f1)
    if not f1.passed:
        return tuple(reports), None, "F1"

    if "F3" in enabled_set:
        f3 = check_transitive(pair)
        reports.append(f3)
        if not f3.passed:
            return tuple(reports), None, "F3"

    return run_filters_oracle_from_extension(pair, enabled, reports)


def run_filters_oracle_from_extension(pair, enabled, reports):
    """``run_filters_oracle`` from the extension on, for a pair whose
    passing F1 and F3 reports are ``reports``.  Both pipelines run F1 and F3
    with the same functions, so a test that has them from
    ``classify.run_filters`` need not run them again."""
    enabled_set = set(enabled)
    reports = list(reports)
    ext = extend(pair)

    if "F4" in enabled_set:
        f4 = check_apex_support(pair.n, ext)
        reports.append(f4)
        if not f4.passed:
            return tuple(reports), ext, "F4"

    if isinstance(ext, ExtensionFailure):
        if ext.filter_id == "F5":
            reports.append(FilterReport("F2", True, None))
        reports.append(FilterReport(ext.filter_id, False, ext.witness))
        return tuple(reports), ext, ext.filter_id
    reports.append(FilterReport("F2", True, None))
    reports.append(FilterReport("F5", True, None))

    if "F6" in enabled_set:
        f6 = check_group_relations(pair)
        reports.append(f6)
        if not f6.passed:
            return tuple(reports), ext, "F6"

    if "F7" in enabled_set:
        f7 = check_block_form(pair)
        reports.append(f7)
        if not f7.passed:
            return tuple(reports), ext, "F7"

    return tuple(reports), ext, None


@functools.lru_cache(maxsize=None)
def f1_matrices_oracle(rank, bound):
    """Every flat row-major matrix with entries in 0..bound and A^2 = 2A,
    ascending: all (bound+1)^(rank^2) tuples of the entry cube, tested."""
    return tuple(a for a in itertools.product(range(bound + 1), repeat=rank * rank) if _twice_idempotent(a, rank))


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
    matrices = tuple(_square(a, rank) for a in f1_matrices_oracle(rank, bound))
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
    """Every pair of a raw unit through ``run_filters_oracle``, as the
    search did before orbit representatives."""
    n, rank, bound, enabled, unit = payload
    evaluated = 0
    rejections = {}
    survivors = {}
    for pair in raw_unit_pairs(n, rank, bound, unit):
        evaluated += 1
        _, _, failed = run_filters_oracle(pair, enabled)
        if failed is not None:
            rejections[failed] = rejections.get(failed, 0) + 1
            continue
        rep = canonical_pair(pair)
        key = canonicalize(rep)
        if key not in survivors:
            survivors[key] = (key, rep.theta_s, rep.theta_t)
    return evaluated, tuple(sorted(rejections.items())), list(survivors.values())


def group_matrices_oracle(n, a_s, a_t):
    """Matrices of the group elements themselves, built along reduced words.

    rho(w) is the matrix of w's first letter times rho(suffix), where the
    suffix drops that letter; all_elements is ordered by length, so the
    suffix is always built first and each element costs one product.
    """
    group = dihedral_group(n)
    ident = identity_matrix(len(a_s))
    gen = {"s": mat_sub(a_s, ident), "t": mat_sub(a_t, ident)}
    out = {group.identity(): ident}
    for w in group.all_elements()[1:]:
        if w.length == 1:
            out[w] = gen[w.leading]
        else:
            suffix = group.element(w.length - 1, other_letter(w.leading))
            out[w] = mat_mul(gen[w.leading], out[suffix])
    return out


def module_relations_oracle(n, a_s, a_t):
    """The first violated relation of D_n, or None: S^2, T^2, (ST)^n."""
    r = len(a_s)
    if any(len(row) != r for row in a_s) or len(a_t) != r or any(len(row) != r for row in a_t):
        return "matrices must be square and of equal size"
    ident = identity_matrix(r)
    s_mat, t_mat = mat_sub(a_s, ident), mat_sub(a_t, ident)
    if mat_mul(s_mat, s_mat) != ident:
        return "(A_s - I)^2 != I"
    if mat_mul(t_mat, t_mat) != ident:
        return "(A_t - I)^2 != I"
    if mat_pow(mat_mul(s_mat, t_mat), n) != ident:
        return f"((A_s - I)(A_t - I))^{n} != I"
    return None


def decompose_oracle(n, a_s, a_t):
    """The decomposition from the traces of every group element's matrix,
    summed in all_elements order; NotAModuleError as ``reps.decompose``."""
    a_s, a_t = freeze_matrix(a_s), freeze_matrix(a_t)
    violation = module_relations_oracle(n, a_s, a_t)
    if violation is not None:
        raise NotAModuleError(violation)
    rho = group_matrices_oracle(n, a_s, a_t)
    terms = []
    for module in simples(n):
        total = 0.0
        for w in dihedral_group(n).all_elements():
            total += character(module, n, w) * trace(rho[w])
        value = total / (2 * n)
        nearest = round(value)
        if abs(value - nearest) > 1e-6 or nearest < 0:
            raise NotAModuleError(f"multiplicity of {simple_name(module, n)} is {value}, not a nonnegative integer")
        if nearest:
            terms.append((module, nearest))
    terms.sort(key=lambda item: _module_sort_key(item[0]))
    result = Decomposition(n=n, terms=tuple(terms))
    if result.total_dim() != len(a_s):
        raise NotAModuleError(f"multiplicities account for dimension {result.total_dim()}, matrix size is {len(a_s)}")
    return result
