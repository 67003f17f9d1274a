"""Slow reference implementations that the fast paths are tested against.

``extend_oracle`` is the KL recursion on tuple-of-tuples matrices, one
``mat_mul`` per element; ``nimrep.extend`` must give the same family,
element and witness text.  A complete family is a plain dict.
``run_filters_oracle`` is the filter pipeline that reads F4 off the
extended family with ``check_apex_support`` (a walk over
``compute_cells``) and checks F6 with ``check_group_relations``;
``classify.run_filters``, which renders F4, F2 and F5 from one kernel call
and F6 from F1 and F5, must give the same reports, failing filter and
apex.  ``f1_matrices_oracle`` is the F1 variety by
scanning the entry cube with the F1 predicate of ``check_idempotent``,
which ``classify._f1_matrices`` builds from the normal form instead.  ``raw_block_pairs``
enumerates every pair of the F7 block space, ``raw_variety_units`` splits
the F1 variety into one unit per A_s, and ``evaluate_raw_units`` runs
``run_filters_oracle`` on every pair of a run of units of either kind,
which is the search before orbit representatives, and returns the flat
surviving pairs; the reports of ``classify`` must be the same bytes.
``kl_recursion_oracle`` is the flat-pair KL kernel that slices, sums and
packs both generators on every call; ``algebra._kl_recursion``, which takes
generators prepared once, must return the same matrices, width and
negative matrix for one lane, and the same entries for each lane of a call
with many, and its log must give each lane the oracle's outcome.
``replayed`` turns a kernel log into one verdict per lane, as the tests
compare them: it reads the lane masks ``algebra._replay`` gives, and checks
that every lane has at most one verdict and is alive exactly when it has
none.
``strongly_connected_oracle`` is F3 by breadth-first search over adjacency
sets; ``nimrep._strongly_connected`` on a support bitmask must give the
same verdict and the same missing vertex.
``mat_mul_oracle`` is the dense integer product, one dot product per row
and column, that ``exact.mat_mul`` must equal.  ``perron_iteration_oracle``
is the power iteration on the dense Q + I with two products per step, one
for the next iterate and one for the residual, each float sum a left fold;
``nimrep.perron_analysis`` must give the same floats, bit for bit.
``unpack_oracle`` reads a one-lane packed matrix field by field from the
bottom, masking each field and taking its two's complement;
``algebra._unpack``, which peels the nonzero fields of the offset form from
the top, must give the same tuples.
``multiply_oracle`` multiplies reduced words by cancelling letters at the
junction and folding words longer than n, and ``action_oracle`` gives an
element as the permutation of Z/n by which it acts (s: i -> -i,
t: i -> 1 - i); ``DihedralGroup.multiply``, rotation arithmetic, must give
the same product as the first and the composed permutation of the second.
``structure_constants_oracle`` is the table of every KL product b(u) b(w)
built eagerly, one dict per pair, off the columns of the regular pair's
family; ``StructureConstantTable.product``, which reads one column of one
matrix when asked, must give the same coefficients.
``cell_name_oracle`` names a cell by scanning its members: the bottom name
when every member is e, the top one when every member is w0, else a name
read off the first member's last letter (left), first letter (right) or
nothing (J2); the namers of ``cells``, which look the name up by the
closed-form position of the first member, must agree.
``display_key_oracle`` sorts by length and then s before t;
``dihedral.display_key``, the kernel-order index, must give the same order.
``kl_to_group_oracle`` and ``group_to_kl_oracle`` convert between the
bases term by term through ``kl_expansion_oracle``, and
``kl_left_gen_oracle`` finds b(x) b(w) by multiplying group elements;
``algebra``'s conversions, suffix sums over the lengths, and its generator
rule, read off the length and leading letter, must give the same
coefficients, and so must the columns of ``kl_regular_matrices``.
``module_traces_oracle`` reads the rotation traces of a complete KL family
by inverting every trace with a running sum; ``reps._rotation_traces``,
which builds the powers of ST up to about n/4, must give the same.
``group_matrices_oracle`` builds the matrix of every group element from
its reduced word, one product per element, and ``decompose_oracle`` reads
the multiplicities from their traces after ``module_relations_oracle``,
which checks the relations with ``mat_pow``, and weighs the traces with
``character``, the float character of a simple module; ``reps.decompose``
must give the same decomposition, or raise with the same text, and on a
module so must ``reps._module_decomposition``, which checks nothing.
``block_matrix`` assembles a matrix from a grid of blocks, and
``kl_generator_matrices`` gives the float matrices of b(s) and b(t) on a
simple module.
``eigenvalue_orders`` reads from a decomposition how many eigenvalues of ST
have each order.
``dynkin_block_pairs`` builds, from the Cartan matrix of each Dynkin
diagram with Coxeter number n, the block pair of each side of its
bipartition; the survivors of ``classify`` with a symmetric zero pattern
must be their classes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque

from klcells.algebra import _module_family, _replay, kl_regular_matrices
from klcells.dihedral import dihedral_group, other_letter, render
from klcells.exact import (
    first_negative_entry,
    freeze_matrix,
    identity_matrix,
    is_zero_matrix,
    mat_mul,
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
    _flatten,
    _square,
    _twice_idempotent,
)
from klcells.reps import Decomposition, NotAModuleError, OneDim, module_dim, simple_name, simples


def mat_pow(a, k):
    """a^k for k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("negative matrix powers are not defined here")
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def block_matrix(blocks):
    """Assemble a matrix from a grid of conforming blocks."""
    rows = []
    for block_row in blocks:
        heights = {len(b) for b in block_row}
        if len(heights) != 1:
            raise ValueError("blocks in one row must have equal heights")
        for i in range(heights.pop()):
            rows.append(tuple(v for b in block_row for v in b[i]))
    if len({len(r) for r in rows}) > 1:
        raise ValueError("block rows produce unequal widths")
    return tuple(rows)


def character(module, n, w):
    """Character value of a simple module on a group element (an integer
    for one-dimensional modules)."""
    if isinstance(module, OneDim):
        s_count = (w.length + 1) // 2 if w.leading == "s" else w.length // 2
        t_count = w.length - s_count
        value = (module.eps**s_count) * (module.delta**t_count)
        if w.length == n and n % 2 == 1:
            # Both reduced words of w0 must agree, which forces eps == delta.
            assert module.eps == module.delta
        return float(value)
    if w.length % 2 == 1:
        return 0.0
    return 2.0 * math.cos(module.k * w.length * math.pi / n)


def kl_generator_matrices(n, module):
    """Matrices of b(s) and b(t) on a simple module (real entries)."""
    if isinstance(module, OneDim):
        return ((float(1 + module.eps),),), ((float(1 + module.delta),),)
    theta = 2.0 * module.k * math.pi / n
    c = math.cos(theta)
    s = math.sin(theta)
    return ((2.0, 0.0), (0.0, 0.0)), ((1.0 + c, s), (s, 1.0 - c))


def multiply_oracle(group, a, b):
    """ab on reduced words: the letters at the junction cancel in a cascade
    (both generators are involutions), and an alternating word of length
    m > n folds back to the alternating word of length 2n - m with the
    opposite leading letter."""
    wa, wb = a.word(), b.word()
    i, j = len(wa) - 1, 0
    while i >= 0 and j < len(wb) and wa[i] == wb[j]:
        i -= 1
        j += 1
    m = (i + 1) + (len(wb) - j)
    if i >= 0:
        leading = wa[0]
    elif j < len(wb):
        leading = wb[j]
    else:
        leading = None
    if m > group.n:
        m = 2 * group.n - m
        leading = other_letter(leading) if m > 0 else None
    return group.element(m, leading)


def action_oracle(w):
    """w as a permutation of Z/n, the tuple of images of 0..n-1: s acts by
    i -> -i and t by i -> 1 - i, the last letter of the word first.  The
    action is faithful for n >= 3."""
    n = w.n
    images = tuple(range(n))
    for letter in reversed(w.word()):
        images = tuple((-i if letter == "s" else 1 - i) % n for i in images)
    return images


def mat_mul_oracle(a, b):
    if a and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def unpack_oracle(packed, width):
    """The entries of packed rows, each row the sum of entry_j << (j * width)
    over signed entries in [-2^(width-1), 2^(width-1)): shift and mask the
    lowest field, read it as two's complement, and drop it with its borrow."""
    rank = len(packed[0]) if packed else 0
    mask, half = (1 << width) - 1, 1 << (width - 1)

    def entries(row):
        out = []
        for _ in range(rank):
            field = row & mask
            entry = field - (1 << width) if field >= half else field
            out.append(entry)
            row = (row - entry) >> width
        assert row == 0, "a packed row holds exactly rank fields"
        return tuple(out)

    return [tuple(entries(row) for row in m) for m in packed]


def perron_iteration_oracle(q):
    """(spectral_radius, positive_eigenvector or None) from the dense
    two-product power iteration on Q + I; ArithmeticError after 200,000
    steps without the 1e-10 residual.  Every float sum (the row dot
    products and the norm) is a left fold, which rounds alike on every
    Python (``sum`` of floats is compensated from 3.12 on)."""
    r = len(q)
    shifted = tuple(tuple(v + (1 if i == j else 0) for j, v in enumerate(row)) for i, row in enumerate(q))

    def dot(row, vec):
        return functools.reduce(operator.add, map(operator.mul, row, vec))

    vec = [1.0 / r] * r
    for _ in range(200000):
        nxt = [dot(row, vec) for row in shifted]
        norm = functools.reduce(operator.add, map(abs, nxt))
        nxt = [x / norm for x in nxt]
        radius = norm
        residual = max(abs(dot(row, nxt) - radius * x) for row, x in zip(shifted, nxt))
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


def replayed(log, lanes, n):
    """Each lane's verdict at n read off a kernel log (``_replay``): the
    filter that failed it, or None; the lanes alive are those no filter
    failed."""
    failed, alive = _replay(log, lanes, n)
    out = [None] * lanes
    for tag, bits in failed.items():
        for lane, flag in enumerate(bits.to_bytes(lanes, "little")):
            if flag:
                assert out[lane] is None, (lane, tag)
                out[lane] = tag
    assert alive.to_bytes(lanes, "little") == bytes(0x80 if verdict is None else 0 for verdict in out)
    return out


def kl_recursion_oracle(n, rank, a_s, a_t, check_support=False):
    """The KL kernel on a flat generator pair, everything rebuilt per call:
    (matrices, width, outcome, negative) as ``algebra._kl_recursion``
    gives them for one lane, its log read by ``replayed``."""
    r = rank
    generators = [[a[i * r : (i + 1) * r] for i in range(r)] for a in (a_s, a_t)]
    # the largest row l1 norm of the s- and t-leading elements of each
    # length, by S_l <= c_s T_(l-1) + S_(l-2) and the same with s and t
    # exchanged, from the identity (norm 1) and the generators
    c_s, c_t = (max(map(sum, rows)) for rows in generators)
    norms = {"s": [1, c_s], "t": [1, c_t]}
    for length in range(2, n + 1):
        norms["s"].append(c_s * norms["t"][length - 1] + norms["s"][length - 2])
        norms["t"].append(c_t * norms["s"][length - 1] + norms["t"][length - 2])
    width = max(norms["s"] + norms["t"]).bit_length() + 1
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
    return ExtendedRep(pair=pair, family=family)


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


def evaluate_raw_units(payload):
    """Every pair of the raw units start:stop of a rank through
    ``run_filters_oracle``, as the search did before orbit representatives;
    takes the payload of ``classify._judge_units`` and returns what it
    does, with every surviving pair flat."""
    n, rank, bound, enabled, start, stop = payload
    units = raw_units(rank, bound, "F7" in enabled)[start:stop]
    evaluated = 0
    rejections = {}
    survivors = []
    for pair in itertools.chain.from_iterable(raw_unit_pairs(n, rank, bound, unit) for unit in units):
        evaluated += 1
        _, _, failed = run_filters_oracle(pair, enabled)
        if failed is None:
            survivors.append((tuple(_flatten(pair.theta_s)), tuple(_flatten(pair.theta_t))))
        else:
            rejections[failed] = rejections.get(failed, 0) + 1
    return evaluated, tuple(sorted(rejections.items())), survivors


def structure_constants_oracle(n):
    """{(u, w): the nonzero KL coefficients of b(u) b(w)} for every pair of
    D_n: column j of the regular family's A_u is b(u) b(w_j), w_j the j-th
    element of ``all_elements``."""
    elements = dihedral_group(n).all_elements()
    family = _module_family(n, *kl_regular_matrices(n))
    entries = {}
    for u in elements:
        for w, column in zip(elements, zip(*family[u])):
            entries[(u, w)] = {v: c for v, c in zip(elements, column) if c}
    return entries


def cell_name_oracle(kind, cell):
    """The name of a cell of ``kind`` ("left", "right" or "two-sided") read
    off its members."""
    bottom, top, middle = {
        "left": ("Le", "Lw0", lambda w: f"L{w.trailing()}"),
        "right": ("Re", "Rw0", lambda w: f"R{w.leading}"),
        "two-sided": ("J1", "J3", lambda w: "J2"),
    }[kind]
    members = tuple(cell)
    if all(w.is_identity() for w in members):
        return bottom
    if all(w.is_longest() for w in members):
        return top
    return middle(members[0])


def display_key_oracle(w):
    """(length, 0 for e, 1 when w leads with s, 2 when with t)."""
    return (w.length, {None: 0, "s": 1, "t": 2}[w.leading])


def kl_expansion_oracle(group, w):
    """b(w) in the group basis: w plus every strictly shorter element."""
    out = {v: 1 for v in group.all_elements() if v.length < w.length}
    out[w] = 1
    return out


def kl_to_group_oracle(group, coeffs):
    """Expand each KL term through ``kl_expansion_oracle`` and add up."""
    out = {}
    for w, c in coeffs.items():
        if c == 0:
            continue
        for v, e in kl_expansion_oracle(group, w).items():
            new = out.get(v, 0) + c * e
            if new:
                out[v] = new
            else:
                out.pop(v, None)
    return out


def group_to_kl_oracle(group, coeffs):
    """Unitriangular elimination from the longest element downwards."""
    work = {w: c for w, c in coeffs.items() if c != 0}
    out = {}
    for w in sorted(group.all_elements(), key=display_key_oracle, reverse=True):
        c = work.get(w, 0)
        if c == 0:
            continue
        out[w] = c
        for v, e in kl_expansion_oracle(group, w).items():
            new = work.get(v, 0) - c * e
            if new:
                work[v] = new
            else:
                work.pop(v, None)
    assert not work, "basis conversion must terminate with nothing left"
    return out


def kl_left_gen_oracle(group, letter, w):
    """b(letter) b(w) by multiplying group elements: b(x) on the identity,
    2 b(w) when xw is shorter than w, b(xw) when w is the other generator,
    and b(xw) + b(yw) otherwise, y the other generator."""
    x = group.generator(letter)
    if w.is_identity():
        return {x: 1}
    xw = group.multiply(x, w)
    if xw.length < w.length:
        return {w: 2}
    if w.length == 1:
        return {xw: 1}
    return {xw: 1, group.multiply(group.generator(other_letter(letter)), w): 1}


def module_traces_oracle(n, family):
    """a_j = tr (ST)^j for 0 <= j <= n/2 of a complete KL family by
    inverting every trace.  Let C_l be the sum of tr rho(u) over
    the u of length <= l, so C_0 = r; with x_l and y_l the elements of
    length l that lead with s and t, tr rho(x_l) = tr A_(x_l) - C_(l-1) and
    C_l = tr A_(x_l) + tr A_(y_l) - C_(l-1).  a_j is tr rho(x_(2j)) for
    2j < n and tr A_w0 - C_(n-1) for 2j = n."""
    elements = dihedral_group(n).all_elements()
    cumulative = rank = trace(family[elements[0]])
    rho_traces = []  # (tr rho(x_l), tr rho(y_l)) for l = 1 .. n-1
    for length in range(1, n):
        traced = tuple(trace(family[elements[2 * length - 1 + y]]) - cumulative for y in (0, 1))
        rho_traces.append(traced)
        cumulative += sum(traced)
    rotation = [rank] + [tr_x for tr_x, _ in rho_traces[1::2]]
    if n % 2 == 0:
        rotation.append(trace(family[elements[-1]]) - cumulative)
    return rotation


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
    result = Decomposition(n=n, terms=tuple(terms))
    if result.total_dim() != len(a_s):
        raise NotAModuleError(f"multiplicities account for dimension {result.total_dim()}, matrix size is {len(a_s)}")
    return result


def eigenvalue_orders(n, decomposition):
    """Order d -> how many eigenvalues of ST have order exactly d, as the
    decomposition gives them: V(eps, delta) has eps*delta, V(n, k) has
    exp(+-2 pi i k/n)."""
    counts = {}
    for module, mult in decomposition.terms:
        if isinstance(module, OneDim):
            order = 1 if module.eps == module.delta else 2
        else:
            order = n // math.gcd(n, module.k)
        counts[order] = counts.get(order, 0) + mult * module_dim(module)
    return counts


def dynkin_diagrams(max_rank):
    """(name, Coxeter number h, Cartan matrix) of every connected Dynkin
    diagram of rank 2..max_rank.  A valued edge has
    C[i][j] C[j][i] = 2 or 3; C_m is the transpose of B_m, so the two are
    distinct valued edges (C2 is B2)."""
    def cartan(rank, edges):
        c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i, j, c_ij, c_ji in edges:
            c[i][j], c[j][i] = c_ij, c_ji
        return tuple(tuple(row) for row in c)

    def chain(m, last=(-1, -1)):
        return [(i, i + 1, -1, -1) for i in range(m - 2)] + [(m - 2, m - 1) + last]

    diagrams = []
    for m in range(2, max_rank + 1):
        diagrams.append((f"A{m}", m + 1, cartan(m, chain(m))))
        diagrams.append((f"B{m}", 2 * m, cartan(m, chain(m, (-2, -1)))))
        if m >= 3:
            diagrams.append((f"C{m}", 2 * m, cartan(m, chain(m, (-1, -2)))))
        if m >= 4:
            diagrams.append((f"D{m}", 2 * m - 2, cartan(m, chain(m - 1) + [(m - 3, m - 1, -1, -1)])))
    exceptional = [
        ("G2", 6, cartan(2, [(0, 1, -1, -3)])),
        ("F4", 12, cartan(4, [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)])),
        ("E6", 12, cartan(6, chain(5) + [(2, 5, -1, -1)])),
        ("E7", 18, cartan(7, chain(6) + [(2, 6, -1, -1)])),
        ("E8", 30, cartan(8, chain(7) + [(2, 7, -1, -1)])),
    ]
    return diagrams + [d for d in exceptional if len(d[2]) <= max_rank]


def dynkin_block_pairs(n, ranks, bound):
    """(name, block pair) for each side of the bipartition of every Dynkin
    diagram with Coxeter number n, a rank in ``ranks`` and largest entry of
    -C at most ``bound``: the side I first, A_s = [[2I, B], [0, 0]] and
    A_t = [[0, 0], [B', 2I]] with B = -C[I, J] and B' = -C[J, I]."""
    out = []
    for name, h, c in dynkin_diagrams(max(ranks)):
        rank = len(c)
        if h != n or rank not in ranks or -min(map(min, c)) > bound:
            continue
        # the diagram is a tree in which each vertex past 0 has a neighbour
        # of smaller index: colour it in index order
        side = [0]
        for j in range(1, rank):
            side.append(1 - side[next(i for i in range(j) if c[i][j])])
        for colour in (0, 1):
            first = [i for i in range(rank) if side[i] == colour]
            second = [j for j in range(rank) if side[j] != colour]
            b_rows = [[-c[i][j] for j in second] for i in first]
            bp_rows = [[-c[j][i] for i in first] for j in second]
            out.append((name, block_pair(n, rank, len(first), b_rows, bp_rows)))
    return out
