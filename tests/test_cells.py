"""Cell partitions, the preorders, regularity, and cell modules."""

import pytest

from klcells.algebra import kl_regular_matrices, structure_constants
from klcells.cells import (
    cell_by_name,
    cell_diagram_dot,
    cell_module,
    compute_cells,
    is_strongly_regular,
    left_cell_name,
    right_cell_name,
    right_cell_module,
    two_sided_cell_name,
)
from klcells.dihedral import dihedral_group, render
from klcells.exact import block_matrix, zero_matrix


def elements_by_text(n, texts):
    group = dihedral_group(n)
    return tuple(group.element_from_text(t) for t in texts)


def test_left_cells_closed_form():
    for n in range(3, 9):
        partition = compute_cells(n)
        group = dihedral_group(n)
        e = group.identity()
        w0 = group.longest_element()
        middle = [w for w in group.all_elements() if 0 < w.length < n]
        ends_s = {w for w in middle if w.trailing() == "s"}
        ends_t = {w for w in middle if w.trailing() == "t"}
        left_sets = [set(c) for c in partition.left_cells]
        assert left_sets == [{e}, ends_s, ends_t, {w0}]
        starts_s = {w for w in middle if w.leading == "s"}
        starts_t = {w for w in middle if w.leading == "t"}
        right_sets = [set(c) for c in partition.right_cells]
        assert right_sets == [{e}, starts_s, starts_t, {w0}]
        two_sided_sets = [set(c) for c in partition.two_sided_cells]
        assert two_sided_sets == [{e}, set(middle), {w0}]


def test_cell_names():
    partition = compute_cells(5)
    assert [left_cell_name(c) for c in partition.left_cells] == ["Le", "Ls", "Lt", "Lw0"]
    assert [right_cell_name(c) for c in partition.right_cells] == ["Re", "Rs", "Rt", "Rw0"]
    assert [two_sided_cell_name(c) for c in partition.two_sided_cells] == ["J1", "J2", "J3"]


def test_left_order_is_the_nine_pair_fan():
    # Le below everything, Ls and Lt incomparable, Lw0 above everything
    for n in (3, 4, 6):
        partition = compute_cells(n)
        expected = {
            (0, 0), (1, 1), (2, 2), (3, 3),  # reflexive
            (0, 1), (0, 2), (0, 3),          # Le below the rest
            (1, 3), (2, 3),                  # middle cells below Lw0
        }
        assert set(partition.left_leq) == expected
        assert set(partition.right_leq) == expected
        assert set(partition.j_leq) == {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)}


def test_partition_jsonable():
    obj = compute_cells(4).to_jsonable()
    assert obj["n"] == 4
    assert obj["j_order"] == ["J1", "J2", "J3"]
    assert {"name": "Ls", "elements": ["s", "ts", "sts"]} in obj["left_cells"]
    assert {"name": "Rt", "elements": ["t", "ts", "tst"]} in obj["right_cells"]
    assert {"name": "J3", "elements": ["w0"]} in obj["two_sided_cells"]


def test_cell_by_name():
    assert [render(w) for w in cell_by_name(4, "Ls")] == ["s", "ts", "sts"]
    assert [render(w) for w in cell_by_name(4, "Rs")] == ["s", "st", "sts"]
    assert [render(w) for w in cell_by_name(4, "J1")] == ["e"]
    with pytest.raises(ValueError):
        cell_by_name(4, "Lx")


def test_strong_regularity():
    # J2 is strongly regular exactly when every left and right cell inside it
    # intersect in a single element; at n=4 the s-cells meet twice
    report = is_strongly_regular(compute_cells(4), "J2")
    assert not report.holds
    assert report.witness == "|Ls ∩ Rs| = 2"
    assert [render(w) for w in report.offending] == ["s", "sts"]

    assert is_strongly_regular(compute_cells(3), "J2").holds
    for n in range(3, 9):
        partition = compute_cells(n)
        assert is_strongly_regular(partition, "J1").holds
        assert is_strongly_regular(partition, "J3").holds

    with pytest.raises(ValueError):
        is_strongly_regular(compute_cells(4), "Ls")


def test_cell_module_basis_order():
    # basis sorted by (leading letter, length) with s before t
    module = cell_module(4, "Ls")
    assert [render(w) for w in module.cell] == ["s", "sts", "ts"]
    module = cell_module(4, "Lt")
    assert [render(w) for w in module.cell] == ["st", "t", "tst"]


def test_cell_module_frozen_matrices_n4():
    group = dihedral_group(4)
    b_s = group.generator("s")
    b_t = group.generator("t")

    ls = cell_module(4, "Ls")
    assert ls.matrices[b_s] == ((2, 0, 1), (0, 2, 1), (0, 0, 0))
    assert ls.matrices[b_t] == ((0, 0, 0), (0, 0, 0), (1, 1, 2))

    lt = cell_module(4, "Lt")
    assert lt.matrices[b_s] == ((2, 1, 1), (0, 0, 0), (0, 0, 0))
    assert lt.matrices[b_t] == ((0, 0, 0), (1, 2, 0), (1, 0, 2))

    le = cell_module(4, "Le")
    assert le.matrices[b_s] == ((0,),)
    assert le.matrices[b_t] == ((0,),)
    assert le.matrices[group.identity()] == ((1,),)

    lw0 = cell_module(4, "Lw0")
    assert lw0.matrices[b_s] == ((2,),)
    assert lw0.matrices[b_t] == ((2,),)


def test_cell_module_accepts_cell_tuple():
    cell = cell_by_name(4, "Ls")
    assert cell_module(4, cell).matrices == cell_module(4, "Ls").matrices
    with pytest.raises(ValueError):
        cell_module(4, "Rs")  # not a left cell


def test_longest_cell_module_is_absorption_scalars():
    for n in range(3, 8):
        module = cell_module(n, "Lw0")
        for u, matrix in module.matrices.items():
            size = 2 * u.length if 0 < u.length < n else (1 if u.length == 0 else 2 * n)
            assert matrix == ((size,),)


def test_identity_cell_module_is_trivial_truncation():
    for n in range(3, 8):
        module = cell_module(n, "Le")
        group = dihedral_group(n)
        for u, matrix in module.matrices.items():
            assert matrix == ((1 if u == group.identity() else 0,),)


def test_cell_module_is_the_truncated_table():
    # entry [i][j] of b(u) is the coefficient of basis element i in the
    # table product b(u) b(basis element j)
    for n in range(3, 17):
        table = structure_constants(n)
        for name in ("Le", "Ls", "Lt", "Lw0"):
            module = cell_module(n, name)
            expected = {
                u: tuple(
                    tuple(table.product(u, b).get(a, 0) for b in module.cell)
                    for a in module.cell
                )
                for u in dihedral_group(n).all_elements()
            }
            assert module.matrices == expected, (n, name)


def test_cell_module_is_a_quotient_representation():
    # A_u A_w must match sum of structure constants pushed into the cell
    for n in (3, 4, 5):
        table = structure_constants(n)
        group = dihedral_group(n)
        for name in ("Ls", "Lt"):
            module = cell_module(n, name)
            rank = len(module.cell)
            for u in group.all_elements():
                for w in group.all_elements():
                    combined = [
                        [
                            sum(
                                module.matrices[u][i][k] * module.matrices[w][k][j]
                                for k in range(rank)
                            )
                            for j in range(rank)
                        ]
                        for i in range(rank)
                    ]
                    # other route: matrix of b(u) b(w) = sum_v c^v_{u,w} A_v
                    summed = [[0] * rank for _ in range(rank)]
                    for v, c in table.product(u, w).items():
                        mat = module.matrices[v]
                        for i in range(rank):
                            for j in range(rank):
                                summed[i][j] += c * mat[i][j]
                    assert combined == summed


def test_cell_modules_tile_the_regular_representation():
    # stacking the four cell modules along the diagonal reproduces the regular
    # action up to simultaneous conjugation; comparing traces of words is a
    # cheap complete check for D_n since characters separate representations
    for n in (3, 4, 5, 6):
        group = dihedral_group(n)
        m_s, m_t = kl_regular_matrices(n)
        modules = [cell_module(n, name) for name in ("Le", "Ls", "Lt", "Lw0")]

        def stack(letter):
            gen = group.generator(letter)
            blocks = []
            sizes = [len(m.cell) for m in modules]
            for i, module in enumerate(modules):
                row = []
                for j, size in enumerate(sizes):
                    if i == j:
                        row.append(module.matrices[gen])
                    else:
                        row.append(zero_matrix(sizes[i], size))
                blocks.append(row)
            return block_matrix(blocks)

        stacked = {"s": stack("s"), "t": stack("t")}
        regular = {"s": m_s, "t": m_t}

        def trace_of_word(action, word):
            size = len(action["s"])
            product = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
            for letter in word:
                mat = action[letter]
                product = [
                    [
                        sum(product[i][k] * mat[k][j] for k in range(size))
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
            return sum(product[i][i] for i in range(size))

        words = ["s", "t", "st", "ts", "sts", "stst", "tst", "ststst"]
        for word in words:
            assert trace_of_word(stacked, word) == trace_of_word(regular, word)


def test_right_cell_module_transport():
    # the right module on R_u matches the left module on (R_u)^{-1} = L_{u^{-1}}
    # after relabeling basis elements by inversion
    for n in (3, 4, 5, 6):
        group = dihedral_group(n)
        for name in ("Re", "Rs", "Rt", "Rw0"):
            right = right_cell_module(n, name)
            left_name = "L" + name[1:]
            left = cell_module(n, left_name)
            # inversion maps the right cell onto the left cell
            assert {group.inverse(w) for w in right.cell} == set(left.cell)
            sigma = [left.cell.index(group.inverse(w)) for w in right.cell]
            for u in group.all_elements():
                left_mat = left.matrices[group.inverse(u)]
                right_mat = right.matrices[u]
                for i in range(len(sigma)):
                    for j in range(len(sigma)):
                        assert right_mat[i][j] == left_mat[sigma[i]][sigma[j]]


def test_right_cell_module_matches_right_products():
    # entry [i][j] of matrices[u] is the coefficient of basis element i in
    # b(basis element j) b(u), read straight from the table
    for n in (3, 4, 5, 6):
        table = structure_constants(n)
        for name in ("Re", "Rs", "Rt", "Rw0"):
            module = right_cell_module(n, name)
            for u, matrix in module.matrices.items():
                expected = tuple(
                    tuple(table.product(b, u).get(v, 0) for b in module.cell)
                    for v in module.cell
                )
                assert matrix == expected


def test_right_cell_module_frozen_rs_n4():
    module = right_cell_module(4, "Rs")
    assert [render(w) for w in module.cell] == ["s", "st", "sts"]
    group = dihedral_group(4)
    assert module.matrices[group.generator("s")] == ((2, 1, 0), (0, 0, 0), (0, 1, 2))


def test_generator_pair():
    module = cell_module(4, "Ls")
    a_s, a_t = module.generator_pair()
    assert a_s == ((2, 0, 1), (0, 2, 1), (0, 0, 0))
    assert a_t == ((0, 0, 0), (0, 0, 0), (1, 1, 2))


def test_cell_module_jsonable():
    obj = cell_module(3, "Lw0").to_jsonable()
    assert obj["n"] == 3
    assert obj["cell"] == ["w0"]
    assert obj["matrices"]["e"] == [[1]]
    assert obj["matrices"]["w0"] == [[6]]


def test_cell_diagram_dot():
    dot = cell_diagram_dot(4)
    assert dot.startswith("digraph cells_D4 {")
    assert dot.rstrip().endswith("}")
    assert 'left_Ls [label="Ls = {s, ts, sts}"]' in dot
    assert "left_Ls -> left_Lw0;" in dot
    assert "two_sided_J1 -> two_sided_J2;" in dot
    assert "cluster_left" in dot and "cluster_right" in dot and "cluster_two_sided" in dot
    # covering edges only: no shortcut from bottom to top
    assert "left_Le -> left_Lw0" not in dot
