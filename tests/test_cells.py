"""Cell partitions, the preorders, regularity, and cell modules."""

import hashlib
import json

import pytest

import klcells.algebra
from klcells.algebra import (
    KL,
    GroupAlgebraElement,
    kl_regular_matrices,
    structure_constants,
    _kl_family,
    _module_family,
)
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
from klcells.exact import zero_matrix
from oracles import block_matrix


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


def test_cell_of_each_element():
    # every element lies in the cell of each kind that lists it; an element
    # of another n lies in none
    for n in (3, 4, 5):
        partition = compute_cells(n)
        for w in dihedral_group(n).all_elements():
            for cell_of, cells in (
                (partition.left_cell_of, partition.left_cells),
                (partition.right_cell_of, partition.right_cells),
                (partition.two_sided_cell_of, partition.two_sided_cells),
            ):
                assert cell_of(w) == next(cell for cell in cells if w in cell)
    partition = compute_cells(4)
    text = dihedral_group(4).element_from_text
    assert left_cell_name(partition.left_cell_of(text("ts"))) == "Ls"
    assert right_cell_name(partition.right_cell_of(text("ts"))) == "Rt"
    assert two_sided_cell_name(partition.two_sided_cell_of(text("w0"))) == "J3"
    stranger = dihedral_group(5).element_from_text("ts")
    for cell_of, kind in (
        (partition.left_cell_of, "left"),
        (partition.right_cell_of, "right"),
        (partition.two_sided_cell_of, "two-sided"),
    ):
        with pytest.raises(ValueError, match=f"ts is not in any {kind} cell"):
            cell_of(stranger)


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


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_whole_families_frozen():
    # every matrix of the four cell modules at n = 24 and 30, and every
    # product of the table at n = 16, not only the generator pairs
    modules = {
        (24, "Le"): "9db9a80258cd0f0a47115b28873af221b5188ce1f0ce89331b754ce819db9a04",
        (24, "Ls"): "4f0ab322dede97a161a1eac2fcfc3018d82030f17ab11cad96544b0d00d5eacd",
        (24, "Lt"): "daa710204539e46ce902dbedcd9edcd163b664834a1f1abb7e7d1860778b1712",
        (24, "Lw0"): "93f0a6107fe015cd34110d78109e094f7d7c3bee121eb6aedec9c2b70c4712de",
        (30, "Le"): "2a7e4fb391fd87f6e65a4126054a9655a2f6d4938defb6c9f0246093d478ff12",
        (30, "Ls"): "b518570782c634d0e58ea4fdc0449e80ca3f2be1d1aeba1128112c9381a2b368",
        (30, "Lt"): "d39504a877d58fa66c95a5a098ccd80cc84574bacd7a9a1fcd9da0dddc1c2ad6",
        (30, "Lw0"): "4877822928a1905446cf7debc745e65ff39842e51f0ff25bbb057ad4b6b0a9ed",
    }
    for (n, name), digest in modules.items():
        text = json.dumps(cell_module(n, name).to_jsonable(), sort_keys=True, separators=(",", ":"))
        assert sha256(text) == digest, (n, name)
    table = structure_constants(16)
    elements = dihedral_group(16).all_elements()
    rendered = "".join(
        f"b({render(u)}) b({render(w)}) = {GroupAlgebraElement.from_dict(16, KL, table.product(u, w)).render()}\n"
        for u in elements
        for w in elements
    )
    assert sha256(rendered) == "654104b32770014cf087371146798189dbf1a4c071bc5fd2a7586c542faa2a0b"


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


def test_cell_module_generators_are_sub_blocks_of_the_regular_pair():
    # the generator pair of each left cell module is the regular pair read
    # at the cell's positions in all_elements order
    for n in range(3, 31):
        position = {w: i for i, w in enumerate(dihedral_group(n).all_elements())}
        regular = kl_regular_matrices(n)
        for cell in compute_cells(n).left_cells:
            module = cell_module(n, cell)
            at = [position[w] for w in module.cell]
            for generator, matrix in zip(module.generator_pair(), regular):
                assert generator == tuple(tuple(matrix[i][j] for j in at) for i in at), (n, cell)


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
    for n in range(3, 17):
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


def test_cell_module_builds_its_family_only_past_the_generators(monkeypatch):
    # reading e, s and t runs no kernel; the first longer read runs it once,
    # and the lazy matrices equal the family of one eager kernel run
    calls = []
    kernel = klcells.algebra._kl_recursion

    def counted(n, *args, **kwargs):
        calls.append(n)
        return kernel(n, *args, **kwargs)

    monkeypatch.setattr(klcells.algebra, "_kl_recursion", counted)
    for n in range(3, 13):
        group = dihedral_group(n)
        for cell in compute_cells(n).left_cells:
            module = cell_module(n, cell)
            a_s, a_t = module.generator_pair()
            assert module.matrices[group.identity()] == tuple(
                tuple(int(i == j) for j in range(len(cell))) for i in range(len(cell))
            )
            assert group.longest_element() in module.matrices
            assert len(module.matrices) == 2 * n
            assert calls == [], (n, cell)
            eager, outcome, _ = _kl_family(n, a_s, a_t)
            assert outcome is None
            assert calls == [n]
            assert list(module.matrices.items()) == list(eager.items()), (n, cell)
            assert calls == [n, n]
            del calls[:]


def test_module_family_checks_completeness_when_built():
    # (2), (0) at n=3 is not a module: A_w0 = A_s A_ts - A_s = (-2), so the
    # kernel fails F2; that shows only once a longer matrix is read
    group = dihedral_group(3)
    family = _module_family(3, ((2,),), ((0,),))
    assert family[group.generator("s")] == ((2,),)
    with pytest.raises(AssertionError, match="cannot fail F2"):
        family[group.element(2, "s")]


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
