"""The two bases of Z[D_n] and the positive multiplication table."""

import random

import pytest

from klcells.algebra import (
    GROUP,
    KL,
    GroupAlgebraElement,
    group_basis_element,
    group_to_kl,
    kl_basis_element,
    kl_left_multiply_generator,
    kl_multiply,
    kl_multiply_elements,
    kl_regular_matrices,
    kl_to_group,
    structure_constants,
    _unpack,
)
from klcells.dihedral import bruhat_lt, dihedral_group
from oracles import (
    group_to_kl_oracle,
    kl_left_gen_oracle,
    kl_to_group_oracle,
    structure_constants_oracle,
    unpack_oracle,
)


def test_kl_expansion_is_bruhat_interval():
    # b(w) = w + all strictly shorter elements, each with coefficient 1
    for n in (3, 4, 5):
        group = dihedral_group(n)
        for w in group.all_elements():
            expanded = kl_to_group(kl_basis_element(w)).as_dict()
            assert expanded[w] == 1
            expected = {v for v in group.all_elements() if bruhat_lt(v, w)} | {w}
            assert set(expanded) == expected
            assert all(c == 1 for c in expanded.values())


def test_group_to_kl_frozen():
    group = dihedral_group(4)
    text = group.element_from_text
    st = text("st")
    expanded = group_to_kl(group_basis_element(st)).as_dict()
    assert expanded == {st: 1, text("s"): -1, text("t"): -1, text("e"): 1}


def test_conversion_roundtrip_exhaustive():
    for n in range(3, 7):
        for w in dihedral_group(n).all_elements():
            kl = kl_basis_element(w)
            assert group_to_kl(kl_to_group(kl)) == kl
            grp = group_basis_element(w)
            assert kl_to_group(group_to_kl(grp)) == grp


def test_conversion_roundtrip_random():
    rng = random.Random(24601)
    for _ in range(500):
        n = rng.randint(3, 8)
        elements = dihedral_group(n).all_elements()
        support = rng.sample(elements, rng.randint(1, len(elements)))
        coeffs = {w: rng.randint(-9, 9) for w in support}
        coeffs = {w: c for w, c in coeffs.items() if c != 0}
        grp = GroupAlgebraElement.from_dict(n, GROUP, coeffs)
        assert kl_to_group(group_to_kl(grp)) == grp
        kl = GroupAlgebraElement.from_dict(n, KL, coeffs)
        assert group_to_kl(kl_to_group(kl)) == kl


def test_conversions_match_the_term_by_term_oracle():
    # every basis element at n = 3..12 and random coefficient dicts at
    # n = 3..14, in both directions: the suffix sums over the lengths
    # against expansion and elimination term by term
    rng = random.Random(1441)
    for n in range(3, 15):
        group = dihedral_group(n)
        elements = group.all_elements()
        cases = [{w: 1} for w in elements] if n <= 12 else []
        for _ in range(100):
            cases.append({w: rng.randint(-9, 9) for w in rng.sample(elements, rng.randint(1, len(elements)))})
        for coeffs in cases:
            kl, grp = (GroupAlgebraElement.from_dict(n, basis, coeffs) for basis in (KL, GROUP))
            assert kl_to_group(kl).as_dict() == kl_to_group_oracle(group, coeffs), (n, coeffs)
            assert group_to_kl(grp).as_dict() == group_to_kl_oracle(group, coeffs), (n, coeffs)


def test_basis_guards():
    group = dihedral_group(4)
    st = group.element_from_text("st")
    with pytest.raises(ValueError):
        kl_to_group(group_basis_element(st))
    with pytest.raises(ValueError):
        group_to_kl(kl_basis_element(st))
    with pytest.raises(ValueError):
        GroupAlgebraElement.from_dict(4, "fourier", {st: 1})
    with pytest.raises(ValueError):
        GroupAlgebraElement(4, KL, ((st, 0),))  # explicit zero coefficient
    with pytest.raises(ValueError):
        GroupAlgebraElement.from_dict(5, KL, {st: 1})  # element from the wrong group
    # from_dict silently drops zeros instead
    assert GroupAlgebraElement.from_dict(4, KL, {st: 0}).is_zero()


def test_generator_products_frozen():
    g4 = dihedral_group(4)
    g3 = dihedral_group(3)
    t4 = g4.element_from_text

    prod = kl_multiply(t4("s"), t4("tst")).as_dict()
    assert prod == {g4.longest_element(): 1, t4("st"): 1}

    prod = kl_multiply(t4("t"), t4("st")).as_dict()
    assert prod == {t4("tst"): 1, t4("t"): 1}

    prod = kl_multiply(t4("s"), t4("s")).as_dict()
    assert prod == {t4("s"): 2}

    prod = kl_multiply(t4("s"), t4("ts")).as_dict()
    assert prod == {t4("sts"): 1, t4("s"): 1}

    t3 = g3.element_from_text
    prod = kl_multiply(t3("s"), t3("ts")).as_dict()
    assert prod == {g3.longest_element(): 1, t3("s"): 1}


def test_left_generator_rule_cases():
    group = dihedral_group(5)
    text = group.element_from_text
    # on the identity: b(s) b(e) = b(s)
    assert kl_left_multiply_generator("s", text("e")).as_dict() == {text("s"): 1}
    # absorbing: b(s) b(sts) = 2 b(sts)
    assert kl_left_multiply_generator("s", text("sts")).as_dict() == {text("sts"): 2}
    # growing from the opposite length-one element: b(s) b(t) = b(st)
    assert kl_left_multiply_generator("s", text("t")).as_dict() == {text("st"): 1}
    # generic growth: b(s) b(ts) = b(sts) + b(s)
    assert kl_left_multiply_generator("s", text("ts")).as_dict() == {
        text("sts"): 1,
        text("s"): 1,
    }
    with pytest.raises(ValueError):
        kl_left_multiply_generator("x", text("e"))


def test_generator_rule_matches_the_word_product_oracle():
    # every letter and element at n = 3..40: the rule read off the length
    # and leading letter against the products of reduced words
    for n in range(3, 41):
        group = dihedral_group(n)
        for letter in ("s", "t"):
            for w in group.all_elements():
                expected = kl_left_gen_oracle(group, letter, w)
                assert kl_left_multiply_generator(letter, w).as_dict() == expected, (n, letter, w)


def convolution(group, u, w):
    """b(u) b(w) in the group basis: expand both factors and convolve."""
    product: dict = {}
    for a, ca in kl_to_group(kl_basis_element(u)).as_dict().items():
        for b, cb in kl_to_group(kl_basis_element(w)).as_dict().items():
            ab = group.multiply(a, b)
            product[ab] = product.get(ab, 0) + ca * cb
    return {v: c for v, c in product.items() if c != 0}


def test_multiply_via_group_algebra_oracle():
    # independent route: expand both factors, convolve in the group, convert
    # back; the same range as check A1's full sweep
    for n in range(3, 11):
        group = dihedral_group(n)
        for u in group.all_elements():
            for w in group.all_elements():
                direct = kl_to_group(kl_multiply(u, w)).as_dict()
                assert direct == convolution(group, u, w)


def test_multiply_at_n40_reads_the_table():
    # one product at n=40 is a lookup in the bottom-up table, not a fresh
    # recursion that is exponential in the length of the left factor
    group = dihedral_group(40)
    u = group.element(37, "s")
    w = group.element(20, "t")
    product = kl_multiply(u, w)
    assert product.as_dict() == structure_constants(40).product(u, w)
    assert kl_to_group(product).as_dict() == convolution(group, u, w)


def test_kl_multiply_elements_returns_a_copy():
    group = dihedral_group(5)
    s, ts = group.element_from_text("s"), group.element_from_text("ts")
    before = dict(structure_constants(5).product(s, ts))
    product = kl_multiply_elements(s, ts)
    assert product == before
    product[s] = 99
    product.clear()
    assert structure_constants(5).product(s, ts) == before


def test_absorption_by_longest_element():
    # b(u) b(w0) = c(u) b(w0) where c(u) counts the group elements b(u) covers
    for n in range(3, 9):
        group = dihedral_group(n)
        w0 = group.longest_element()
        for u in group.all_elements():
            size = 2 * u.length if 0 < u.length < n else (1 if u.length == 0 else 2 * n)
            assert kl_multiply(u, w0).as_dict() == {w0: size}
            assert kl_multiply(w0, u).as_dict() == {w0: size}


def test_structure_constants_positive_and_complete():
    for n in (3, 4, 5, 6):
        table = structure_constants(n)
        elements = dihedral_group(n).all_elements()
        for u in elements:
            for w in elements:
                product = table.product(u, w)
                assert product, f"b({u}) b({w}) vanished"
                assert all(c > 0 for c in product.values())
        assert kl_multiply_elements(elements[1], elements[2]) == table.product(
            elements[1], elements[2]
        )


def test_structure_constants_match_the_eager_table_oracle():
    # every product, read off one column of the regular family, is the
    # entry of the table built eagerly for every pair
    for n in range(3, 17):
        table = structure_constants(n)
        elements = dihedral_group(n).all_elements()
        oracle = structure_constants_oracle(n)
        assert len(oracle) == len(elements) ** 2
        for u in elements:
            for w in elements:
                assert table.product(u, w) == oracle[(u, w)], (n, u, w)


def test_structure_constants_refuse_an_element_of_another_n():
    table = structure_constants(5)
    here, stranger = dihedral_group(5).element_from_text("st"), dihedral_group(4).element_from_text("st")
    for u, w in ((stranger, here), (here, stranger)):
        with pytest.raises(KeyError):
            table.product(u, w)


def test_antiautomorphism_symmetry():
    # inverting all three indices preserves the structure constants
    for n in (3, 4, 5, 6):
        group = dihedral_group(n)
        table = structure_constants(n)
        for u in group.all_elements():
            for w in group.all_elements():
                forward = table.product(u, w)
                backward = table.product(group.inverse(w), group.inverse(u))
                assert forward == {
                    group.inverse(v): c for v, c in backward.items()
                }


def test_regular_matrices_frozen_n3():
    m_s, m_t = kl_regular_matrices(3)
    # basis order: e, s, t, st, ts, w0
    assert m_s == (
        (0, 0, 0, 0, 0, 0),
        (1, 2, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0),
        (0, 0, 1, 2, 0, 0),
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 2),
    )
    assert m_t == (
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
        (1, 0, 2, 1, 0, 0),
        (0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 2, 0),
        (0, 0, 0, 1, 0, 2),
    )


def test_regular_matrices_match_table():
    for n in (3, 4, 5):
        group = dihedral_group(n)
        elements = group.all_elements()
        index = {w: i for i, w in enumerate(elements)}
        table = structure_constants(n)
        m_s, m_t = kl_regular_matrices(n)
        for letter, matrix in (("s", m_s), ("t", m_t)):
            gen = group.generator(letter)
            for j, w in enumerate(elements):
                column = {v: matrix[index[v]][j] for v in elements if matrix[index[v]][j]}
                assert column == table.product(gen, w)


def test_regular_matrices_match_the_word_product_oracle():
    # column j of the regular matrix of b(x) is b(x) b(w_j), found by
    # multiplying group elements, not read back from the kernel's table
    for n in range(3, 31):
        group = dihedral_group(n)
        elements = group.all_elements()
        for letter, matrix in zip(("s", "t"), kl_regular_matrices(n)):
            for j, w in enumerate(elements):
                column = {v: row[j] for v, row in zip(elements, matrix) if row[j]}
                assert column == kl_left_gen_oracle(group, letter, w), (n, letter, w)


def test_render():
    group = dihedral_group(4)
    text = group.element_from_text
    assert kl_multiply(text("t"), text("st")).render() == "tst + t"
    assert kl_multiply(group.longest_element(), group.longest_element()).render() == "8·w0"
    assert GroupAlgebraElement.from_dict(4, KL, {}).render() == "0"


def test_jsonable_roundtrip():
    group = dihedral_group(4)
    element = kl_multiply(group.element_from_text("s"), group.element_from_text("tst"))
    obj = element.to_jsonable()
    assert obj == {"n": 4, "basis": "KL", "coeffs": {"st": 1, "w0": 1}}
    assert GroupAlgebraElement.from_jsonable(obj) == element


@pytest.mark.parametrize("coefficient", [2.7, 2.0, "2", True])
def test_from_jsonable_refuses_a_non_int_coefficient(coefficient):
    # 2.7 does not become 2, nor True 1
    obj = {"n": 4, "basis": "KL", "coeffs": {"st": 1, "w0": coefficient}}
    with pytest.raises(TypeError, match="^coefficient of w0 must be an int, got "):
        GroupAlgebraElement.from_jsonable(obj)


def pack(matrix, width):
    """One-lane packed rows: entry j of a row at bit j * width, signed."""
    return [sum(v << (j * width) for j, v in enumerate(row)) for row in matrix]


def test_unpack_matches_the_field_by_field_oracle():
    # widths 2..130 (fields across byte boundaries and across 64 bits),
    # ranks 1..24, entries of both signs over the whole field range, sparse
    # and dense rows, zero rows and matrices, and a lone nonzero entry in
    # the first and in the last field
    rng = random.Random(2015)
    cases = 0
    for width in range(2, 131):
        half = 1 << (width - 1)
        extremes = (-half, -1, 1, half - 1)
        for rank in (width % 24 + 1, rng.randint(1, 24)):
            matrices = [[[0] * rank for _ in range(rank)]]
            for density in (0.2, 0.5, 1.0):
                matrices.append([[rng.randrange(-half, half) if rng.random() < density else 0 for _ in range(rank)] for _ in range(rank)])
            matrices.append([[rng.choice(extremes) for _ in range(rank)] for _ in range(rank)])
            for v in extremes:
                for j in (0, rank - 1):
                    lone = [[0] * rank for _ in range(rank)]
                    lone[rng.randrange(rank)][j] = v
                    matrices.append(lone)
            packed = [pack(m, width) for m in matrices]
            expected = unpack_oracle(packed, width)
            assert expected == [tuple(map(tuple, m)) for m in matrices]
            assert _unpack(packed, width) == expected, (width, rank)
            cases += len(matrices)
    assert _unpack([], 5) == unpack_oracle([], 5) == []
    assert cases == 129 * 2 * 13
