"""Group arithmetic in D_n: normal forms, products, inverses, Bruhat order."""

import random

import pytest

from klcells.dihedral import (
    GroupElement,
    bruhat_lt,
    dihedral_group,
    display_key,
    other_letter,
    render,
)
from oracles import action_oracle, multiply_oracle


def test_element_inventory():
    for n in range(3, 9):
        group = dihedral_group(n)
        elements = group.all_elements()
        assert len(elements) == 2 * n
        assert len(set(elements)) == 2 * n
        assert elements[0] == group.identity()
        assert elements[-1] == group.longest_element()
        # one element per (length, leading) slot, two per middle length
        for length in range(1, n):
            both = [w for w in elements if w.length == length]
            assert len(both) == 2
            assert {w.leading for w in both} == {"s", "t"}


def test_display_key_sorts_native_order():
    for n in range(3, 8):
        elements = dihedral_group(n).all_elements()
        assert sorted(elements, key=display_key) == list(elements)


def test_render_and_parse_roundtrip():
    for n in range(3, 8):
        group = dihedral_group(n)
        for w in group.all_elements():
            assert group.element_from_text(render(w)) == w
        assert render(group.identity()) == "e"
        assert render(group.longest_element()) == "w0"
    assert render(dihedral_group(4).element(3, "t")) == "tst"


def test_word_shape():
    group = dihedral_group(5)
    w = group.element(4, "s")
    assert w.word() == ("s", "t", "s", "t")
    assert w.trailing() == "t"
    assert group.element(3, "t").word() == ("t", "s", "t")
    assert group.identity().word() == ()
    # the longest element is stored with leading 's'
    w0 = group.longest_element()
    assert w0.word() == ("s", "t", "s", "t", "s")


def test_other_letter():
    assert other_letter("s") == "t"
    assert other_letter("t") == "s"
    with pytest.raises(ValueError):
        other_letter("u")


def test_specific_products_n4():
    group = dihedral_group(4)
    text = group.element_from_text
    assert group.multiply(text("sts"), text("tst")) == text("ts")
    assert group.multiply(text("st"), text("st")) == group.longest_element()
    assert group.multiply(text("s"), text("s")) == group.identity()
    assert group.multiply(text("s"), text("sts")) == text("ts")
    w0 = group.longest_element()
    assert group.multiply(w0, w0) == group.identity()


def test_longest_element_absorbing_products():
    # w0 = (any reduced word of length n); multiplying the two halves works
    for n in range(3, 8):
        group = dihedral_group(n)
        w0 = group.longest_element()
        for k in range(n + 1):
            # w0 = u * v with l(u) = k, l(v) = n - k, u a prefix of w0's word
            word = w0.word()
            u = group.element_from_word(word[:k])
            v = group.element_from_word(word[k:])
            assert group.multiply(u, v) == w0


def test_multiply_matches_word_evaluation():
    for n in range(3, 7):
        group = dihedral_group(n)
        for a in group.all_elements():
            for b in group.all_elements():
                assert group.multiply(a, b) == group.element_from_word(a.word() + b.word())


def test_multiply_and_inverse_match_the_action_on_z_mod_n():
    # every pair at n = 3..30: D_n acts faithfully on Z/n, so the product
    # acts as the composition and the inverse as the inverse permutation;
    # the product also equals the word-cancellation product, and it is
    # one of the stored elements
    for n in range(3, 31):
        group = dihedral_group(n)
        elements = group.all_elements()
        stored = set(map(id, elements))
        action = {w: action_oracle(w) for w in elements}
        assert len(set(action.values())) == 2 * n
        for a in elements:
            inverse = action[group.inverse(a)]
            assert all(inverse[image] == i for i, image in enumerate(action[a])), (n, a)
            for b in elements:
                ab = group.multiply(a, b)
                assert id(ab) in stored
                assert action[ab] == tuple(action[a][i] for i in action[b]), (n, a, b)
                assert ab == multiply_oracle(group, a, b), (n, a, b)


def test_associativity_exhaustive_small():
    for n in (3, 4):
        group = dihedral_group(n)
        elements = group.all_elements()
        for a in elements:
            for b in elements:
                ab = group.multiply(a, b)
                for c in elements:
                    assert group.multiply(ab, c) == group.multiply(a, group.multiply(b, c))


def test_associativity_random_larger():
    rng = random.Random(9001)
    for n in range(5, 10):
        group = dihedral_group(n)
        elements = group.all_elements()
        for _ in range(200):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert group.multiply(group.multiply(a, b), c) == group.multiply(
                a, group.multiply(b, c)
            )


def test_inverse():
    for n in range(3, 9):
        group = dihedral_group(n)
        e = group.identity()
        for w in group.all_elements():
            inv = group.inverse(w)
            assert group.multiply(w, inv) == e
            assert group.multiply(inv, w) == e
            assert group.inverse(inv) == w
            if w.length % 2 == 1:
                # odd-length words are palindromes, hence involutions
                assert inv == w
        # even-length rotations flip the leading letter
        st = group.element(2, "s")
        assert group.inverse(st) == group.element(2, "t")


def test_identity_and_generators():
    group = dihedral_group(6)
    e = group.identity()
    assert e.is_identity()
    assert not e.is_longest()
    assert group.longest_element().is_longest()
    for letter in ("s", "t"):
        gen = group.generator(letter)
        assert gen.length == 1
        assert gen.leading == letter
        assert group.multiply(gen, gen) == e


def test_element_from_word_evaluates_unreduced_words():
    group = dihedral_group(4)
    assert group.element_from_word("ss") == group.identity()
    assert group.element_from_word("stst") == group.longest_element()
    assert group.element_from_word("ststs") == group.element(3, "t")
    assert group.element_from_word("sstt") == group.identity()


def test_element_from_text_special_forms():
    group = dihedral_group(5)
    assert group.element_from_text("e") == group.identity()
    assert group.element_from_text("w0") == group.longest_element()
    assert group.element_from_text("ts") == group.element(2, "t")


def test_validation_errors():
    with pytest.raises(ValueError):
        dihedral_group(2)
    group = dihedral_group(4)
    with pytest.raises(ValueError):
        group.element(5, "s")
    with pytest.raises(ValueError):
        group.element(-1, "s")
    with pytest.raises(ValueError):
        group.element_from_word("sxt")
    with pytest.raises(ValueError):
        group.element(2, "u")
    with pytest.raises(ValueError):
        GroupElement(n=4, length=0, leading="s")  # identity carries no leading letter
    with pytest.raises(ValueError):
        GroupElement(n=4, length=2, leading=None)  # non-identity needs one
    with pytest.raises(ValueError):
        GroupElement(n=2, length=0, leading=None)


def test_mixed_n_rejected():
    g4 = dihedral_group(4)
    g5 = dihedral_group(5)
    with pytest.raises(ValueError):
        g4.multiply(g4.identity(), g5.identity())
    with pytest.raises(ValueError):
        bruhat_lt(g4.generator("s"), g5.generator("s"))


def test_bruhat_is_length_order():
    for n in range(3, 8):
        group = dihedral_group(n)
        for a in group.all_elements():
            for b in group.all_elements():
                assert bruhat_lt(a, b) == (a.length < b.length)
    # consequences: irreflexive, and equal lengths are incomparable
    group = dihedral_group(5)
    st = group.element(2, "s")
    ts = group.element(2, "t")
    assert not bruhat_lt(st, st)
    assert not bruhat_lt(st, ts)
    assert not bruhat_lt(ts, st)


def test_group_cache_identity():
    assert dihedral_group(7) is dihedral_group(7)
    assert dihedral_group(7) is not dihedral_group(8)
