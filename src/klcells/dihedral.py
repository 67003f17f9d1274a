"""Dihedral groups in reduced-word normal form.

The dihedral group D_n (n >= 3) is generated by two involutions s and t
subject to (st)^n = e.  Every element has a reduced word that alternates
between s and t, so an element is determined by its Coxeter length together
with its leading letter.  For each length 1..n-1 there are exactly two
elements (one leading with s, one with t); length 0 is the identity e and
length n is the unique longest element w0.  The two alternating words of
length n represent the same element, and the canonical form stores w0 with
leading letter 's'.

Elements are immutable and hashable, so they can serve directly as keys for
group-algebra coefficient dictionaries.  Multiplication is rotation
arithmetic: every element is w = (st)^k s^f with k mod n and f in {0, 1}.
An s-leading element of length l is (l // 2, l % 2), a t-leading one is
(-ceil(l/2) mod n, l % 2), and since s (st)^k = (st)^-k s the product of
(k, f) and (k', f') is (k + k', f xor f'), or (k - k', f xor f') when
f = 1.  Back in normal form, (k, f) has length 2k + f and leads with s
when 2k + f <= n, else length 2(n - k) - f and leads with t.

>>> g = dihedral_group(4)
>>> render(g.multiply(g.element_from_text("sts"), g.element_from_text("tst")))
'ts'
>>> render(g.inverse(g.element_from_text("st")))
'ts'
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "GroupElement",
    "DihedralGroup",
    "dihedral_group",
    "bruhat_lt",
    "other_letter",
    "render",
    "display_key",
]

# A generator letter is the one-character string 's' or 't'.
Letter = str

_LETTERS = ("s", "t")


def other_letter(letter: Letter) -> Letter:
    """Return the generator letter that is not ``letter``."""
    if letter == "s":
        return "t"
    if letter == "t":
        return "s"
    raise ValueError(f"not a generator letter: {letter!r}")


@dataclass(frozen=True)
class GroupElement:
    """An element of D_n in reduced normal form.

    n        -- the group parameter (the rotation st has order n)
    length   -- Coxeter length, between 0 and n
    leading  -- first letter of the reduced word; None exactly for the
                identity, and canonically 's' for the longest element
    """

    n: int
    length: int
    leading: Letter | None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"dihedral parameter must be >= 3, got {self.n}")
        if not 0 <= self.length <= self.n:
            raise ValueError(f"length {self.length} out of range for n={self.n}")
        if self.length == 0:
            if self.leading is not None:
                raise ValueError("the identity carries no leading letter")
        elif self.leading not in _LETTERS:
            raise ValueError(f"leading letter must be 's' or 't', got {self.leading!r}")
        if self.length == self.n and self.leading != "s":
            raise ValueError("the longest element is stored with leading letter 's'")

    def word(self) -> tuple[Letter, ...]:
        """The reduced word, alternating letters starting from ``leading``."""
        if self.length == 0:
            return ()
        first = self.leading
        second = other_letter(first)
        return tuple(first if i % 2 == 0 else second for i in range(self.length))

    def is_identity(self) -> bool:
        return self.length == 0

    def is_longest(self) -> bool:
        return self.length == self.n

    def trailing(self) -> Letter | None:
        """Last letter of the reduced word (None for the identity).

        For the longest element this is the last letter of the stored
        s-leading word; for even n that is 't', for odd n it is 's', and the
        other alternating word of length n ends in the other letter, so the
        question "does w0 end in x" is answered by membership tests on cells,
        not by this accessor.
        """
        if self.length == 0:
            return None
        if self.length % 2 == 1:
            return self.leading
        return other_letter(self.leading)


def render(w: GroupElement) -> str:
    """Text form of an element: 'e', 's', 'tst', ..., 'w0'."""
    if w.length == 0:
        return "e"
    if w.length == w.n:
        return "w0"
    return "".join(w.word())


def display_key(w: GroupElement) -> tuple[int, int]:
    """Sort key (length, then s before t) used for stable displays."""
    if w.leading is None:
        rank = 0
    else:
        rank = 1 if w.leading == "s" else 2
    return (w.length, rank)


class DihedralGroup:
    """The group D_n; every element it returns is one of the 2n stored in
    ``all_elements``."""

    def __init__(self, n: int) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"dihedral parameter must be an int, got {n!r}")
        if n < 3:
            raise ValueError(f"dihedral parameter must be >= 3, got {n}")
        self.n = n
        elements = [GroupElement(n, 0, None)]
        for length in range(1, n):
            elements.append(GroupElement(n, length, "s"))
            elements.append(GroupElement(n, length, "t"))
        elements.append(GroupElement(n, n, "s"))
        self._elements = tuple(elements)
        self._by_text = {render(w): w for w in self._elements}

    def __repr__(self) -> str:
        return f"DihedralGroup({self.n})"

    # -- element construction -------------------------------------------

    def element(self, length: int, leading: Letter | None) -> GroupElement:
        """Canonical element of the given length and leading letter.

        The leading letter is normalised away at length 0 and forced to 's'
        at length n, so callers may pass whatever letter a word computation
        produced.  The result is the element stored in ``all_elements``.
        """
        if length == 0:
            return self._elements[0]
        if length == self.n:
            return self._elements[-1]
        if 0 < length < self.n and leading in _LETTERS:
            return self._elements[2 * length - (leading == "s")]
        return GroupElement(self.n, length, leading)  # raises the ValueError

    def identity(self) -> GroupElement:
        return self._elements[0]

    def generator(self, letter: Letter) -> GroupElement:
        return self.element(1, letter)

    def longest_element(self) -> GroupElement:
        return self._elements[-1]

    def all_elements(self) -> tuple[GroupElement, ...]:
        """All 2n elements: e, then both per length 1..n-1 (s first), then w0."""
        return self._elements

    def element_from_word(self, word: Iterable[Letter]) -> GroupElement:
        """Evaluate an arbitrary (not necessarily reduced) word in s and t."""
        result = self.identity()
        for letter in word:
            if letter not in _LETTERS:
                raise ValueError(f"word letters must be 's' or 't', got {letter!r}")
            result = self.multiply(result, self.generator(letter))
        return result

    def element_from_text(self, text: str) -> GroupElement:
        """Parse 'e', 'w0', or a word such as 'tst'."""
        if text in self._by_text:
            return self._by_text[text]
        return self.element_from_word(text)

    # -- group operations ------------------------------------------------

    def _check_member(self, w: GroupElement) -> None:
        if w.n != self.n:
            raise ValueError(
                f"element of D_{w.n} used with D_{self.n}; mixed parameters are rejected"
            )

    def _rotation(self, w: GroupElement) -> tuple[int, int]:
        """(k, f) with w = (st)^k s^f, 0 <= k < n."""
        self._check_member(w)
        if w.leading == "t":
            return -((w.length + 1) // 2) % self.n, w.length % 2
        return w.length // 2, w.length % 2

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Product ab, by rotation arithmetic (module docstring)."""
        k, f = self._rotation(a)
        k_b, f_b = self._rotation(b)
        k = (k - k_b if f else k + k_b) % self.n
        f ^= f_b
        if 2 * k + f <= self.n:
            return self.element(2 * k + f, "s")
        return self.element(2 * (self.n - k) - f, "t")

    def inverse(self, a: GroupElement) -> GroupElement:
        """The inverse, i.e. the reduced word read backwards.

        Odd-length elements are palindromic reflections (self-inverse); the
        identity and w0 are self-inverse; even-length rotations invert to the
        rotation with the opposite leading letter.
        """
        self._check_member(a)
        if a.length in (0, self.n) or a.length % 2 == 1:
            return a
        return self.element(a.length, other_letter(a.leading))


def bruhat_lt(a: GroupElement, b: GroupElement) -> bool:
    """Strict Bruhat order, which for dihedral groups is length comparison.

    Every alternating word embeds as a subword of every strictly longer
    alternating word, so u < w holds exactly when l(u) < l(w); distinct
    elements of equal length are incomparable.
    """
    if a.n != b.n:
        raise ValueError(f"cannot compare elements of D_{a.n} and D_{b.n}")
    return a.length < b.length


@functools.lru_cache(maxsize=None)
def dihedral_group(n: int) -> DihedralGroup:
    """Shared DihedralGroup instance for ``n``."""
    return DihedralGroup(n)
