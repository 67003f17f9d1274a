"""Dihedral groups in reduced-word normal form.

The dihedral group D_n (n >= 3) is generated by two involutions s and t
subject to (st)^n = e.  Every element has a reduced word that alternates
between s and t, so an element is determined by its Coxeter length together
with its leading letter.  For each length 1..n-1 there are exactly two
elements (one leading with s, one with t); length 0 is the identity e and
length n is the unique longest element w0.  The two alternating words of
length n represent the same element, and the canonical form stores w0 with
leading letter 's'.

Below the public API an element is named by its kernel-order index
(``_index``): e is 0, the element of length l that leads with s is 2l - 1
and the one that leads with t is 2l, and w0 is 2n - 1.  That is the order
of ``all_elements`` and ``display_key``, and the order in which
``algebra._kl_recursion`` builds a KL family, so family matrices, products
and cells are all read by that index.  Elements are immutable and hashable
by value, and only the public API hands them out.

Multiplication is rotation arithmetic: every element is w = (st)^k s^f with
k mod n and f in {0, 1}, named by m = 2k + f mod 2n.  The element of length
l that leads with s has m = l, the one that leads with t has m = -l, and
since s (st)^k = (st)^-k s the product of m and m' is m + m' when m is even
and m - m' when m is odd.  The inverse of m is m itself when m is odd (a
reflection) and -m otherwise.

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

from .exact import _check_int

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


def display_key(w: GroupElement) -> int:
    """Sort key of the one element order: the kernel-order index of w
    (``_index``), which sorts by length, then s before t."""
    return _index(w)


def _index(w: GroupElement) -> int:
    """The kernel-order index of w (module docstring); w0 is stored with
    leading letter 's'."""
    return 2 * w.length - (w.leading == "s")


class DihedralGroup:
    """The group D_n; every element it returns is one of the 2n stored in
    ``all_elements``."""

    def __init__(self, n: int) -> None:
        _check_int(n, "dihedral parameter")
        if n < 3:
            raise ValueError(f"dihedral parameter must be >= 3, got {n}")
        self.n = n
        # index i has length (i + 1) // 2 and leads with s exactly when odd
        self._elements = tuple(
            GroupElement(n, (i + 1) // 2, "ts"[i % 2] if i else None) for i in range(2 * n)
        )

    def __repr__(self) -> str:
        return f"DihedralGroup({self.n})"

    # -- element construction -------------------------------------------

    def element(self, length: int, leading: Letter | None) -> GroupElement:
        """Canonical element of the given length and leading letter.

        The leading letter is normalised away at length 0 and forced to 's'
        at length n, so callers may pass whatever letter a word computation
        produced.  The result is the element stored in ``all_elements``.
        """
        if length in (0, self.n) or (0 < length < self.n and leading in _LETTERS):
            return self._at(-length if leading == "t" else length)
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
        if text == "e":
            return self.identity()
        if text == "w0":
            return self.longest_element()
        return self.element_from_word(text)

    # -- group operations ------------------------------------------------

    def _signed(self, w: GroupElement) -> int:
        """m of w (module docstring): its length, negated when it leads with t."""
        if w.n != self.n:
            raise ValueError(
                f"element of D_{w.n} used with D_{self.n}; mixed parameters are rejected"
            )
        return -w.length if w.leading == "t" else w.length

    def _at(self, m: int) -> GroupElement:
        """The element named by m mod 2n: the element of length m that leads
        with s for m in 0..n, else that of length 2n - m that leads with t."""
        m %= 2 * self.n
        return self._elements[2 * m - 1 if 0 < m <= self.n else 2 * (-m % (2 * self.n))]

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Product ab, by rotation arithmetic (module docstring)."""
        m, m_b = self._signed(a), self._signed(b)
        return self._at(m - m_b if m % 2 else m + m_b)

    def inverse(self, a: GroupElement) -> GroupElement:
        """The inverse, i.e. the reduced word read backwards.

        Odd-length elements are palindromic reflections (self-inverse); the
        identity and w0 are self-inverse; even-length rotations invert to the
        rotation with the opposite leading letter.
        """
        m = self._signed(a)
        return self._at(m if m % 2 else -m)


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
