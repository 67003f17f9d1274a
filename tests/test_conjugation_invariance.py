"""Filter verdicts do not change under simultaneous conjugation.

The F7-off search judges one pair per S_r orbit, (A_s, A_t) ->
(P A_s P^-1, P A_t P^-1), and charges its verdict to the whole orbit.  That
is sound only if ``run_filters`` gives every pair of an orbit the same
verdict, which this property test checks on random pairs of the F1 variety
and random permutations.  It skips when hypothesis is not installed.
"""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from klcells.classify import _f1_matrices, normalize_filters, run_filters
from klcells.nimrep import MatrixPair, _square

SPACES = ((1, 2), (2, 2), (3, 2), (4, 1), (5, 1))


@functools.lru_cache(maxsize=None)
def variety(rank, bound):
    return _f1_matrices(rank, bound)


@st.composite
def conjugate_pairs(draw):
    rank, bound = draw(st.sampled_from(SPACES))
    a_s, a_t = (draw(st.sampled_from(variety(rank, bound))) for _ in range(2))
    perm = draw(st.permutations(range(rank)))
    n = draw(st.integers(min_value=3, max_value=8))

    def pair(flat_s, flat_t):
        return MatrixPair(n=n, rank=rank, theta_s=_square(flat_s, rank), theta_t=_square(flat_t, rank))

    def conjugate(flat):
        return tuple(flat[perm[i] * rank + perm[j]] for i in range(rank) for j in range(rank))

    return pair(a_s, a_t), pair(conjugate(a_s), conjugate(a_t))


@settings(max_examples=300, deadline=None, database=None)
@given(conjugate_pairs(), st.sampled_from(((), ("F7",))))
def test_verdict_is_invariant_under_simultaneous_conjugation(pairs, disabled):
    enabled = normalize_filters(disabled)
    original, conjugated = pairs
    assert run_filters(original, enabled)[2] == run_filters(conjugated, enabled)[2]
