"""The package's indented-JSON encoder writes what ``json.dumps`` writes.

``classify._indented_json`` writes every report and every JSON payload of
the CLI; its oracle is ``json.dumps(obj, indent=2, sort_keys=True)``.  This
property test compares the two on random trees of what reports hold:
dicts with str keys, lists, tuples, str, int, float, bool and None.  It
skips when hypothesis is not installed.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from klcells.classify import _indented_json

# quotes, backslashes, a lone surrogate, control characters, DEL, non-ASCII
# (a line separator among them) and astral characters, each escaped its own
# way by json
AWKWARD = '"\\/\ud800\x00\x08\t\n\x1f\x7f\xe9\u2028\uffff\U0001f600\U0010ffff'
TEXT = st.text(st.characters() | st.sampled_from(AWKWARD), max_size=12)
FLOATS = st.floats() | st.sampled_from((-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf))
INTS = st.integers() | st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from((2**64, -(2**64) - 1, 10**30))
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, database=None)
@given(TREES)
@example({"": [[], {}, [[]], [{}], ()], "a": {"b": {}}, "\x00": ((), [()])})
@example([True, False, None, 1, -0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf, 2**64 + 1])
@example({AWKWARD: AWKWARD, "\U0001f600": {"\\": '"'}})
@example((1, (2.5, ("x",))))
def test_indented_json_is_json_dumps(tree):
    assert _indented_json(tree) == json.dumps(tree, indent=2, sort_keys=True)
