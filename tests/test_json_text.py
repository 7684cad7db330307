"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True).

Every command writes its payload through trusslab.cli.json_text, so it
must give the standard library's text byte for byte on every value a
payload can hold: nested dicts (keys with non-ASCII and escaped
characters), lists and tuples, empty containers, ints of any size and
sign, bools, None, floats with inf and nan, and strings.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusslab.cli import json_text

# characters the encoder escapes, and some it writes as \\u escapes
SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "☃", "\U0001f600", "/"])
TEXT = st.text(max_size=5) | st.lists(SPECIAL, max_size=3).map("".join)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=15,
)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [{}, [], (), [[]], {"a": {}}, [1, True, 2], [-(10**40), 0, 10**40],
     [float("nan"), float("inf"), -float("inf"), -0.0], {"é\n\"": [1, (2, 3)]}],
)
def test_json_text_edge_values(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_refuses_other_types():
    with pytest.raises(TypeError):
        json_text({"a": object()})
