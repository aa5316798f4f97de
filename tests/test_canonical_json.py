"""The package's JSON writer, rings._canonical_json, against its oracle
json.dumps(obj, indent=2, sort_keys=True) on generated trees of the types
it writes (the fixed edge cases are in test_rings.py)."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lowrank.rings import _canonical_json  # noqa: E402

# every code point, lone surrogates included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
LEAVES = st.none() | st.booleans() | st.integers() | TEXT
TREES = st.recursive(
    LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=40,
)
UNWRITABLE = st.sampled_from([0.5, float("nan"), Fraction(1, 2), {1}, frozenset(), b"1", {1: "a"}])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_canonical_json_matches_json_dumps(obj):
    assert _canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(TREES, UNWRITABLE, st.booleans())
def test_canonical_json_refuses_other_types_anywhere(obj, bad, in_dict):
    tree = {"a": obj, "b": [obj, bad]} if in_dict else [obj, (bad,)]
    with pytest.raises(TypeError):
        _canonical_json(tree)
