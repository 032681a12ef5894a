"""The result writer: ``gamedoc._dump`` must give the bytes of
``json.dumps(obj, indent=1, sort_keys=True)`` plus a newline, the
canonical form results are compared by, without calling it."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptgsolve import gamedoc
from ptgsolve.oracle import generate_random
from ptgsolve.ptg import solve_ptg
from test_cli import document_for


def reference(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII, a line
# separator and astral characters, among arbitrary ones
special = st.sampled_from(list('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\uffff\U0001f600\U0010ffff'))
text = st.text(st.one_of(special, st.characters()))
scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    text,
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(text, inner, max_size=5),
    max_leaves=40,
)


@given(documents)
def test_writer_matches_json_dumps(obj):
    assert gamedoc._dump(obj) == reference(obj)


def test_empty_containers_and_edges():
    obj = {"": {}, "a": [], "b": [[], {}, [[]]], "t": True, "f": False, "n": -(2**70)}
    assert gamedoc._dump(obj) == reference(obj)
    assert gamedoc._dump([]) == "[]\n" and gamedoc._dump({}) == "{}\n"


@pytest.mark.parametrize("value", [1.5, None, (1, 2), Fraction(1, 2)], ids=repr)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        gamedoc._dump(value)
    with pytest.raises(TypeError):
        gamedoc._dump({"deep": [value]})


def test_non_string_keys_raise_type_error():
    with pytest.raises(TypeError):
        gamedoc._dump({1: "one"})


def test_results_equal_their_reference_encoding():
    """Rows written straight to text read back into the same document;
    random PTGs with infinite costs bring jumps and ``inf``."""
    jumps = 0
    for seed in range(60):
        game = generate_random("ptg", 2 + seed % 3, 3, seed, allow_inf=True)
        res = solve_ptg(game)
        text = gamedoc.emit_ptg_result(document_for(game, "ptg"), res)
        assert text == reference(json.loads(text)), seed
        jumps += text.count('"left_jump"') + text.count('"jump"')
    assert jumps > 0
