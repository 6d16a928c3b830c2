import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeharmonics.serialize import canonical_json, value_from_doc, value_to_doc
from treeharmonics.values import Value


class Sub(dict):
    pass


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# every code point, lone surrogates included: control characters, non-ASCII
# and astral characters all go through json's escaper
texts = st.text(st.characters(exclude_categories=()))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
    | texts
)
json_values = st.recursive(
    scalars
    # the writer's fast paths: all-str and all-int lists, and ints mixed with bools
    | st.lists(texts).map(tuple)
    | st.lists(st.integers())
    | st.lists(st.integers() | st.booleans()),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(texts, children)
    | st.dictionaries(texts, children).map(Sub),
    max_leaves=30,
)


@given(json_values)
def test_canonical_json_equals_json_dumps(doc):
    assert canonical_json(doc) == reference(doc)


@given(st.lists(texts, min_size=1).map(tuple), json_values)
def test_shared_tuple_is_indented_at_each_depth(row, doc):
    # one tuple at depths 2, 3 and 4, twice at depth 4, and next to arbitrary values
    shared = {"a": row, "b": [row, doc], "c": [[row, row], doc], "d": Sub(e=[row])}
    assert canonical_json(shared) == reference(shared)


@pytest.mark.parametrize(
    "doc",
    [{1: "a", -2: "b"}, {1.5: 0, -0.0: 1}, {float("nan"): 0}, {True: 1, False: 0}, {None: [1]}],
    ids=["int", "float", "nan", "bool", "none"],
)
def test_non_str_keys_are_written_as_json_writes_them(doc):
    assert canonical_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [{"a": [object()]}, {"a": {1, 2}}, [1, b"x"], {(1, 2): 3}, {"a": 1, 2: "b"}],
    ids=["object", "set", "bytes", "tuple-key", "mixed-keys"],
)
def test_unserializable_document_raises_type_error(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)


@given(st.lists(st.fractions(max_denominator=4) | st.integers(-(2**80), 2**80), min_size=1, max_size=3))
def test_value_text_is_the_fraction_text_and_reads_back_int_where_integral(coords):
    # an int coordinate prints as the Fraction it equals, and an integral
    # scalar reads back as an int
    v = Value(tuple(coords))
    doc = value_to_doc(v)
    assert doc == [str(Fraction(c)) for c in coords]
    back = value_from_doc(doc, len(coords))
    assert back == v
    assert [type(c) for c in back.coords] == [int if Fraction(c).denominator == 1 else Fraction for c in coords]
