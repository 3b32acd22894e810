"""Fuzz the JSON loaders: malformed documents end in a FixedPriceError."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fixedprice import load_instance
from fixedprice.errors import FixedPriceError
from fixedprice.extensions import menu_from_json, multibuyer_from_json
from fixedprice.lotteries import budget_additive_from_json
from fixedprice.mechanism_lp import mechanism_from_json

KEYS = ("items", "lists", "id", "price", "prob", "alloc", "list", "probs", "entries",
        "buyers")

# Leaves mix arbitrary JSON scalars with item ids and rational spellings,
# so that many documents get past the shape check to the value checks.
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["A", "B", "1", "0", "-1", "1/2", "1/0", "0.5", "1e400", "x/y"])
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)
instance_like = st.fixed_dictionaries({
    "items": st.lists(
        st.fixed_dictionaries({"id": json_values, "price": json_values}), max_size=3
    ) | json_values,
    "lists": st.lists(
        st.fixed_dictionaries({"items": json_values, "prob": json_values}), max_size=3
    ) | json_values,
})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_values | instance_like)
def test_only_fixedprice_errors_escape_the_loader(doc):
    try:
        load_instance(json.dumps(doc))
    except FixedPriceError:
        pass


def _objects(fields):
    return st.lists(st.fixed_dictionaries({f: json_values for f in fields}), max_size=3)


mechanism_like = st.fixed_dictionaries(
    {"alloc": _objects(("list",)) | _objects(("list", "probs")) | json_values}
)
menu_like = st.fixed_dictionaries({"entries": _objects(("alloc",)) | json_values})
multibuyer_like = st.fixed_dictionaries({
    "items": _objects(("id", "price")) | json_values,
    "buyers": st.lists(_objects(("items", "prob")) | json_values, max_size=3) | json_values,
})
budget_additive_like = st.fixed_dictionaries({
    "weights": st.dictionaries(st.sampled_from(["A", "B"]) | st.text(max_size=2),
                               json_values, max_size=3) | json_values,
    "budget": json_values,
})

LOADERS = {
    "mechanism": (lambda doc: mechanism_from_json(doc, items=("A", "B")), mechanism_like),
    "menu": (lambda doc: menu_from_json(doc, items=("A", "B")), menu_like),
    "multibuyer": (multibuyer_from_json, multibuyer_like),
    "budget_additive": (lambda doc: budget_additive_from_json(doc, items=("A", "B")),
                        budget_additive_like),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_only_fixedprice_errors_escape_the_other_loaders(name):
    load, shaped = LOADERS[name]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(json_values | shaped)
    def check(doc):
        try:
            load(json.loads(json.dumps(doc)))
        except FixedPriceError:
            pass

    check()
