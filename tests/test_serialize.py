import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymmodes.serialize import dump_json


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


floats = st.floats() | st.floats().map(np.float64) | st.sampled_from([-0.0, np.nan, np.inf, -np.inf])
scalars = st.none() | st.booleans() | st.integers() | floats | st.text()


def containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.lists(floats, min_size=1, max_size=8)
            | st.dictionaries(st.text(max_size=4), children, max_size=5)
            | st.dictionaries(st.integers() | st.booleans(), children, max_size=3)
            | st.dictionaries(st.floats(), children, max_size=3)
            | st.dictionaries(st.none(), children, max_size=1))


@settings(deadline=None, max_examples=300)
@given(st.recursive(scalars, containers, max_leaves=40))
def test_dump_json_matches_json_dumps_layout(obj):
    assert dump_json(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    {2: "int", 0.5: "float", False: "bool", -1.5: [1, 2.0], 10**20: {}},
    {None: {True: [], 3.25: {}}},
    {float("nan"): 1.0, float("inf"): -0.0, float("-inf"): [float("nan")]},
    {"é\n\t\"\\": "☃\x00", "😀": "\U0001f600"},
    [], {}, (), [[]], [{}], {"a": []}, {"a": {"b": {"c": ()}}}, [[], {}, [[{}], ()]],
    [np.float64(0.5), 1e300, 5e-324, -0.0, 1e16, 0.1],
    [1.0, float("nan"), 2.0, float("inf"), float("-inf")],
    [1.0, 2, True, None, "x", 3.0],
    "top-level ü string", 7, 2.5, float("nan"), None, True,
])
def test_dump_json_keys_and_empty_containers(obj):
    assert dump_json(obj) == reference(obj)


@pytest.mark.parametrize("obj", [np.int64(3), {1, 2}, [1.0, np.int64(3)], {"a": [np.bool_(True)]}, {(1, 2): 0}])
def test_dump_json_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        dump_json(obj)


def test_dump_json_rejects_cycles_but_not_shared_children():
    loop = [1.0]
    loop.append(loop)
    nest = {"a": {}}
    nest["a"]["back"] = nest
    for obj in (loop, nest):
        with pytest.raises(ValueError, match="Circular reference"):
            reference(obj)
        with pytest.raises(ValueError, match="Circular reference"):
            dump_json(obj)
    shared = [0.5, 1.5]
    assert dump_json({"x": shared, "y": [shared, shared]}) == reference({"x": shared, "y": [shared, shared]})


def test_dump_json_writes_the_text_it_returns(tmp_path):
    obj = {"re": [0.25, -1e-300], "name": "å", "n": 3}
    path = tmp_path / "out.json"
    text = dump_json(obj, path=str(path))
    assert text == reference(obj)
    assert path.read_bytes() == text.encode("utf-8")
