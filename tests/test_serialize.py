import math

import numpy as np
import pytest

from nonpaving.serialize import dumps_json


@pytest.mark.parametrize("value,text", [
    ({"a": [1, [2.5, {}], []], "b": {"c": None, "d": True, "e": 0}},
     '{\n  "a": [\n    1,\n    [\n      2.5,\n      {}\n    ],\n    []\n  ],\n'
     '  "b": {\n    "c": null,\n    "d": true,\n    "e": 0\n  }\n}\n'),
    ([(1, (False,)), ()], "[\n  [\n    1,\n    [\n      false\n    ]\n  ],\n  []\n]\n"),
    ({}, "{}\n"),
    ([], "[]\n"),
    (None, "null\n"),
    (True, "true\n"),
    (0, "0\n"),
    ([np.float64(0.1), -0.0, 1e300 / 3],
     "[\n  0.10000000000000001,\n  -0,\n  3.3333333333333335e+299\n]\n"),
    ({'q"\\\né': "tab\there"}, '{\n  "q\\"\\\\\\n\\u00e9": "tab\\there"\n}\n'),
], ids=["nested", "tuples", "empty-dict", "empty-list", "none", "true", "zero", "floats",
        "escaped-strings"])
def test_dumps_json_bytes(value, text):
    assert dumps_json(value) == text


@pytest.mark.parametrize("value,error,message", [
    ({"a": 1, 2: "b"}, TypeError, "JSON object keys must be strings, got 2"),
    ([1, {1, 2}], TypeError, "cannot serialize <class 'set'>"),
    ({"x": [math.nan]}, ValueError, "cannot serialize non-finite value nan"),
    # two problems: the first one written is the one reported
    ({"a": math.inf, 1: set()}, ValueError, "cannot serialize non-finite value inf"),
    ({1: math.nan}, TypeError, "JSON object keys must be strings, got 1"),
    ([set(), -math.inf], TypeError, "cannot serialize <class 'set'>"),
], ids=["non-str-key", "unsupported-type", "non-finite", "non-finite-before-key",
        "key-before-value", "type-before-non-finite"])
def test_dumps_json_refusals(value, error, message):
    with pytest.raises(error) as info:
        dumps_json(value)
    assert str(info.value) == message
