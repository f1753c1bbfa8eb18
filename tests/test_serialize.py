"""The JSON writer of every output file."""

import json
import math

import pytest

from hgmm.serialize import to_json


@pytest.mark.parametrize("value", [
    "a\tb", "a\nb", 'a"b', "a\\b", "côte → 東", 0.1, -0.0, 5e-324, 1e16,
])
def test_values_read_back_equal_with_their_type(value):
    text = to_json({"v": [value]})
    assert "\n" not in text
    got = json.loads(text)["v"][0]
    # repr tells -0.0 from 0.0, and the int 10000000000000000 from 1e16.
    assert type(got) is type(value) and repr(got) == repr(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_raises(value):
    with pytest.raises(ValueError):
        to_json({"v": value})
