import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nekrasov.io import _canonical, format_float


def _canonical_elementwise(value):
    """Reference: the element-by-element conversion every array went
    through before numeric arrays were handed to json via tolist()."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(format_float(value))
    if isinstance(value, np.ndarray):
        return [_canonical_elementwise(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical_elementwise(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_elementwise(v) for k, v in value.items()}
    return value


_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf]
_EDGES = {
    64: _SPECIAL + [5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308],
    32: _SPECIAL + [float(np.float32(1e-45)), float(np.finfo(np.float32).tiny),
                    float(np.finfo(np.float32).max), -float(np.finfo(np.float32).max)],
}


def _floats(width):
    return st.one_of(st.sampled_from(_EDGES[width]),
                     st.floats(allow_nan=True, allow_infinity=True, width=width))


_SHAPES = st.integers(0, 64)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_floats(64)),
    hnp.arrays(np.float32, _SHAPES, elements=_floats(32)),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                            max_side=6), elements=_floats(64)),
)


def _text(value):
    return json.dumps(value, indent=2)


class TestCanonical:
    @settings(max_examples=300, deadline=None)
    @given(_ARRAYS)
    def test_numeric_arrays_match_elementwise(self, array):
        payload = {"metadata": {"n": 3}, "values": array, "nested": [array]}
        assert _text(_canonical(payload)) == _text(_canonical_elementwise(payload))

    def test_fraction_array_becomes_strings(self):
        array = np.array([Fraction(1, 9), Fraction(-8, 243), Fraction(3)], dtype=object)
        assert _canonical(array) == ["1/9", "-8/243", "3/1"]

    def test_longdouble_takes_elementwise_path(self):
        array = np.array([0.1, -0.0, np.inf], dtype=np.longdouble)
        out = _canonical(array)
        assert all(type(x) is float for x in out)
        assert _text(out) == _text(_canonical_elementwise(array))
