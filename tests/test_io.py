import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import nekrasov as nk
from nekrasov.io import _canonical, branch_columns, format_float, write_csv, write_json


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


_STRINGS = st.one_of(
    st.text(max_size=12),
    st.sampled_from([", ", "a, b", "[1, 2]", '"quoted", "pair"', "\\", "{}",
                     "caf\u00e9 \u2202\u03b8 \U0001d4b3", "\x00\x1f\n\t\x7f", ""]))
_NUMBERS = st.one_of(
    st.sampled_from(_EDGES[64]), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(), st.booleans(), st.none())
_PAYLOADS = st.recursive(
    st.one_of(_NUMBERS, _STRINGS),
    lambda children: st.one_of(
        st.lists(_NUMBERS, max_size=8),
        st.lists(children, max_size=5),
        st.dictionaries(_STRINGS, children, max_size=5)),
    max_leaves=30)


class TestWriteJson:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("json") / "payload.json"

    def _written(self, path, payload):
        write_json(path, payload)
        return path.read_text(encoding="utf-8")

    @settings(max_examples=200, deadline=None)
    @given(_PAYLOADS)
    def test_matches_stdlib_indent(self, path, value):
        payload = {"value": value}
        assert self._written(path, payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        {}, {"a": []}, {"a": {}}, {"a": [[], {}, [[]]]}, {"a": [1, {}, 2.5]},
        {"": [1, [2.5, None], "x, y"]},
        {"values": [-0.0, 5e-324, float("nan"), float("inf"), -float("inf")]},
    ])
    def test_edge_payloads(self, path, payload):
        assert self._written(path, payload) == json.dumps(payload, indent=2) + "\n"

    def test_canonical_arrays(self, path):
        payload = {
            "fractions": np.array([Fraction(1, 9), Fraction(-8, 243)], dtype=object),
            "long": np.array([0.1, -0.0, np.inf, 5e-324], dtype=np.longdouble),
            "matrix": np.arange(6.0).reshape(2, 3),
            "flags": np.array([True, False]),
        }
        text = self._written(path, payload)
        assert text == json.dumps(_canonical(payload), indent=2) + "\n"
        assert '"1/9"' in text


def test_unrecorded_branch_fields_are_empty_csv_cells(tmp_path):
    # a hand-built point has no cone report, iterations or tail; its grid's
    # map parameter L is 1
    point = nk.BranchPoint(mu=3.5, field=nk.AngleField.zero(64), sup_norm=0.0,
                           wave_height=0.0, residual=0.0, n=64)
    branch = nk.Branch(points=[point], spec=nk.DEEP, tol=1e-12)
    write_csv(tmp_path / "branch.csv", branch_columns(branch), {})
    assert (tmp_path / "branch.csv").read_text().splitlines()[1] == "3.5,64,,0,0,0,,false,,1"
