"""Tests for result export helpers."""

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import EpochResult
from repro.experiments.export import (
    figure_rows_to_records,
    indented_json,
    rows_to_csv,
    to_json,
)
from repro.workloads.profile import PhaseVariation


class TestToJson:
    def test_plain_dict(self):
        text = to_json({"a": 1, "b": [1.5, "x"]})
        assert json.loads(text) == {"a": 1, "b": [1.5, "x"]}

    def test_dataclass(self):
        result = EpochResult(epoch_id=1, kind="normal", committed=[5],
                             cycles=10)
        data = json.loads(to_json(result))
        assert data["epoch_id"] == 1
        assert data["committed"] == [5]

    def test_enum(self):
        assert json.loads(to_json({"freq": PhaseVariation.HIGH})) == \
            {"freq": "High"}

    def test_tuple_keys_coerced(self):
        text = to_json({(1, 2): 3})
        assert "(1, 2)" in text

    def test_file_output(self, tmp_path):
        path = tmp_path / "out.json"
        to_json({"x": 1}, path=str(path))
        assert json.loads(path.read_text()) == {"x": 1}


class TestCsv:
    def test_roundtrip(self):
        text = rows_to_csv(["a", "b"], [[1, 2], [3, 4]])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_file_output(self, tmp_path):
        path = tmp_path / "out.csv"
        rows_to_csv(["x"], [[1]], path=str(path))
        assert path.read_text().startswith("x")


class TestFigureRecords:
    def test_flatten(self):
        rows = [("art-mcf", "MEM2", {"HILL": 0.5, "DCRA": 0.6})]
        records = figure_rows_to_records(rows)
        assert len(records) == 2
        assert {record["policy"] for record in records} == {"HILL", "DCRA"}
        assert all(record["workload"] == "art-mcf" for record in records)

    def test_extra_row_fields_ignored(self):
        rows = [("w", "G", {"A": 1.0}, "label", "behavior")]
        records = figure_rows_to_records(rows)
        assert records[0]["group"] == "G"


# -- the join-based renderer against json itself ----------------------------

SPECIAL_FLOATS = [0.0, -0.0, 1e16, 1e-7, 0.1 + 0.2, 5e-324,
                  1.7976931348623157e308, float("nan"), float("inf"),
                  float("-inf")]
SPECIAL_STRINGS = ["", "\x00\x1f\x7f", "tab\tnew\nline", "\"quoted\\",
                   "r\u00e9sum\u00e9", "\u2028\u2029", "\U0001f600", "\ud800"]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2 ** 63, -(2 ** 64) - 1, 10 ** 40]),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(SPECIAL_STRINGS),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_indented_json_equals_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=1,
                                              sort_keys=True)


def test_renderers_cover_empty_nested_and_subclassed_values():
    class Name(str):
        pass

    class Count(int):
        pass

    value = {"a": [], "b": {}, "c": [[], {}, [[]], {"x": ()}], Name("d"):
             Count(3), "e": [Name("f"), Count(-4)],
             "g": [True, False, None, 1.5]}
    assert indented_json(value) == json.dumps(value, indent=1,
                                              sort_keys=True)
    assert indented_json([]) == "[]" and indented_json({}) == "{}"


def test_unserializable_values_raise_like_json():
    for bad in ({"a": object()}, [{1, 2}], {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=1, sort_keys=True)
        with pytest.raises(TypeError):
            indented_json(bad)


def test_non_string_keys_are_refused():
    # json would write {"1": ...}; JSON documents have string keys only.
    with pytest.raises(TypeError):
        indented_json({1: "one"})

