"""Unit tests for repro.relational.columns."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.columns import (
    CategoricalColumn,
    MeasureColumn,
    column_from_values,
)


class TestCategoricalColumn:
    def test_from_values_round_trip(self):
        col = CategoricalColumn.from_values(["x", "y", "x", "z"])
        assert col.to_list() == ["x", "y", "x", "z"]
        assert len(col) == 4

    def test_none_becomes_null_label(self):
        col = CategoricalColumn.from_values(["x", None, "y"])
        assert col.to_list() == ["x", "", "y"]

    def test_non_string_values_stringified(self):
        col = CategoricalColumn.from_values([4, 5, 4])
        assert col.to_list() == ["4", "5", "4"]

    def test_n_distinct_ignores_null_codes(self):
        col = CategoricalColumn(np.array([0, 1, -1, 0], dtype=np.int32), ["a", "b"])
        assert col.n_distinct() == 2

    def test_code_of_known_and_unknown(self):
        col = CategoricalColumn.from_values(["a", "b"])
        assert col.code_of("a") == 0
        assert col.code_of("b") == 1
        assert col.code_of("zzz") == -1

    def test_equals_mask(self):
        col = CategoricalColumn.from_values(["a", "b", "a"])
        assert col.equals_mask("a").tolist() == [True, False, True]
        assert col.equals_mask("nope").tolist() == [False, False, False]

    def test_take_preserves_dictionary(self):
        col = CategoricalColumn.from_values(["a", "b", "c"])
        sub = col.take(np.array([2, 0]))
        assert sub.to_list() == ["c", "a"]
        assert sub.categories == col.categories

    def test_compact_drops_unused_categories(self):
        col = CategoricalColumn.from_values(["a", "b", "c"]).take(np.array([0, 2]))
        compacted = col.compact()
        assert set(compacted.categories) == {"a", "c"}
        assert compacted.to_list() == ["a", "c"]

    def test_compact_preserves_nulls(self):
        col = CategoricalColumn(np.array([0, -1, 1], dtype=np.int32), ["a", "b"])
        compacted = col.take(np.array([0, 1])).compact()
        assert compacted.to_list() == ["a", ""]

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError, match="unique"):
            CategoricalColumn(np.array([0], dtype=np.int32), ["a", "a"])

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(SchemaError, match="out of range"):
            CategoricalColumn(np.array([5], dtype=np.int32), ["a"])

    def test_estimated_bytes_positive(self):
        col = CategoricalColumn.from_values(["a"] * 100)
        assert col.estimated_bytes() > 100 * 4

    def test_equality_is_value_based(self):
        one = CategoricalColumn.from_values(["a", "b"])
        two = CategoricalColumn(np.array([1, 0], dtype=np.int32), ["b", "a"])
        assert one == two  # same labels, different dictionaries

    @given(st.lists(st.sampled_from(["x", "y", "z", None]), max_size=50))
    def test_round_trip_property(self, values):
        col = CategoricalColumn.from_values(values)
        expected = ["" if v is None else v for v in values]
        assert col.to_list() == expected


class TestMeasureColumn:
    def test_from_values_with_nulls(self):
        col = MeasureColumn.from_values([1, None, "", 2.5])
        assert np.isnan(col.data[1]) and np.isnan(col.data[2])
        assert col.data[0] == 1.0 and col.data[3] == 2.5

    def test_string_numbers_parse(self):
        col = MeasureColumn.from_values(["3.5", " 2 "])
        assert col.to_list() == [3.5, 2.0]

    def test_n_distinct_ignores_nan(self):
        col = MeasureColumn.from_values([1, 1, 2, None])
        assert col.n_distinct() == 2

    def test_take(self):
        col = MeasureColumn.from_values([1.0, 2.0, 3.0])
        assert col.take(np.array([2, 1])).to_list() == [3.0, 2.0]

    def test_equality_treats_nans_equal(self):
        one = MeasureColumn.from_values([1.0, None])
        two = MeasureColumn.from_values([1.0, None])
        assert one == two

    def test_equality_length_mismatch(self):
        assert MeasureColumn.from_values([1.0]) != MeasureColumn.from_values([1.0, 2.0])

    def test_is_categorical_flags(self):
        assert not MeasureColumn.from_values([1]).is_categorical
        assert CategoricalColumn.from_values(["a"]).is_categorical


class TestColumnFactory:
    def test_dispatch(self):
        assert isinstance(column_from_values([1], is_measure=True), MeasureColumn)
        assert isinstance(column_from_values(["a"], is_measure=False), CategoricalColumn)
