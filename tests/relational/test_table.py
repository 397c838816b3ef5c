"""Unit tests for repro.relational.table."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import Schema, Table, categorical, measure, table_from_arrays
from repro.relational.table import text_table


def _decode_keys(table, attributes, grouping):
    """Per-group key labels: ``GroupingResult.key_codes`` through each dictionary."""
    return {
        name: [table.categorical_column(name).categories[c] for c in codes]
        for name, codes in zip(attributes, grouping.key_codes)
    }


@pytest.fixture
def table() -> Table:
    return table_from_arrays(
        {"city": ["paris", "lyon", "paris", "nice"], "year": ["20", "20", "21", "21"]},
        {"sales": [10.0, 20.0, 30.0, None]},
    )


class TestConstruction:
    def test_from_rows(self):
        schema = Schema([categorical("a"), measure("m")])
        t = Table.from_rows(schema, [("x", 1.0), ("y", 2.0)])
        assert t.n_rows == 2
        assert t.to_dict() == {"a": ["x", "y"], "m": [1.0, 2.0]}

    def test_from_rows_arity_mismatch(self):
        schema = Schema([categorical("a"), measure("m")])
        with pytest.raises(SchemaError, match="arity"):
            Table.from_rows(schema, [("x",)])

    def test_empty(self):
        schema = Schema([categorical("a"), measure("m")])
        t = Table.empty(schema)
        assert t.n_rows == 0
        assert len(t) == 0

    def test_missing_column_rejected(self):
        schema = Schema([categorical("a"), measure("m")])
        with pytest.raises(SchemaError, match="do not match"):
            Table.from_columns(schema, {"a": ["x"]})

    def test_ragged_columns_rejected(self):
        schema = Schema([categorical("a"), measure("m")])
        with pytest.raises(SchemaError, match="ragged"):
            Table.from_columns(schema, {"a": ["x"], "m": [1.0, 2.0]})

    def test_kind_storage_mismatch_rejected(self, table):
        # Try to smuggle a measure column in as a categorical attribute.
        schema = Schema([measure("city")])
        with pytest.raises(SchemaError, match="kind"):
            Table(schema, {"city": table.column("city")})


class TestRowOps:
    def test_take_reorders(self, table):
        sub = table.take(np.array([3, 0]))
        assert sub.to_dict()["city"] == ["nice", "paris"]

    def test_filter_mask(self, table):
        sub = table.filter(np.array([True, False, True, False]))
        assert sub.n_rows == 2
        assert sub.to_dict()["city"] == ["paris", "paris"]

    def test_filter_wrong_length(self, table):
        with pytest.raises(SchemaError, match="mask"):
            table.filter(np.array([True]))

    def test_where_equal(self, table):
        assert table.where_equal("city", "paris").n_rows == 2
        assert table.where_equal("city", "ghost").n_rows == 0

    def test_project_order(self, table):
        p = table.project(["sales", "city"])
        assert p.schema.names == ("sales", "city")

    def test_to_rows_materializes_labels(self, table):
        rows = table.to_rows()
        assert rows[0][0] == "paris"
        assert rows[0][2] == 10.0


class TestGrouping:
    def test_single_attribute_groups(self, table):
        g = table.group_by_codes(["city"])
        assert g.n_groups == 3
        assert g.group_ids.shape == (4,)

    def test_two_attribute_groups(self, table):
        g = table.group_by_codes(["city", "year"])
        assert g.n_groups == 4  # all rows distinct on (city, year)

    def test_empty_attribute_list_one_group(self, table):
        g = table.group_by_codes([])
        assert g.n_groups == 1
        assert set(g.group_ids.tolist()) == {0}

    def test_empty_table_zero_groups(self):
        t = Table.empty(Schema([categorical("a"), measure("m")]))
        assert t.group_by_codes([]).n_groups == 0

    def test_group_keys_table(self, table):
        g = table.group_by_codes(["city"])
        keys = _decode_keys(table, ["city"], g)
        assert sorted(keys["city"]) == ["lyon", "nice", "paris"]

    def test_group_ids_are_dense(self, table):
        g = table.group_by_codes(["city", "year"])
        assert set(g.group_ids.tolist()) == set(range(g.n_groups))

    def test_null_values_form_their_own_group(self):
        t = table_from_arrays({"a": ["x", None, None]}, {"m": [1, 2, 3]})
        g = t.group_by_codes(["a"])
        assert g.n_groups == 2


class TestMisc:
    def test_measure_values_returns_floats(self, table):
        values = table.measure_values("sales")
        assert values.dtype == np.float64
        assert np.isnan(values[3])

    def test_measure_access_on_categorical_raises(self, table):
        with pytest.raises(SchemaError):
            table.measure_values("city")

    def test_estimated_bytes_positive(self, table):
        assert table.estimated_bytes() > 0

    def test_pretty_contains_header_and_rows(self, table):
        text = text_table(table.schema.names, table.to_rows()[:2], table.n_rows)
        assert "city" in text and "paris" in text and "more rows" in text

    def test_equality(self, table):
        same = table_from_arrays(
            {"city": ["paris", "lyon", "paris", "nice"], "year": ["20", "20", "21", "21"]},
            {"sales": [10.0, 20.0, 30.0, None]},
        )
        assert table == same
        assert table != same.take(np.array([0, 1, 2]))


class TestGroupingOverflowSafety:
    def test_many_wide_attributes_no_overflow(self, rng):
        """Mixed-radix grouping must stay exact when the naive radix product
        would overflow int64 (8 attributes x ~1500 values each)."""
        n = 1500
        data = {f"a{i}": [str(v) for v in rng.integers(0, 1400, n)] for i in range(8)}
        t = table_from_arrays(data, {"m": list(rng.normal(0, 1, n))})
        g = t.group_by_codes(list(data))
        expected = len(set(zip(*[data[k] for k in data])))
        assert g.n_groups == expected
        keys = _decode_keys(t, list(data), g)
        assert all(len(labels) == g.n_groups for labels in keys.values())

    def test_key_decode_matches_row_values(self, rng):
        n = 300
        data = {
            "a": [str(v) for v in rng.integers(0, 10, n)],
            "b": [str(v) for v in rng.integers(0, 20, n)],
            "c": [str(v) for v in rng.integers(0, 5, n)],
        }
        t = table_from_arrays(data, {"m": list(rng.normal(0, 1, n))})
        g = t.group_by_codes(["a", "b", "c"])
        keys = _decode_keys(t, ["a", "b", "c"], g)
        decoded = set(map(tuple, zip(*[keys[k] for k in ("a", "b", "c")])))
        expected = set(zip(data["a"], data["b"], data["c"]))
        assert decoded == expected
