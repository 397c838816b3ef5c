"""Unit tests for repro.queries.evaluate — the paths, and the SQL text, must agree."""

import numpy as np
import pytest

from repro.backend import SqliteBackend
from repro.insights import MEAN_GREATER, VARIANCE_GREATER
from repro.queries import (
    ComparisonQuery,
    bind_table,
    comparison_sql,
    evaluate_comparison,
    evaluate_comparison_cached,
    sql_string,
    supported_types,
)
from repro.relational import (
    MaterializedAggregate,
    PartialAggregateCache,
    Schema,
    Table,
    categorical,
    table_from_arrays,
)
from repro.stats import derive_rng


@pytest.fixture
def table():
    rng = derive_rng(55, "eval")
    n = 300
    month = rng.choice(["4", "5", "6"], n)
    cont = rng.choice(["EU", "AS", "AF"], n)
    cases = rng.normal(50, 10, n) + np.where(month == "5", 40.0, 0.0)
    return table_from_arrays({"month": month, "continent": cont}, {"cases": cases})


@pytest.fixture
def query():
    return ComparisonQuery("continent", "month", "5", "4", "cases", "avg")


class TestDirectEvaluation:
    def test_groups_sorted(self, table, query):
        result = evaluate_comparison(table, query)
        assert list(result.groups) == sorted(result.groups)

    def test_theta_counts_selection_tuples(self, table, query):
        result = evaluate_comparison(table, query)
        month = table.categorical_column("month")
        expected = int(month.equals_mask("5").sum() + month.equals_mask("4").sum())
        assert result.tuples_aggregated == expected

    def test_supports_mean_greater(self, table, query):
        result = evaluate_comparison(table, query)
        assert result.supports(MEAN_GREATER)
        assert not evaluate_comparison(
            table, ComparisonQuery("continent", "month", "4", "5", "cases", "avg")
        ).supports(MEAN_GREATER)

    def test_empty_result_supports_nothing(self):
        t = table_from_arrays(
            {"a": ["a0", "a1"], "b": ["b0", "b1"]}, {"m": [1.0, 2.0]}
        )
        # b0 rows only under a0; b1 rows only under a1 -> empty join.
        query = ComparisonQuery("a", "b", "b0", "b1", "m", "sum")
        result = evaluate_comparison(t, query)
        assert result.n_groups == 0
        assert not result.supports(MEAN_GREATER)
        assert supported_types(result, [MEAN_GREATER, VARIANCE_GREATER]) == []

    def test_invalid_query_rejected(self, table):
        from repro.errors import QueryError

        bad = ComparisonQuery("cases", "month", "4", "5", "cases", "sum")
        with pytest.raises(QueryError):
            evaluate_comparison(table, bad)


class TestPathAgreement:
    @pytest.mark.parametrize("agg", ["sum", "avg", "min", "max", "count", "var", "stddev"])
    def test_direct_vs_sql(self, table, agg):
        """The generated SQL text, run on sqlite3, returns the direct result."""
        query = ComparisonQuery("continent", "month", "5", "6", "cases", agg)
        direct = evaluate_comparison(table, query)
        with SqliteBackend(table, "t") as backend:
            rows = backend.execute(bind_table(comparison_sql(query), "t"))
            ((theta,),) = backend.execute(
                f"select count(*) from t where month = {sql_string(query.val)} "
                f"or month = {sql_string(query.val_other)}"
            )
        assert direct.groups == tuple(row[0] for row in rows)
        np.testing.assert_allclose(direct.x, [row[1] for row in rows], rtol=1e-9)
        np.testing.assert_allclose(direct.y, [row[2] for row in rows], rtol=1e-9)
        assert direct.tuples_aggregated == theta

    def test_direct_vs_cached_from_cover(self, table, query):
        cache = PartialAggregateCache()
        cache.add(MaterializedAggregate.build(table, ["month", "continent"]))
        direct = evaluate_comparison(table, query)
        cached = evaluate_comparison_cached(cache, query)
        assert direct.groups == cached.groups
        np.testing.assert_allclose(direct.x, cached.x, rtol=1e-9)
        assert direct.tuples_aggregated == cached.tuples_aggregated

    def test_cached_via_rollup_from_superset(self, table, query):
        columns = {name: table.column(name) for name in table.schema.names}
        columns["extra"] = table.column("month").take(np.arange(table.n_rows))
        bigger = Table(Schema([*table.schema, categorical("extra")]), columns)
        cache = PartialAggregateCache()
        cache.add(MaterializedAggregate.build(bigger, ["month", "continent", "extra"]))
        cached = evaluate_comparison_cached(cache, query)
        direct = evaluate_comparison(table, query)
        assert cached.groups == direct.groups
        np.testing.assert_allclose(cached.x, direct.x, rtol=1e-9)


class TestSupportedTypes:
    def test_lists_only_supported(self, table, query):
        result = evaluate_comparison(table, query)
        types = supported_types(result, [MEAN_GREATER, VARIANCE_GREATER])
        assert MEAN_GREATER in types
