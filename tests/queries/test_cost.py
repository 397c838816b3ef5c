"""Unit tests for repro.queries.cost."""

import pytest

from repro.queries import ComparisonQuery, MeasuredCost, UniformCost
from repro.relational import table_from_arrays
from repro.relational.aggregates import AGGREGATE_NAMES


@pytest.fixture
def table():
    return table_from_arrays(
        {"month": ["4", "5"] * 20, "continent": ["EU", "AS"] * 20},
        {"cases": list(range(40))},
    )


@pytest.fixture
def query():
    return ComparisonQuery("continent", "month", "5", "4", "cases", "sum")


class TestUniformCost:
    def test_default_unit(self, query):
        assert UniformCost().cost(query) == 1.0

    def test_custom_unit(self, query):
        assert UniformCost(2.5).cost(query) == 2.5


class TestMeasuredCost:
    def test_positive_and_memoized(self, table, query):
        model = MeasuredCost(table, "t")
        first = model.cost(query)
        assert first > 0.0
        assert model.cost(query) == first  # memoized, no re-run
        assert model.timings() == {query.key: first}
        model.close()

    def test_distinct_queries_timed_separately(self, table, query):
        model = MeasuredCost(table, "t")
        other = ComparisonQuery("continent", "month", "4", "5", "cases", "avg")
        model.cost(query)
        model.cost(other)
        assert len(model.timings()) == 2
        model.close()

    def test_every_aggregate_priced(self, table):
        model = MeasuredCost(table, "my table")
        for agg in AGGREGATE_NAMES:
            assert model.cost(ComparisonQuery("continent", "month", "5", "4", "cases", agg)) > 0
        assert len(model.timings()) == len(AGGREGATE_NAMES)
        model.close()
