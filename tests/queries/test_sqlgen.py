"""Unit tests for repro.queries.sqlgen — all emitted SQL must run on sqlite3."""

import numpy as np
import pytest

from repro.backend import SqliteBackend
from repro.datasets import covid_table
from repro.insights import MEAN_GREATER, VARIANCE_GREATER
from repro.queries import (
    ComparisonQuery,
    bind_table,
    comparison_aliases,
    comparison_sql,
    comparison_sql_pivot,
    evaluate_comparison,
    hypothesis_sql,
    sql_identifier,
    sql_string,
    value_alias,
)
from repro.relational import table_from_arrays


@pytest.fixture
def query():
    return ComparisonQuery("continent", "month", "5", "4", "cases", "sum")


@pytest.fixture
def table():
    return table_from_arrays(
        {"month": ["4", "5", "4", "5"], "continent": ["EU", "EU", "AS", "AS"]},
        {"cases": [10.0, 30.0, 20.0, 60.0]},
    )


@pytest.fixture
def db(table):
    with SqliteBackend(table, "covid") as backend:
        yield backend


def run_sql(backend, sql, table_name="covid"):
    return backend.execute(bind_table(sql, table_name))


class TestIdentifiers:
    def test_plain_identifier_unquoted(self):
        assert sql_identifier("continent") == "continent"

    def test_keyword_quoted(self):
        assert sql_identifier("order") == '"order"'

    def test_spaces_quoted(self):
        assert sql_identifier("nb meters") == '"nb meters"'

    def test_sql_string_escaping(self):
        assert sql_string("it's") == "'it''s'"

    def test_value_alias_plain(self):
        assert value_alias("May") == "May"

    def test_value_alias_numeric(self):
        assert value_alias("4") == "val_4"

    def test_value_alias_sanitized(self):
        assert value_alias("Île-de-France") == "val__le_de_France"

    def test_value_alias_collision_avoided(self):
        taken = set()
        first = value_alias("4", taken)
        second = value_alias("4", taken)
        assert first != second

    def test_comparison_aliases_distinct(self):
        q = ComparisonQuery("a", "b", "x!", "x?", "m", "sum")
        one, two = comparison_aliases(q)
        assert one != two


class TestGeneratedSQLParses:
    """sqlite3 accepts every generated form (it parses, then runs them)."""

    def test_comparison_sql_parses(self, query, db):
        run_sql(db, comparison_sql(query))

    def test_pivot_sql_parses(self, query, db):
        run_sql(db, comparison_sql_pivot(query))

    def test_hypothesis_sql_parses(self, query, db):
        for itype in (MEAN_GREATER, VARIANCE_GREATER):
            run_sql(db, hypothesis_sql(query, itype))

    def test_weird_labels_still_parse(self):
        t = table_from_arrays(
            {"group by": ["a", "b"], "sel'attr": ["val'1", "val 2"]}, {"my measure": [1.0, 2.0]}
        )
        q = ComparisonQuery("group by", "sel'attr", "val'1", "val 2", "my measure", "avg")
        with SqliteBackend(t, "the table") as backend:
            run_sql(backend, comparison_sql(q), "the table")
            run_sql(backend, hypothesis_sql(q, MEAN_GREATER), "the table")


class TestGeneratedSQLRuns:
    def test_comparison_sql_result(self, query, db):
        assert run_sql(db, comparison_sql(query)) == [("AS", 60.0, 20.0), ("EU", 30.0, 10.0)]

    def test_pivot_sql_result(self, query, db):
        assert len(run_sql(db, comparison_sql_pivot(query))) == 4  # (continent, month) pairs

    def test_hypothesis_sql_supports(self, query, db):
        assert run_sql(db, hypothesis_sql(query, MEAN_GREATER)) == [("mean greater", 2)]

    def test_hypothesis_sql_not_supported(self, db):
        reversed_query = ComparisonQuery("continent", "month", "4", "5", "cases", "sum")
        assert run_sql(db, hypothesis_sql(reversed_query, MEAN_GREATER)) == []

    def test_hypothesis_sql_empty_comparison(self):
        # b0 rows only under a0; b1 rows only under a1 -> empty join.
        t = table_from_arrays({"a": ["a0", "a1"], "b": ["b0", "b1"]}, {"m": [1.0, 2.0]})
        q = ComparisonQuery("a", "b", "b0", "b1", "m", "sum")
        with SqliteBackend(t, "t") as backend:
            assert run_sql(backend, comparison_sql(q), "t") == []
            for itype in (MEAN_GREATER, VARIANCE_GREATER):
                assert run_sql(backend, hypothesis_sql(q, itype), "t") == []

    def test_join_and_pivot_forms_agree(self, query, db):
        join_form = run_sql(db, comparison_sql(query))
        pivot_form = run_sql(db, comparison_sql_pivot(query))
        # Reassemble the pivot rows into the join form's two columns.
        per_group: dict[str, dict[str, float]] = {}
        for cont, month, value in pivot_form:
            per_group.setdefault(cont, {})[month] = value
        for cont, v5, v4 in join_form:
            assert per_group[cont]["5"] == v5
            assert per_group[cont]["4"] == v4


class TestPivotAndJoinFormsProperty:
    """Property: the two comparison-query SQL forms agree on random data."""

    def test_forms_agree_on_random_tables(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 80))
            t = table_from_arrays(
                {
                    "g": rng.choice(["g0", "g1", "g2"], n),
                    "s": rng.choice(["s0", "s1", "s2"], n),
                },
                {"m": rng.normal(0, 5, n)},
            )
            q = ComparisonQuery("g", "s", "s0", "s1", "m", "avg")
            with SqliteBackend(t, "d") as backend:
                join_form = run_sql(backend, comparison_sql(q), "d")
                pivot_form = run_sql(backend, comparison_sql_pivot(q), "d")
            per_group: dict[str, dict[str, float]] = {}
            for g, s, v in pivot_form:
                per_group.setdefault(g, {})[s] = v
            for g, x, y in join_form:
                assert per_group[g]["s0"] == pytest.approx(x)
                assert per_group[g]["s1"] == pytest.approx(y)


class TestHypothesisSqlMatchesSupport:
    """Figure 3 semantics on sqlite3: one row iff the comparison supports it."""

    def test_random_covid_queries(self):
        covid = covid_table(600)
        rng = np.random.default_rng(11)
        cats = covid.schema.categorical_names
        outcomes = set()
        with SqliteBackend(covid, "covid") as backend:
            for _ in range(30):
                a, b = rng.choice(len(cats), 2, replace=False)
                values = sorted(set(covid.categorical_column(cats[b]).values()))
                v1, v2 = rng.choice(len(values), 2, replace=False)
                q = ComparisonQuery(
                    cats[a], cats[b], values[v1], values[v2], "cases",
                    ("sum", "avg", "max")[int(rng.integers(3))],
                )
                result = evaluate_comparison(covid, q)
                for itype in (MEAN_GREATER, VARIANCE_GREATER):
                    rows = run_sql(backend, hypothesis_sql(q, itype))
                    assert len(rows) == int(result.supports(itype)), (q, itype.code)
                    outcomes.add(len(rows))
        assert outcomes == {0, 1}
