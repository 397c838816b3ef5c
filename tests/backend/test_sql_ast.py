"""Unit tests for repro.backend.sql_ast and the statement text sqlite receives."""

import numpy as np
import pytest

from repro.backend import AggregateRequest, SqliteBackend
from repro.backend.sql_ast import (
    OrderItem,
    SelectItem,
    SelectStatement,
    SqlBinary,
    SqlFunction,
    SqlIsNull,
    SqlLiteral,
    SqlName,
    TableRef,
    UnionStatement,
    format_expression,
    format_statement,
)
from repro.relational import table_from_arrays


class TestExpressionFormatting:
    def test_literals(self):
        assert format_expression(SqlLiteral("it's")) == "'it''s'"
        assert format_expression(SqlLiteral(None)) == "null"

    def test_names(self):
        assert format_expression(SqlName(("a",))) == "a"
        assert format_expression(SqlName(("t1", '"my col"'))) == 't1."my col"'

    def test_precedence_parens_minimal(self):
        a, b, c = (SqlName((n,)) for n in "abc")
        assert format_expression(SqlBinary("*", SqlBinary("+", a, b), c)) == "(a + b) * c"
        assert format_expression(SqlBinary("+", a, SqlBinary("*", b, c))) == "a + b * c"

    def test_function_and_is_null(self):
        m = SqlName(("m",))
        assert format_expression(SqlFunction("sum", (SqlBinary("*", m, m),))) == "sum(m * m)"
        assert format_expression(SqlIsNull(m)) == "m is null"
        assert format_expression(SqlIsNull(m, negated=True)) == "m is not null"


class TestStatementFormatting:
    def test_all_clauses(self):
        a = SqlName(("a",))
        statement = SelectStatement(
            items=(SelectItem(a), SelectItem(SqlFunction("count", (a,)), alias="n")),
            from_items=(TableRef("t"),),
            where=SqlBinary("=", a, SqlLiteral("x")),
            group_by=(a,),
            order_by=(OrderItem(a, ascending=False),),
            distinct=True,
        )
        assert format_statement(statement) == (
            "select distinct a, count(a) as n\n"
            "from t\n"
            "where a = 'x'\n"
            "group by a\n"
            "order by a desc"
        )

    def test_union(self):
        one = SelectStatement(items=(SelectItem(SqlLiteral("1")),))
        two = SelectStatement(items=(SelectItem(SqlLiteral("2")),))
        assert format_statement(UnionStatement((one, two), all=True)) == (
            "select '1'\nunion all\nselect '2'"
        )
        assert format_statement(UnionStatement((one, two))) == "select '1'\nunion\nselect '2'"


class TestEmittedStatements:
    """The exact SQL text the sqlite backend sends (pinned)."""

    @pytest.fixture
    def statements(self, monkeypatch):
        table = table_from_arrays(
            {"select": ["a", "b'x", "a"], "my col": ["1", "2", None], "g": ["x", "y", "x"]},
            {"m": [1.0, np.nan, 3.0], "order": [2.0, 3.0, 4.0]},
        )
        backend = SqliteBackend(table, "dataset")
        sent: list[str] = []
        execute = backend.execute

        def record(sql):
            sent.append(sql)
            return execute(sql)

        monkeypatch.setattr(backend, "execute", record)
        yield backend, sent
        backend.close()

    def test_distinct_and_filter(self, statements):
        backend, sent = statements
        backend.distinct_values("select")
        backend.filter_equals("my col", "1")
        assert sent == [
            'select distinct "select"\nfrom dataset\nwhere "select" is not null',
            'select "select", "my col", g, m, "order"\nfrom dataset\n'
            "where \"my col\" = '1'\norder by rowid",
        ]

    def test_aggregate(self, statements):
        backend, sent = statements
        backend.materialize_aggregate(("g", "select"), ["m"])
        assert sent == [
            'select g, "select", count(m), sum(m), sum(m * m), min(m), max(m)\n'
            'from dataset\ngroup by g, "select"'
        ]

    def test_batch(self, statements):
        backend, sent = statements
        backend.materialize_aggregates(
            [AggregateRequest(("g",), ("m",)), AggregateRequest(("my col",), ("order",))]
        )
        assert sent == [
            "select '0' as grouping_set, g, null, count(m), sum(m), sum(m * m), min(m), "
            "max(m), null, null, null, null, null\n"
            "from dataset\n"
            "group by g\n"
            "union all\n"
            "select '1' as grouping_set, null, \"my col\", null, null, null, null, null, "
            'count("order"), sum("order"), sum("order" * "order"), min("order"), max("order")\n'
            "from dataset\n"
            'group by "my col"'
        ]
