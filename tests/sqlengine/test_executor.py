"""SQL execution through :meth:`repro.backend.SqliteBackend.execute`.

Generated SQL (comparison queries, hypothesis checks, notebook cells) runs
on stdlib ``sqlite3`` behind :class:`~repro.backend.SqliteBackend`.  These
tests pin what that execution path gives the rest of the package: the
loaded tables (TEXT categoricals, REAL measures, NaN loaded as NULL), the
``var``/``stddev`` aggregates registered on the connection, the query
forms the SQL generator emits (derived-table joins, CTEs, HAVING), and
SQL errors surfacing as :class:`~repro.backend.BackendError`.
"""

import numpy as np
import pytest

from repro.backend import BackendError, SqliteBackend
from repro.relational import table_from_arrays


@pytest.fixture
def engine(tmp_path):
    """``covid`` and ``people`` loaded into one sqlite database; queries run
    on the ``covid`` backend's connection, which sees both tables."""
    covid = table_from_arrays(
        {
            "month": ["4", "4", "4", "5", "5", "5"],
            "continent": ["EU", "AS", "EU", "EU", "AS", "AS"],
        },
        {"cases": [10.0, 20.0, 30.0, 50.0, 60.0, None]},
    )
    people = table_from_arrays(
        {"continent": ["EU", "AS", "OC"]}, {"population": [700.0, 4000.0, 40.0]}
    )
    path = str(tmp_path / "engine.db")
    with SqliteBackend(covid, "covid", path=path) as backend:
        with SqliteBackend(people, "people", path=path):
            yield backend


class TestBasicSelect:
    def test_star(self, engine):
        rows = engine.execute("select * from covid")
        assert len(rows) == 6 and all(len(row) == 3 for row in rows)
        columns = engine.execute("select name from pragma_table_info('covid')")
        assert [name for (name,) in columns] == ["month", "continent", "cases"]

    def test_projection_and_alias(self, engine):
        rows = engine.execute("select month as m, cases from covid limit 2")
        assert len(rows) == 2 and all(len(row) == 2 for row in rows)

    def test_where_equality(self, engine):
        rows = engine.execute("select cases from covid where month = '4'")
        assert len(rows) == 3

    def test_where_numeric(self, engine):
        rows = engine.execute("select cases from covid where cases >= 30")
        assert len(rows) == 3

    def test_where_or_and_not(self, engine):
        rows = engine.execute("select * from covid where month = '4' or continent = 'AS'")
        assert len(rows) == 5

    def test_in_predicate(self, engine):
        rows = engine.execute("select * from covid where continent in ('EU')")
        assert len(rows) == 3

    def test_is_null(self, engine):
        rows = engine.execute("select * from covid where cases is null")
        assert len(rows) == 1

    def test_between(self, engine):
        rows = engine.execute("select * from covid where cases between 20 and 50")
        assert len(rows) == 3

    def test_arithmetic_projection(self, engine):
        rows = engine.execute("select cases * 2 as dbl from covid where month = '4'")
        assert sorted(value for (value,) in rows) == [20.0, 40.0, 60.0]

    def test_distinct(self, engine):
        rows = engine.execute("select distinct continent from covid")
        assert len(rows) == 2

    def test_unknown_table(self, engine):
        with pytest.raises(BackendError, match="no such table"):
            engine.execute("select * from ghost")

    def test_unknown_column(self, engine):
        with pytest.raises(BackendError, match="no such column"):
            engine.execute("select ghost from covid")

    def test_case_insensitive_table_lookup(self, engine):
        assert len(engine.execute("select * from COVID")) == 6


class TestAggregation:
    def test_group_by(self, engine):
        rows = engine.execute(
            "select continent, sum(cases) as total from covid group by continent"
        )
        assert dict(rows) == {"EU": 90.0, "AS": 80.0}

    def test_count_star_vs_column(self, engine):
        rows = engine.execute(
            "select continent, count(*) as n, count(cases) as k "
            "from covid group by continent"
        )
        counts = {c: (n, k) for c, n, k in rows}
        assert counts["AS"] == (3.0, 2.0)  # NULL cases not counted by count(col)

    def test_global_aggregate_without_group_by(self, engine):
        rows = engine.execute("select avg(cases) as a from covid")
        assert len(rows) == 1
        assert rows[0][0] == pytest.approx(34.0)

    def test_having_filters_groups(self, engine):
        rows = engine.execute(
            "select continent from covid group by continent having sum(cases) > 85"
        )
        assert rows == [("EU",)]

    def test_having_without_group_by(self, engine):
        # SQLite accepts HAVING without GROUP BY only in an aggregate query,
        # hence count(*) in the select list (the hypothesis-SQL form).
        one = engine.execute(
            "select 'yes' as flag, count(*) as n from covid having avg(cases) > 10"
        )
        assert len(one) == 1 and one[0][0] == "yes"
        zero = engine.execute(
            "select 'yes' as flag, count(*) as n from covid having avg(cases) > 1000"
        )
        assert len(zero) == 0

    def test_aggregate_of_expression(self, engine):
        rows = engine.execute("select sum(cases * 2) as s from covid")
        assert rows[0][0] == 340.0

    def test_var_and_stddev(self, engine):
        rows = engine.execute("select var(cases) as v, stddev(cases) as s from covid")
        values = np.array([10.0, 20.0, 30.0, 50.0, 60.0])
        assert rows[0][0] == pytest.approx(np.var(values, ddof=1))
        assert rows[0][1] == pytest.approx(np.std(values, ddof=1))


class TestJoins:
    def test_comma_join_with_where(self, engine):
        rows = engine.execute(
            "select c.continent, population from covid c, people p "
            "where c.continent = p.continent and c.month = '5'"
        )
        assert len(rows) == 3
        assert {population for _, population in rows} == {700.0, 4000.0}

    def test_explicit_join(self, engine):
        rows = engine.execute(
            "select c.cases, p.population from covid c "
            "join people p on c.continent = p.continent"
        )
        assert len(rows) == 6

    def test_join_is_inner(self, engine):
        rows = engine.execute(
            "select distinct p.continent from people p join covid c "
            "on p.continent = c.continent"
        )
        assert sorted(continent for (continent,) in rows) == ["AS", "EU"]  # OC dropped

    def test_derived_tables_joined(self, engine):
        rows = engine.execute(
            """
            select t1.continent, April, May
            from
              (select continent, sum(cases) as April from covid
               where month = '4' group by continent) t1,
              (select continent, sum(cases) as May from covid
               where month = '5' group by continent) t2
            where t1.continent = t2.continent
            order by t1.continent
            """
        )
        assert rows == [("AS", 20.0, 60.0), ("EU", 40.0, 50.0)]

    def test_ambiguous_column_rejected(self, engine):
        with pytest.raises(BackendError, match="ambiguous"):
            engine.execute("select continent from covid, people")


class TestOrderLimitCte:
    def test_order_by_measure_desc(self, engine):
        rows = engine.execute("select cases from covid order by cases desc")
        values = [value for (value,) in rows]
        assert values[:5] == [60.0, 50.0, 30.0, 20.0, 10.0]
        assert values[5] is None  # NULL last

    def test_order_by_position(self, engine):
        rows = engine.execute("select continent, cases from covid order by 2 desc limit 1")
        assert [continent for continent, _ in rows] == ["AS"]

    def test_order_by_alias(self, engine):
        rows = engine.execute(
            "select continent, sum(cases) as total from covid "
            "group by continent order by total desc"
        )
        assert [continent for continent, _ in rows] == ["EU", "AS"]

    def test_order_by_aggregate_expression(self, engine):
        rows = engine.execute(
            "select continent from covid group by continent order by sum(cases)"
        )
        assert rows == [("AS",), ("EU",)]

    def test_cte(self, engine):
        rows = engine.execute(
            "with totals as (select continent, sum(cases) as t from covid "
            "group by continent) select * from totals order by t desc"
        )
        assert [continent for continent, _ in rows] == ["EU", "AS"]

    def test_cte_chained(self, engine):
        rows = engine.execute(
            "with a as (select cases from covid where month = '4'), "
            "b as (select cases from a where cases > 15) "
            "select count(*) as n from b"
        )
        assert rows == [(2.0,)]

    def test_from_less_select(self, engine):
        assert engine.execute("select 1 + 1 as two") == [(2.0,)]

    def test_string_literal_select(self, engine):
        rows = engine.execute("select 'hello' as greeting from people")
        assert rows == [("hello",)] * 3
