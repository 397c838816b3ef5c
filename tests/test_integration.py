"""End-to-end integration tests across all subsystems.

These tests exercise the full paper pipeline on the covid running example:
CSV round-trip -> generation -> TAP -> notebook -> the emitted SQL
re-executed on stdlib sqlite3, with cross-checks at every hand-off.
"""

import json

import numpy as np
import pytest

from repro import ReproConfig, generate_notebook, read_csv
from repro.backend import SqliteBackend
from repro.datasets import covid_table
from repro.generation import GenerationConfig
from repro.insights import insight_type
from repro.notebook import write_ipynb
from repro.queries import (
    bind_table,
    comparison_sql,
    hypothesis_sql,
    sequence_distance,
)
from repro.relational import write_csv


@pytest.fixture(scope="module")
def covid():
    return covid_table(800)


@pytest.fixture(scope="module")
def db(covid):
    with SqliteBackend(covid, "covid") as backend:
        yield backend


@pytest.fixture(scope="module")
def run(covid):
    return generate_notebook(covid, config=ReproConfig(budget=6))


class TestFullPipeline:
    def test_notebook_selected_within_bounds(self, run):
        assert 1 <= len(run.selected) <= 6
        queries = [g.query for g in run.selected]
        assert sequence_distance(queries) <= run.epsilon_distance + 1e-9

    def test_selected_queries_execute_via_sql(self, db, run):
        """Every selected query's SQL must run and support its insights."""
        for generated in run.selected:
            rows = db.execute(bind_table(comparison_sql(generated.query), "covid"))
            assert rows
            x = np.array([row[1] for row in rows], dtype=float)
            y = np.array([row[2] for row in rows], dtype=float)
            for evidence in generated.supported:
                itype = insight_type(evidence.insight.candidate.type_code)
                if evidence.insight.candidate.val == generated.query.val:
                    assert itype.supports(x, y)
                else:
                    assert itype.supports(y, x)

    def test_hypothesis_queries_agree_with_support(self, db, run):
        """Figure 3 semantics: hypothesis SQL returns 1 row iff supported."""
        for generated in run.selected[:3]:
            for evidence in generated.supported:
                itype = insight_type(evidence.insight.candidate.type_code)
                cand = evidence.insight.candidate
                oriented = generated.query
                if cand.val != oriented.val:
                    continue  # hypothesis SQL tests the query's own orientation
                sql = bind_table(hypothesis_sql(oriented, itype), "covid")
                assert len(db.execute(sql)) == 1

    def test_csv_round_trip_preserves_pipeline(self, covid, tmp_path):
        """Write to CSV, read back, regenerate: same significant insights."""
        path = tmp_path / "covid.csv"
        write_csv(covid, path)
        reloaded = read_csv(path)
        assert reloaded.schema.categorical_names == covid.schema.categorical_names
        assert reloaded.schema.measure_names == covid.schema.measure_names
        run1 = generate_notebook(covid, config=ReproConfig(budget=4))
        run2 = generate_notebook(reloaded, config=ReproConfig(budget=4))
        keys1 = {i.key for i in run1.outcome.significant}
        keys2 = {i.key for i in run2.outcome.significant}
        assert keys1 == keys2

    def test_ipynb_artifact_complete(self, covid, db, run, tmp_path):
        notebook = run.to_notebook(covid, table_name="covid", title="Covid")
        path = tmp_path / "covid.ipynb"
        write_ipynb(notebook, path)
        doc = json.loads(path.read_text())
        code_cells = [c for c in doc["cells"] if c["cell_type"] == "code"]
        assert len(code_cells) == len(run.selected)
        # Each code cell's SQL must execute against the source table.
        for cell in code_cells:
            assert db.execute("".join(cell["source"]))

    def test_interest_recomputable_from_parts(self, run):
        """interest(q) must equal Definition 4.3 recomputed from the pieces."""
        from repro.queries import conciseness, insight_term

        config = GenerationConfig().interestingness
        for generated in run.selected:
            expected = sum(insight_term(e, config) for e in generated.supported)
            expected *= conciseness(
                generated.tuples_aggregated, generated.n_groups, config.alpha, config.delta
            )
            assert generated.interest == pytest.approx(expected, rel=1e-9)

    def test_solution_interest_is_sum_of_selected(self, run):
        total = sum(g.interest for g in run.selected)
        assert run.solution.interest == pytest.approx(total, rel=1e-9)


class TestDeterminism:
    def test_same_seed_same_notebook(self, covid):
        one = generate_notebook(covid, config=ReproConfig(budget=5))
        two = generate_notebook(covid, config=ReproConfig(budget=5))
        assert [g.query.key for g in one.selected] == [g.query.key for g in two.selected]


class TestSQLEngineExtrasOnGeneratedData:
    """SQL beyond the generated forms (CASE, COUNT DISTINCT, UNION), run on
    sqlite3, as an oracle for the relational layer on a real dataset."""

    def test_conditional_aggregation_matches_comparison(self, covid, db):
        """sum(case when month='5' then cases end) must equal the comparison
        query's val-side series — two roads to the same numbers."""
        from repro.queries import ComparisonQuery, evaluate_comparison

        rows = db.execute(
            "select continent, sum(case when month = '5' then cases else 0 end) as may "
            "from covid group by continent order by continent"
        )
        query = ComparisonQuery("continent", "month", "5", "4", "cases", "sum")
        result = evaluate_comparison(covid, query)
        by_group = dict(rows)
        for group, x in zip(result.groups, result.x):
            assert by_group[str(group)] == pytest.approx(x)

    def test_count_distinct_countries_per_continent(self, covid, db):
        rows = db.execute(
            "select continent, count(distinct country) as n from covid group by continent"
        )
        assert rows
        for continent, n in rows:
            expected = covid.where_equal("continent", continent).n_distinct("country")
            assert n == expected

    def test_union_of_two_months(self, covid, db):
        both = db.execute(
            "select country from covid where month = '4' "
            "union select country from covid where month = '5'"
        )
        expected = {
            country
            for month in ("4", "5")
            for country in covid.where_equal("month", month).categorical_column("country").values()
        }
        assert sorted(country for (country,) in both) == sorted(expected)
