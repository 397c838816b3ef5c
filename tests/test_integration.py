"""End-to-end integration tests across all subsystems.

These tests exercise the full paper pipeline on the covid running example:
CSV round-trip -> generation -> TAP -> notebook -> the emitted SQL
re-executed on the SQL engine, with cross-checks at every hand-off.
"""

import json

import pytest

from repro import ReproConfig, generate_notebook, read_csv
from repro.datasets import covid_table
from repro.generation import GenerationConfig
from repro.insights import insight_type
from repro.notebook import write_ipynb
from repro.queries import (
    bind_table,
    comparison_aliases,
    comparison_sql,
    hypothesis_sql,
    sequence_distance,
)
from repro.relational import write_csv
from repro.sqlengine import Catalog, execute_sql


@pytest.fixture(scope="module")
def covid():
    return covid_table(800)


@pytest.fixture(scope="module")
def run(covid):
    return generate_notebook(covid, config=ReproConfig(budget=6))


class TestFullPipeline:
    def test_notebook_selected_within_bounds(self, run):
        assert 1 <= len(run.selected) <= 6
        queries = [g.query for g in run.selected]
        assert sequence_distance(queries) <= run.epsilon_distance + 1e-9

    def test_selected_queries_execute_via_sql(self, covid, run):
        """Every selected query's SQL must run and support its insights."""
        catalog = Catalog({"covid": covid})
        for generated in run.selected:
            sql = bind_table(comparison_sql(generated.query), "covid")
            result = execute_sql(sql, catalog)
            assert result.n_rows > 0
            alias_x, alias_y = comparison_aliases(generated.query)
            x = result.measure_values(alias_x)
            y = result.measure_values(alias_y)
            for evidence in generated.supported:
                itype = insight_type(evidence.insight.candidate.type_code)
                if evidence.insight.candidate.val == generated.query.val:
                    assert itype.supports(x, y)
                else:
                    assert itype.supports(y, x)

    def test_hypothesis_queries_agree_with_support(self, covid, run):
        """Figure 3 semantics: hypothesis SQL returns 1 row iff supported."""
        catalog = Catalog({"covid": covid})
        for generated in run.selected[:3]:
            for evidence in generated.supported:
                itype = insight_type(evidence.insight.candidate.type_code)
                cand = evidence.insight.candidate
                oriented = generated.query
                if cand.val != oriented.val:
                    continue  # hypothesis SQL tests the query's own orientation
                sql = bind_table(hypothesis_sql(oriented, itype), "covid")
                out = execute_sql(sql, catalog)
                assert out.n_rows == 1

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

    def test_ipynb_artifact_complete(self, covid, run, tmp_path):
        notebook = run.to_notebook(covid, table_name="covid", title="Covid")
        path = tmp_path / "covid.ipynb"
        write_ipynb(notebook, path)
        doc = json.loads(path.read_text())
        code_cells = [c for c in doc["cells"] if c["cell_type"] == "code"]
        assert len(code_cells) == len(run.selected)
        # Each code cell's SQL must execute against the source table.
        catalog = Catalog({"covid": covid})
        for cell in code_cells:
            sql = "".join(cell["source"])
            assert execute_sql(sql, catalog).n_rows > 0

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
    """The engine extras (CASE, COUNT DISTINCT, UNION) on a real dataset."""

    def test_conditional_aggregation_matches_comparison(self, covid):
        """sum(case when month='5' then cases end) must equal the comparison
        query's val-side series — two roads to the same numbers."""
        from repro.queries import ComparisonQuery, evaluate_comparison
        from repro.sqlengine import Catalog, execute_sql

        catalog = Catalog({"covid": covid})
        out = execute_sql(
            "select continent, sum(case when month = '5' then cases else 0 end) as may "
            "from covid group by continent order by continent",
            catalog,
        )
        query = ComparisonQuery("continent", "month", "5", "4", "cases", "sum")
        result = evaluate_comparison(covid, query)
        by_group = dict(zip(out.to_dict()["continent"], out.to_dict()["may"]))
        for group, x in zip(result.groups, result.x):
            assert by_group[str(group)] == pytest.approx(x)

    def test_count_distinct_countries_per_continent(self, covid):
        from repro.sqlengine import Catalog, execute_sql

        catalog = Catalog({"covid": covid})
        out = execute_sql(
            "select continent, count(distinct country) as n from covid "
            "group by continent",
            catalog,
        )
        for continent, n in zip(out.to_dict()["continent"], out.to_dict()["n"]):
            expected = covid.where_equal("continent", continent).n_distinct("country")
            assert n == expected

    def test_union_of_two_months(self, covid):
        from repro.sqlengine import Catalog, execute_sql

        catalog = Catalog({"covid": covid})
        both = execute_sql(
            "select country from covid where month = '4' "
            "union select country from covid where month = '5'",
            catalog,
        )
        via_or = execute_sql(
            "select distinct country from covid where month = '4' or month = '5'",
            catalog,
        )
        assert sorted(both.to_dict()["country"]) == sorted(via_or.to_dict()["country"])
