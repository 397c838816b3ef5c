"""Tests for the notebook package: cells, narrative, ipynb, sql script, build."""

import json

import numpy as np
import pytest

from repro import ReproConfig, generate_notebook
from repro.backend import SqliteBackend
from repro.datasets import covid_table
from repro.errors import NotebookError
from repro.generation.generator import GeneratedQuery
from repro.notebook import (
    MarkdownCell,
    Notebook,
    SQLCell,
    build_notebook,
    insight_bullet,
    notebook_header,
    query_narrative,
    to_ipynb_dict,
    to_ipynb_json,
    to_sql_script,
    write_ipynb,
    write_sql_script,
)
from repro.queries import ComparisonQuery, comparison_aliases, evaluate_comparison
from repro.relational import table_from_arrays


@pytest.fixture(scope="module")
def covid():
    return covid_table(400)


@pytest.fixture(scope="module")
def run(covid):
    return generate_notebook(covid, config=ReproConfig(budget=4))


@pytest.fixture(scope="module")
def notebook(covid, run):
    return build_notebook(run.selected, table=covid, table_name="covid", title="T")


@pytest.fixture(scope="module")
def covid_sqlite(covid):
    with SqliteBackend(covid, "covid") as backend:
        yield backend


class TestCellModel:
    def test_add_and_count(self):
        nb = Notebook("t")
        nb.add_markdown("# hi")
        nb.add_sql("select 1;")
        nb.add_sql("select 2;", "preview")
        assert nb.n_queries == 2
        assert len(nb.cells) == 3

    def test_empty_rejected(self):
        with pytest.raises(NotebookError):
            Notebook("t").require_nonempty()

    def test_extend(self):
        nb = Notebook("t")
        nb.extend([MarkdownCell("a"), SQLCell("select 1;")])
        assert len(nb.cells) == 2


class TestNarrative:
    def test_header_mentions_dataset(self):
        text = notebook_header("Title", "enedis", 10)
        assert "enedis" in text and "10" in text

    def test_query_narrative_contents(self, run):
        generated = run.selected[0]
        text = query_narrative(1, generated)
        assert "Query 1" in text
        assert generated.query.group_by in text
        assert "Interestingness" in text

    def test_insight_bullets_sorted_by_significance(self, run):
        generated = max(run.selected, key=lambda g: len(g.supported))
        text = query_narrative(1, generated)
        for evidence in generated.supported:
            assert insight_bullet(evidence) in text


class TestBuild:
    def test_structure_alternates(self, notebook, run):
        assert notebook.n_queries == len(run.selected)
        # header + (markdown, sql, chart-markdown) per query
        assert len(notebook.cells) == 1 + 3 * len(run.selected)
        assert isinstance(notebook.cells[0], MarkdownCell)

    def test_charts_embedded_as_vega_lite_blocks(self, notebook, run):
        blocks = [c.text for c in notebook.cells
                  if isinstance(c, MarkdownCell) and c.text.startswith("```vega-lite")]
        assert len(blocks) == len(run.selected)
        import json
        for block in blocks:
            spec = json.loads(block.removeprefix("```vega-lite\n").removesuffix("\n```"))
            assert spec["mark"] == "bar"
            assert spec["data"]["values"]

    def test_charts_can_be_disabled(self, covid, run):
        nb = build_notebook(run.selected, table=covid, include_charts=False)
        assert len(nb.cells) == 1 + 2 * len(run.selected)

    def test_all_sql_cells_parse(self, notebook, covid_sqlite):
        for cell in notebook.cells:
            if isinstance(cell, SQLCell):
                assert covid_sqlite.execute(cell.sql)

    def test_previews_attached(self, notebook):
        sql_cells = [c for c in notebook.cells if isinstance(c, SQLCell)]
        assert all(c.result_preview for c in sql_cells)

    def test_no_previews_without_table(self, run):
        nb = build_notebook(run.selected, table=None)
        sql_cells = [c for c in nb.cells if isinstance(c, SQLCell)]
        assert all(c.result_preview is None for c in sql_cells)

    def test_empty_selection_rejected(self):
        with pytest.raises(NotebookError):
            build_notebook([])


class TestIpynb:
    def test_valid_nbformat_structure(self, notebook):
        doc = to_ipynb_dict(notebook)
        assert doc["nbformat"] == 4
        assert doc["metadata"]["title"] == "T"
        kinds = {c["cell_type"] for c in doc["cells"]}
        assert kinds == {"markdown", "code"}
        for cell in doc["cells"]:
            assert isinstance(cell["source"], list)

    def test_code_cells_carry_outputs(self, notebook):
        doc = to_ipynb_dict(notebook)
        code = [c for c in doc["cells"] if c["cell_type"] == "code"]
        assert all(c["outputs"] for c in code)

    def test_json_round_trips(self, notebook):
        text = to_ipynb_json(notebook)
        parsed = json.loads(text)
        assert parsed["nbformat"] == 4

    def test_write_ipynb(self, notebook, tmp_path):
        path = tmp_path / "nb.ipynb"
        write_ipynb(notebook, path)
        assert json.loads(path.read_text())["cells"]


class TestSqlScript:
    def test_markdown_becomes_comments(self, notebook):
        script = to_sql_script(notebook)
        for line in script.splitlines():
            assert line.startswith("--") or not line or not line.startswith("#")

    def test_statements_terminated(self, notebook):
        script = to_sql_script(notebook)
        assert script.count(";") >= notebook.n_queries

    def test_write_script(self, notebook, tmp_path):
        path = tmp_path / "nb.sql"
        write_sql_script(notebook, path)
        assert path.read_text().startswith("--")

    def test_script_statements_parse(self, notebook, covid_sqlite):
        # Extract non-comment chunks and run each statement on sqlite3.
        script = to_sql_script(notebook)
        statements = []
        current: list[str] = []
        for line in script.splitlines():
            if line.startswith("--"):
                continue
            current.append(line)
            if line.rstrip().endswith(";"):
                statements.append("\n".join(current))
                current = []
        assert statements
        for stmt in statements:
            assert covid_sqlite.execute(stmt)


def hostile_table():
    """Quote, SQL-keyword, numeric and unicode labels; NaN and all-NaN groups."""
    rng = np.random.default_rng(3)
    labels = [
        "it's", "select", "order", "42", "007", "-3", "1.5", "naïve", "Île-de-France",
        "a b", "NULLish", "é", "z", "A", "b", "from",
    ]
    n = 600
    group = rng.choice(labels, n)
    side = rng.choice(["select", "it's", "4", "naïve"], n)
    measure = rng.normal(100.0, 30.0, n)
    measure[rng.random(n) < 0.2] = np.nan
    measure[group == "z"] = np.nan
    return table_from_arrays(
        {"group by": group, "sel'attr": side},
        {"my measure": measure, "big": rng.normal(1e8, 1e6, n)},
    )


def as_float(value):
    return np.nan if value is None else float(value)


def assert_cells_match_sqlite(notebook, table, backend, queries):
    """Each SQL cell's statement returns its preview's groups and values."""
    cells = [c for c in notebook.cells if isinstance(c, SQLCell)]
    assert len(cells) == len(queries)
    for cell, query in zip(cells, queries):
        rows = backend.execute(cell.sql)
        header, _rule, *body = cell.result_preview.splitlines()
        if len(rows) > 12:
            assert body.pop() == f"... ({len(rows) - 12} more rows)"
        shown = rows[:12]
        assert [line.split(" | ")[0].rstrip() for line in body] == [str(r[0]) for r in shown]
        alias_x, alias_y = comparison_aliases(query)
        assert [h.strip() for h in header.split(" | ")] == [query.group_by, alias_x, alias_y]
        comparison = evaluate_comparison(table, query)
        assert tuple(str(row[0]) for row in rows) == comparison.groups
        for column, expected in ((1, comparison.x), (2, comparison.y)):
            np.testing.assert_allclose(
                [as_float(row[column]) for row in rows], expected, rtol=1e-9, equal_nan=True
            )


class TestPreviewsMatchSqlite:
    """Previews come from the comparison result; sqlite3 runs the cell SQL."""

    def test_covid_run(self, covid, run, notebook, covid_sqlite):
        assert_cells_match_sqlite(
            notebook, covid, covid_sqlite, [g.query for g in run.selected]
        )

    def test_hostile_labels(self):
        table = hostile_table()
        queries = [
            ComparisonQuery(a, b, v1, v2, m, agg)
            for agg in ("count", "sum", "avg", "min", "max", "var", "stddev")
            for a, b, v1, v2, m in (
                ("group by", "sel'attr", "it's", "select", "my measure"),
                ("group by", "sel'attr", "naïve", "4", "big"),
                ("sel'attr", "group by", "select", "42", "my measure"),
            )
        ]
        generated = [GeneratedQuery(q, 0, 0, (), 0.0) for q in queries]
        notebook = build_notebook(generated, table=table, table_name="the table")
        previews = [c.result_preview for c in notebook.cells if isinstance(c, SQLCell)]
        assert any("more rows" in p for p in previews)
        assert any("nan" in p for p in previews)
        with SqliteBackend(table, "the table") as backend:
            assert_cells_match_sqlite(notebook, table, backend, queries)
