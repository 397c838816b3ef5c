"""Tests for the notebook package: cells, narrative, ipynb, sql script, build."""

import json

import pytest

from repro import ReproConfig, generate_notebook
from repro.datasets import covid_table
from repro.errors import NotebookError
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
from repro.sqlengine import parse_sql


@pytest.fixture(scope="module")
def covid():
    return covid_table(400)


@pytest.fixture(scope="module")
def run(covid):
    return generate_notebook(covid, config=ReproConfig(budget=4))


@pytest.fixture(scope="module")
def notebook(covid, run):
    return build_notebook(run.selected, table=covid, table_name="covid", title="T")


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

    def test_all_sql_cells_parse(self, notebook):
        for cell in notebook.cells:
            if isinstance(cell, SQLCell):
                parse_sql(cell.sql)

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

    def test_script_statements_parse(self, notebook):
        # Extract non-comment chunks and parse each statement.
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
            parse_sql(stmt)
