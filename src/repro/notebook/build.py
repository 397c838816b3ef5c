"""Assemble a :class:`Notebook` from an ordered list of generated queries.

The builder renders each query's SQL (bound to the dataset's table name),
optionally attaches a result preview, and interleaves the markdown
narration.  The preview, the explanation and the chart all come from one
:func:`~repro.queries.evaluate.evaluate_comparison` per query: the preview
is the text table the SQL cell's statement returns (the grouping column
and the two aggregate columns, ordered by group).
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.errors import NotebookError, ReproError
from repro.generation.generator import GeneratedQuery
from repro.notebook.cells import Notebook
from repro.notebook.charts import chart_markdown_block
from repro.notebook.narrative import notebook_header, query_narrative
from repro.queries.evaluate import ComparisonResult, evaluate_comparison
from repro.queries.explain import explanation_sentence
from repro.queries.sqlgen import bind_table, comparison_aliases, comparison_sql
from repro.relational.table import Table, text_table


def build_notebook(
    generated: Sequence[GeneratedQuery],
    table: Table | None = None,
    table_name: str = "dataset",
    title: str = "Comparison notebook",
    include_previews: bool = True,
    include_explanations: bool = True,
    include_charts: bool = True,
    preview_rows: int = 12,
) -> Notebook:
    """Build the notebook; previews/explanations/charts require ``table``."""
    if not generated:
        raise NotebookError("cannot build a notebook from zero queries")
    with obs.span(
        "render.notebook", queries=len(generated), previews=bool(include_previews)
    ):
        notebook = Notebook(title)
        notebook.add_markdown(notebook_header(title, table_name, len(generated)))
        for index, item in enumerate(generated, start=1):
            with obs.span("render.query", index=index) as cell_span:
                comparison = None
                if table is not None and (
                    include_previews or include_explanations or include_charts
                ):
                    comparison = evaluate_comparison(table, item.query)
                explanation = None
                if include_explanations and comparison is not None:
                    try:
                        explanation = explanation_sentence(comparison)
                    except ReproError:
                        explanation = None  # empty comparison etc. — narrate without it
                notebook.add_markdown(query_narrative(index, item, explanation))
                sql = bind_table(comparison_sql(item.query), table_name)
                preview = None
                if include_previews and comparison is not None:
                    preview = comparison_preview(comparison, preview_rows)
                    obs.counter("notebook.previews").inc()
                notebook.add_sql(sql + ";", preview)
                if include_charts and comparison is not None and comparison.n_groups > 0:
                    notebook.add_markdown(chart_markdown_block(comparison))
                obs.histogram("render.query_seconds").observe(cell_span.elapsed)
        obs.counter("notebook.cells").inc(len(notebook.cells))
        obs.counter("notebook.notebooks").inc()
    return notebook


def comparison_preview(comparison: ComparisonResult, limit: int) -> str:
    """The first ``limit`` rows the query's join-form SQL returns, as text."""
    query = comparison.query
    alias_x, alias_y = comparison_aliases(query)
    rows = list(zip(comparison.groups[:limit], comparison.x[:limit], comparison.y[:limit]))
    return text_table((query.group_by, alias_x, alias_y), rows, comparison.n_groups)
