"""The in-process NumPy backend: a thin adapter over :class:`Table`.

This is the engine the reproduction always had — vectorized group-bys on
dictionary-encoded columns — repackaged behind the
:class:`~repro.backend.base.ExecutionBackend` contract with zero behavior
change.  ``statements_executed`` stays 0: nothing ever leaves the process,
which is exactly what made the paper's "queries sent to the DBMS" metric
vacuous before the backend split.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.backend.base import AggregateRequest, BackendCapabilities
from repro.queries.comparison import ComparisonQuery
from repro.queries.evaluate import ComparisonResult, comparison_from_aggregate
from repro.relational.cube import MaterializedAggregate
from repro.relational.table import Table


class ColumnarBackend:
    """Vectorized in-memory execution over a :class:`Table`."""

    name = "columnar"
    capabilities = BackendCapabilities(
        sql_pushdown=False,
        zero_copy_scan=True,
        batched_aggregates=True,
        incremental_aggregates=True,
    )

    def __init__(self, table: Table):
        self._table = table
        self.statements_executed = 0

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "ColumnarBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release: the backend borrows the caller's table."""

    def __repr__(self) -> str:
        return f"ColumnarBackend(rows={self._table.n_rows})"

    # -- contract -------------------------------------------------------------

    @property
    def table(self) -> Table:
        return self._table

    @property
    def n_rows(self) -> int:
        return self._table.n_rows

    def distinct_values(self, attribute: str) -> tuple[str, ...]:
        column = self._table.categorical_column(attribute)
        present = np.unique(column.codes[column.codes >= 0])
        return tuple(sorted(column.categories[int(code)] for code in present))

    def scan(self, attributes: Sequence[str] | None = None) -> Table:
        if attributes is None:
            return self._table
        return self._table.project(list(attributes))

    def filter_equals(self, attribute: str, value: str) -> Table:
        return self._table.where_equal(attribute, value)

    def materialize_aggregate(
        self, attributes: Iterable[str], measures: Sequence[str] | None = None
    ) -> MaterializedAggregate:
        # Served from the table's cross-stage cache: a group-by materialized
        # during hypothesis evaluation is reused by credibility computation
        # and notebook rendering instead of being recomputed per stage.
        attrs = tuple(sorted(attributes))
        return self._table.aggregate_cache().get_or_build(
            self.name,
            attrs,
            measures,
            lambda: MaterializedAggregate.build(self._table, attrs, measures),
        )

    def materialize_aggregates(
        self, requests: Sequence[AggregateRequest]
    ) -> list[MaterializedAggregate]:
        """Batched group-bys fused into one pass over the base columns.

        Cache hits are served first; only the residual batch reaches the
        fused :meth:`MaterializedAggregate.build_many`, which shares the
        categorical code lookups and measure reads across all sets.  There
        is no engine statement here, but each fused pass is counted as one
        ``backend.batched_statements`` so plan shape is comparable across
        backends.
        """
        def compile_batch(residual):
            with obs.span(
                "backend.batch_compile", backend=self.name, sets=len(residual)
            ):
                obs.counter("backend.batched_statements").inc()
                obs.counter("backend.sets_per_statement").inc(len(residual))
                return MaterializedAggregate.build_many(self._table, residual)

        return self._table.aggregate_cache().get_or_build_batch(
            self.name,
            [(r.attributes, r.measures) for r in requests],
            compile_batch,
        )

    def evaluate_comparison(self, query: ComparisonQuery) -> ComparisonResult:
        query.validate_against(self._table)
        aggregate = self.materialize_aggregate(
            (query.group_by, query.selection_attribute), [query.measure]
        )
        return comparison_from_aggregate(aggregate, query)
