"""Comparison-query cost models (Section 4.2, "Cost").

The paper observes (Figure 5) that without physical optimizations every
comparison query costs roughly the same, so the TAP can use a *uniform*
cost of 1 per query, turning the time budget ε_t into a bound on the
notebook length.  :class:`UniformCost` encodes that; :class:`MeasuredCost`
times the SQL execution (used by the Figure 5 benchmark to validate the
uniformity claim on our engine).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.queries.comparison import ComparisonQuery
from repro.queries.sqlgen import bind_table, comparison_sql
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.backend.sqlite import SqliteBackend


class CostModel(Protocol):
    """Anything that prices a comparison query."""

    def cost(self, query: ComparisonQuery) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True, slots=True)
class UniformCost:
    """Every query costs ``unit`` (paper default: 1.0)."""

    unit: float = 1.0

    def cost(self, query: ComparisonQuery) -> float:
        return self.unit


@dataclass(slots=True)
class MeasuredCost:
    """Wall-clock cost of running the query's join-form SQL on sqlite3.

    The table is loaded once, at construction, into a
    :class:`~repro.backend.SqliteBackend`; only the execution of each
    query's SQL text is timed.  Results are memoized per query key; use
    :meth:`timings` to retrieve the raw measurements for the Figure 5
    distribution.
    """

    table: Table
    table_name: str = "dataset"
    _backend: "SqliteBackend" = field(init=False, repr=False)
    _cache: dict[tuple, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Imported here: repro.backend depends on repro.queries.
        from repro.backend.sqlite import SqliteBackend

        self._backend = SqliteBackend(self.table, self.table_name)

    def cost(self, query: ComparisonQuery) -> float:
        cached = self._cache.get(query.key)
        if cached is not None:
            return cached
        query.validate_against(self.table)
        sql = bind_table(comparison_sql(query), self.table_name)
        start = time.perf_counter()
        self._backend.execute(sql)
        elapsed = time.perf_counter() - start
        self._cache[query.key] = elapsed
        return elapsed

    def timings(self) -> dict[tuple, float]:
        return dict(self._cache)

    def close(self) -> None:
        """Close the sqlite database holding the table."""
        self._backend.close()
