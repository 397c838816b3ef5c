"""SQLite pushdown backend: hypothesis group-bys as real SQL statements.

The dataset is loaded once into an indexed SQLite table (stdlib
``sqlite3``, in-memory by default); every group-by aggregation and
comparison evaluation is then *pushed down* as a SQL statement built
from :mod:`repro.backend.sql_ast` and executed by SQLite's own engine.
:meth:`SqliteBackend.execute` also runs generated SQL text as is (the
Figure 5 cost model times comparison queries through it); ``var`` and
``stddev`` are registered on the connection so every aggregate of
:data:`~repro.relational.aggregates.AGGREGATE_NAMES` runs there.

The pushed-down statement computes the additive summary columns
(``count / sum / sum-of-squares / min / max`` per measure), from which the
returned :class:`~repro.relational.cube.MaterializedAggregate` derives any
of the supported aggregates (count/sum/avg/min/max/var/stddev) exactly as
the columnar path does.  Group keys come back as labels and are re-encoded
against the base table's category dictionaries, so every downstream
consumer (pair views, roll-ups, interestingness) is bit-for-bit the same
code path as the columnar backend — parity to floating-point summation
order.

``statements_executed`` counts every SELECT sent to SQLite (loads and DDL
are excluded): this is the paper's "number of queries sent to the DBMS"
measured against an actual DBMS.
"""

from __future__ import annotations

import math
import sqlite3
import threading
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.backend.base import AggregateRequest, BackendCapabilities, BackendError
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
    format_statement,
)
from repro.queries.comparison import ComparisonQuery
from repro.queries.evaluate import ComparisonResult, comparison_from_aggregate
from repro.queries.sqlgen import sql_identifier
from repro.relational.aggregates import GroupedSummary
from repro.relational.cube import MaterializedAggregate
from repro.relational.table import Table


def _name(identifier: str) -> SqlName:
    """A (pre-quoted) column reference node for the emitted SQL."""
    return SqlName((sql_identifier(identifier),))


class _SampleVariance:
    """SQL ``var(x)`` as :func:`repro.relational.aggregates.aggregate_all`
    computes it: sample variance (ddof=1), NULLs skipped, NULL under two
    values."""

    def __init__(self) -> None:
        self._values: list[float] = []

    def step(self, value: float | None) -> None:
        if value is not None:
            self._values.append(value)

    def finalize(self) -> float | None:
        if len(self._values) < 2:
            return None
        return float(np.var(self._values, ddof=1))


class _SampleStddev(_SampleVariance):
    """SQL ``stddev(x)``: the square root of :class:`_SampleVariance`."""

    def finalize(self) -> float | None:
        variance = super().finalize()
        return None if variance is None else math.sqrt(variance)


#: Most grouping-set arms fused into one compound statement.  SQLite caps
#: compound SELECT terms at 500 (SQLITE_MAX_COMPOUND_SELECT); 64 keeps
#: statements comfortably inside that with room for engines that compile
#: each arm separately, while still collapsing any realistic per-attribute
#: batch (one arm per selection attribute) into a single statement.
_MAX_BATCH_BRANCHES = 64


class SqliteBackend:
    """Pushdown execution over a stdlib :mod:`sqlite3` database.

    Parameters
    ----------
    table:
        The base relation; loaded once at construction.
    table_name:
        SQL name of the loaded table (appears in emitted statements).
    path:
        Database location; default ``":memory:"``.  A file path gives an
        on-disk database (useful for datasets larger than RAM).

    The connection is shared across threads behind a lock (the support
    phase may be threaded); statement accounting happens under the same
    lock, so ``statements_executed`` is exact under concurrency.
    """

    name = "sqlite"
    capabilities = BackendCapabilities(
        sql_pushdown=True, zero_copy_scan=False, batched_aggregates=True
    )

    def __init__(self, table: Table, table_name: str = "dataset", path: str | None = None):
        self._table = table
        self._table_name = table_name
        self._sql_table = sql_identifier(table_name)
        self._lock = threading.RLock()
        self._closed = False
        self.statements_executed = 0
        with obs.span("backend.load", backend=self.name, rows=table.n_rows):
            try:
                self._conn = sqlite3.connect(path or ":memory:", check_same_thread=False)
            except sqlite3.Error as exc:  # pragma: no cover - bad path only
                raise BackendError(f"cannot open sqlite database: {exc}") from exc
            self._conn.create_aggregate("var", 1, _SampleVariance)
            self._conn.create_aggregate("stddev", 1, _SampleStddev)
            try:
                self._load()
            except sqlite3.Error as exc:
                self._conn.close()
                raise BackendError(f"cannot load table {table_name!r} into sqlite: {exc}") from exc

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True

    def __repr__(self) -> str:
        return (
            f"SqliteBackend(table={self._table_name!r}, rows={self._table.n_rows}, "
            f"statements={self.statements_executed})"
        )

    # -- loading --------------------------------------------------------------

    def _load(self) -> None:
        """Create, populate, and index the SQLite table (not counted as
        statements: the paper's metric counts queries, not the initial load)."""
        schema = self._table.schema
        column_defs = []
        for attr in schema:
            kind = "REAL" if attr.is_measure else "TEXT"
            column_defs.append(f"{sql_identifier(attr.name)} {kind}")
        cursor = self._conn.cursor()
        cursor.execute(f"CREATE TABLE {self._sql_table} ({', '.join(column_defs)})")
        columns: list[list[object]] = []
        for attr in schema:
            if attr.is_measure:
                data = self._table.measure_values(attr.name)
                columns.append([None if np.isnan(v) else float(v) for v in data])
            else:
                column = self._table.categorical_column(attr.name)
                lookup = list(column.categories)
                columns.append([None if c < 0 else lookup[c] for c in column.codes])
        placeholders = ", ".join("?" for _ in schema)
        cursor.executemany(
            f"INSERT INTO {self._sql_table} VALUES ({placeholders})",
            zip(*columns) if columns else [],
        )
        for index, attr_name in enumerate(schema.categorical_names):
            index_name = sql_identifier(f"idx_{self._table_name}_{index}")
            cursor.execute(
                f"CREATE INDEX {index_name} ON {self._sql_table} ({sql_identifier(attr_name)})"
            )
        self._conn.commit()

    # -- statement execution --------------------------------------------------

    def execute(self, sql: str) -> list[tuple]:
        """Run one SELECT on the shared connection; count it."""
        with self._lock:
            if self._closed:
                raise BackendError("sqlite backend is closed")
            with obs.span("backend.statement", backend=self.name):
                try:
                    rows = self._conn.execute(sql).fetchall()
                except sqlite3.Error as exc:
                    raise BackendError(f"sqlite rejected SQL: {exc}\n{sql}") from exc
            self.statements_executed += 1
        obs.counter("backend.statements_executed").inc()
        return rows

    # -- contract -------------------------------------------------------------

    @property
    def table(self) -> Table:
        return self._table

    @property
    def n_rows(self) -> int:
        return self._table.n_rows

    def distinct_values(self, attribute: str) -> tuple[str, ...]:
        self._table.schema.require_categorical(attribute)
        statement = SelectStatement(
            items=(SelectItem(_name(attribute)),),
            from_items=(TableRef(self._sql_table),),
            where=SqlIsNull(_name(attribute), negated=True),
            distinct=True,
        )
        rows = self.execute(format_statement(statement))
        return tuple(sorted(str(value) for (value,) in rows))

    #: Orders row-returning statements so results come back in insertion
    #: order even when SQLite answers from an index (row-order parity with
    #: the columnar backend's scans).
    _ROWID_ORDER = (OrderItem(SqlName(("rowid",))),)

    def scan(self, attributes: Sequence[str] | None = None) -> Table:
        names = list(attributes) if attributes is not None else list(self._table.schema.names)
        statement = SelectStatement(
            items=tuple(SelectItem(_name(n)) for n in names),
            from_items=(TableRef(self._sql_table),),
            order_by=self._ROWID_ORDER,
        )
        rows = self.execute(format_statement(statement))
        return self._rows_to_table(names, rows)

    def filter_equals(self, attribute: str, value: str) -> Table:
        self._table.schema.require_categorical(attribute)
        names = list(self._table.schema.names)
        statement = SelectStatement(
            items=tuple(SelectItem(_name(n)) for n in names),
            from_items=(TableRef(self._sql_table),),
            where=SqlBinary("=", _name(attribute), SqlLiteral(str(value))),
            order_by=self._ROWID_ORDER,
        )
        rows = self.execute(format_statement(statement))
        return self._rows_to_table(names, rows)

    def _rows_to_table(self, names: Sequence[str], rows: list[tuple]) -> Table:
        schema = self._table.schema.subset(names)
        data: dict[str, list[object]] = {name: [] for name in names}
        for row in rows:
            for name, value in zip(names, row):
                data[name].append(value)
        return Table.from_columns(schema, data)

    # -- pushdown aggregation -------------------------------------------------

    def _aggregate_statement(self, attributes: Sequence[str], measures: Sequence[str]) -> str:
        """The pushed-down SQL: one group-by computing additive summaries."""
        key_refs = tuple(_name(a) for a in attributes)
        items = [SelectItem(ref) for ref in key_refs]
        for measure in measures:
            ref = _name(measure)
            items.extend(
                (
                    SelectItem(SqlFunction("count", (ref,))),
                    SelectItem(SqlFunction("sum", (ref,))),
                    SelectItem(SqlFunction("sum", (SqlBinary("*", ref, ref),))),
                    SelectItem(SqlFunction("min", (ref,))),
                    SelectItem(SqlFunction("max", (ref,))),
                )
            )
        statement = SelectStatement(
            items=tuple(items),
            from_items=(TableRef(self._sql_table),),
            group_by=key_refs,
        )
        return format_statement(statement)

    def materialize_aggregate(
        self, attributes: Iterable[str], measures: Sequence[str] | None = None
    ) -> MaterializedAggregate:
        # Cache hits save real pushed-down statements: the cache key carries
        # the backend name, so sqlite-built aggregates (whose group order is
        # the engine's) never serve columnar requests or vice versa.
        attrs = tuple(sorted(attributes))
        return self._table.aggregate_cache().get_or_build(
            self.name,
            attrs,
            measures,
            lambda: self._materialize_uncached(attrs, measures),
        )

    def _materialize_uncached(
        self, attrs: tuple[str, ...], measures: Sequence[str] | None
    ) -> MaterializedAggregate:
        for attr_name in attrs:
            self._table.schema.require_categorical(attr_name)
        if measures is None:
            measures = self._table.schema.measure_names
        rows = self.execute(self._aggregate_statement(attrs, measures))
        attr_pos = {attr_name: axis for axis, attr_name in enumerate(attrs)}
        measure_base = {m: len(attrs) + 5 * i for i, m in enumerate(measures)}
        return self._rows_to_aggregate(attrs, measures, rows, attr_pos, measure_base)

    def _rows_to_aggregate(
        self,
        attrs: tuple[str, ...],
        measures: Sequence[str],
        rows: list[tuple],
        attr_pos: dict[str, int],
        measure_base: dict[str, int],
    ) -> MaterializedAggregate:
        """Parse SQLite result rows into a :class:`MaterializedAggregate`.

        ``attr_pos`` / ``measure_base`` map each key attribute and measure to
        its column position, so the same parse serves both the per-set
        statement (dense layout) and the UNION-ALL batch statement (sparse
        layout padded with NULL columns for attrs/measures of other sets).
        """
        n_groups = len(rows)
        columns = {attr_name: self._table.categorical_column(attr_name) for attr_name in attrs}
        keys = tuple(
            np.fromiter(
                (
                    -1
                    if row[attr_pos[attr_name]] is None
                    else columns[attr_name].code_of(str(row[attr_pos[attr_name]]))
                    for row in rows
                ),
                dtype=np.int64,
                count=n_groups,
            )
            for attr_name in attrs
        )
        summaries: dict[str, GroupedSummary] = {}
        for measure in measures:
            base = measure_base[measure]
            count = np.fromiter(
                (float(row[base]) for row in rows), dtype=np.float64, count=n_groups
            )
            # SUM over an all-NULL group is NULL; the additive summaries use
            # 0.0 there (count == 0 marks the group empty), min/max use NaN.
            total = np.fromiter(
                (0.0 if row[base + 1] is None else float(row[base + 1]) for row in rows),
                dtype=np.float64,
                count=n_groups,
            )
            total_sq = np.fromiter(
                (0.0 if row[base + 2] is None else float(row[base + 2]) for row in rows),
                dtype=np.float64,
                count=n_groups,
            )
            minimum = np.fromiter(
                (np.nan if row[base + 3] is None else float(row[base + 3]) for row in rows),
                dtype=np.float64,
                count=n_groups,
            )
            maximum = np.fromiter(
                (np.nan if row[base + 4] is None else float(row[base + 4]) for row in rows),
                dtype=np.float64,
                count=n_groups,
            )
            summaries[measure] = GroupedSummary(count, total, total_sq, minimum, maximum)
        categories = {
            attr_name: self._table.categorical_column(attr_name).categories
            for attr_name in attrs
        }
        return MaterializedAggregate(attrs, keys, categories, summaries)

    # -- batched pushdown aggregation (multi-query optimization) --------------

    def materialize_aggregates(
        self, requests: Sequence[AggregateRequest]
    ) -> list[MaterializedAggregate]:
        """Batched group-bys compiled into one compound statement per chunk.

        Cache hits never reach the engine; the residual batch is compiled by
        :meth:`_materialize_batch_uncached` into UNION-ALL grouping-set
        statements, collapsing ``statements_executed`` from one per set to
        one per :data:`_MAX_BATCH_BRANCHES` sets.
        """
        return self._table.aggregate_cache().get_or_build_batch(
            self.name,
            [(r.attributes, r.measures) for r in requests],
            self._materialize_batch_uncached,
        )

    def _materialize_batch_uncached(
        self, residual: Sequence[tuple[tuple[str, ...], Sequence[str] | None]]
    ) -> list[MaterializedAggregate]:
        resolved: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        for attributes, measures in residual:
            attrs = tuple(sorted(attributes))
            for attr_name in attrs:
                self._table.schema.require_categorical(attr_name)
            if measures is None:
                measures = self._table.schema.measure_names
            resolved.append((attrs, tuple(measures)))
        out: list[MaterializedAggregate] = []
        for start in range(0, len(resolved), _MAX_BATCH_BRANCHES):
            out.extend(self._compile_chunk(resolved[start : start + _MAX_BATCH_BRANCHES]))
        return out

    def _compile_chunk(
        self, chunk: list[tuple[tuple[str, ...], tuple[str, ...]]]
    ) -> list[MaterializedAggregate]:
        """One compound statement answering every grouping set of ``chunk``.

        The statement is a UNION ALL of grouped subselects over a *uniform
        column grid*: a grouping-set tag, every key attribute appearing in
        any set (NULL-padded where absent), then the five summary columns of
        every measure appearing in any set (NULL-padded likewise).  Each arm
        is the exact per-set statement projected into the grid, so SQLite
        plans it like the standalone query; demultiplexing by tag recovers
        per-set aggregates element-for-element identical to per-set calls —
        a padded NULL is never mistaken for a NULL group value because each
        set's parse only reads the columns of its own attributes/measures.
        """
        union_attrs = sorted({a for attrs, _ in chunk for a in attrs})
        union_measures = sorted({m for _, ms in chunk for m in ms})
        with obs.span(
            "backend.batch_compile", backend=self.name, sets=len(chunk)
        ):
            sql = self._batch_statement(chunk, union_attrs, union_measures)
            rows = self.execute(sql)
        obs.counter("backend.batched_statements").inc()
        obs.counter("backend.sets_per_statement").inc(len(chunk))
        by_tag: dict[int, list[tuple]] = {tag: [] for tag in range(len(chunk))}
        for row in rows:
            by_tag[int(row[0])].append(row)
        results: list[MaterializedAggregate] = []
        for tag, (attrs, measures) in enumerate(chunk):
            attr_pos = {a: 1 + union_attrs.index(a) for a in attrs}
            measure_base = {
                m: 1 + len(union_attrs) + 5 * union_measures.index(m) for m in measures
            }
            results.append(
                self._rows_to_aggregate(attrs, measures, by_tag[tag], attr_pos, measure_base)
            )
        return results

    def _batch_statement(
        self,
        chunk: list[tuple[tuple[str, ...], tuple[str, ...]]],
        union_attrs: list[str],
        union_measures: list[str],
    ) -> str:
        arms: list[SelectStatement] = []
        for tag, (attrs, measures) in enumerate(chunk):
            items = [SelectItem(SqlLiteral(str(tag)), alias="grouping_set")]
            for attr_name in union_attrs:
                items.append(
                    SelectItem(_name(attr_name) if attr_name in attrs else SqlLiteral(None))
                )
            for measure in union_measures:
                if measure in measures:
                    ref = _name(measure)
                    items.extend(
                        (
                            SelectItem(SqlFunction("count", (ref,))),
                            SelectItem(SqlFunction("sum", (ref,))),
                            SelectItem(SqlFunction("sum", (SqlBinary("*", ref, ref),))),
                            SelectItem(SqlFunction("min", (ref,))),
                            SelectItem(SqlFunction("max", (ref,))),
                        )
                    )
                else:
                    items.extend(SelectItem(SqlLiteral(None)) for _ in range(5))
            arms.append(
                SelectStatement(
                    items=tuple(items),
                    from_items=(TableRef(self._sql_table),),
                    group_by=tuple(_name(a) for a in attrs),
                )
            )
        if len(arms) == 1:
            return format_statement(arms[0])
        return format_statement(UnionStatement(tuple(arms), all=True))

    def evaluate_comparison(self, query: ComparisonQuery) -> ComparisonResult:
        query.validate_against(self._table)
        aggregate = self.materialize_aggregate(
            (query.group_by, query.selection_attribute), [query.measure]
        )
        return comparison_from_aggregate(aggregate, query)
