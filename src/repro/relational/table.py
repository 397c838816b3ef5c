"""Columnar in-memory table: the relation ``R`` of the paper.

A :class:`Table` pairs a :class:`~repro.relational.schema.Schema` with one
column per attribute.  All rows-level operations (filter, take) are
vectorized; the grouping machinery (:meth:`Table.group_by_codes`) produces
dense group ids that the aggregate layer consumes.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.columns import (
    NULL_LABEL,
    CategoricalColumn,
    Column,
    MeasureColumn,
    column_from_values,
)
from repro.relational.schema import Schema, categorical, measure

#: Guards lazy attachment of per-table aggregate caches (double-checked).
_CACHE_ATTACH_LOCK = threading.Lock()


class GroupingResult:
    """Outcome of grouping a table by a list of categorical attributes.

    Attributes
    ----------
    group_ids:
        Dense ``int64`` array, one entry per input row, in ``[0, n_groups)``.
    n_groups:
        Number of distinct groups present.
    key_codes:
        For each grouped attribute, the per-group category *code* — i.e.
        ``key_codes[j][g]`` is the code (into that attribute's dictionary)
        of group ``g`` on the j-th key.
    """

    __slots__ = ("group_ids", "n_groups", "key_codes")

    def __init__(self, group_ids: np.ndarray, n_groups: int, key_codes: tuple[np.ndarray, ...]):
        self.group_ids = group_ids
        self.n_groups = n_groups
        self.key_codes = key_codes


def group_codes_from_arrays(
    code_arrays: Sequence[np.ndarray], radices: Sequence[int], n_rows: int
) -> GroupingResult:
    """Mixed-radix grouping over pre-shifted code arrays (codes + 1).

    The single op sequence behind :meth:`Table.group_by_codes`; exposed at
    module level so batched aggregation (``MaterializedAggregate.build_many``)
    can share the prefetched code arrays across many group-by sets while
    producing *bit-identical* results to the per-set path — identical inputs
    through identical numpy calls.

    Mixed-radix combine with *iterative compaction*: after folding each
    attribute in, compact the combined key to dense ids so the running key
    stays below ``n_rows * radix`` — no int64 overflow however many
    attributes or how large their domains.
    """
    combined = code_arrays[0]
    unique_combined = np.unique(combined)
    group_ids = np.searchsorted(unique_combined, combined).astype(np.int64)
    per_group_key = unique_combined  # dense id -> combined key (for decode)
    decode_stack: list[tuple[np.ndarray, int]] = [(per_group_key, radices[0])]
    for codes, radix in zip(code_arrays[1:], radices[1:]):
        combined = group_ids * radix + codes
        unique_combined, group_ids = np.unique(combined, return_inverse=True)
        group_ids = group_ids.astype(np.int64)
        decode_stack.append((unique_combined, radix))
    n_groups = int(unique_combined.size) if n_rows else 0
    # Decode per-attribute codes of each group by unwinding the stack.
    key_codes_rev: list[np.ndarray] = []
    current = decode_stack[-1][0]
    for level in range(len(decode_stack) - 1, 0, -1):
        _, radix = decode_stack[level]
        key_codes_rev.append((current % radix).astype(np.int64) - 1)
        parent_ids = current // radix  # dense ids at the previous level
        current = decode_stack[level - 1][0][parent_ids]
    key_codes_rev.append(current.astype(np.int64) - 1)
    key_codes = tuple(reversed(key_codes_rev))
    return GroupingResult(group_ids, n_groups, key_codes)


class Table:
    """Immutable-by-convention columnar relation.

    Construct via :meth:`from_columns`, :meth:`from_rows`, or the CSV reader.
    Mutating the underlying arrays after construction is unsupported.
    """

    __slots__ = ("schema", "_columns", "_aggregate_cache")

    def __init__(self, schema: Schema, columns: Mapping[str, Column]):
        lengths = {name: len(col) for name, col in columns.items()}
        if set(lengths) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(lengths)} do not match schema attributes {sorted(schema.names)}"
            )
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        for attr in schema:
            col = columns[attr.name]
            if attr.is_categorical != col.is_categorical:
                raise SchemaError(
                    f"column {attr.name!r} storage does not match its declared kind {attr.kind}"
                )
        self.schema = schema
        self._columns = dict(columns)
        self._aggregate_cache = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_columns(cls, schema: Schema, data: Mapping[str, Sequence[object]]) -> "Table":
        """Build a table from raw per-column value sequences."""
        if set(data) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(data)} do not match schema attributes {sorted(schema.names)}"
            )
        columns = {
            attr.name: column_from_values(data[attr.name], attr.is_measure) for attr in schema
        }
        return cls(schema, columns)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[object]]) -> "Table":
        """Build a table from an iterable of row tuples (schema order)."""
        names = schema.names
        buckets: dict[str, list[object]] = {name: [] for name in names}
        for row in rows:
            if len(row) != len(names):
                raise SchemaError(f"row of arity {len(row)} for schema of arity {len(names)}")
            for name, value in zip(names, row):
                buckets[name].append(value)
        return cls.from_columns(schema, buckets)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        return cls.from_columns(schema, {name: [] for name in schema.names})

    # -- basic protocol -------------------------------------------------------

    @property
    def n_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.schema != other.schema:
            return False
        return all(self._columns[n] == other._columns[n] for n in self.schema.names)

    def __repr__(self) -> str:
        return f"Table({self.schema!r}, n_rows={self.n_rows})"

    # -- pickling -------------------------------------------------------------
    # The aggregate cache holds threading primitives and is a pure memo;
    # process-pool workers (the parallel test phase) rebuild it lazily.

    def __getstate__(self) -> tuple:
        return (self.schema, self._columns)

    def __setstate__(self, state: tuple) -> None:
        self.schema, self._columns = state
        self._aggregate_cache = None

    # -- aggregate cache ------------------------------------------------------

    def aggregate_cache(self):
        """This table's cross-stage aggregate cache (created lazily).

        Shared by every consumer that aggregates this table — execution
        backends, hypothesis evaluation, notebook rendering — so identical
        group-bys are computed once per run instead of once per stage.  See
        :class:`repro.relational.aggcache.AggregateCache`.
        """
        cache = self._aggregate_cache
        if cache is None:
            from repro.relational.aggcache import AggregateCache

            with _CACHE_ATTACH_LOCK:
                cache = self._aggregate_cache
                if cache is None:
                    cache = self._aggregate_cache = AggregateCache()
        return cache

    # -- column access --------------------------------------------------------

    def column(self, name: str) -> Column:
        """The column object for attribute ``name``."""
        self.schema[name]  # raises SchemaError for unknown names
        return self._columns[name]

    def categorical_column(self, name: str) -> CategoricalColumn:
        self.schema.require_categorical(name)
        return self._columns[name]  # type: ignore[return-value]

    def measure_column(self, name: str) -> MeasureColumn:
        self.schema.require_measure(name)
        return self._columns[name]  # type: ignore[return-value]

    def measure_values(self, name: str) -> np.ndarray:
        """Raw float64 array of a measure column (NaN = NULL)."""
        return self.measure_column(name).data

    def to_rows(self) -> list[tuple[object, ...]]:
        """Materialize all rows as tuples (labels for categoricals)."""
        materialized = [self._columns[name].values() for name in self.schema.names]
        return [tuple(col[i] for col in materialized) for i in range(self.n_rows)]

    def to_dict(self) -> dict[str, list[object]]:
        """Materialize all columns as plain Python lists."""
        return {name: self._columns[name].to_list() for name in self.schema.names}

    # -- row-level operations ---------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset/reorder by integer indices."""
        indices = np.asarray(indices)
        columns = {name: col.take(indices) for name, col in self._columns.items()}
        return Table(self.schema, columns)

    def filter(self, mask: np.ndarray) -> "Table":
        """Row subset by boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self.n_rows:
            raise SchemaError(f"mask of length {mask.size} for table of {self.n_rows} rows")
        return self.take(np.flatnonzero(mask))

    def where_equal(self, attribute: str, label: str) -> "Table":
        """Rows where categorical ``attribute`` equals ``label``."""
        return self.filter(self.categorical_column(attribute).equals_mask(label))

    def project(self, names: Sequence[str]) -> "Table":
        """Column subset, in the order given."""
        schema = self.schema.subset(names)
        return Table(schema, {name: self._columns[name] for name in names})

    # -- append ------------------------------------------------------------------

    def append_block(self, rows: "Iterable[Sequence[object]] | Mapping[str, Sequence[object]]") -> "Table":
        """This table plus an appended row block, as a new table.

        ``rows`` is an iterable of row tuples in schema order, or a mapping
        of column name -> value sequence.  Existing rows keep their exact
        dictionary codes: each categorical dictionary is *extended* with the
        block's previously-unseen labels in first-appearance order, which is
        precisely the encoding a cold :meth:`from_columns` load of the
        concatenated data would produce.  That prefix stability is what lets
        aggregates and version tokens of the old table be reused verbatim
        for the grown table's prefix (see
        :meth:`~repro.relational.cube.MaterializedAggregate.patched`).
        """
        if isinstance(rows, Mapping):
            data = {name: list(values) for name, values in rows.items()}
            if set(data) != set(self.schema.names):
                raise SchemaError(
                    f"appended columns {sorted(data)} do not match schema "
                    f"attributes {sorted(self.schema.names)}"
                )
            lengths = {len(v) for v in data.values()}
            if len(lengths) > 1:
                raise SchemaError(f"ragged appended columns: { {n: len(v) for n, v in data.items()} }")
        else:
            names = self.schema.names
            data = {name: [] for name in names}
            for row in rows:
                if len(row) != len(names):
                    raise SchemaError(
                        f"appended row of arity {len(row)} for schema of arity {len(names)}"
                    )
                for name, value in zip(names, row):
                    data[name].append(value)
        columns: dict[str, Column] = {}
        for attr in self.schema:
            old = self._columns[attr.name]
            values = data[attr.name]
            if attr.is_measure:
                delta = MeasureColumn.from_values(values)
                columns[attr.name] = MeasureColumn(
                    np.concatenate([old.data, delta.data])
                )
                continue
            categories = list(old.categories)
            index = {c: i for i, c in enumerate(categories)}
            codes = np.empty(len(values), dtype=np.int32)
            for i, value in enumerate(values):
                label = NULL_LABEL if value is None else str(value)
                if label == NULL_LABEL:
                    codes[i] = -1
                    continue
                code = index.get(label)
                if code is None:
                    code = len(categories)
                    index[label] = code
                    categories.append(label)
                codes[i] = code
            columns[attr.name] = CategoricalColumn(
                np.concatenate([old.codes, codes]), categories
            )
        return Table(self.schema, columns)

    # -- grouping ---------------------------------------------------------------

    def group_by_codes(self, attributes: Sequence[str]) -> GroupingResult:
        """Group rows by categorical ``attributes`` and return dense ids.

        Uses mixed-radix combination of the per-attribute dictionary codes,
        then compacts to dense ids with ``np.unique`` — O(n log n) overall,
        independent of the number of attributes beyond the radix product.
        """
        if not attributes:
            # One global group containing all rows.
            return GroupingResult(np.zeros(self.n_rows, dtype=np.int64), 1 if self.n_rows else 0, ())
        code_arrays = []
        radices = []
        for name in attributes:
            col = self.categorical_column(name)
            # Shift by one so NULL (-1) participates as its own group value.
            code_arrays.append(col.codes.astype(np.int64) + 1)
            radices.append(len(col.categories) + 1)
        return group_codes_from_arrays(code_arrays, radices, self.n_rows)

    # -- statistics ---------------------------------------------------------------

    def n_distinct(self, name: str) -> int:
        return self.column(name).n_distinct()

    def estimated_bytes(self) -> int:
        """Approximate memory footprint of all columns."""
        return sum(col.estimated_bytes() for col in self._columns.values())


def text_table(
    header: Sequence[str], rows: Sequence[Sequence[object]], n_rows: int
) -> str:
    """Plain-text table of ``rows`` under ``header``; floats as ``.4g``.

    ``n_rows`` is the full row count; rows beyond ``rows`` are summarized
    as a ``... (k more rows)`` line.
    """
    cells = [[str(n) for n in header]] + [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for j, row in enumerate(cells):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if j == 0:
            lines.append("-+-".join("-" * w for w in widths))
    if n_rows > len(rows):
        lines.append(f"... ({n_rows - len(rows)} more rows)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Content-addressed version tokens
# ---------------------------------------------------------------------------


def _categorical_stream_bytes(col: CategoricalColumn, start: int) -> bytes:
    """The label stream of rows ``start:`` (``\\x1f``-joined, prefix-stable).

    A column's full stream is its decoded labels joined by ``\\x1f``; the
    stream of a grown column is the old stream plus these bytes, so running
    hashers advance in O(delta).
    """
    labels = col.values()[start:].tolist()
    text = "\x1f".join(labels)
    if start > 0 and labels:
        text = "\x1f" + text
    return text.encode("utf-8", "surrogatepass")


def _measure_stream_bytes(col: MeasureColumn, start: int) -> bytes:
    return np.ascontiguousarray(col.data[start:]).tobytes()


class TableVersioner:
    """Streaming content-version tokens for a growing table.

    The token is a pure function of the table's *content* (decoded labels
    and measure bytes, in schema order) — independent of dictionary layout
    or of how many append steps produced the rows.  Keeping one
    unfinalized hasher per column lets :meth:`advance` fold in an appended
    block in O(delta); :func:`content_token` computes the identical token
    cold, so a checkpointed token can be validated against a re-loaded
    (possibly externally grown) file by hashing just the prefix rows.
    """

    __slots__ = ("_hashers", "_names", "n_rows")

    def __init__(self, table: Table):
        self._names = table.schema.names
        self._hashers = {}
        self.n_rows = 0
        for name in self._names:
            h = hashlib.blake2s(digest_size=16)
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            self._hashers[name] = h
        self.advance(table, 0)

    def advance(self, table: Table, delta_start: int) -> str:
        """Fold rows ``delta_start:`` of ``table`` into the running token.

        ``table`` must extend the previously hashed rows exactly (the
        caller guarantees this by building it with :meth:`Table.append_block`).
        """
        if tuple(table.schema.names) != tuple(self._names):
            raise SchemaError("appended table has a different schema")
        if delta_start != self.n_rows:
            raise SchemaError(
                f"version stream is at row {self.n_rows}, got delta at {delta_start}"
            )
        for name in self._names:
            col = table.column(name)
            if col.is_categorical:
                self._hashers[name].update(_categorical_stream_bytes(col, delta_start))
            else:
                self._hashers[name].update(_measure_stream_bytes(col, delta_start))
        self.n_rows = table.n_rows
        return self.token

    @property
    def token(self) -> str:
        combined = hashlib.blake2s(digest_size=10)
        for name in self._names:
            combined.update(self._hashers[name].copy().digest())
        return f"{self.n_rows}-{combined.hexdigest()}"


def content_token(table: Table, n_rows: int | None = None) -> str:
    """Content-addressed version token of (a row prefix of) ``table``.

    ``content_token(grown, k) == content_token(old)`` whenever ``grown``
    extends ``old``'s ``k`` rows — the prefix check behind the CLI's
    ``--since-checkpoint`` validation.
    """
    if n_rows is not None and n_rows < table.n_rows:
        table = table.take(np.arange(n_rows))
    return TableVersioner(table).token


def table_from_arrays(
    categorical_data: Mapping[str, Sequence[object]],
    measure_data: Mapping[str, Sequence[object]],
) -> Table:
    """Convenience builder: categoricals first, then measures, schema inferred."""
    attrs = [categorical(n) for n in categorical_data] + [measure(n) for n in measure_data]
    data: dict[str, Sequence[object]] = {}
    data.update(categorical_data)
    data.update(measure_data)
    return Table.from_columns(Schema(attrs), data)
