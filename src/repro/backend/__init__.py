"""Pluggable execution backends (see ``docs/backends.md``).

The pipeline talks to an :class:`ExecutionBackend`; which engine actually
answers the group-bys is a configuration choice:

* ``columnar`` — the in-process NumPy path (default);
* ``sqlite`` — pushdown to a stdlib :mod:`sqlite3` database.
"""

from __future__ import annotations

from repro.backend.base import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    AggregateRequest,
    BackendCapabilities,
    BackendError,
    ExecutionBackend,
    default_backend_name,
    materialize_batch,
    source_table,
)
from repro.backend.columnar import ColumnarBackend
from repro.backend.sqlite import SqliteBackend
from repro.relational.table import Table

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "AggregateRequest",
    "BackendCapabilities",
    "BackendError",
    "ColumnarBackend",
    "ExecutionBackend",
    "SqliteBackend",
    "as_backend",
    "create_backend",
    "default_backend_name",
    "incremental_backend_names",
    "materialize_batch",
    "source_table",
]


def incremental_backend_names() -> frozenset[str]:
    """Backends whose cached aggregates can be patched across an append.

    A backend declaring ``capabilities.incremental_aggregates`` guarantees
    its group ordering matches :meth:`~repro.relational.cube
    .MaterializedAggregate.patched`; cache entries of other backends are
    dropped on append and re-aggregated from the grown table on demand.
    """
    return frozenset(
        cls.name
        for cls in (ColumnarBackend, SqliteBackend)
        if cls.capabilities.incremental_aggregates
    )


def create_backend(name: str, table: Table, table_name: str = "dataset") -> ExecutionBackend:
    """Construct the named backend over ``table``.

    ``name`` may be None/empty to mean "the process default" (the
    ``REPRO_BACKEND`` environment variable, else columnar).
    """
    resolved = (name or default_backend_name()).strip().lower()
    if resolved == "columnar":
        return ColumnarBackend(table)
    if resolved == "sqlite":
        return SqliteBackend(table, table_name=table_name)
    raise BackendError(f"unknown execution backend {name!r}; known: {BACKEND_NAMES}")


def as_backend(source: "Table | ExecutionBackend") -> ExecutionBackend:
    """Coerce a table-or-backend argument to a backend.

    Bare tables get the zero-cost columnar adapter, which keeps every
    pre-backend call site working unchanged.
    """
    if isinstance(source, Table):
        return ColumnarBackend(source)
    return source
