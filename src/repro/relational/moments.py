"""Versioned per-(attribute, value, measure) moment store.

The batched permutation kernel and every comparison aggregate derive from
the same additive moments — count, sum, sum of squares, min, max per
(grouping attribute, value, measure).  :class:`MomentStore` keeps those
moments as single-attribute :class:`~repro.relational.cube
.MaterializedAggregate`\\ s, keyed by the table-version token of the rows
they summarize, so an appended row block updates them in O(delta)
(:meth:`MomentStore.advance` → :meth:`MaterializedAggregate.patched`)
instead of re-scanning the table.  A :class:`~repro.api.Session` holds
one and seeds its aggregate cache from it after each append.

:func:`touched_labels` names the values an appended block touched; the
stats stage re-tests only the pair families containing one.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ReproError
from repro.relational.columns import NULL_LABEL
from repro.relational.cube import MaterializedAggregate
from repro.relational.table import Table

__all__ = ["MomentStore", "touched_labels"]


def touched_labels(table: Table, attribute: str, delta_start: int) -> frozenset[str]:
    """Labels of ``attribute`` appearing in rows ``delta_start:``."""
    col = table.categorical_column(attribute)
    codes = np.unique(col.codes[delta_start:])
    return frozenset(
        col.categories[c] if c >= 0 else NULL_LABEL for c in codes
    )


class MomentStore:
    """Per-attribute moment sums of one table version, patchable in O(delta).

    Attributes
    ----------
    version:
        The content-version token of the table these moments summarize.
    n_rows:
        Row count of that table version.
    """

    __slots__ = ("version", "n_rows", "_aggregates")

    def __init__(
        self,
        version: str,
        n_rows: int,
        aggregates: Mapping[str, MaterializedAggregate],
    ):
        self.version = version
        self.n_rows = n_rows
        self._aggregates = dict(aggregates)

    @classmethod
    def build(cls, table: Table, version: str) -> "MomentStore":
        """Cold build: one grouping pass per categorical attribute."""
        aggregates = {
            name: MaterializedAggregate.build(table, (name,))
            for name in table.schema.categorical_names
        }
        return cls(version, table.n_rows, aggregates)

    def moments(self, attribute: str) -> MaterializedAggregate:
        """The single-attribute moment aggregate for ``attribute``."""
        try:
            return self._aggregates[attribute]
        except KeyError:
            raise ReproError(f"no moments stored for attribute {attribute!r}") from None

    def advance(self, table: Table, delta_start: int, version: str) -> "MomentStore":
        """A new store for ``table``, patched from this one in O(delta).

        ``table`` must extend this store's rows by an appended block
        starting at ``delta_start`` (== ``self.n_rows``); every
        per-attribute aggregate is patched bit-identically to a cold
        rebuild.
        """
        if delta_start != self.n_rows:
            raise ReproError(
                f"moment store holds {self.n_rows} rows; cannot advance "
                f"from a delta at row {delta_start}"
            )
        aggregates: dict[str, MaterializedAggregate] = {}
        for name in table.schema.categorical_names:
            old = self._aggregates.get(name)
            aggregates[name] = (
                MaterializedAggregate.build(table, (name,)) if old is None
                else old.patched(table, delta_start)
            )
        return MomentStore(version, table.n_rows, aggregates)

    def seed_cache(self, cache, backend_name: str) -> int:
        """Insert every stored aggregate into an :class:`AggregateCache`.

        Returns the number of entries seeded.  Seeded with ``measures=None``
        (all measures materialized), so any measure subset is a hit.
        """
        seeded = 0
        for name, aggregate in self._aggregates.items():
            cache.seed(backend_name, (name,), None, aggregate)
            seeded += 1
        return seeded
