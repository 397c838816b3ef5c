"""Group-by lattice and in-memory partial aggregates (Algorithm 2 substrate).

Section 5.2.2 of the paper evaluates hypothesis queries "for free" from
in-memory partial aggregates: it materializes a few large group-by sets
chosen by weighted set cover, then answers every 2-attribute group-by by
rolling the materialized aggregates up.  This module provides:

* :class:`MaterializedAggregate` — a group-by result holding, per measure,
  an additive :class:`~repro.relational.aggregates.GroupedSummary` that can
  be rolled up to any coarser attribute subset;
* :class:`PairAggregate` — the 2-attribute view used to evaluate comparison
  and hypothesis queries without touching base data, through one dense
  :class:`SeriesBlock` per (grouping, selection, measure, agg);
* :class:`PartialAggregateCache` — lookup structure mapping an attribute
  pair to a covering materialized aggregate (with memoized roll-ups).
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import QueryError
from repro.relational.aggregates import GroupedSummary
from repro.relational.table import Table, group_codes_from_arrays


def powerset_group_by_sets(
    attributes: Sequence[str], min_size: int = 2, max_size: int | None = None
) -> list[frozenset[str]]:
    """All group-by sets of ``attributes`` with ``min_size`` to ``max_size`` members.

    This is the candidate collection ``G`` of Algorithm 2 (the powerset
    minus the 1-group-by sets).  ``max_size`` (inclusive, ``None`` = no cap)
    bounds the enumeration: the full powerset is exponential in attribute
    count, and sets wider than a few attributes are never chosen by the
    weighted cover anyway — their estimated size approaches the base table.
    """
    top = len(attributes) if max_size is None else min(max_size, len(attributes))
    sets: list[frozenset[str]] = []
    for size in range(min_size, top + 1):
        sets.extend(frozenset(c) for c in combinations(attributes, size))
    return sets


def pair_group_by_sets(attributes: Sequence[str]) -> list[frozenset[str]]:
    """The universe ``U`` of Algorithm 2: all 2-attribute group-by sets."""
    return [frozenset(pair) for pair in combinations(attributes, 2)]


class MaterializedAggregate:
    """A group-by result at some granularity, with additive summaries.

    Attributes
    ----------
    attributes:
        Grouping attributes, in a canonical (sorted) order.
    keys:
        One ``int64`` code array per attribute (length = number of groups);
        codes index the base table's category dictionaries.
    categories:
        The dictionary (tuple of labels) of each grouping attribute.
    summaries:
        Mapping measure name -> :class:`GroupedSummary` over the groups.
    """

    __slots__ = ("attributes", "keys", "categories", "summaries", "_pair_views")

    def __init__(
        self,
        attributes: tuple[str, ...],
        keys: tuple[np.ndarray, ...],
        categories: Mapping[str, tuple[str, ...]],
        summaries: Mapping[str, GroupedSummary],
    ):
        self.attributes = attributes
        self.keys = keys
        self.categories = dict(categories)
        self.summaries = dict(summaries)
        self._pair_views: dict[tuple[str, str], "PairAggregate"] = {}

    @property
    def n_groups(self) -> int:
        return 0 if not self.keys else int(self.keys[0].size)

    def actual_bytes(self) -> int:
        """Measured memory footprint of keys + summaries."""
        total = sum(int(k.nbytes) for k in self.keys)
        for summary in self.summaries.values():
            total += sum(
                int(getattr(summary, field).nbytes)
                for field in ("count", "total", "total_sq", "minimum", "maximum")
            )
        return total

    @classmethod
    def build(
        cls, table: Table, attributes: Iterable[str], measures: Sequence[str] | None = None
    ) -> "MaterializedAggregate":
        """Materialize ``GROUP BY attributes`` summaries from base data."""
        attrs = tuple(sorted(attributes))
        if measures is None:
            measures = table.schema.measure_names
        grouping = table.group_by_codes(attrs)
        categories = {name: table.categorical_column(name).categories for name in attrs}
        summaries = {
            m: GroupedSummary.from_values(
                grouping.group_ids, table.measure_values(m), grouping.n_groups
            )
            for m in measures
        }
        return cls(attrs, grouping.key_codes, categories, summaries)

    @classmethod
    def build_many(
        cls,
        table: Table,
        requests: Sequence[tuple[tuple[str, ...], Sequence[str] | None]],
    ) -> list["MaterializedAggregate"]:
        """Fused batch build: one pass over base columns serves every set.

        The multi-query-optimized counterpart of :meth:`build` — the shifted
        categorical code arrays (``codes + 1``) and measure value arrays are
        fetched from the table *once* and shared across all requested
        group-by sets, so the per-set cost is only the mixed-radix combine
        and the bincounts.  Each set still runs through the identical numpy
        op sequence as :meth:`build`
        (:func:`~repro.relational.table.group_codes_from_arrays` +
        :meth:`GroupedSummary.from_values`), so results are bit-identical to
        per-set builds — the exact-parity obligation of the batched backend
        contract.
        """
        shifted_codes: dict[str, "np.ndarray"] = {}
        radices: dict[str, int] = {}
        categories: dict[str, tuple[str, ...]] = {}
        measure_arrays: dict[str, "np.ndarray"] = {}
        out: list[MaterializedAggregate] = []
        for attributes, measures in requests:
            attrs = tuple(sorted(attributes))
            if measures is None:
                measures = table.schema.measure_names
            for name in attrs:
                if name not in shifted_codes:
                    col = table.categorical_column(name)
                    shifted_codes[name] = col.codes.astype(np.int64) + 1
                    radices[name] = len(col.categories) + 1
                    categories[name] = col.categories
            for m in measures:
                if m not in measure_arrays:
                    measure_arrays[m] = table.measure_values(m)
            if attrs:
                grouping = group_codes_from_arrays(
                    [shifted_codes[a] for a in attrs],
                    [radices[a] for a in attrs],
                    table.n_rows,
                )
            else:
                grouping = table.group_by_codes(attrs)
            summaries = {
                m: GroupedSummary.from_values(
                    grouping.group_ids, measure_arrays[m], grouping.n_groups
                )
                for m in measures
            }
            out.append(
                cls(
                    attrs,
                    grouping.key_codes,
                    {a: categories[a] for a in attrs},
                    summaries,
                )
            )
        return out

    def patched(self, table: Table, delta_start: int,
                stats_out: dict | None = None) -> "MaterializedAggregate":
        """This aggregate updated for an appended row block — in O(delta).

        ``table`` must extend the base relation this aggregate was built
        from by rows ``delta_start:`` (dictionary-extending append, see
        :meth:`Table.append_block`).  The result is *bit-identical* to
        ``build(table, self.attributes, measures)``: the delta rows are
        folded into the old per-group summaries with the same sequential
        accumulation ops (``np.add.at`` continues exactly where the cold
        ``np.bincount`` fold would be after the prefix rows), and the
        merged group keys are re-ranked through the same mixed-radix
        grouping, so group order matches a cold build's lexicographic
        order.

        ``stats_out``, when given, receives ``touched_groups`` (groups the
        delta block landed in) and ``total_groups`` — the partition-
        granularity evidence the cache-invalidation counters report.
        """
        measures = tuple(self.summaries)
        n_delta = table.n_rows - delta_start
        if n_delta < 0:
            raise QueryError(
                f"table of {table.n_rows} rows cannot have a delta at {delta_start}"
            )
        if n_delta == 0:
            if stats_out is not None:
                stats_out["touched_groups"] = 0
                stats_out["total_groups"] = self.n_groups
            return self
        if not self.attributes or self.n_groups == 0:
            # Global group, or an empty base: a cold build is already O(delta).
            built = MaterializedAggregate.build(table, self.attributes, measures)
            if stats_out is not None:
                stats_out["touched_groups"] = built.n_groups
                stats_out["total_groups"] = built.n_groups
            return built
        attrs = self.attributes
        shifted: list[np.ndarray] = []
        radices: list[int] = []
        for name in attrs:
            col = table.categorical_column(name)
            shifted.append(col.codes[delta_start:].astype(np.int64) + 1)
            radices.append(len(col.categories) + 1)
        delta_grouping = group_codes_from_arrays(shifted, radices, n_delta)
        # Rank the union of old and delta group keys with the same grouping
        # machinery a cold build uses: the dense ids come out in the cold
        # build's lexicographic key order, and the slot arrays say where
        # each old group and each delta group lands.
        n_old = self.n_groups
        merged = group_codes_from_arrays(
            [
                np.concatenate([self.keys[j] + 1, delta_grouping.key_codes[j] + 1])
                for j in range(len(attrs))
            ],
            radices,
            n_old + delta_grouping.n_groups,
        )
        old_slot = merged.group_ids[:n_old]
        delta_slot = merged.group_ids[n_old:]
        n_final = merged.n_groups
        row_slot = delta_slot[delta_grouping.group_ids]
        summaries: dict[str, GroupedSummary] = {}
        for m in measures:
            old = self.summaries[m]
            values = np.asarray(table.measure_values(m)[delta_start:], dtype=np.float64)
            valid = ~np.isnan(values)
            gid = row_slot[valid]
            vals = values[valid]
            count = np.zeros(n_final, dtype=np.float64)
            count[old_slot] = old.count
            count += np.bincount(gid, minlength=n_final).astype(np.float64)
            total = np.zeros(n_final, dtype=np.float64)
            total[old_slot] = old.total
            np.add.at(total, gid, vals)
            total_sq = np.zeros(n_final, dtype=np.float64)
            total_sq[old_slot] = old.total_sq
            np.add.at(total_sq, gid, vals * vals)
            minimum = np.full(n_final, np.inf)
            maximum = np.full(n_final, -np.inf)
            nonempty = old.count > 0
            minimum[old_slot[nonempty]] = old.minimum[nonempty]
            maximum[old_slot[nonempty]] = old.maximum[nonempty]
            np.minimum.at(minimum, gid, vals)
            np.maximum.at(maximum, gid, vals)
            empty = count == 0
            minimum[empty] = np.nan
            maximum[empty] = np.nan
            summaries[m] = GroupedSummary(count, total, total_sq, minimum, maximum)
        categories = {name: table.categorical_column(name).categories for name in attrs}
        if stats_out is not None:
            stats_out["touched_groups"] = int(delta_grouping.n_groups)
            stats_out["total_groups"] = int(n_final)
        return MaterializedAggregate(attrs, merged.key_codes, categories, summaries)

    def pair_view(self, first: str, second: str) -> "PairAggregate":
        """Memoized 2-attribute view over this (pair-granularity) aggregate.

        Aggregates served repeatedly from the cross-stage cache keep one
        :class:`PairAggregate` per orientation, so its per-series memo
        accumulates across evaluation and rendering instead of being thrown
        away with each throwaway view.  Benign under concurrency: a lost
        race costs one duplicate view, never a wrong result.
        """
        key = (first, second)
        view = self._pair_views.get(key)
        if view is None:
            view = PairAggregate(self, first, second)
            self._pair_views[key] = view
        return view

    def rollup_to(self, attributes: Iterable[str]) -> "MaterializedAggregate":
        """Re-aggregate to a coarser granularity (subset of our attributes)."""
        target = tuple(sorted(attributes))
        if not set(target) <= set(self.attributes):
            raise QueryError(
                f"cannot roll up {self.attributes} to non-subset {target}"
            )
        if target == self.attributes:
            return self
        positions = [self.attributes.index(a) for a in target]
        # Mixed-radix combine of the retained key columns with iterative
        # compaction (same overflow-safe scheme as Table.group_by_codes).
        first_radix = len(self.categories[self.attributes[positions[0]]]) + 1
        combined = self.keys[positions[0]].astype(np.int64) + 1
        unique_combined = np.unique(combined)
        coarse_ids = np.searchsorted(unique_combined, combined).astype(np.int64)
        decode_stack: list[tuple[np.ndarray, int]] = [(unique_combined, first_radix)]
        for pos in positions[1:]:
            radix = len(self.categories[self.attributes[pos]]) + 1
            combined = coarse_ids * radix + (self.keys[pos].astype(np.int64) + 1)
            unique_combined, coarse_ids = np.unique(combined, return_inverse=True)
            coarse_ids = coarse_ids.astype(np.int64)
            decode_stack.append((unique_combined, radix))
        n_coarse = int(unique_combined.size) if self.n_groups else 0
        new_keys_rev: list[np.ndarray] = []
        current = decode_stack[-1][0]
        for level in range(len(decode_stack) - 1, 0, -1):
            _, radix = decode_stack[level]
            new_keys_rev.append((current % radix).astype(np.int64) - 1)
            current = decode_stack[level - 1][0][current // radix]
        new_keys_rev.append(current.astype(np.int64) - 1)
        new_keys = list(reversed(new_keys_rev))
        summaries = {m: s.rollup(coarse_ids, n_coarse) for m, s in self.summaries.items()}
        categories = {a: self.categories[a] for a in target}
        return MaterializedAggregate(target, tuple(new_keys), categories, summaries)


#: Shared read-only result for series of an absent selection label.
_EMPTY_SERIES: Mapping[str, float] = MappingProxyType({})

_NO_GROUPS = np.empty(0, dtype=np.float64)


class SeriesBlock:
    """One ``(grouping, selection, measure, agg)`` slice of a pair aggregate,
    laid out densely.

    Attributes
    ----------
    labels:
        The grouping attribute's labels in τ order (sorted strings; the
        missing code -1 reads as ``""``).
    values:
        ``(selection codes, labels)`` matrix of the aggregate; a cell is
        meaningful only where ``present`` is set.
    present:
        Whether the group exists under that selection value, i.e. whether
        the SQL result would have the row (its value may still be NaN).
        It depends on the orientation only, so its blocks share one mask.
    counts:
        Per selection code, the measure's non-NaN row count over all
        groups: θ of a comparison query is the sum over its two values.
    """

    __slots__ = ("labels", "values", "present", "counts")

    def __init__(self, labels, values, present, counts):
        self.labels = labels
        self.values = values
        self.present = present
        self.counts = counts


class PairAggregate:
    """2-attribute aggregate view used to evaluate comparison queries.

    For a comparison query ``(A, B, val, val', M, agg)`` the evaluator needs,
    for each value ``a`` of ``A``, the aggregate of ``M`` over rows with
    ``B = val`` (and likewise ``val'``).  Each ``(A, B, M, agg)`` is laid
    out once as a :class:`SeriesBlock`; :meth:`series` reads one row of it
    and :meth:`aligned_series` joins two rows on the grouping attribute as
    the comparison query's join does.
    """

    __slots__ = ("aggregate", "first", "second", "_series_cache", "_blocks",
                 "_layouts", "_codes")

    def __init__(self, aggregate: MaterializedAggregate, first: str, second: str):
        if set(aggregate.attributes) != {first, second}:
            raise QueryError(
                f"aggregate over {aggregate.attributes} is not the pair ({first}, {second})"
            )
        self.aggregate = aggregate
        self.first = first
        self.second = second
        self._series_cache: dict[tuple, Mapping[str, float]] = {}
        self._blocks: dict[tuple[str, str, str, str], SeriesBlock] = {}
        self._layouts: dict[tuple[str, str], tuple] = {}
        self._codes: dict[str, dict[str, int]] = {}

    def _axis(self, attribute: str) -> int:
        return self.aggregate.attributes.index(attribute)

    def _code(self, select_attr: str, label: str) -> int | None:
        """The selection label's dictionary code, or None when absent."""
        codes = self._codes.get(select_attr)
        if codes is None:
            codes = {}
            for code, name in enumerate(self.aggregate.categories[select_attr]):
                codes.setdefault(name, code)
            self._codes[select_attr] = codes
        return codes.get(label if type(label) is str else str(label))

    def _layout(self, group_attr: str, select_attr: str) -> tuple:
        """Where each aggregate group lands in a block of this orientation.

        Returns ``(labels, present, groups, cells, rows)``: the τ-ordered
        labels, the presence mask every block of this orientation shares,
        and for every group that a selection label can reach, its index in
        the aggregate, its flat cell in the block and its row.  Groups
        under the missing selection code are unreachable (no label
        selects code -1).  The missing grouping code and a literal ``""``
        category share the label ``""``, and so a cell; the later group in
        aggregate order keeps it.
        """
        key = (group_attr, select_attr)
        layout = self._layouts.get(key)
        if layout is not None:
            return layout
        aggregate = self.aggregate
        select_codes = aggregate.keys[self._axis(select_attr)]
        group_codes = aggregate.keys[self._axis(group_attr)]
        group_categories = aggregate.categories[group_attr]
        unique_codes = np.unique(group_codes)
        code_labels = [group_categories[c] if c >= 0 else "" for c in unique_codes]
        labels = tuple(sorted(set(code_labels)))
        column_of = {label: j for j, label in enumerate(labels)}
        columns = np.array([column_of[label] for label in code_labels], dtype=np.int64)
        groups = np.flatnonzero(select_codes >= 0)
        rows = select_codes[groups]
        cells = rows * len(labels) + columns[np.searchsorted(unique_codes, group_codes[groups])]
        # Keep the last group of each shared cell.
        _, last = np.unique(cells[::-1], return_index=True)
        keep = cells.size - 1 - last
        groups, rows, cells = groups[keep], rows[keep], cells[keep]
        present = np.zeros((len(aggregate.categories[select_attr]), len(labels)), dtype=bool)
        present.flat[cells] = True
        layout = (labels, present, groups, cells, rows)
        self._layouts[key] = layout
        return layout

    def block(self, group_attr: str, select_attr: str, measure: str, agg: str) -> SeriesBlock:
        """The memoized dense layout of ``agg(measure)`` per (selection, group)."""
        key = (group_attr, select_attr, measure, agg)
        block = self._blocks.get(key)
        if block is not None:
            return block
        summary = self.aggregate.summaries.get(measure)
        if summary is None:
            raise QueryError(f"measure {measure!r} not materialized in this aggregate")
        labels, present, groups, cells, rows = self._layout(group_attr, select_attr)
        values = np.full(present.shape, np.nan)
        values.flat[cells] = summary.finalize(agg)[groups]
        counts = np.bincount(rows, weights=summary.count[groups], minlength=len(present))
        block = SeriesBlock(labels, values, present, counts)
        self._blocks[key] = block
        return block

    def series(self, group_attr: str, select_attr: str, label: str, measure: str, agg: str) -> Mapping[str, float]:
        """Per-``group_attr``-value aggregate of ``measure`` where ``select_attr = label``.

        Returns a mapping group label -> aggregate value (in τ order);
        groups with no matching rows are absent (they would not appear in
        the SQL result).  Memoized per view.  The mapping is a read-only
        :class:`types.MappingProxyType` — the view (and thus the memo) is
        shared across pipeline stages through the cross-stage aggregate
        cache, so a mutation would corrupt every later consumer; the proxy
        makes the attempt raise instead.
        """
        memo_key = (group_attr, select_attr, label, measure, agg)
        cached = self._series_cache.get(memo_key)
        if cached is not None:
            return cached
        row = self._code(select_attr, label)
        if row is None:
            return _EMPTY_SERIES
        block = self.block(group_attr, select_attr, measure, agg)
        columns = block.present[row].nonzero()[0]
        frozen = MappingProxyType({
            block.labels[j]: value
            for j, value in zip(columns.tolist(), block.values[row, columns].tolist())
        })
        self._series_cache[memo_key] = frozen
        return frozen

    def aligned_series(
        self, group_attr: str, select_attr: str, label_a: str, label_b: str, measure: str, agg: str
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The comparison query's joined result: common groups + two columns.

        Mirrors Definition 3.1: an inner join on the grouping attribute, so
        only groups present under *both* selections appear; groups are
        returned sorted (the τ operator).
        """
        groups, x, y, _ = self.comparison(group_attr, select_attr, label_a, label_b, measure, agg)
        return list(groups), x, y

    def comparison(
        self, group_attr: str, select_attr: str, label_a: str, label_b: str, measure: str, agg: str
    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, int]:
        """:meth:`aligned_series` plus θ, the rows with a non-NaN ``measure``
        under either label, all read from one block."""
        row_a = self._code(select_attr, label_a)
        row_b = self._code(select_attr, label_b)
        if row_a is None and row_b is None:
            return (), _NO_GROUPS.copy(), _NO_GROUPS.copy(), 0
        block = self.block(group_attr, select_attr, measure, agg)
        if row_a is None or row_b is None:
            row = row_b if row_a is None else row_a
            return (), _NO_GROUPS.copy(), _NO_GROUPS.copy(), int(block.counts[row])
        present, values, labels = block.present, block.values, block.labels
        columns = (present[row_a] & present[row_b]).nonzero()[0]
        return (
            tuple([labels[j] for j in columns.tolist()]),
            values[row_a][columns],
            values[row_b][columns],
            int(block.counts[row_a]) + int(block.counts[row_b]),
        )


class PartialAggregateCache:
    """Maps attribute pairs to covering materialized aggregates.

    Built by Algorithm 2 from a set-cover solution: each chosen group-by set
    is materialized once; pair lookups roll up (memoized) from a covering
    set.  The cache reports its measured memory so the fallback strategy of
    Section 5.2.2 can be exercised under a byte budget.
    """

    def __init__(self) -> None:
        self._materialized: list[MaterializedAggregate] = []
        self._pair_cache: dict[frozenset[str], PairAggregate] = {}
        # Every attribute pair some aggregate covers.
        self._covered: set[frozenset[str]] = set()

    @property
    def materialized(self) -> tuple[MaterializedAggregate, ...]:
        return tuple(self._materialized)

    def add(self, aggregate: MaterializedAggregate) -> None:
        self._materialized.append(aggregate)
        self._covered.update(map(frozenset, combinations(aggregate.attributes, 2)))

    def total_bytes(self) -> int:
        return sum(m.actual_bytes() for m in self._materialized)

    def covers(self, first: str, second: str) -> bool:
        return frozenset((first, second)) in self._covered

    def pair(self, first: str, second: str) -> PairAggregate:
        """The 2-attribute view for ``{first, second}`` (memoized roll-up)."""
        key = frozenset((first, second))
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        cover = None
        for m in self._materialized:
            if key <= set(m.attributes):
                if cover is None or m.n_groups < cover.n_groups:
                    cover = m
        if cover is None:
            raise QueryError(f"no materialized aggregate covers pair ({first}, {second})")
        # An exact cover rolls up to itself, so a view (and its blocks)
        # lives as long as the aggregate in the table's aggregate cache.
        view = cover.rollup_to(key).pair_view(first, second)
        self._pair_cache[key] = view
        return view
