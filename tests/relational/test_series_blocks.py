"""The block-backed pair view against the per-label dictionary code it replaced.

``PairAggregate`` answers ``series``, ``aligned_series`` and θ from one
dense block per (grouping, selection, measure, agg).  ``ReferencePairView``
below is a verbatim copy of the dictionary-based ``series`` /
``aligned_series`` and of the old count-series θ; every answer must match
it bit for bit, in mapping content, group order and float bits.
"""

from __future__ import annotations

from itertools import permutations
from types import MappingProxyType

import numpy as np
import pytest

from repro.backend import SqliteBackend
from repro.errors import QueryError
from repro.queries import ComparisonQuery, evaluate_comparison_cached
from repro.relational import (
    MaterializedAggregate,
    PairAggregate,
    PartialAggregateCache,
    Schema,
    Table,
    categorical,
    measure,
)
from repro.relational.aggregates import AGGREGATE_NAMES, GroupedSummary
from repro.relational.columns import CategoricalColumn, MeasureColumn
from repro.stats import derive_rng


class ReferencePairView:
    """Verbatim copy of the dictionary-based pair view (oracle only)."""

    def __init__(self, aggregate, first, second):
        self.aggregate = aggregate

    def _axis(self, attribute):
        return self.aggregate.attributes.index(attribute)

    def series(self, group_attr, select_attr, label, measure, agg):
        select_axis = self._axis(select_attr)
        group_axis = self._axis(group_attr)
        categories = self.aggregate.categories[select_attr]
        try:
            code = categories.index(str(label))
        except ValueError:
            return {}
        mask = self.aggregate.keys[select_axis] == code
        group_codes = self.aggregate.keys[group_axis][mask]
        summary = self.aggregate.summaries.get(measure)
        if summary is None:
            raise QueryError(f"measure {measure!r} not materialized in this aggregate")
        selected = GroupedSummary(
            summary.count[mask],
            summary.total[mask],
            summary.total_sq[mask],
            summary.minimum[mask],
            summary.maximum[mask],
        )
        values = selected.finalize(agg)
        group_categories = self.aggregate.categories[group_attr]
        out = {}
        for gcode, value in zip(group_codes, values):
            label_g = group_categories[gcode] if gcode >= 0 else ""
            out[label_g] = float(value)
        return out

    def aligned_series(self, group_attr, select_attr, label_a, label_b, measure, agg):
        left = self.series(group_attr, select_attr, label_a, measure, agg)
        right = self.series(group_attr, select_attr, label_b, measure, agg)
        common = sorted(set(left) & set(right))
        return (
            common,
            np.array([left[g] for g in common], dtype=np.float64),
            np.array([right[g] for g in common], dtype=np.float64),
        )

    def selection_tuples(self, group_attr, select_attr, val, val_other, measure):
        total = 0
        for label in (val, val_other):
            counts = self.series(group_attr, select_attr, label, measure, "count")
            total += int(sum(counts.values()))
        return total


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_views_agree(aggregate: MaterializedAggregate, labels_extra=("nothere",)):
    """Every series, aligned series and θ of both orientations agree."""
    first, second = aggregate.attributes
    view = PairAggregate(aggregate, first, second)
    reference = ReferencePairView(aggregate, first, second)
    for group_attr, select_attr in ((first, second), (second, first)):
        labels = list(dict.fromkeys(aggregate.categories[select_attr] + labels_extra))
        for m in aggregate.summaries:
            for agg in AGGREGATE_NAMES:
                for label in labels:
                    got = view.series(group_attr, select_attr, label, m, agg)
                    want = reference.series(group_attr, select_attr, label, m, agg)
                    assert isinstance(got, MappingProxyType)
                    assert sorted(got) == sorted(want)
                    assert all(_bits(got[k]) == _bits(want[k]) for k in want)
                for label_a, label_b in permutations(labels, 2):
                    groups, x, y = view.aligned_series(
                        group_attr, select_attr, label_a, label_b, m, agg
                    )
                    ref_groups, ref_x, ref_y = reference.aligned_series(
                        group_attr, select_attr, label_a, label_b, m, agg
                    )
                    assert groups == ref_groups
                    assert x.dtype == ref_x.dtype and y.dtype == ref_y.dtype
                    assert x.tobytes() == ref_x.tobytes()
                    assert y.tobytes() == ref_y.tobytes()
                    query = ComparisonQuery(group_attr, select_attr, label_a, label_b, m, agg)
                    cache = PartialAggregateCache()
                    cache.add(aggregate)
                    result = evaluate_comparison_cached(cache, query)
                    assert result.groups == tuple(ref_groups)
                    assert result.tuples_aggregated == reference.selection_tuples(
                        group_attr, select_attr, label_a, label_b, m
                    )


def _table(columns: dict[str, tuple[list[int], tuple[str, ...]]], measures: dict[str, list[float]]):
    schema = Schema([categorical(n) for n in columns] + [measure(n) for n in measures])
    data = {n: CategoricalColumn(np.array(codes), cats) for n, (codes, cats) in columns.items()}
    data.update({n: MeasureColumn(np.array(v, dtype=np.float64)) for n, v in measures.items()})
    return Table(schema, data)


def test_unicode_labels_sort_differently_from_code_order():
    cats_a = ("Zürich", "東京", "alpha", "Ärhus", "Beta", "zeta", "Éire")
    cats_b = ("ß", "b", "Ä", "a")
    rng = derive_rng(3, "unicode-blocks")
    n = 160
    t = _table(
        {"a": (rng.integers(0, len(cats_a), n).tolist(), cats_a),
         "b": (rng.integers(0, len(cats_b), n).tolist(), cats_b)},
        {"m": rng.normal(5.0, 2.0, n).tolist()},
    )
    assert sorted(cats_a) != list(cats_a)
    assert_views_agree(MaterializedAggregate.build(t, ["a", "b"]))


def test_missing_code_next_to_a_literal_empty_category():
    # Code -1 (NULL) and the literal "" category both read as "": the view
    # keeps what the dictionary code kept, for the grouping and selection side.
    a_codes = [-1, 0, 1, 2, -1, 0, 1, 2, -1, 1, 2, 0]
    b_codes = [0, 0, 1, 1, 1, 2, 2, -1, -1, 0, 2, 1]
    t = _table(
        {"a": (a_codes, ("z", "", "a")), "b": (b_codes, ("", "y", "x"))},
        {"m": [1.0, 2.5, -3.0, 4.0, 7.5, 6.0, 0.5, 8.0, 9.0, -1.0, 2.0, 3.0],
         "n": [np.nan, 1.0, 1.0, 2.0, 3.0, np.nan, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0]},
    )
    assert_views_agree(MaterializedAggregate.build(t, ["a", "b"]), labels_extra=("nothere", ""))


def test_absent_selection_label_and_all_nan_group():
    # Group a1 has no non-NaN measure: it is present with NaN aggregates and
    # count 0, so it joins but adds nothing to θ.
    t = _table(
        {"a": ([0, 0, 1, 1, 2, 2, 0, 1], ("a0", "a1", "a2")),
         "b": ([0, 1, 0, 1, 0, 1, 1, 0], ("b0", "b1"))},
        {"m": [1.0, 2.0, np.nan, np.nan, 3.0, 5.0, 4.0, np.nan]},
    )
    aggregate = MaterializedAggregate.build(t, ["a", "b"])
    assert_views_agree(aggregate)
    view = PairAggregate(aggregate, "a", "b")
    groups, x, y = view.aligned_series("a", "b", "b0", "b1", "m", "avg")
    assert groups == ["a0", "a1", "a2"] and np.isnan(x[1]) and np.isnan(y[1])
    assert view.aligned_series("a", "b", "b0", "gone", "m", "avg")[0] == []
    assert view.comparison("a", "b", "gone", "also gone", "m", "avg")[3] == 0
    assert view.comparison("a", "b", "b0", "gone", "m", "avg")[3] == 2
    with pytest.raises(QueryError, match="not materialized"):
        view.aligned_series("a", "b", "b0", "gone", "missing", "avg")


@pytest.mark.parametrize("seed", [1, 2])
def test_random_rolled_up_and_sqlite_aggregates(seed):
    rng = derive_rng(seed, "random-blocks")
    n = 300
    cats = {"a": ("a2", "a0", "a1", "a3"), "b": ("b1", "b0", "b2"), "c": ("c0", "c1")}
    columns = {name: (rng.integers(-1, len(c), n).tolist(), c) for name, c in cats.items()}
    values = rng.normal(10.0, 3.0, n)
    values[rng.random(n) < 0.1] = np.nan
    t = _table(columns, {"m": values.tolist(), "k": rng.exponential(1e8, n).tolist()})
    full = MaterializedAggregate.build(t, ["a", "b", "c"])
    for pair in (["a", "b"], ["a", "c"], ["b", "c"]):
        assert_views_agree(full.rollup_to(pair))
    with SqliteBackend(t) as backend:
        assert_views_agree(backend.materialize_aggregate(["a", "b"]))


def test_blocks_and_views_are_memoized():
    t = _table(
        {"a": ([0, 1, 0, 1], ("a0", "a1")), "b": ([0, 0, 1, 1], ("b0", "b1"))},
        {"m": [1.0, 2.0, 3.0, 4.0]},
    )
    aggregate = MaterializedAggregate.build(t, ["a", "b"])
    cache = PartialAggregateCache()
    cache.add(aggregate)
    assert cache.pair("a", "b") is aggregate.pair_view("a", "b")
    view = cache.pair("a", "b")
    block = view.block("a", "b", "m", "avg")
    assert view.block("a", "b", "m", "avg") is block
    assert view.block("a", "b", "m", "sum").present is block.present
    assert block.labels == ("a0", "a1")
    assert block.counts.tolist() == [2.0, 2.0]
