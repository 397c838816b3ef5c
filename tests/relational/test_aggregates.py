"""Unit + property tests for repro.relational.aggregates."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.relational.aggregates import (
    AGGREGATE_NAMES,
    GroupedSummary,
    aggregate_all,
    is_aggregate,
)


class TestAggregateAll:
    def test_known_names(self):
        for name in AGGREGATE_NAMES:
            assert is_aggregate(name)
            assert is_aggregate(name.upper())
        assert not is_aggregate("median_absolute_deviation")

    def test_unknown_raises(self):
        with pytest.raises(QueryError, match="unknown aggregate"):
            aggregate_all("frobnicate", np.array([1.0]))

    def test_basic_values(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        assert aggregate_all("sum", data) == 10.0
        assert aggregate_all("avg", data) == 2.5
        assert aggregate_all("min", data) == 1.0
        assert aggregate_all("max", data) == 4.0
        assert aggregate_all("count", data) == 4.0
        assert aggregate_all("var", data) == pytest.approx(np.var(data, ddof=1))
        assert aggregate_all("stddev", data) == pytest.approx(np.std(data, ddof=1))

    def test_nan_skipped(self):
        data = np.array([1.0, np.nan, 3.0])
        assert aggregate_all("sum", data) == 4.0
        assert aggregate_all("count", data) == 2.0

    def test_empty_semantics(self):
        empty = np.array([])
        assert aggregate_all("count", empty) == 0.0
        assert np.isnan(aggregate_all("sum", empty))
        assert np.isnan(aggregate_all("avg", empty))

    def test_variance_needs_two_points(self):
        assert np.isnan(aggregate_all("var", np.array([5.0])))


class TestGroupedSummary:
    def test_matches_per_group_numpy(self, rng):
        values = rng.normal(0, 1, 300)
        gids = rng.integers(0, 7, 300)
        summary = GroupedSummary.from_values(gids, values, 7)
        for name in AGGREGATE_NAMES:
            out = summary.finalize(name)
            for g in range(7):
                expected = aggregate_all(name, values[gids == g])
                if np.isnan(expected):
                    assert np.isnan(out[g])
                else:
                    assert out[g] == pytest.approx(expected, rel=1e-9)

    def test_empty_group_yields_nan(self):
        summary = GroupedSummary.from_values(np.array([0, 0]), np.array([1.0, 2.0]), 3)
        assert np.isnan(summary.finalize("sum")[2])
        assert summary.finalize("count")[2] == 0.0

    def test_nan_values_ignored(self):
        summary = GroupedSummary.from_values(
            np.array([0, 0, 1]), np.array([1.0, np.nan, 5.0]), 2
        )
        assert summary.finalize("count").tolist() == [1.0, 1.0]
        assert summary.finalize("sum").tolist() == [1.0, 5.0]

    def test_rollup_equals_direct(self, rng):
        """Rolling a fine summary up must equal summarizing at coarse level."""
        values = rng.normal(5, 2, 500)
        fine = rng.integers(0, 12, 500)
        coarse_of_fine = np.array([g % 4 for g in range(12)])
        fine_summary = GroupedSummary.from_values(fine, values, 12)
        rolled = fine_summary.rollup(coarse_of_fine, 4)
        direct = GroupedSummary.from_values(coarse_of_fine[fine], values, 4)
        for name in AGGREGATE_NAMES:
            np.testing.assert_allclose(
                rolled.finalize(name), direct.finalize(name), rtol=1e-9, equal_nan=True
            )

    def test_rollup_empty_groups(self):
        # Fine group 0 (the only non-empty one) maps to coarse group 1, so
        # coarse group 0 must come out empty.
        summary = GroupedSummary.from_values(np.array([0]), np.array([2.0]), 2)
        rolled = summary.rollup(np.array([1, 0]), 2)
        assert rolled.finalize("count").tolist() == [0.0, 1.0]
        assert np.isnan(rolled.finalize("min")[0])
        assert rolled.finalize("sum")[1] == 2.0

    def test_variance_never_negative(self, rng):
        values = np.full(100, 3.14159)  # constant -> round-off risk
        gids = rng.integers(0, 5, 100)
        summary = GroupedSummary.from_values(gids, values, 5)
        var = summary.finalize("var")
        assert np.all(var[~np.isnan(var)] >= 0.0)

    def test_unknown_finalize_raises(self):
        summary = GroupedSummary.from_values(np.array([0]), np.array([1.0]), 1)
        with pytest.raises(QueryError):
            summary.finalize("nope")


class TestAggregateGrouped:
    def test_wrapper(self):
        summary = GroupedSummary.from_values(np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0]), 2)
        out = summary.finalize("sum")
        assert out.tolist() == [4.0, 2.0]

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
        st.integers(1, 5),
    )
    def test_sum_partition_property(self, values, n_groups):
        """Group sums must add up to the total sum (additivity)."""
        values = np.asarray(values)
        gids = np.arange(len(values)) % n_groups
        out = GroupedSummary.from_values(gids, values, n_groups).finalize("sum")
        total = np.nansum(out)
        assert total == pytest.approx(values.sum(), rel=1e-9, abs=1e-6)
