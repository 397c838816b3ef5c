"""Unit tests for repro.insights.types."""

import numpy as np
import pytest

from repro.errors import InsightError
from repro.insights import (
    DEFAULT_INSIGHT_TYPES,
    MEAN_GREATER,
    MEDIAN_GREATER,
    VARIANCE_GREATER,
    insight_type,
    register_insight_type,
    registered_insight_types,
    resolve_insight_types,
)
from repro.stats import SharedPermutations, derive_rng


class TestRegistry:
    def test_lookup_by_code(self):
        assert insight_type("M") is MEAN_GREATER
        assert insight_type("V") is VARIANCE_GREATER
        assert insight_type("D") is MEDIAN_GREATER

    def test_unknown_code(self):
        with pytest.raises(InsightError, match="unknown insight type"):
            insight_type("Z")

    def test_defaults_are_paper_types(self):
        assert tuple(t.code for t in DEFAULT_INSIGHT_TYPES) == ("M", "V")

    def test_resolve_none_gives_defaults(self):
        assert resolve_insight_types(None) == DEFAULT_INSIGHT_TYPES

    def test_resolve_mixes_codes_and_instances(self):
        out = resolve_insight_types(["M", VARIANCE_GREATER])
        assert out == (MEAN_GREATER, VARIANCE_GREATER)

    def test_resolve_empty_rejected(self):
        with pytest.raises(InsightError):
            resolve_insight_types([])

    def test_register_duplicate_rejected(self):
        with pytest.raises(InsightError, match="already registered"):
            register_insight_type(MEAN_GREATER)

    def test_registered_contains_extension(self):
        codes = {t.code for t in registered_insight_types()}
        assert {"M", "V", "D"} <= codes


class TestMeanGreater:
    def test_observed_statistic_sign(self):
        assert MEAN_GREATER.observed_statistic(np.array([4.0]), np.array([1.0])) == 3.0

    def test_supports(self):
        assert MEAN_GREATER.supports(np.array([5.0, 5.0]), np.array([1.0, 1.0]))
        assert not MEAN_GREATER.supports(np.array([1.0]), np.array([5.0]))

    def test_supports_empty_false(self):
        assert not MEAN_GREATER.supports(np.array([]), np.array([1.0]))
        assert not MEAN_GREATER.supports(np.array([np.nan]), np.array([1.0]))

    def test_sql_predicate(self):
        assert MEAN_GREATER.hypothesis_predicate_sql("a", "b") == "avg(a) > avg(b)"

    def test_permutation_test_wired(self):
        rng = derive_rng(1, "t")
        batch = SharedPermutations(30, 30, 100, rng)
        x = rng.normal(4, 1, 30)
        y = rng.normal(0, 1, 30)
        assert MEAN_GREATER.test(batch, x, y).p_value < 0.05

    def test_parametric_test_wired(self):
        rng = derive_rng(2, "t")
        x = rng.normal(4, 1, 30)
        y = rng.normal(0, 1, 30)
        assert MEAN_GREATER.parametric_test(x, y).p_value < 0.01


class TestVarianceGreater:
    def test_supports_requires_two_points(self):
        assert not VARIANCE_GREATER.supports(np.array([1.0]), np.array([1.0, 5.0]))

    def test_supports(self):
        wide = np.array([0.0, 10.0, 20.0])
        narrow = np.array([5.0, 5.1, 5.2])
        assert VARIANCE_GREATER.supports(wide, narrow)
        assert not VARIANCE_GREATER.supports(narrow, wide)

    def test_sql_predicate(self):
        assert VARIANCE_GREATER.hypothesis_predicate_sql("x", "y") == "var(x) > var(y)"

    def test_observed_statistic_nan_when_undefined(self):
        assert np.isnan(VARIANCE_GREATER.observed_statistic(np.array([1.0]), np.array([1.0, 2.0])))


class TestMedianGreaterExtension:
    def test_supports(self):
        assert MEDIAN_GREATER.supports(np.array([1.0, 9.0, 9.0]), np.array([1.0, 1.0, 9.0]))

    def test_permutation_test(self):
        rng = derive_rng(3, "t")
        x = rng.normal(5, 1, 40)
        y = rng.normal(0, 1, 40)
        batch = SharedPermutations(40, 40, 100, rng)
        assert MEDIAN_GREATER.test(batch, x, y).p_value < 0.05

    def test_not_in_defaults(self):
        assert MEDIAN_GREATER not in DEFAULT_INSIGHT_TYPES

    def test_tie_slack_scales_with_magnitude(self):
        """The median test shares ``_one_sided``'s relative tie slack: at
        1e6-scale measures an absolute 1e-12 epsilon underflows the
        statistic's ulp and would stop absorbing tie noise."""
        rng = derive_rng(11, "median-ties")
        x = rng.normal(2.0e6, 1.0e5, 30)
        y = np.array([1.0e6])
        batch = SharedPermutations(30, 1, 150, rng)
        result = MEDIAN_GREATER.test(batch, x, y)
        pooled = np.concatenate([x, y])
        diffs = np.median(pooled[batch.x_indices], axis=1) - np.median(
            pooled[batch.complement_indices()], axis=1
        )
        slack = 1e-12 * max(1.0, abs(result.statistic))
        extreme = int(np.count_nonzero(diffs >= result.statistic - slack))
        assert result.p_value == (1.0 + extreme) / (1.0 + diffs.size)
        # n_y == 1 keeps many permutations identical to the observed split;
        # every one of those exact ties must count as extreme.
        assert extreme > 0


def _parent_observed(code, x, y):
    """The per-type observed statistics ``side_statistic`` replaced, verbatim."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x, y = x[~np.isnan(x)], y[~np.isnan(y)]
    if code == "V":
        if x.size < 2 or y.size < 2:
            return float("nan")
        return float(np.var(x, ddof=1) - np.var(y, ddof=1))
    if x.size == 0 or y.size == 0:
        return float("nan")
    if code == "M":
        return float(np.mean(x) - np.mean(y))
    return float(np.median(x) - np.median(y))


def _side_cases():
    rng = derive_rng(21, "side-statistic")
    big = 1e8 + rng.normal(0, 1, 9)
    return {
        "singletons": (np.array([3.5]), np.array([1.25])),
        "two-rows": (np.array([1.0, 4.0]), np.array([2.0, 2.5])),
        "singleton-vs-two": (np.array([7.0]), np.array([1.0, 2.0])),
        "constant": (np.full(5, 2.2), np.full(3, 2.2)),
        "exact-tie": (np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])),
        "near-1e8": (big[:5], big[5:]),
        "1e8-vs-unit": (big, rng.normal(0, 1, 4)),
        "random": (rng.normal(3, 2, 31), rng.exponential(2, 17)),
        "with-nan": (np.array([1.0, np.nan, 5.0]), np.array([np.nan, 2.0, 2.5])),
        "empty": (np.array([]), np.array([1.0, 2.0])),
    }


class TestSideStatistic:
    """``side_statistic(X) - side_statistic(Y)`` is the observed statistic
    each type computed itself before the hook existed, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_side_cases()))
    @pytest.mark.parametrize("itype", [MEAN_GREATER, VARIANCE_GREATER, MEDIAN_GREATER])
    def test_difference_matches_the_per_type_statistic(self, itype, case):
        x, y = _side_cases()[case]
        want = _parent_observed(itype.code, x, y)
        for a, b, expected in ((x, y, want), (y, x, _parent_observed(itype.code, y, x))):
            got = itype.observed_statistic(a, b)
            assert type(got) is float
            assert np.isnan(got) if np.isnan(expected) else got == expected
            clean_a, clean_b = a[~np.isnan(a)], b[~np.isnan(b)]
            direct = itype.side_statistic(clean_a) - itype.side_statistic(clean_b)
            assert np.isnan(direct) if np.isnan(expected) else direct == expected
        if not np.isnan(want):
            # The runner orients by flipping the operands of one subtraction.
            sx = itype.side_statistic(x[~np.isnan(x)])
            sy = itype.side_statistic(y[~np.isnan(y)])
            assert sy - sx == _parent_observed(itype.code, y, x)

    def test_undefined_sides_are_nan(self):
        assert np.isnan(MEAN_GREATER.side_statistic(np.array([])))
        assert np.isnan(MEDIAN_GREATER.side_statistic(np.array([])))
        assert np.isnan(VARIANCE_GREATER.side_statistic(np.array([4.0])))
        assert VARIANCE_GREATER.side_statistic(np.array([1.0, 3.0])) == 2.0
