"""``InsightType.supports_batch`` against the scalar ``supports``, row for row.

The support stage decides whole stacks of equal-length series at once.
For every type the batched answer must equal the scalar predicate on each
row, in both orientations: the ``M`` and ``V`` overrides reduce rows of a
C-contiguous stack, which numpy sums pairwise exactly as the 1-D call does,
and the near-ties below flip if a single rounding step differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.insights import MEAN_GREATER, VARIANCE_GREATER
from repro.insights.types import MEDIAN_GREATER, InsightType


class RangeOnlySupports(InsightType):
    """A custom type that defines ``supports`` and nothing batched."""

    code = "R"
    label = "range greater"
    null_hypothesis = "range(X) = range(Y)"
    statistic_name = "|range_X - range_Y|"

    def test(self, batch, x, y):  # pragma: no cover - not exercised here
        raise NotImplementedError

    def parametric_test(self, x, y):  # pragma: no cover - not exercised here
        raise NotImplementedError

    def side_statistic(self, values):  # pragma: no cover - not exercised here
        return float(np.ptp(values)) if values.size else float("nan")

    def supports(self, x_series, y_series):
        x = x_series[~np.isnan(x_series)]
        y = y_series[~np.isnan(y_series)]
        if x.size == 0 or y.size == 0:
            return False
        return bool(np.ptp(x) > np.ptp(y))

    def hypothesis_predicate_sql(self, x_column, y_column):  # pragma: no cover
        return f"max({x_column}) - min({x_column}) > max({y_column}) - min({y_column})"


TYPES = [MEAN_GREATER, VARIANCE_GREATER, MEDIAN_GREATER, RangeOnlySupports()]
LENGTHS = list(range(1, 301))


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    return np.ascontiguousarray(np.array(rows, dtype=np.float64))


def assert_rowwise(itype: InsightType, x_rows: np.ndarray, y_rows: np.ndarray):
    for xs, ys in ((x_rows, y_rows), (y_rows, x_rows)):
        got = itype.supports_batch(xs, ys)
        assert got.dtype == bool and got.shape == (len(xs),)
        want = [itype.supports(x, y) for x, y in zip(xs, ys)]
        assert got.tolist() == want


def _rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Eight row pairs of length ``n`` mixing the hostile cases."""
    rng = np.random.default_rng([seed, n])
    base = rng.normal(0.0, 1.0, n)
    xs, ys = [], []
    # Same multiset, other order: the means and variances tie up to
    # rounding, so the answer depends on the exact summation order.
    xs.append(base * 1e3 + 0.1)
    ys.append(rng.permutation(base * 1e3 + 0.1))
    # An exact tie.
    xs.append(base.copy())
    ys.append(base.copy())
    # Constant rows, equal and one ulp apart.
    xs.append(np.full(n, 3.0))
    ys.append(np.full(n, np.nextafter(3.0, 4.0)))
    # Near +1e8 and -1e8 with tiny spreads.
    xs.append(1e8 + rng.normal(0.0, 1e-3, n))
    ys.append(1e8 + rng.normal(0.0, 1e-3, n))
    xs.append(-1e8 + rng.normal(0.0, 5.0, n))
    ys.append(-1e8 + rng.normal(0.0, 5.0, n))
    # Plain draws with a planted difference.
    xs.append(rng.normal(1.0, 2.0, n))
    ys.append(rng.normal(0.0, 1.0, n))
    # NaNs on one side, and on both.
    with_nan = rng.normal(0.0, 1.0, n)
    with_nan[:: max(1, n // 3)] = np.nan
    xs.append(with_nan)
    ys.append(rng.normal(0.0, 1.0, n))
    all_nan = np.full(n, np.nan)
    xs.append(all_nan)
    ys.append(rng.normal(0.0, 1.0, n))
    return _stack(xs), _stack(ys)


@pytest.mark.parametrize("itype", TYPES, ids=lambda t: t.code)
def test_batch_equals_scalar_for_every_length(itype):
    for n in LENGTHS:
        x_rows, y_rows = _rows(n, seed=n % 7)
        assert_rowwise(itype, x_rows, y_rows)


@pytest.mark.parametrize("itype", [MEAN_GREATER, VARIANCE_GREATER], ids=lambda t: t.code)
def test_row_reduction_is_bit_identical_to_the_1d_call(itype):
    # The override's premise, checked directly: each row of the stacked
    # reduction has the bits of the 1-D reduction of that row, across
    # numpy's pairwise-sum block sizes (8 and 128 elements).
    reduce_rows = {
        "M": lambda rows: np.mean(rows, axis=1),
        "V": lambda rows: np.var(rows, axis=1, ddof=1),
    }[itype.code]
    reduce_one = {
        "M": np.mean,
        "V": lambda row: np.var(row, ddof=1),
    }[itype.code]
    rng = np.random.default_rng(11)
    for n in (2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300):
        rows = _stack([rng.normal(1e8, 1e3, n) for _ in range(16)])
        stacked = reduce_rows(rows)
        for i, row in enumerate(rows):
            assert stacked[i].tobytes() == np.float64(reduce_one(row.copy())).tobytes()


@pytest.mark.parametrize("itype", TYPES, ids=lambda t: t.code)
def test_many_rows_and_degenerate_shapes(itype):
    rng = np.random.default_rng(5)
    x_rows = _stack([rng.normal(0.0, 1.0, 40) for _ in range(500)])
    y_rows = _stack([rng.normal(0.0, 1.0, 40) for _ in range(500)])
    assert_rowwise(itype, x_rows, y_rows)
    single = _stack([[2.0]]), _stack([[1.0]])
    assert_rowwise(itype, *single)
    empty = np.empty((0, 5)), np.empty((0, 5))
    assert itype.supports_batch(*empty).shape == (0,)
