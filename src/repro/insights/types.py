"""Insight types and their testing/supporting semantics.

Definition 3.4 of the paper makes an insight type "a name giving the
semantics of an insight"; the paper instantiates two — *mean greater*
(``M``) and *variance greater* (``V``) — and explicitly leaves the
framework open to more (Section 7 lists the three ingredients: a SQL
hypothesis predicate, a statistical test, and the measure adaptations).

:class:`InsightType` bundles exactly those ingredients:

* :meth:`side_statistic` — the statistic of one side; the observed test
  statistic is its difference between the two sides (Table 1);
* :meth:`test` — the one-sided permutation test on raw data;
* :meth:`supports` — the predicate ``p`` evaluated on the two aggregated
  series of a comparison-query result (Definition 3.8), and
  :meth:`supports_batch` — the same predicate over stacks of such series;
* :meth:`hypothesis_predicate_sql` — the SQL rendering of ``p`` used in
  hypothesis queries (Figure 3).

A registry maps the one-letter codes to instances.  ``MEDIAN_GREATER`` is
provided as a worked example of the paper's extension path and is *not*
enabled by default.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from repro.errors import InsightError
from repro.stats.parametric import f_variance_greater, welch_mean_greater
from repro.stats.permutation import (
    SharedPermutations,
    TestResult,
    _one_sided,
    mean_stat_from_moments,
    variance_stat_from_moments,
)


class InsightType(abc.ABC):
    """Semantics of one insight family (test + support predicate + SQL)."""

    #: Short registry code, e.g. ``"M"``.
    code: str
    #: Human-readable label used in hypothesis queries, e.g. ``"mean greater"``.
    label: str
    #: Null hypothesis, for documentation / Table 1 rendering.
    null_hypothesis: str
    #: Test statistic description, for documentation / Table 1 rendering.
    statistic_name: str
    #: Highest pooled-moment order the batched kernel must supply for this
    #: type (1 = first moment, 2 = first + second).  0 opts the type out of
    #: mask-GEMM batching; the kernel then falls back to :meth:`test`.
    moment_order: int = 0

    def statistic_from_moments(
        self,
        x_sums: tuple[np.ndarray, ...],
        totals: tuple[float, ...],
        n_x: int,
        n_y: int,
    ) -> np.ndarray:
        """Per-permutation statistics from X-side pooled-moment sums.

        ``x_sums[k]`` holds ``(T, P)`` X-side sums of the pooled values
        raised to the power ``k + 1``, one row per test and one column per
        permutation; ``totals[k]`` the matching ``(T, 1)`` pooled totals.
        Only called when ``moment_order > 0``; must evaluate the same
        floating-point expression, element for element, as :meth:`test` so
        the batched kernel and the per-test path agree exactly.
        """
        raise NotImplementedError(
            f"insight type {self.code!r} declares moment_order="
            f"{self.moment_order} but no statistic_from_moments"
        )

    @abc.abstractmethod
    def test(self, batch: SharedPermutations, x: np.ndarray, y: np.ndarray) -> TestResult:
        """One-sided permutation test that X dominates Y for this type."""

    @abc.abstractmethod
    def parametric_test(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        """Parametric counterpart (used by the ablation engine)."""

    @abc.abstractmethod
    def side_statistic(self, values: np.ndarray) -> float:
        """Statistic of one NaN-free side; NaN where it is undefined."""

    def observed_statistic(self, x: np.ndarray, y: np.ndarray) -> float:
        """Signed statistic on raw data; > 0 means X dominates Y.

        Always ``side_statistic(X) - side_statistic(Y)``: the stats runner
        computes each side once per value and measure and subtracts.
        """
        return self.side_statistic(_finite(x)) - self.side_statistic(_finite(y))

    @abc.abstractmethod
    def supports(self, x_series: np.ndarray, y_series: np.ndarray) -> bool:
        """Predicate ``p`` over the aggregated series of a comparison query."""

    def supports_batch(self, x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
        """:meth:`supports` on each row pair of two ``(k, n)`` stacks.

        Returns ``k`` booleans.  The default calls :meth:`supports` once
        per row; an override must return the same answer for every row.
        """
        return np.fromiter(
            (self.supports(x, y) for x, y in zip(x_rows, y_rows)),
            dtype=bool,
            count=len(x_rows),
        )

    @abc.abstractmethod
    def hypothesis_predicate_sql(self, x_column: str, y_column: str) -> str:
        """SQL text of ``p`` for the HAVING clause of a hypothesis query."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(code={self.code!r})"


def _finite(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return values[~np.isnan(values)]


def _compare_rows(itype, statistic, x_rows, y_rows, min_size: int) -> np.ndarray:
    """``statistic(X) > statistic(Y)`` per row, as ``itype.supports`` decides it.

    ``statistic`` reduces a C-contiguous stack along its rows; numpy then
    sums each row pairwise exactly as the 1-D call does, so every row's
    answer is bit-identical to the scalar predicate.  Rows holding a NaN
    shrink to different lengths once NaNs are dropped, so they go through
    the scalar predicate.
    """
    x_rows = np.ascontiguousarray(x_rows, dtype=np.float64)
    y_rows = np.ascontiguousarray(y_rows, dtype=np.float64)
    if x_rows.shape[1] < min_size:
        return np.zeros(len(x_rows), dtype=bool)
    out = statistic(x_rows) > statistic(y_rows)
    ragged = np.isnan(x_rows).any(axis=1) | np.isnan(y_rows).any(axis=1)
    for i in np.flatnonzero(ragged):
        out[i] = itype.supports(x_rows[i], y_rows[i])
    return out


class MeanGreater(InsightType):
    """Type ``M``: ``avg(val) > avg(val')`` (Definition 3.4)."""

    code = "M"
    label = "mean greater"
    null_hypothesis = "E[X] = E[Y]"
    statistic_name = "|mu_X - mu_Y|"
    moment_order = 1

    def test(self, batch: SharedPermutations, x: np.ndarray, y: np.ndarray) -> TestResult:
        return batch.mean_greater(x, y)

    def statistic_from_moments(self, x_sums, totals, n_x, n_y):
        return mean_stat_from_moments(x_sums[0], totals[0], n_x, n_y)

    def parametric_test(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        return welch_mean_greater(x, y)

    def side_statistic(self, values: np.ndarray) -> float:
        return float(np.mean(values)) if values.size else float("nan")

    def supports(self, x_series: np.ndarray, y_series: np.ndarray) -> bool:
        x, y = _finite(x_series), _finite(y_series)
        if x.size == 0 or y.size == 0:
            return False
        return bool(np.mean(x) > np.mean(y))

    def supports_batch(self, x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
        return _compare_rows(self, lambda rows: np.mean(rows, axis=1), x_rows, y_rows, 1)

    def hypothesis_predicate_sql(self, x_column: str, y_column: str) -> str:
        return f"avg({x_column}) > avg({y_column})"


class VarianceGreater(InsightType):
    """Type ``V``: ``variance(val) > variance(val')`` (Definition 3.4)."""

    code = "V"
    label = "variance greater"
    null_hypothesis = "var(X) = var(Y)"
    statistic_name = "|sigma2_X - sigma2_Y|"
    moment_order = 2

    def test(self, batch: SharedPermutations, x: np.ndarray, y: np.ndarray) -> TestResult:
        return batch.variance_greater(x, y)

    def statistic_from_moments(self, x_sums, totals, n_x, n_y):
        return variance_stat_from_moments(
            x_sums[0], x_sums[1], totals[0], totals[1], n_x, n_y
        )

    def parametric_test(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        return f_variance_greater(x, y)

    def side_statistic(self, values: np.ndarray) -> float:
        return float(np.var(values, ddof=1)) if values.size >= 2 else float("nan")

    def supports(self, x_series: np.ndarray, y_series: np.ndarray) -> bool:
        x, y = _finite(x_series), _finite(y_series)
        if x.size < 2 or y.size < 2:
            return False
        return bool(np.var(x, ddof=1) > np.var(y, ddof=1))

    def supports_batch(self, x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
        return _compare_rows(
            self, lambda rows: np.var(rows, axis=1, ddof=1), x_rows, y_rows, 2
        )

    def hypothesis_predicate_sql(self, x_column: str, y_column: str) -> str:
        return f"var({x_column}) > var({y_column})"


class MedianGreater(InsightType):
    """Extension type ``D``: ``median(val) > median(val')``.

    Not part of the paper's evaluation; included as the worked example of
    the extension recipe from the paper's conclusion (new predicate, new
    permutation statistic, same interestingness machinery).  Enable by
    passing it in ``insight_types`` explicitly.
    """

    code = "D"
    label = "median greater"
    null_hypothesis = "median(X) = median(Y)"
    statistic_name = "|med_X - med_Y|"

    def test(self, batch: SharedPermutations, x: np.ndarray, y: np.ndarray) -> TestResult:
        x, y = _finite(x), _finite(y)
        observed = self.side_statistic(x) - self.side_statistic(y)
        pooled = np.concatenate([x, y])
        # The median is order-insensitive, so the (sorted) complement of the
        # X side stands in for the dropped y_indices array.
        perm_x = np.median(pooled[batch.x_indices], axis=1)
        perm_y = np.median(pooled[batch.complement_indices()], axis=1)
        # Shared extreme-counting helper: its tie slack scales with the
        # statistic, so large-magnitude measures tie-count correctly too.
        return _one_sided(observed, perm_x - perm_y)

    def parametric_test(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        # Mood's median test has no directional scipy form; use Welch as a
        # pragmatic surrogate for the ablation engine.
        return welch_mean_greater(x, y)

    def side_statistic(self, values: np.ndarray) -> float:
        return float(np.median(values)) if values.size else float("nan")

    def supports(self, x_series: np.ndarray, y_series: np.ndarray) -> bool:
        x, y = _finite(x_series), _finite(y_series)
        if x.size == 0 or y.size == 0:
            return False
        return bool(np.median(x) > np.median(y))

    def hypothesis_predicate_sql(self, x_column: str, y_column: str) -> str:
        # SQL has no standard median aggregate, so this text is informative
        # only: the support check runs in numpy (:meth:`supports`).
        return f"median({x_column}) > median({y_column})"


MEAN_GREATER = MeanGreater()
VARIANCE_GREATER = VarianceGreater()
MEDIAN_GREATER = MedianGreater()

#: The paper's two insight types, in evaluation order.
DEFAULT_INSIGHT_TYPES: tuple[InsightType, ...] = (MEAN_GREATER, VARIANCE_GREATER)

_REGISTRY: dict[str, InsightType] = {
    MEAN_GREATER.code: MEAN_GREATER,
    VARIANCE_GREATER.code: VARIANCE_GREATER,
    MEDIAN_GREATER.code: MEDIAN_GREATER,
}


def register_insight_type(insight_type: InsightType, replace: bool = False) -> None:
    """Add a custom insight type to the registry."""
    if insight_type.code in _REGISTRY and not replace:
        raise InsightError(f"insight type code {insight_type.code!r} already registered")
    _REGISTRY[insight_type.code] = insight_type


def insight_type(code: str) -> InsightType:
    """Look up a registered insight type by code."""
    found = _REGISTRY.get(code)
    if found is None:
        raise InsightError(f"unknown insight type {code!r}; known: {sorted(_REGISTRY)}")
    return found


def registered_insight_types() -> tuple[InsightType, ...]:
    return tuple(_REGISTRY.values())


def resolve_insight_types(types: Iterable[InsightType | str] | None) -> tuple[InsightType, ...]:
    """Normalize a user-supplied list of types/codes (None -> paper default)."""
    if types is None:
        return DEFAULT_INSIGHT_TYPES
    resolved = []
    for t in types:
        resolved.append(insight_type(t) if isinstance(t, str) else t)
    if not resolved:
        raise InsightError("at least one insight type is required")
    return tuple(resolved)
