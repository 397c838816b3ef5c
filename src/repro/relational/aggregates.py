"""Aggregate functions and grouped (vectorized) implementations.

The engine supports the SQL aggregates the paper's comparison queries use
(``sum``, ``avg``, ``min``, ``max``, ``count``) plus ``var``/``stddev``
(sample statistics, matching the variance-greater insight type).

Two evaluation styles are provided:

* :func:`aggregate_all` — aggregate a whole array (no grouping);
* :class:`GroupedSummary` — additive per-group moments given dense group
  ids, built with ``bincount`` / ``ufunc.at`` so group-by cost is linear in
  the input; :meth:`GroupedSummary.finalize` derives each aggregate.

NULLs (NaN) are ignored, as in SQL; a group with no non-null value yields
NaN (``count`` yields 0).
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError

#: Names of all supported aggregate functions, lower-case.
AGGREGATE_NAMES: tuple[str, ...] = ("count", "sum", "avg", "min", "max", "var", "stddev")

#: The aggregates used by default for comparison queries (paper experiments
#: use sum and avg; the full set is available through configuration).
DEFAULT_COMPARISON_AGGREGATES: tuple[str, ...] = ("sum", "avg")


def is_aggregate(name: str) -> bool:
    """True if ``name`` (case-insensitive) is a supported aggregate."""
    return name.lower() in AGGREGATE_NAMES


def _masked(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values)]


def aggregate_all(name: str, values: np.ndarray) -> float:
    """Aggregate ``values`` (1-D float array) with aggregate ``name``.

    NaNs are skipped.  Empty input yields NaN (0 for ``count``), mirroring
    SQL semantics where aggregates over empty groups are NULL but COUNT is 0.
    """
    name = name.lower()
    if not is_aggregate(name):
        raise QueryError(f"unknown aggregate function {name!r}")
    data = _masked(np.asarray(values, dtype=np.float64))
    if name == "count":
        return float(data.size)
    if data.size == 0:
        return float("nan")
    if name == "sum":
        return float(data.sum())
    if name == "avg":
        return float(data.mean())
    if name == "min":
        return float(data.min())
    if name == "max":
        return float(data.max())
    if name == "var":
        return float(data.var(ddof=1)) if data.size > 1 else float("nan")
    if name == "stddev":
        return float(data.std(ddof=1)) if data.size > 1 else float("nan")
    raise AssertionError(name)


class GroupedSummary:
    """Additive per-group summary from which every aggregate derives.

    Stores, per group: non-null count, sum, sum of squares, min, and max.
    The summary is *additive*: summaries at a fine group-by granularity can
    be rolled up to any coarser granularity without revisiting base data.
    Algorithm 2's partial-aggregate cache (Section 5.2.2) relies on this to
    answer all 2-attribute group-bys from one covering group-by set.
    """

    __slots__ = ("count", "total", "total_sq", "minimum", "maximum")

    def __init__(
        self,
        count: np.ndarray,
        total: np.ndarray,
        total_sq: np.ndarray,
        minimum: np.ndarray,
        maximum: np.ndarray,
    ):
        self.count = count
        self.total = total
        self.total_sq = total_sq
        self.minimum = minimum
        self.maximum = maximum

    @property
    def n_groups(self) -> int:
        return int(self.count.size)

    @classmethod
    def from_values(cls, group_ids: np.ndarray, values: np.ndarray, n_groups: int) -> "GroupedSummary":
        """Summarize ``values`` per group (``group_ids`` dense in [0, n_groups))."""
        values = np.asarray(values, dtype=np.float64)
        valid = ~np.isnan(values)
        gid = group_ids[valid]
        vals = values[valid]
        count = np.bincount(gid, minlength=n_groups).astype(np.float64)
        total = np.bincount(gid, weights=vals, minlength=n_groups).astype(np.float64)
        total_sq = np.bincount(gid, weights=vals * vals, minlength=n_groups).astype(np.float64)
        minimum = np.full(n_groups, np.inf)
        maximum = np.full(n_groups, -np.inf)
        np.minimum.at(minimum, gid, vals)
        np.maximum.at(maximum, gid, vals)
        empty = count == 0
        minimum[empty] = np.nan
        maximum[empty] = np.nan
        return cls(count, total, total_sq, minimum, maximum)

    def rollup(self, coarse_ids: np.ndarray, n_groups: int) -> "GroupedSummary":
        """Re-aggregate this summary to a coarser grouping.

        ``coarse_ids[g]`` gives the coarse group of fine group ``g``.
        """
        count = np.bincount(coarse_ids, weights=self.count, minlength=n_groups)
        total = np.bincount(coarse_ids, weights=np.nan_to_num(self.total), minlength=n_groups)
        total_sq = np.bincount(coarse_ids, weights=np.nan_to_num(self.total_sq), minlength=n_groups)
        minimum = np.full(n_groups, np.inf)
        maximum = np.full(n_groups, -np.inf)
        nonempty = self.count > 0
        np.minimum.at(minimum, coarse_ids[nonempty], self.minimum[nonempty])
        np.maximum.at(maximum, coarse_ids[nonempty], self.maximum[nonempty])
        empty = count == 0
        minimum[empty] = np.nan
        maximum[empty] = np.nan
        return GroupedSummary(count, total, total_sq, minimum, maximum)

    def finalize(self, name: str) -> np.ndarray:
        """Per-group values of aggregate ``name`` derived from the summary."""
        name = name.lower()
        if name == "count":
            return self.count.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            if name == "sum":
                out = self.total.copy()
                out[self.count == 0] = np.nan
                return out
            if name == "avg":
                return np.where(self.count > 0, self.total / self.count, np.nan)
            if name == "min":
                return self.minimum.copy()
            if name == "max":
                return self.maximum.copy()
            if name in ("var", "stddev"):
                n = self.count
                mean_sq = np.where(n > 0, self.total_sq / n, np.nan)
                mean = np.where(n > 0, self.total / n, np.nan)
                # Sample variance with Bessel's correction; needs n >= 2.
                var = np.where(n > 1, (mean_sq - mean * mean) * n / (n - 1), np.nan)
                var = np.maximum(var, 0.0)  # guard tiny negative round-off
                return np.sqrt(var) if name == "stddev" else var
        raise QueryError(f"unknown aggregate function {name!r}")

