"""Permutation (resampling) tests for comparison insights.

The paper tests every insight with resampling rather than parametric tests
(Section 5.1.1), because resampling "does not assume the distributions of
the test statistics, nor does it impose samples to be large enough".  Two
test statistics are used (Table 1):

* mean-greater (type ``M``): observed ``mean(X) - mean(Y)`` against the
  null ``E[X] = E[Y]``;
* variance-greater (type ``V``): observed ``var(X) - var(Y)`` against the
  null ``var(X) = var(Y)``.

Both are evaluated one-sided (the alternative is "greater"), so the
p-value is the fraction of label permutations whose statistic is at least
the observed one.  :class:`SharedPermutations` implements the paper's key
optimization: the *same* permutations are reused for every measure (and
both insight types) of a given attribute-value pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import StatisticsError

logger = logging.getLogger(__name__)

#: Default number of label permutations per test.
DEFAULT_PERMUTATIONS = 200

#: Below this many permutations the add-one p-value estimator cannot fall
#: under the paper's 0.05 threshold reliably; the degradation ladder never
#: cuts past it.
MIN_USEFUL_PERMUTATIONS = 32


def reduced_permutations(n_permutations: int, factor: int = 4) -> int:
    """Cut a permutation count for deadline pressure, respecting the floor.

    Used by the resilient runtime's stats-stage degradation ladder: with
    ``(1 + #extreme) / (1 + n)`` p-values, fewer permutations coarsen the
    p-value resolution but keep the test valid, so cutting the count is a
    sound accuracy-for-time trade.
    """
    if factor < 1:
        raise StatisticsError("reduction factor must be at least 1")
    reduced = max(MIN_USEFUL_PERMUTATIONS, n_permutations // factor)
    reduced = min(reduced, n_permutations)
    if reduced != n_permutations:
        logger.debug("reduced permutation count available: %d -> %d",
                     n_permutations, reduced)
    return reduced


@dataclass(frozen=True, slots=True)
class TestResult:
    """Outcome of one hypothesis test.

    ``p_value`` uses the add-one (phipson-smyth) estimator
    ``(1 + #extreme) / (1 + #permutations)`` so it is never exactly zero.
    ``significance`` is the paper's ``sig(i) = 1 - p``.
    """

    statistic: float
    p_value: float

    @property
    def significance(self) -> float:
        return 1.0 - self.p_value


def _clean_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x = x[~np.isnan(x)]
    y = y[~np.isnan(y)]
    if x.size == 0 or y.size == 0:
        raise StatisticsError("permutation test requires non-empty samples on both sides")
    return x, y


def mean_difference(x: np.ndarray, y: np.ndarray) -> float:
    """Signed test statistic for mean-greater: ``mean(x) - mean(y)``."""
    return float(np.mean(x) - np.mean(y))


def variance_difference(x: np.ndarray, y: np.ndarray) -> float:
    """Signed test statistic for variance-greater: ``var(x) - var(y)``.

    Sample variance (ddof=1); a side with fewer than two observations has
    undefined variance and yields NaN, making the test inconclusive
    (p-value 1.0 downstream).
    """
    vx = float(np.var(x, ddof=1)) if x.size > 1 else float("nan")
    vy = float(np.var(y, ddof=1)) if y.size > 1 else float("nan")
    return vx - vy


def center_pooled(pooled: np.ndarray) -> np.ndarray:
    """The pooled sample shifted to zero mean, as both kernels require.

    Every moment-sum statistic in this module (mean difference, variance
    difference) is shift-invariant, so centering changes no result — but it
    is load-bearing for the variance path: the one-pass moment identity
    ``(sum(v^2) - sum(v)^2/n) / (n-1)`` cancels catastrophically when the
    mean magnitude dwarfs the variance (values ~1e8 with unit variance lose
    all significant digits).  On centered data ``sum(v) ~ 0`` and the
    identity is as stable as the two-pass formula.  Both kernels center the
    same array with the same expression, so parity is preserved bitwise at
    the input to the moment sums.
    """
    return pooled - pooled.mean()


def mean_stat_from_moments(
    x_sum: np.ndarray, total_sum: float, n_x: int, n_y: int
) -> np.ndarray:
    """Per-permutation mean-greater statistics from X-side first-moment sums.

    The Y side is never gathered: ``sum(Y) = total - sum(X)`` for every
    permutation of the pooled sample.  Shared by the per-test (gather-sum)
    path and the batched (mask-GEMM) kernel so both evaluate the exact same
    floating-point expression.  Sums must be taken over the *centered*
    pooled sample (:func:`center_pooled`); the statistic is shift-invariant
    so its value is unchanged.
    """
    return x_sum / n_x - (total_sum - x_sum) / n_y


def variance_stat_from_moments(
    x_sum: np.ndarray,
    x_sq_sum: np.ndarray,
    total_sum: float,
    total_sq_sum: float,
    n_x: int,
    n_y: int,
) -> np.ndarray:
    """Per-permutation variance-greater statistics from X-side moment sums.

    Sample variance via the moment identity
    ``var = (sum(v^2) - sum(v)^2 / n) / (n - 1)`` (ddof=1), with the Y-side
    moments derived from the pooled totals.  The identity is numerically
    safe **only on centered input**: callers must sum moments of
    :func:`center_pooled` output, or large-mean measures cancel the second
    moment away.  Callers also guarantee ``n_x, n_y >= 2`` (a smaller side
    makes the observed statistic NaN and short-circuits before any
    permutation is evaluated).
    """
    y_sum = total_sum - x_sum
    y_sq_sum = total_sq_sum - x_sq_sum
    var_x = (x_sq_sum - x_sum * x_sum / n_x) / (n_x - 1)
    var_y = (y_sq_sum - y_sum * y_sum / n_y) / (n_y - 1)
    return var_x - var_y


class SharedPermutations:
    """A reusable batch of two-sample label permutations.

    For a pooled sample of ``n_x + n_y`` rows, holds ``n_permutations``
    random partitions of the pooled indices into an X-part of size ``n_x``
    and a Y-part.  All measures of the same selection pair reuse the same
    partitions, exactly as Section 5.1.1 prescribes — which both saves time
    and makes the per-measure p-values comparable.

    The batch is stored as one C-contiguous bool ``(P, n_x + n_y)``
    X-membership mask (:attr:`member`): the batched kernel only ever reads
    a permutation as the set of pooled positions on its X side, never as an
    ordering.  Row ``p`` draws ``n_x + n_y`` uniforms and puts on the X side
    the positions of its ``n_x`` smallest — the classic argsort shuffle —
    but finds them by O(n) selection (``np.partition`` for the ``n_x``-th
    smallest value, then ``uniforms <= cut``) instead of an O(n log n)
    sort.  A tie at the cut makes some row's count differ from ``n_x``;
    such a batch (vanishingly rare with 53-bit uniforms) is rebuilt from
    the argsort, so the chosen sets are always exactly the argsort's.
    """

    __slots__ = ("n_x", "n_y", "member")

    def __init__(self, n_x: int, n_y: int, n_permutations: int, rng: np.random.Generator):
        if n_x <= 0 or n_y <= 0:
            raise StatisticsError("both sides of a permutation test must be non-empty")
        if n_permutations <= 0:
            raise StatisticsError("n_permutations must be positive")
        self.n_x = n_x
        self.n_y = n_y
        uniforms = rng.random((n_permutations, n_x + n_y))
        # Fancy-indexing the cut column copies it, so the partitioned
        # scratch array is freed before the mask is allocated.
        cut = np.partition(uniforms, n_x - 1, axis=1)[:, [n_x - 1]]
        member = uniforms <= cut
        # Every row holds at least n_x members, so one total count finds
        # any row that tied at its cut.
        if np.count_nonzero(member) != n_permutations * n_x:
            member = _argsort_membership(uniforms, n_x)
        self.member = member
        obs.counter("stats.permutation_batches_created").inc()

    @property
    def n_permutations(self) -> int:
        return int(self.member.shape[0])

    @property
    def x_indices(self) -> np.ndarray:
        """X-side pooled indices, ``(P, n_x)``, sorted within each row.

        Order-insensitive consumers only (sums, medians, quantiles — any
        statistic of the X *set*).
        """
        return np.nonzero(self.member)[1].reshape(self.n_permutations, self.n_x)

    def membership_mask(self) -> np.ndarray:
        """The ``(P, n_x + n_y)`` float64 X-membership mask of the batch.

        Row ``p`` holds 1.0 at the pooled positions permutation ``p`` assigns
        to the X side and 0.0 elsewhere, C-contiguous.  ``moments @ mask.T``
        then computes every permutation's X-side moment sums in one BLAS
        call — the batched kernel's core product (see
        :mod:`repro.stats.kernel`).
        """
        return self.member.astype(np.float64)

    def complement_indices(self) -> np.ndarray:
        """Y-side pooled indices, ``(P, n_y)``, sorted within each row.

        Order-insensitive consumers only, as for :attr:`x_indices`.
        """
        return np.nonzero(~self.member)[1].reshape(self.n_permutations, self.n_y)

    def mean_greater(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        """One-sided mean-greater test of ``x`` over ``y`` reusing the batch."""
        obs.counter("stats.permutation_tests").inc()
        x, y = self._check(x, y)
        observed = mean_difference(x, y)
        pooled = center_pooled(np.concatenate([x, y]))
        x_sum = pooled[self.x_indices].sum(axis=1)
        stats = mean_stat_from_moments(x_sum, float(pooled.sum()), self.n_x, self.n_y)
        return _one_sided(observed, stats)

    def variance_greater(self, x: np.ndarray, y: np.ndarray) -> TestResult:
        """One-sided variance-greater test of ``x`` over ``y``."""
        obs.counter("stats.permutation_tests").inc()
        x, y = self._check(x, y)
        observed = variance_difference(x, y)
        if np.isnan(observed):
            return TestResult(observed, 1.0)
        pooled = center_pooled(np.concatenate([x, y]))
        squared = pooled * pooled
        x_indices = self.x_indices
        x_sum = pooled[x_indices].sum(axis=1)
        x_sq_sum = squared[x_indices].sum(axis=1)
        stats = variance_stat_from_moments(
            x_sum, x_sq_sum, float(pooled.sum()), float(squared.sum()), self.n_x, self.n_y
        )
        return _one_sided(observed, stats)

    def _check(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = _clean_pair(x, y)
        if x.size != self.n_x or y.size != self.n_y:
            raise StatisticsError(
                f"sample sizes ({x.size}, {y.size}) do not match the permutation "
                f"batch ({self.n_x}, {self.n_y}); NaNs must be removed before batching"
            )
        return x, y


def _argsort_membership(uniforms: np.ndarray, n_x: int) -> np.ndarray:
    """X-membership of the first ``n_x`` argsort positions of each row.

    The reference draw the selection in :class:`SharedPermutations`
    reproduces; called only when a tie at the cut leaves selection
    ambiguous.
    """
    member = np.zeros(uniforms.shape, dtype=bool)
    np.put_along_axis(member, np.argsort(uniforms, axis=1)[:, :n_x], True, axis=1)
    return member


def one_sided_p_values(observed: np.ndarray, permuted: np.ndarray) -> np.ndarray:
    """Add-one one-sided p-values of ``T`` tests at once.

    ``observed`` is ``(T,)``, ``permuted`` the ``(T, P)`` permutation
    statistics; a NaN observed statistic (an undefined test) gets p = 1.
    """
    # The slack absorbs summation-order noise in exact ties (a permutation
    # that reproduces the observed split must count as extreme no matter
    # which kernel summed it).  It must scale with the statistic: measures
    # of magnitude 1e6 carry ulp noise far above any absolute epsilon.
    slack = 1e-12 * np.maximum(1.0, np.abs(observed))
    extreme = np.count_nonzero(permuted >= (observed - slack)[:, None], axis=1)
    p = np.minimum(1.0, (1.0 + extreme) / (1.0 + permuted.shape[1]))
    p[np.isnan(observed)] = 1.0
    return p


def _one_sided(observed: float, permuted: np.ndarray) -> TestResult:
    p = one_sided_p_values(np.array([observed]), permuted.reshape(1, -1))
    return TestResult(observed, float(p[0]))


def permutation_mean_greater(
    x: np.ndarray,
    y: np.ndarray,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Stand-alone one-sided mean-greater permutation test."""
    x, y = _clean_pair(x, y)
    rng = rng or np.random.default_rng()
    batch = SharedPermutations(x.size, y.size, n_permutations, rng)
    return batch.mean_greater(x, y)


def permutation_variance_greater(
    x: np.ndarray,
    y: np.ndarray,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Stand-alone one-sided variance-greater permutation test."""
    x, y = _clean_pair(x, y)
    rng = rng or np.random.default_rng()
    batch = SharedPermutations(x.size, y.size, n_permutations, rng)
    return batch.variance_greater(x, y)
