"""Unit + parity tests for the batched permutation-test kernel.

The batched kernel is the only permutation path in the pipeline.  Its
oracle lives here: :func:`reference_chunk` re-derives every candidate's
samples naively and calls the insight type's own ``test`` method once per
candidate, which is what the per-test kernel did before it was removed.
"""

import numpy as np
import pytest

from repro import obs
from repro.insights import (
    CandidateInsight,
    SignificanceConfig,
    enumerate_candidates,
    run_significance_tests,
)
from repro.insights.significance import _BatchCache, run_attribute_chunk
from repro.insights.types import (
    MEAN_GREATER,
    MEDIAN_GREATER,
    VARIANCE_GREATER,
    insight_type,
)
from repro.relational import table_from_arrays
from repro.stats import (
    KernelTest,
    SharedPermutations,
    derive_rng,
    mean_difference,
    mean_stat_from_moments,
    reduced_permutations,
    run_batched_tests,
    variance_difference,
    variance_stat_from_moments,
)
from repro.stats.kernel import MAX_STACK_ROWS


@pytest.fixture
def prng():
    return derive_rng(31, "kernel-tests")


class TestMomentFormulas:
    def test_mean_from_moments_matches_direct(self, prng):
        x = prng.normal(3, 2, 40)
        y = prng.normal(1, 2, 25)
        pooled = np.concatenate([x, y])
        stat = mean_stat_from_moments(float(x.sum()), float(pooled.sum()), 40, 25)
        assert stat == pytest.approx(mean_difference(x, y), rel=0, abs=1e-10)

    def test_variance_from_moments_matches_direct(self, prng):
        x = prng.normal(0, 4, 30)
        y = prng.normal(0, 1, 50)
        pooled = np.concatenate([x, y])
        squared = pooled * pooled
        stat = variance_stat_from_moments(
            float(x.sum()),
            float((x * x).sum()),
            float(pooled.sum()),
            float(squared.sum()),
            30,
            50,
        )
        assert stat == pytest.approx(variance_difference(x, y), rel=1e-9)

    def test_variance_from_moments_vectorized(self, prng):
        """Array inputs broadcast: one call per permutation column."""
        x_sums = prng.normal(10, 1, 7)
        x_sq = np.abs(prng.normal(50, 5, 7)) + x_sums**2 / 3
        stat = variance_stat_from_moments(x_sums, x_sq, 30.0, 400.0, 3, 4)
        assert stat.shape == (7,)


class TestLargeMagnitudeStability:
    def test_variance_p_matches_two_pass_reference_at_huge_mean(self, prng):
        """Values ~1e8 with unit variance: the per-test path and the kernel
        must agree with the stable two-pass ``np.var`` path.  The uncentered
        one-pass moment identity loses every significant digit in this
        regime (errors ~10 against a statistic scale well under 1), silently
        flipping p-values; centering the pooled sample restores full
        precision."""
        batch = SharedPermutations(30, 30, 200, prng)
        x = prng.normal(1.0e8, 1.6, 30)
        y = prng.normal(1.0e8, 1.0, 30)
        observed = variance_difference(x, y)
        pooled = np.concatenate([x, y])
        reference = (
            np.var(pooled[batch.x_indices], axis=1, ddof=1)
            - np.var(pooled[batch.complement_indices()], axis=1, ddof=1)
        )
        slack = 1e-12 * max(1.0, abs(observed))
        extreme = int(np.count_nonzero(reference >= observed - slack))
        reference_p = (1.0 + extreme) / (1.0 + reference.size)
        legacy = batch.variance_greater(x, y)
        assert legacy.p_value == reference_p
        (got,) = run_batched_tests(batch, [_plan(VARIANCE_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value

    def test_mean_p_matches_gather_reference_at_huge_mean(self, prng):
        """Mean statistics are less cancellation-prone but share the
        centering; verify the per-test path and the kernel still agree with
        a direct gather-and-mean evaluation at large magnitude."""
        batch = SharedPermutations(25, 35, 200, prng)
        x = prng.normal(1.0e8 + 0.5, 1.0, 25)
        y = prng.normal(1.0e8, 1.0, 35)
        observed = mean_difference(x, y)
        pooled = np.concatenate([x, y])
        reference = (
            pooled[batch.x_indices].mean(axis=1)
            - pooled[batch.complement_indices()].mean(axis=1)
        )
        slack = 1e-12 * max(1.0, abs(observed))
        extreme = int(np.count_nonzero(reference >= observed - slack))
        reference_p = (1.0 + extreme) / (1.0 + reference.size)
        legacy = batch.mean_greater(x, y)
        assert legacy.p_value == reference_p
        (got,) = run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value


def _plan(itype, batch, x, y, index=0):
    pooled = np.concatenate([x, y])
    observed = itype.observed_statistic(x, y)
    return KernelTest(index, itype, pooled, observed)


class TestRunBatchedTests:
    def test_mean_parity_with_legacy_batch(self, prng):
        batch = SharedPermutations(30, 40, 150, prng)
        x, y = prng.normal(4, 1, 30), prng.normal(0, 1, 40)
        legacy = batch.mean_greater(x, y)
        (got,) = run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
        assert got[0] == 0
        assert got[1].p_value == legacy.p_value

    def test_variance_parity_with_legacy_batch(self, prng):
        batch = SharedPermutations(25, 25, 150, prng)
        x, y = prng.normal(0, 5, 25), prng.normal(0, 1, 25)
        legacy = batch.variance_greater(x, y)
        (got,) = run_batched_tests(batch, [_plan(VARIANCE_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value

    def test_many_tests_one_batch(self, prng):
        """Several measures share one batch; results keep their slots."""
        batch = SharedPermutations(20, 20, 99, prng)
        plans, expected = [], {}
        for i in range(6):
            x, y = prng.normal(i, 1, 20), prng.normal(0, 1, 20)
            itype = MEAN_GREATER if i % 2 == 0 else VARIANCE_GREATER
            plans.append(_plan(itype, batch, x, y, index=i))
            expected[i] = (
                batch.mean_greater(x, y) if i % 2 == 0 else batch.variance_greater(x, y)
            ).p_value
        results = dict(run_batched_tests(batch, plans))
        assert {i: r.p_value for i, r in results.items()} == expected

    def test_non_moment_type_falls_back(self, prng):
        """Median-greater has no moment form; the kernel delegates to it."""
        batch = SharedPermutations(15, 15, 60, prng)
        x = prng.normal(2, 1, 15)
        y = prng.normal(0, 1, 15)
        legacy = MEDIAN_GREATER.test(batch, x, y)
        (got,) = run_batched_tests(batch, [_plan(MEDIAN_GREATER, batch, x, y)])
        assert got[1].p_value == legacy.p_value

    def test_slicing_preserves_results_and_checkpoints(self, prng):
        """More moment rows than MAX_STACK_ROWS streams through in slices."""
        n_tests = MAX_STACK_ROWS + 10  # order-1 tests: forces at least 2 slices
        batch = SharedPermutations(10, 10, 50, prng)
        plans, expected = [], []
        for i in range(n_tests):
            x, y = prng.normal(1, 1, 10), prng.normal(0, 1, 10)
            plans.append(_plan(MEAN_GREATER, batch, x, y, index=i))
            expected.append(batch.mean_greater(x, y).p_value)
        ticks, progressed = [], []
        results = dict(
            run_batched_tests(
                batch, plans,
                checkpoint=lambda: ticks.append(1),
                progress=progressed.append,
            )
        )
        assert [results[i].p_value for i in range(n_tests)] == expected
        assert len(ticks) >= 2            # one per GEMM slice
        assert sum(progressed) == n_tests  # every test reported exactly once

    def test_tie_parity_with_large_magnitude_measures(self, prng):
        """Exact ties at 1e6 scale: GEMM-vs-gather ulp noise must not flip
        the extreme count (the tie slack scales with the statistic)."""
        batch = SharedPermutations(40, 1, 200, prng)
        x = prng.normal(2.0e6, 1.5e5, 40)
        y = np.array([1.1e6])
        legacy = batch.mean_greater(x, y)
        (got,) = run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
        # n_y == 1 makes every permutation keeping y fixed an exact tie.
        assert got[1].p_value == legacy.p_value

    def test_kernel_counters(self, prng):
        batch = SharedPermutations(10, 10, 50, prng)
        x, y = prng.normal(1, 1, 10), prng.normal(0, 1, 10)
        with obs.capture() as (_, metrics):
            run_batched_tests(batch, [_plan(MEAN_GREATER, batch, x, y)])
            snap = metrics.snapshot()
        assert snap["counters"]["stats.kernel_batches"] == 1
        assert snap["counters"]["stats.permutation_tests"] == 1


@pytest.fixture
def planted():
    rng = derive_rng(4242, "planted")
    n = 450
    g = rng.choice(["g0", "g1", "g2"], n)
    other = rng.choice(["o0", "o1"], n)
    m1 = rng.normal(50, 5, n) + np.where(g == "g1", 30.0, 0.0)
    m2 = rng.normal(0, 1, n) * np.where(g == "g2", 5.0, 1.0)
    return table_from_arrays({"g": g, "other": other}, {"m1": m1, "m2": m2})


def reference_chunk(table, attribute, group, config):
    """Per-candidate oracle for ``run_attribute_chunk``.

    Selects each side's rows with a plain mask, drops NaNs, orients toward
    the observed dominant side, and calls ``itype.test`` on the batch the
    runner's key-derived cache hands out for those sizes (and, without
    sharing, for the unoriented candidate).
    """
    column = table.categorical_column(attribute)
    batches = _BatchCache(
        config.seed, attribute, config.n_permutations, config.share_across_pairs
    )
    oriented, results = [], []
    for candidate in group:
        requested = candidate
        itype = insight_type(candidate.type_code)
        values = table.measure_values(candidate.measure)
        x = values[column.codes == column.code_of(candidate.val)]
        y = values[column.codes == column.code_of(candidate.val_other)]
        x, y = x[~np.isnan(x)], y[~np.isnan(y)]
        if x.size == 0 or y.size == 0:
            continue
        statistic = itype.observed_statistic(x, y)
        if np.isnan(statistic):
            continue
        if statistic < 0:
            x, y = y, x
            candidate = CandidateInsight(
                candidate.measure, attribute, candidate.val_other,
                candidate.val, candidate.type_code,
            )
        oriented.append(candidate)
        results.append(itype.test(batches.get(x.size, y.size, requested), x, y))
    return oriented, results


def _raw_tuples(runner, table, config, candidates=None):
    candidates = list(candidates or enumerate_candidates(table))
    out = []
    for attribute in table.schema.categorical_names:
        group = [c for c in candidates if c.attribute == attribute]
        oriented, results = runner(table, attribute, group, config)
        out.extend(
            (c.key, r.statistic, r.p_value) for c, r in zip(oriented, results)
        )
    return out


def _assert_matches_reference(table, config, candidates=None):
    got = _raw_tuples(run_attribute_chunk, table, config, candidates)
    want = _raw_tuples(reference_chunk, table, config, candidates)
    assert got, "the workload must test something"
    assert got == want


class TestKernelParityEndToEnd:
    """The runner must match the per-candidate reference test for test."""

    def test_batched_equals_legacy(self, planted):
        _assert_matches_reference(planted, SignificanceConfig())

    def test_parity_with_fresh_batches_per_pair(self, planted):
        """share_across_pairs=False exercises the candidate-derived RNG keys."""
        _assert_matches_reference(
            planted, SignificanceConfig(share_across_pairs=False)
        )

    def test_parity_under_reduced_permutations(self, planted):
        """The degradation ladder's cut count agrees with the reference too."""
        cut = reduced_permutations(200, 4)
        assert cut < 200
        _assert_matches_reference(planted, SignificanceConfig(n_permutations=cut))

    def test_parity_with_median_extension_type(self, planted):
        candidates = [
            CandidateInsight("m1", "g", "g1", "g0", "D"),
            CandidateInsight("m1", "g", "g1", "g2", "M"),
            CandidateInsight("m2", "g", "g2", "g0", "V"),
        ]
        _assert_matches_reference(planted, SignificanceConfig(), candidates)

    def test_bh_adjusted_results_follow_the_raw_parity(self, planted):
        """The public runner only adds BH on top of the compared raw output."""
        config = SignificanceConfig()
        tested = run_significance_tests(planted, enumerate_candidates(planted), config)
        assert [(t.candidate.key, t.statistic, t.p_value) for t in tested] == (
            _raw_tuples(reference_chunk, planted, config)
        )
