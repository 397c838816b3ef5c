"""Incremental stats stage: memoized re-runs over appended tables.

The contract under test: an incremental run over a grown table — memo
from a prefix run, only touched pair families re-tested — produces a
``significant`` list element-for-element identical to a cold full run,
while actually skipping partitions (``stats_partitions_skipped > 0``).
"""

import numpy as np
import pytest

from repro.datasets import covid_table
from repro.generation.config import GenerationConfig, SamplingSpec
from repro.generation.generator import run_stats_stage
from repro.relational.table import content_token

import dataclasses


@pytest.fixture(scope="module")
def config():
    return GenerationConfig(
        significance=dataclasses.replace(
            GenerationConfig().significance, n_permutations=40
        )
    )


@pytest.fixture(scope="module")
def tables():
    full = covid_table(240)
    base = full.take(np.arange(200))
    return base, full


def assert_same_insights(one, two):
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.candidate == b.candidate
        assert a.statistic == b.statistic  # bitwise: no tolerance
        assert a.p_value == b.p_value
        assert a.p_adjusted == b.p_adjusted


class TestIncrementalParity:
    def test_grown_run_matches_cold_bitwise_and_skips(self, tables, config):
        base, full = tables
        prefix = run_stats_stage(base, config, version=content_token(base))
        assert prefix.memo is not None
        assert prefix.memo.n_rows == base.n_rows

        warm = run_stats_stage(
            full, config,
            memo=prefix.memo,
            version=content_token(full),
        )
        cold = run_stats_stage(full, config, version=content_token(full))

        assert_same_insights(warm.significant, cold.significant)
        assert warm.counters["stats_partitions_skipped"] > 0
        assert warm.counters["stats_partitions_retested"] > 0
        assert warm.counters["insights_tested"] == cold.counters["insights_tested"]

    def test_fresh_memo_chains_to_next_append(self, tables, config):
        base, full = tables
        prefix = run_stats_stage(base, config, version=content_token(base))
        warm = run_stats_stage(
            full, config,
            memo=prefix.memo,
            version=content_token(full),
        )
        # The warm run's memo must be as good as a cold run's: replaying it
        # over the same table skips every family.
        assert warm.memo is not None and warm.memo.n_rows == full.n_rows
        replay = run_stats_stage(
            full, config, memo=warm.memo
        )
        assert replay.counters["stats_partitions_retested"] == 0
        assert replay.counters["stats_partitions_skipped"] > 0
        assert_same_insights(replay.significant, warm.significant)

    def test_identical_table_skips_everything(self, tables, config):
        base, _ = tables
        prefix = run_stats_stage(base, config, version=content_token(base))
        replay = run_stats_stage(
            base, config, memo=prefix.memo
        )
        assert replay.counters["stats_partitions_retested"] == 0
        assert_same_insights(replay.significant, prefix.significant)


class TestFallbacks:
    def test_no_version_means_no_memo(self, tables, config):
        base, _ = tables
        assert run_stats_stage(base, config).memo is None

    def test_sampling_blocks_memo_and_reuse(self, tables):
        base, full = tables
        sampled = GenerationConfig(sampling=SamplingSpec("random", 0.5))
        prefix = run_stats_stage(base, sampled, version=content_token(base))
        assert prefix.memo is None

    def test_config_drift_falls_back_to_full_run(self, tables, config):
        base, full = tables
        prefix = run_stats_stage(base, config, version=content_token(base))
        changed = dataclasses.replace(
            config,
            significance=dataclasses.replace(
                config.significance, n_permutations=50
            ),
        )
        warm = run_stats_stage(
            full, changed, memo=prefix.memo
        )
        cold = run_stats_stage(full, changed)
        assert warm.counters["stats_partitions_skipped"] == 0
        assert_same_insights(warm.significant, cold.significant)

    def test_memo_larger_than_table_falls_back(self, tables, config):
        base, full = tables
        grown = run_stats_stage(full, config, version=content_token(full))
        shrunk = run_stats_stage(
            base, config, memo=grown.memo
        )
        cold = run_stats_stage(base, config)
        assert shrunk.counters["stats_partitions_skipped"] == 0
        assert_same_insights(shrunk.significant, cold.significant)
