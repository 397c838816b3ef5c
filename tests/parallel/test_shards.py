"""Sharded stats stage: parity, memo reuse, mid-stage checkpoints."""

from __future__ import annotations

import pytest

from repro import obs
from repro import persistence
from repro.generation import GenerationConfig
from repro.generation.generator import run_stats_stage
from repro.insights import SignificanceConfig
from repro.parallel import ParallelConfig, shards
from repro.persistence import load_checkpoint
from repro.relational.table import content_token
from repro.runtime import resilient_generate
from repro.stats.delta import StatsMemo, incremental_config_token


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture() as (tracer, metrics):
        yield tracer, metrics


@pytest.fixture(autouse=True)
def small_shards(monkeypatch):
    """Cut pool shards of ~8 candidates, so each attribute spans several."""
    monkeypatch.setattr(shards, "CHUNK_SIZE", 8)


def _config(workers: int, share: bool = True) -> GenerationConfig:
    return GenerationConfig(
        significance=SignificanceConfig(n_permutations=60, share_across_pairs=share),
        parallel=ParallelConfig(workers=workers),
    )


def _stats_key(stats):
    return [
        (t.candidate.key, t.statistic, t.p_value, t.p_adjusted)
        for t in stats.significant
    ]


def test_sharded_stats_match_sequential(covid):
    serial = run_stats_stage(covid, _config(workers=1))
    sharded = run_stats_stage(covid, _config(workers=2))
    assert _stats_key(sharded) == _stats_key(serial)
    assert sharded.excluded_pairs == serial.excluded_pairs


def test_unshared_batches_match_across_worker_counts(covid):
    """Fresh batches are keyed by candidate, not by a per-chunk counter."""
    version = content_token(covid)
    serial = run_stats_stage(covid, _config(workers=1, share=False), version=version)
    sharded = run_stats_stage(covid, _config(workers=2, share=False), version=version)
    assert _stats_key(sharded) == _stats_key(serial)
    assert sharded.memo.families == serial.memo.families


def _recorder(covid, config):
    """An ``on_families`` sink filling a memo at ``covid``'s version."""
    memo = StatsMemo(
        content_token(covid), covid.n_rows, incremental_config_token(config)
    )

    def on_families(records):
        for record in records:
            memo.families.setdefault(record.pair_key[0], []).append(record)

    return memo, on_families


def test_completed_shards_are_skipped_on_rerun(covid):
    config = _config(workers=2)
    memo, on_families = _recorder(covid, config)
    first = run_stats_stage(covid, config, on_families=on_families)
    total = sum(len(records) for records in memo.families.values())
    assert total > 1

    # Second run with the recorded memo at the same version: every pair
    # family is served from it, nothing is re-tested, output is identical.
    second = run_stats_stage(
        covid, config, memo=memo, version=memo.version
    )
    assert _stats_key(second) == _stats_key(first)
    assert second.counters["stats_partitions_skipped"] == total
    assert second.counters["stats_partitions_retested"] == 0


def _partial_writes(monkeypatch):
    """Capture every ``stats-partial`` checkpoint the controller writes."""
    writes: list = []
    save_checkpoint = persistence.save_checkpoint

    def spy(path, stats=None, outcome=None, **kwargs):
        save_checkpoint(path, stats=stats, outcome=outcome, **kwargs)
        if stats is None and outcome is None:
            writes.append(load_checkpoint(path))

    monkeypatch.setattr(persistence, "save_checkpoint", spy)
    return writes


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpointed_run_writes_stats_partial_memo(covid, tmp_path, monkeypatch,
                                                    workers):
    path = tmp_path / "ckpt.json"
    config = _config(workers=workers)
    writes = _partial_writes(monkeypatch)
    cold = resilient_generate(covid, config, budget=4, checkpoint_path=path)
    # One write per shard (2 workers) or per attribute (1 worker), each
    # holding one more chunk of pair families, stamped with the version.
    assert len(writes) > 1
    sizes = [sum(map(len, ck.memo.families.values())) for ck in writes]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    assert {ck.version for ck in writes} == {content_token(covid)}
    assert {ck.memo.version for ck in writes} == {content_token(covid)}

    # Resuming from an early snapshot re-tests only what it lacks.
    resume = writes[0]
    monkeypatch.undo()
    resumed = resilient_generate(covid, config, budget=4, resume=resume)
    counters = resumed.outcome.counters
    assert counters["stats_partitions_skipped"] == sizes[0]
    assert counters["stats_partitions_retested"] == sizes[-1] - sizes[0]
    assert _stats_key(resumed.outcome) == _stats_key(cold.outcome)


def test_partial_memo_with_mismatched_config_is_not_reused(covid, tmp_path,
                                                           monkeypatch):
    path = tmp_path / "ckpt.json"
    writes = _partial_writes(monkeypatch)
    resilient_generate(covid, _config(workers=2), budget=4, checkpoint_path=path)
    resume = writes[-1]
    writes.clear()

    # A config drift (different permutation count) changes the config
    # token: the stored families are re-tested, never mixed in, and the
    # new partial checkpoints hold only families tested under the drift.
    drifted = GenerationConfig(
        significance=SignificanceConfig(n_permutations=61),
        parallel=ParallelConfig(workers=2),
    )
    assert incremental_config_token(drifted) != resume.memo.token
    rerun = resilient_generate(covid, drifted, budget=4, checkpoint_path=path,
                               resume=resume)
    assert rerun.outcome.counters["stats_partitions_skipped"] == 0
    assert {ck.memo.token for ck in writes} == {incremental_config_token(drifted)}
    cold = resilient_generate(covid, drifted, budget=4)
    assert _stats_key(rerun.outcome) == _stats_key(cold.outcome)
