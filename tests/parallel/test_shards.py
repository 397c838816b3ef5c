"""Sharded stats stage: parity, shard-store reuse, mid-stage checkpoints."""

from __future__ import annotations

import pytest

from repro import obs
from repro.generation import GenerationConfig
from repro.generation.generator import run_stats_stage
from repro.insights import SignificanceConfig
from repro.parallel import ParallelConfig, ShardStore
from repro.persistence import (
    PersistentShardStore,
    load_checkpoint,
    stats_config_token,
)


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture() as (tracer, metrics):
        yield tracer, metrics


def _config(workers: int, **parallel_kwargs) -> GenerationConfig:
    return GenerationConfig(
        significance=SignificanceConfig(n_permutations=60),
        parallel=ParallelConfig(workers=workers, chunk_size=8, **parallel_kwargs),
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


def test_shm_plane_matches_heap_plane(covid, isolated_obs):
    from repro.relational.store import shm_available

    if not shm_available():
        pytest.skip("shared memory unavailable on this platform")
    heap = run_stats_stage(covid, _config(workers=2, store="heap"))
    shm = run_stats_stage(covid, _config(workers=2, store="shm"))
    assert _stats_key(shm) == _stats_key(heap)
    _, metrics = isolated_obs
    assert metrics.counter("parallel.shm_attach").value > 0


def test_completed_shards_are_skipped_on_rerun(covid, caplog):
    config = _config(workers=2)
    store = ShardStore()
    first = run_stats_stage(covid, config, shard_store=store)
    assert len(store) > 1

    # Second run with the populated store: every shard is served from it,
    # nothing is recomputed, output is identical.
    with caplog.at_level("INFO", logger="repro.parallel.shards"):
        second = run_stats_stage(covid, config, shard_store=store)
    assert _stats_key(second) == _stats_key(first)
    total = len(store)
    assert f"resuming with {total}/{total} shard(s)" in caplog.text


def test_persistent_store_writes_stats_partial_checkpoint(covid, tmp_path):
    path = tmp_path / "ckpt.json"
    config = _config(workers=2)
    token = stats_config_token(config, covid.n_rows)
    store = PersistentShardStore.open(path, token)
    stats = run_stats_stage(covid, config, shard_store=store)

    resume = load_checkpoint(path)
    assert resume.stage == "stats-partial"
    assert resume.partial_token == token
    assert len(resume.partial_shards) == len(store)

    # Resuming from the loaded checkpoint preloads every shard.
    resumed_store = PersistentShardStore.open(path, token, resume)
    assert len(resumed_store) == len(store)
    rerun = run_stats_stage(covid, config, shard_store=resumed_store)
    assert _stats_key(rerun) == _stats_key(stats)


def test_stats_config_token_matches_checkpoints_before_the_kernel_switch_went(
    monkeypatch,
):
    """The payload keeps its constant ``"kernel": "batched"`` entry, so
    ``stats-partial`` checkpoints written while the switch existed resume."""
    for name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_SHM"):
        monkeypatch.delenv(name, raising=False)
    assert stats_config_token(GenerationConfig(), 1000) == "5219164c370f479d"


def test_persistent_store_rejects_mismatched_token(covid, tmp_path):
    path = tmp_path / "ckpt.json"
    config = _config(workers=2)
    token = stats_config_token(config, covid.n_rows)
    store = PersistentShardStore.open(path, token)
    run_stats_stage(covid, config, shard_store=store)
    resume = load_checkpoint(path)

    # A config drift (different permutation count) produces a different
    # token: the partial state is discarded, not mixed in.
    drifted = GenerationConfig(
        significance=SignificanceConfig(n_permutations=61),
        parallel=ParallelConfig(workers=2, chunk_size=8),
    )
    other_token = stats_config_token(drifted, covid.n_rows)
    assert other_token != token
    fresh = PersistentShardStore.open(path, other_token, resume)
    assert len(fresh) == 0
