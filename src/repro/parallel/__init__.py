"""repro.parallel — sharded multiprocess execution of the pipeline.

The two expensive stages (permutation testing, hypothesis-query
evaluation) always run as shard tasks: in-process at one worker, across a
crash-isolated, work-stealing subprocess pool otherwise, bit-identical at
any worker count.
Configure through :class:`ParallelConfig` (``GenerationConfig(parallel=...)``,
``ReproConfig.parallel``, or ``repro generate --workers N``); the sharding
model and failure semantics are documented in ``docs/parallelism.md``.
"""

from repro.parallel.config import (
    SHM_ENV_VAR,
    STORE_NAMES,
    WORKERS_ENV_VAR,
    ParallelConfig,
    default_store,
    default_workers,
    resolve_store_kind,
)
from repro.parallel.fleet import WorkerFleet, current_fleet, use_fleet
from repro.parallel.pool import ShardPool, WorkerContext, WorkerCrashed
from repro.parallel.shards import run_stats_shards, run_support_shards

__all__ = [
    "SHM_ENV_VAR",
    "STORE_NAMES",
    "WORKERS_ENV_VAR",
    "ParallelConfig",
    "ShardPool",
    "WorkerContext",
    "WorkerCrashed",
    "WorkerFleet",
    "current_fleet",
    "default_store",
    "default_workers",
    "resolve_store_kind",
    "run_stats_shards",
    "run_support_shards",
    "use_fleet",
]
