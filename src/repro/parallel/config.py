"""Configuration of the sharded multiprocess execution layer.

:class:`ParallelConfig` is the single knob surface for the process-pool
layer (:mod:`repro.parallel.pool`): how many workers, which data plane,
how failures are absorbed, and how shards are cut.  It is embedded in
:class:`~repro.generation.config.GenerationConfig` (``parallel=``) and in
the top-level :class:`~repro.config.ReproConfig`, and surfaces on the CLI
as ``repro generate --workers N``.

Determinism contract: worker count and scheduling **never** change
results.  Shards are cut at pair-family boundaries
(:func:`~repro.insights.significance.family_chunks`) and every permutation
batch derives its RNG from the root seed and the shard-independent batch
key (:mod:`repro.stats.rng`), so a 4-worker run is bit-identical to a
sequential one; the pool merely reassembles shard results in canonical
order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "SHM_ENV_VAR",
    "STORE_NAMES",
    "WORKERS_ENV_VAR",
    "ParallelConfig",
    "default_store",
    "default_workers",
    "resolve_store_kind",
    "store_from_env_value",
]

#: Environment variable holding the default worker count (CI matrix hook,
#: mirroring ``REPRO_BACKEND``).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Column-store planes for the data shipped to workers: ``auto`` picks
#: shared memory whenever a process pool would actually run and the
#: platform supports it, ``heap`` forces the pickling plane, ``shm``
#: forces shared memory (degrading to heap only where shm is physically
#: unavailable).
STORE_NAMES: tuple[str, ...] = ("auto", "heap", "shm")

#: Environment variable selecting the store plane (CI matrix hook):
#: ``0``/``heap``, ``1``/``shm``, or ``auto`` (the default).
SHM_ENV_VAR = "REPRO_SHM"


def store_from_env_value(raw: str) -> str:
    """Translate a ``REPRO_SHM`` value into a store name."""
    value = raw.strip()
    if not value:
        return "auto"
    if value == "0":
        return "heap"
    if value == "1":
        return "shm"
    if value in STORE_NAMES:
        return value
    raise ReproError(
        f"{SHM_ENV_VAR}={raw!r} must be one of 0, 1, auto, heap, shm"
    )


def default_store() -> str:
    """The process-wide default store plane: ``$REPRO_SHM`` or ``auto``."""
    return store_from_env_value(os.environ.get(SHM_ENV_VAR, ""))


def default_workers() -> int:
    """The process-wide default worker count: ``$REPRO_WORKERS`` or 1.

    An invalid environment value raises immediately rather than silently
    running sequentially (the CI matrix relies on this).
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ReproError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
        ) from None
    if workers < 1:
        raise ReproError(f"{WORKERS_ENV_VAR} must be at least 1, got {workers}")
    return workers


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """Settings of the sharded execution layer.

    Attributes
    ----------
    workers:
        Worker count for the stats and hypothesis-evaluation stages.  The
        default honours the ``REPRO_WORKERS`` environment variable; 1 runs
        everything in-process (no pool is ever created); a larger count
        runs the work-stealing subprocess pool of :mod:`repro.parallel.pool`.
    max_worker_restarts:
        Crashed workers are replaced up to this many times per pool before
        the pool stops replacing them and the remaining shards run
        in-process (the crash-isolation ladder; see docs/parallelism.md).
    chunk_size:
        Target candidates per stats shard.  Shards are cut only at
        pair-family boundaries so the batched kernel sees whole families
        per worker; the exact value never affects results, only balance.
    store:
        Which data plane carries the table to workers: ``"auto"``
        (shared memory when a process pool runs and the platform has
        it), ``"heap"`` (pickle the table — the pre-8.x plane), or
        ``"shm"`` (force shared memory).  Never affects results, only
        how bytes move; see :func:`resolve_store_kind`.
    ipc_block_size:
        Upper bound on tasks batched into one pool submission.  Blocks
        amortize queue round-trips without starving the work-stealing
        scheduler; like ``chunk_size`` this never affects results.
    deadline_margin:
        Seconds of remaining deadline below which the pool stops
        dispatching to workers and finishes in-process, where the
        cooperative :class:`~repro.runtime.deadline.Deadline` checkpoints
        can fire and the runtime ladder can degrade the stage.
    """

    workers: int = field(default_factory=default_workers)
    max_worker_restarts: int = 1
    chunk_size: int = 250
    deadline_margin: float = 1.0
    store: str = field(default_factory=default_store)
    ipc_block_size: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError(f"workers must be at least 1, got {self.workers}")
        if self.max_worker_restarts < 0:
            raise ReproError("max_worker_restarts cannot be negative")
        if self.chunk_size < 1:
            raise ReproError("chunk_size must be at least 1")
        if self.deadline_margin < 0:
            raise ReproError("deadline_margin cannot be negative")
        if self.store not in STORE_NAMES:
            raise ReproError(
                f"unknown column store {self.store!r}; known: {STORE_NAMES}"
            )
        if self.ipc_block_size < 1:
            raise ReproError("ipc_block_size must be at least 1")

    @property
    def active(self) -> bool:
        """True when a pool would actually be used (more than one worker)."""
        return self.workers > 1

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "max_worker_restarts": self.max_worker_restarts,
            "chunk_size": self.chunk_size,
            "deadline_margin": self.deadline_margin,
            "store": self.store,
            "ipc_block_size": self.ipc_block_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParallelConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - explicit
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown ParallelConfig keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)


def resolve_store_kind(parallel: ParallelConfig) -> str:
    """The concrete data plane a run under ``parallel`` uses.

    ``heap`` and ``shm`` are honoured directly (``shm`` still degrades
    to heap where shared memory is physically unavailable — the paper's
    pipeline must run anywhere); ``auto`` picks shared memory exactly
    when a subprocess pool would carry the data.
    """
    from repro.relational.store import shm_available

    if parallel.store == "heap":
        return "heap"
    if parallel.store == "shm":
        return "shm" if shm_available() else "heap"
    if parallel.active and shm_available():
        return "shm"
    return "heap"
