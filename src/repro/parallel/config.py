"""Configuration of the sharded multiprocess execution layer.

:class:`ParallelConfig` is the knob surface for the process-pool layer
(:mod:`repro.parallel.pool`): how many workers.  It is embedded in
:class:`~repro.generation.config.GenerationConfig` (``parallel=``) and in
the top-level :class:`~repro.config.ReproConfig`, and surfaces on the
CLI as ``repro generate --workers N``.

Determinism contract: worker count and scheduling **never** change
results.  Every worker count runs the same shard tasks
(:mod:`repro.parallel.shards`) — in-process at one worker.  Shards are cut
at pair-family boundaries
(:func:`~repro.insights.significance.family_chunks`) and every permutation
batch derives its RNG from the root seed and the shard-independent batch
key (:mod:`repro.stats.rng`), so a 4-worker run is bit-identical to a
one-worker run; the pool merely reassembles shard results in canonical
order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "STORE_NAMES",
    "WORKERS_ENV_VAR",
    "ParallelConfig",
    "default_workers",
]

#: Environment variable holding the default worker count (CI matrix hook,
#: mirroring ``REPRO_BACKEND``).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Accepted values of the ignored :attr:`ParallelConfig.store` field.
STORE_NAMES: tuple[str, ...] = ("auto", "heap", "shm")


def default_workers() -> int:
    """The process-wide default worker count: ``$REPRO_WORKERS`` or 1.

    An invalid environment value raises immediately rather than silently
    running with one worker (the CI matrix relies on this).
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

    The scheduler's tuning values (shard size, IPC block size, restart
    budget, deadline margin) are module constants of
    :mod:`repro.parallel.shards` and :mod:`repro.parallel.pool`: none of
    them ever changes results.

    Attributes
    ----------
    workers:
        Worker count for the stats and hypothesis-evaluation stages.  The
        default honours the ``REPRO_WORKERS`` environment variable.  Both
        stages always run as shard tasks: at 1 the tasks run in-process
        (no pool is ever created); a larger count runs them on the
        work-stealing subprocess pool of :mod:`repro.parallel.pool`.
    store:
        Accepted and ignored: one of :data:`STORE_NAMES`, validated so
        existing configs keep loading.  Workers always receive the table
        pickled in their stage's init blob, once per worker per table
        version (see docs/parallelism.md).
    """

    workers: int = field(default_factory=default_workers)
    store: str = "auto"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError(f"workers must be at least 1, got {self.workers}")
        if self.store not in STORE_NAMES:
            raise ReproError(
                f"unknown column store {self.store!r}; known: {STORE_NAMES}"
            )

    @property
    def active(self) -> bool:
        """True when a pool would actually be used (more than one worker)."""
        return self.workers > 1

    def as_dict(self) -> dict:
        return {"workers": self.workers, "store": self.store}

    @classmethod
    def from_dict(cls, data: dict) -> "ParallelConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - explicit
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown ParallelConfig keys {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)
