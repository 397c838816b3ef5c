"""The dataset registry: warm sessions shared across requests.

The whole point of serving (vs. one process per request) is amortization:
a registered dataset owns one long-lived :class:`repro.api.Session`, so
the loaded table, the execution backend (including the sqlite mirror),
the cross-stage :class:`~repro.relational.aggcache.AggregateCache`, and
the session's metrics all stay resident and every request against that
dataset reuses them — ``cache.aggregate_hits`` across requests is the
gauge that proves it.

Eviction is **lease-safe**: a job holds a lease on its entry for the
duration of the run, and ``evict`` only marks the entry gone from the
registry — the underlying session closes when the last lease drops.  That
makes the cache-eviction race (fault point ``serve.evict``) a non-event:
the racing job finishes on its leased session; the *next* request gets a
clean 404.

Each entry also owns the dataset's
:class:`~repro.serve.breaker.CircuitBreaker` — failure isolation is
per-tenant, a poisoned dataset never opens the circuit for its neighbours.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path
from typing import Callable

from repro.api import Session
from repro.config import ReproConfig
from repro.errors import ServeError, UnknownDatasetError
from repro.obs.metrics import MetricsRegistry
from repro.serve.breaker import CircuitBreaker

logger = logging.getLogger(__name__)

__all__ = ["DatasetEntry", "DatasetRegistry"]

#: Rows per admission cost unit: a 50k-row dataset costs 50 units per job.
_ROWS_PER_COST_UNIT = 1000.0


class DatasetEntry:
    """One registered dataset: warm session + breaker + lease count."""

    def __init__(self, name: str, session: Session, breaker: CircuitBreaker):
        self.name = name
        self.session = session
        self.breaker = breaker
        self.cost_units = max(1.0, session.table.n_rows / _ROWS_PER_COST_UNIT)
        self.registered_at = time.time()
        self.runs = 0
        self._lock = threading.Lock()
        self._leases = 0
        self._evicted = False

    # -- leases --------------------------------------------------------------

    def acquire(self) -> Session:
        """Take a lease; the session stays open until every lease drops."""
        with self._lock:
            if self._evicted:
                raise UnknownDatasetError(
                    f"dataset {self.name!r} was evicted while the job waited"
                )
            self._leases += 1
            return self.session

    def append(self, rows) -> str:
        """Append ``rows`` under a lease; returns the new dataset version.

        The lease is what makes append safe against the eviction race and
        against running jobs: :meth:`Session.append` swaps the session's
        table atomically, so a job mid-run keeps its snapshot (the old
        table stays alive until the run's references drop) while the next
        job sees the grown table.
        """
        session = self.acquire()
        try:
            version = session.append(rows)
            self.cost_units = max(
                1.0, session.table.n_rows / _ROWS_PER_COST_UNIT
            )
            return version
        finally:
            self.release()

    def release(self) -> None:
        close = False
        with self._lock:
            self._leases = max(0, self._leases - 1)
            close = self._evicted and self._leases == 0
        if close:
            logger.info("dataset %s: last lease released, closing session", self.name)
            self.session.close()

    def evict(self) -> bool:
        """Mark evicted; returns True when the close happened immediately."""
        with self._lock:
            if self._evicted:
                return False
            self._evicted = True
            immediate = self._leases == 0
        if immediate:
            self.session.close()
        else:
            logger.info(
                "dataset %s: evicted with %d job(s) leased; close deferred",
                self.name, self._leases,
            )
        return immediate

    @property
    def evicted(self) -> bool:
        with self._lock:
            return self._evicted

    @property
    def leases(self) -> int:
        with self._lock:
            return self._leases

    def snapshot(self) -> dict:
        counters = self.session.metrics.snapshot()["counters"]
        return {
            "name": self.name,
            "rows": self.session.table.n_rows,
            "columns": len(self.session.table.schema),
            "version": self.session.version,
            "cost_units": self.cost_units,
            "runs": self.runs,
            "leases": self.leases,
            "breaker": self.breaker.snapshot(),
            "cache": {
                "aggregate_hits": counters.get("cache.aggregate_hits", 0.0),
                "aggregate_misses": counters.get("cache.aggregate_misses", 0.0),
            },
        }


class DatasetRegistry:
    """Thread-safe name → :class:`DatasetEntry` map."""

    def __init__(
        self,
        *,
        config: ReproConfig | None = None,
        metrics: MetricsRegistry | None = None,
        breaker_failures: int = 3,
        breaker_reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._config = config
        self._metrics = metrics or MetricsRegistry()
        self._breaker_failures = breaker_failures
        self._breaker_reset = breaker_reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, DatasetEntry] = {}

    def register(
        self,
        name: str,
        source: str | Path,
        *,
        config: ReproConfig | None = None,
    ) -> DatasetEntry:
        """Load ``source`` into a warm session registered under ``name``.

        Loading happens outside the registry lock (CSV reads are slow);
        a concurrent duplicate registration loses cleanly: its session is
        closed and the established entry wins.
        """
        if not name or "/" in name:
            raise ServeError(f"invalid dataset name {name!r}")
        with self._lock:
            if name in self._entries:
                raise ServeError(f"dataset {name!r} is already registered")
        session = Session(source, config=config or self._config, table_name=name)
        breaker = CircuitBreaker(
            self._breaker_failures, self._breaker_reset,
            clock=self._clock, name=name,
        )
        entry = DatasetEntry(name, session, breaker)
        with self._lock:
            if name in self._entries:
                session.close()
                raise ServeError(f"dataset {name!r} is already registered")
            self._entries[name] = entry
        self._metrics.counter("serve.datasets_registered").inc()
        self._metrics.gauge("serve.datasets_resident").set(len(self._entries))
        logger.info("registered dataset %s (%d rows, cost %.1f units)",
                    name, session.table.n_rows, entry.cost_units)
        return entry

    def get(self, name: str) -> DatasetEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None or entry.evicted:
            raise UnknownDatasetError(f"no dataset registered as {name!r}")
        return entry

    def evict(self, name: str) -> bool:
        """Remove ``name``; returns False when it was not registered."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            return False
        entry.evict()
        self._metrics.counter("serve.datasets_evicted").inc()
        with self._lock:
            self._metrics.gauge("serve.datasets_resident").set(len(self._entries))
        return True

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def snapshot(self) -> list[dict]:
        with self._lock:
            entries = list(self._entries.values())
        return [entry.snapshot() for entry in entries]

    def close(self) -> None:
        """Evict everything (deferred closes still honour leases)."""
        for name in self.names():
            self.evict(name)
