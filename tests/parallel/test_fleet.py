"""The session-scoped worker fleet and the zero-copy data plane under it.

Three contracts from the data-plane design:

* **amortization** — an ambient fleet spawns its workers once; every
  subsequent pool run reuses them (``parallel.worker_spawns`` stays at
  the worker count across stages and runs);
* **restart re-attaches** — a worker killed mid-run is replaced, and the
  replacement resolves the same shared segment from its handle instead of
  receiving the table again: ``parallel.ipc_bytes`` stays flat relative
  to a clean run, and both stay far below the pickled table size;
* **crash-safe lifecycle** — no combination of kills and restarts leaves
  a ``repro_*`` segment in ``/dev/shm`` (the package conftest audits
  every test here; the crash test also asserts it explicitly).
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.errors import ReproError
from repro.parallel import (
    ShardPool,
    WorkerFleet,
    current_fleet,
    pool as pool_module,
    use_fleet,
)
from repro.relational import table_from_arrays
from repro.relational.store import leaked_segments, share_table, shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture() as (tracer, metrics):
        yield tracer, metrics


def _counters():
    return obs.current_metrics().snapshot()["counters"]


@pytest.fixture()
def big_table():
    n = 20_000
    return table_from_arrays(
        {"g": [("abcde")[i % 5] for i in range(n)]},
        {"v": [float(i % 97) for i in range(n)]},
    )


# Module-level so they cross the process boundary under spawn.

def _attach_init(payload):
    from repro.relational.store import resolve_table

    return resolve_table(payload)


def _sum_plus(ctx, payload):
    return float(ctx.state.measure_column("v").data.sum()) + payload


def _double(ctx, payload):
    return payload * 2


def _fail(ctx, payload):
    raise ValueError("stage failed")


def _run_summed(table_or_handle, payloads):
    pool = ShardPool(
        2,
        task_fn=_sum_plus,
        worker_init=_attach_init,
        init_payload=table_or_handle,
    )
    return pool.run(payloads)


class TestAmbientFleet:
    def test_fleet_is_borrowed_and_restored(self):
        assert current_fleet() is None
        with WorkerFleet() as fleet:
            with use_fleet(fleet):
                assert current_fleet() is fleet
            assert current_fleet() is None

    def test_closed_fleet_is_never_served(self):
        fleet = WorkerFleet()
        fleet.close()
        with use_fleet(fleet):
            assert current_fleet() is None

    def test_workers_spawn_once_across_pool_runs(self):
        with WorkerFleet() as fleet, use_fleet(fleet):
            first = ShardPool(2, task_fn=_double)
            second = ShardPool(2, task_fn=_double)
            assert first.run([1, 2, 3, 4]) == [2, 4, 6, 8]
            assert second.run([5, 6, 7, 8]) == [10, 12, 14, 16]
        assert _counters()["parallel.worker_spawns"] == 2

    def test_a_failed_stage_does_not_poison_the_fleet(self):
        with WorkerFleet() as fleet, use_fleet(fleet):
            bad = ShardPool(2, task_fn=_fail)
            with pytest.raises(ReproError, match="ValueError.*stage failed"):
                bad.run([1, 2, 3, 4])
            good = ShardPool(2, task_fn=_double)
            assert good.run([1, 2, 3, 4]) == [2, 4, 6, 8]
        assert _counters()["parallel.worker_spawns"] == 2


class TestDataPlaneIpc:
    def test_handle_plane_ships_kilobytes_not_the_table(self, big_table):
        table_wire = len(pickle.dumps(big_table, pickle.HIGHEST_PROTOCOL))
        shared = share_table(big_table)
        try:
            expected = float(big_table.measure_column("v").data.sum())
            assert _run_summed(shared.handle(), [1.0, 2.0, 3.0, 4.0]) == [
                expected + p for p in (1.0, 2.0, 3.0, 4.0)
            ]
            ipc = _counters()["parallel.ipc_bytes"]
            assert ipc < table_wire / 10
            assert _counters()["parallel.shm_attach"] >= 2
        finally:
            shared._store.release()

    def test_restart_under_load_reattaches_instead_of_repickling(
        self, big_table, monkeypatch
    ):
        table_wire = len(pickle.dumps(big_table, pickle.HIGHEST_PROTOCOL))
        shared = share_table(big_table)
        try:
            handle = shared.handle()
            payloads = [float(i) for i in range(12)]
            expected = [
                float(big_table.measure_column("v").data.sum()) + p
                for p in payloads
            ]

            with obs.capture() as (_, clean_metrics):
                assert _run_summed(handle, payloads) == expected
            clean = clean_metrics.snapshot()["counters"]["parallel.ipc_bytes"]

            monkeypatch.setenv("REPRO_FAULTS", "parallel.worker:kill:x1")
            monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 2)
            with obs.capture() as (_, fault_metrics):
                assert _run_summed(handle, payloads) == expected
            counters = fault_metrics.snapshot()["counters"]
            assert counters.get("parallel.worker_restarts", 0) >= 1

            # The restarted worker got a fresh setup message (the compact
            # handle again) — never the pickled table.
            faulted = counters["parallel.ipc_bytes"]
            assert faulted - clean < table_wire / 10
            assert faulted < table_wire / 5
        finally:
            shared._store.release()

    def test_worker_kill_leaks_no_segments(self, big_table, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "parallel.worker:kill:x1")
        monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 2)
        shared = share_table(big_table)
        segment = shared.handle().segment
        try:
            _run_summed(shared.handle(), [float(i) for i in range(8)])
            assert _counters().get("parallel.worker_restarts", 0) >= 1
            # The owner still holds the segment (killed workers must not
            # have unlinked it through the resource tracker)...
            assert segment in leaked_segments()
        finally:
            shared._store.release()
        # ...and the owner's release removes it.
        assert segment not in leaked_segments()
