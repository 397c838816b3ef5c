"""The session-scoped worker fleet and the data plane under it.

Three contracts:

* **amortization** — an ambient fleet spawns its workers once; every
  subsequent pool run reuses them (``parallel.worker_spawns`` stays at
  the worker count across stages and runs);
* **ship once** — a stage's init blob (the pickled table) reaches a
  worker only when that worker does not hold the stage's state: a warm
  repeat ships none, while a replacement worker, a worker after
  :meth:`WorkerFleet.refresh`, a worker that evicted the state and a
  worker whose init failed all receive it again;
* **restart** — a worker killed mid-run is replaced, the replacement
  receives the blob, and the results are unchanged.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import covid_table
from repro.errors import ReproError
from repro.notebook.ipynb import to_ipynb_json
from repro.parallel import (
    ShardPool,
    WorkerFleet,
    current_fleet,
    pool as pool_module,
    use_fleet,
)
from repro.parallel.fleet import _STATE_CACHE_SIZE
from repro.relational import table_from_arrays


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


@pytest.fixture()
def setups(monkeypatch):
    """Every setup message the fleet sends, as ``(worker, shipped blob)``."""
    sent: list[tuple[int, bool]] = []
    send = WorkerFleet.send

    def recording_send(self, worker_id, message):
        if message[0] == "setup":
            sent.append((worker_id, message[4] is not None))
        return send(self, worker_id, message)

    monkeypatch.setattr(WorkerFleet, "send", recording_send)
    return sent


# Module-level so they cross the process boundary under spawn.

def _sum_plus(ctx, payload):
    return float(ctx.state.measure_column("v").data.sum()) + payload


def _double(ctx, payload):
    return payload * 2


def _offset(ctx, payload):
    return ctx.state + payload


def _fail(ctx, payload):
    raise ValueError("stage failed")


_inits = 0


def _fails_first_init(payload):
    """Raises on a worker's first call, succeeds from its second on."""
    global _inits
    _inits += 1
    if _inits == 1:
        raise RuntimeError("first init fails")
    return payload


def _run_summed(table, payloads):
    pool = ShardPool(2, task_fn=_sum_plus, init_payload=table)
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


class TestShipOnce:
    def test_a_warm_fleet_ships_the_table_once_per_worker(
        self, big_table, setups
    ):
        table_wire = len(pickle.dumps(big_table, pickle.HIGHEST_PROTOCOL))
        payloads = [1.0, 2.0, 3.0, 4.0]
        expected = [float(big_table.measure_column("v").data.sum()) + p
                    for p in payloads]
        with WorkerFleet() as fleet, use_fleet(fleet):
            with obs.capture() as (_, cold):
                assert _run_summed(big_table, payloads) == expected
            with obs.capture() as (_, warm):
                assert _run_summed(big_table, payloads) == expected
        assert [shipped for _, shipped in setups] == [True, True, False, False]
        assert cold.snapshot()["counters"]["parallel.ipc_bytes"] > 2 * table_wire
        assert warm.snapshot()["counters"]["parallel.ipc_bytes"] < table_wire / 10

    def test_refresh_and_eviction_ship_the_blob_again(self, setups):
        with WorkerFleet() as fleet, use_fleet(fleet):
            def run(offset):
                pool = ShardPool(2, task_fn=_offset, init_payload=offset)
                assert pool.run([1, 2, 3, 4]) == [offset + p for p in (1, 2, 3, 4)]
                shipped = [blob for _, blob in setups]
                setups.clear()
                return shipped

            assert run(0) == [True, True]
            assert run(0) == [False, False]
            fleet.refresh()
            assert run(0) == [True, True]
            # Four more stages evict offset 0 from every worker's cache.
            for offset in range(1, 1 + _STATE_CACHE_SIZE):
                assert run(offset) == [True, True]
            assert run(0) == [True, True]

    def test_a_failed_init_is_not_believed_held(self, setups):
        with WorkerFleet() as fleet, use_fleet(fleet):
            pool = ShardPool(2, task_fn=_offset, worker_init=_fails_first_init,
                             init_payload=10)
            with pytest.raises(ReproError, match="first init fails"):
                pool.run([1, 2, 3, 4])
            setups.clear()
            # Same stage, same digest: the workers must get the blob again
            # (a digest-only setup would fail with a LookupError).
            assert pool.run([1, 2, 3, 4]) == [11, 12, 13, 14]
        assert [shipped for _, shipped in setups] == [True, True]

    def test_a_session_ships_each_table_version_once(self, setups):
        full = covid_table(240)
        base = full.take(np.arange(200))
        block = {}
        for name in full.schema.categorical_names:
            col = full.categorical_column(name)
            block[name] = [col.categories[c] if c >= 0 else None
                           for c in col.codes[200:]]
        for name in full.schema.measure_names:
            data = full.measure_column(name).data[200:]
            block[name] = [None if np.isnan(v) else float(v) for v in data]
        config = (ReproConfig(budget=3.0)
                  .with_significance(n_permutations=30)
                  .with_parallel(workers=2))
        with Session(base, config=config) as session:
            def shipped_by(run_fn):
                setups.clear()
                run = run_fn()
                return run, [blob for _, blob in setups]

            cold, cold_ships = shipped_by(session.generate)
            warm, warm_ships = shipped_by(session.generate)
            cold_nb = to_ipynb_json(session.render(cold))
            warm_nb = to_ipynb_json(session.render(warm))
            session.append(block)
            _, grown_ships = shipped_by(session.generate)
        # Stats and support each set up both workers with the blob.
        assert cold_ships == [True] * 4
        assert warm_ships and not any(warm_ships)
        assert warm_nb == cold_nb
        assert grown_ships and all(grown_ships)


class TestDataPlaneIpc:
    def test_restart_ships_the_blob_to_the_replacement(
        self, big_table, monkeypatch
    ):
        table_wire = len(pickle.dumps(big_table, pickle.HIGHEST_PROTOCOL))
        payloads = [float(i) for i in range(12)]
        expected = [
            float(big_table.measure_column("v").data.sum()) + p
            for p in payloads
        ]

        with obs.capture() as (_, clean_metrics):
            assert _run_summed(big_table, payloads) == expected
        clean = clean_metrics.snapshot()["counters"]["parallel.ipc_bytes"]

        monkeypatch.setenv("REPRO_FAULTS", "parallel.worker:kill:x1")
        monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 2)
        with obs.capture() as (_, fault_metrics):
            assert _run_summed(big_table, payloads) == expected
        counters = fault_metrics.snapshot()["counters"]
        assert counters.get("parallel.worker_restarts", 0) >= 1

        # The replacement got the whole blob: one more table's worth.
        faulted = counters["parallel.ipc_bytes"]
        assert faulted - clean > table_wire
        assert faulted - clean < 2 * table_wire
