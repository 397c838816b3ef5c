"""The versioned mutation API: ``Session.append`` + incremental ``generate``.

The headline acceptance test for incremental recompute: every run starts
from the session's held stats memo, so after appending rows (or with no
change at all) the run must render a notebook *byte-identical* to a cold
session over the same data — across backends and worker counts — while
re-testing only the touched pair families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import covid_table
from repro.errors import ReproError
from repro.notebook.ipynb import to_ipynb_json
from repro.obs.metrics import MetricsRegistry
from repro.relational import write_csv
from repro.relational.moments import touched_labels
from repro.relational.table import content_token
from repro.runtime.faults import FaultInjector, FaultSpec


@pytest.fixture(autouse=True)
def ambient_metrics():
    """Isolate ambient observability; yields the ambient registry.

    ``Session.generate`` redirects into ``session.metrics``, but
    ``Session.append`` runs outside any run scope — its cache-migration
    counters land here.
    """
    with obs.capture() as (_, metrics):
        yield metrics


FULL = covid_table(240)
BASE_ROWS = 200


def table_prefix(n):
    return FULL.take(np.arange(n))


def block(start, stop):
    """Rows ``start:stop`` of the full table, as an append mapping."""
    out = {}
    for name in FULL.schema.categorical_names:
        col = FULL.categorical_column(name)
        out[name] = [
            col.categories[c] if c >= 0 else None
            for c in col.codes[start:stop]
        ]
    for name in FULL.schema.measure_names:
        data = FULL.measure_column(name).data[start:stop]
        out[name] = [None if np.isnan(v) else float(v) for v in data]
    return out


def quick_config(backend="columnar", workers=1):
    return (
        ReproConfig(budget=3.0)
        .with_generation(backend=backend)
        .with_significance(n_permutations=30)
        .with_parallel(workers=workers)
    )


def notebook_bytes(session, run):
    return to_ipynb_json(session.render(run)).encode("utf-8")


class TestVersion:
    def test_version_is_content_addressed(self):
        with Session(table_prefix(BASE_ROWS)) as session:
            assert session.version == content_token(table_prefix(BASE_ROWS))

    def test_append_returns_advanced_token(self):
        with Session(table_prefix(BASE_ROWS)) as session:
            before = session.version
            after = session.append(block(BASE_ROWS, 240))
            assert after == session.version != before
            assert after == content_token(FULL)
            assert session.table.n_rows == 240

    def test_tableless_session_refuses_append(self):
        with Session(None) as session:
            assert session.version is None
            with pytest.raises(ReproError, match="table-less"):
                session.append(block(BASE_ROWS, 240))

    def test_closed_session_refuses_append(self):
        session = Session(table_prefix(BASE_ROWS))
        session.close()
        with pytest.raises(ReproError, match="closed"):
            session.append(block(BASE_ROWS, 240))


class TestAppendParity:
    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_incremental_notebook_is_byte_identical(self, backend, workers):
        config = quick_config(backend, workers)
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            session.generate()
            since = session.version  # the version the stats memo covers
            session.append(block(BASE_ROWS, 240))
            warm_run = session.generate(since=since)
            warm = notebook_bytes(session, warm_run)
            skipped = session.metrics.snapshot()["counters"].get(
                "stats.partitions_skipped", 0
            )
        with Session(FULL, config=config) as session:
            cold = notebook_bytes(session, session.generate())
        assert warm == cold
        assert skipped > 0, "incremental run must actually skip partitions"

    def test_chained_appends_stay_byte_identical(self):
        config = quick_config()
        with Session(table_prefix(160), config=config) as session:
            session.generate()
            for start, stop in ((160, 200), (200, 240)):
                since = session.version
                session.append(block(start, stop))
                warm_run = session.generate(since=since)
            warm = notebook_bytes(session, warm_run)
        with Session(FULL, config=config) as session:
            cold = notebook_bytes(session, session.generate())
        assert warm == cold

    def test_since_token_is_ignored_and_the_held_memo_decides(self):
        config = quick_config()
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            session.generate()
            session.append(block(BASE_ROWS, 240))
            warm = notebook_bytes(
                session, session.generate(since="999-notaversion")
            )
            counters = session.metrics.snapshot()["counters"]
            assert counters.get("stats.partitions_skipped", 0) > 0
        with Session(FULL, config=config) as session:
            cold = notebook_bytes(session, session.generate())
        assert warm == cold

    def test_append_during_worker_fleet_refreshes_it(self):
        config = quick_config(workers=2)
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            session.generate()  # spins the fleet up on the base table
            since = session.version
            session.append(block(BASE_ROWS, 240))
            session.generate(since=since)
            counters = session.metrics.snapshot()["counters"]
            assert counters.get("parallel.fleet_refreshes", 0) >= 1


def counted_run(session, **kwargs):
    """One ``generate`` with its own registry: (run, counters)."""
    metrics = MetricsRegistry()
    run = session.generate(metrics=metrics, **kwargs)
    return run, metrics.snapshot()["counters"]


def family_count(memo):
    return sum(len(records) for records in memo.families.values())


class TestHeldMemo:
    """Every run starts from the held memo; no ``since=`` is needed."""

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_unchanged_session_retests_nothing(self, backend, workers):
        config = quick_config(backend, workers)
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            first_run = session.generate()
            first = notebook_bytes(session, first_run)
            second_run, counters = counted_run(session)
            second = notebook_bytes(session, second_run)
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            fresh = notebook_bytes(session, session.generate())
        assert counters.get("stats.partitions_retested", 0) == 0
        assert counters["stats.partitions_skipped"] == family_count(
            first_run.stats_memo
        ) > 0
        assert first == second == fresh

    def test_append_retests_only_the_touched_families(self):
        config = quick_config()
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            before = session.generate().stats_memo
            session.append(block(BASE_ROWS, 240))
            warm_run, counters = counted_run(session)
            warm = notebook_bytes(session, warm_run)
        with Session(FULL, config=config) as session:
            cold = notebook_bytes(session, session.generate())
        assert warm == cold
        # A family is re-tested when a touched value is one of its pair,
        # or when the base run held no equal family for it.
        held = {
            (attribute, record.pair_key): record.candidates
            for attribute, records in before.families.items()
            for record in records
        }
        touched = {
            name: touched_labels(FULL, name, BASE_ROWS)
            for name in FULL.schema.categorical_names
        }
        expected = sum(
            1
            for attribute, records in warm_run.stats_memo.families.items()
            for record in records
            if record.pair_key[1] & touched[attribute]
            or held.get((attribute, record.pair_key)) != record.candidates
        )
        assert 0 < counters["stats.partitions_retested"] == expected
        assert counters["stats.partitions_skipped"] == (
            family_count(warm_run.stats_memo) - expected
        ) > 0

    @pytest.mark.parametrize("kills, rung", [(1, "reduced"), (2, "parametric")])
    def test_degraded_run_leaves_the_held_memo_unchanged(self, kills, rung):
        config = quick_config()
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            session.generate()
            held = session._memo
            degraded = session.generate(
                faults=FaultInjector([FaultSpec("stats", "kill", times=kills)])
            )
            assert degraded.report.stages[0].rung == rung
            assert session._memo is held
            after_run, counters = counted_run(session)
            after = notebook_bytes(session, after_run)
        with Session(table_prefix(BASE_ROWS), config=config) as session:
            cold = notebook_bytes(session, session.generate())
        assert counters.get("stats.partitions_retested", 0) == 0
        assert after == cold


class TestFromCsv:
    def test_from_csv_then_append(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_csv(table_prefix(BASE_ROWS), path)
        with Session.from_csv(path, config=quick_config()) as session:
            assert session.table_name == "metrics"
            session.append(block(BASE_ROWS, 240))
            assert session.version == content_token(FULL)


class TestAppendCacheCarryover:
    def test_untouched_partitions_keep_their_aggregates(self, ambient_metrics):
        with Session(table_prefix(BASE_ROWS), config=quick_config()) as session:
            session.generate()
            session.append(block(BASE_ROWS, 240))
            counters = session.metrics.snapshot()["counters"]
            assert counters["session.appends"] == 1
            assert counters["session.rows_appended"] == 40
            ambient = ambient_metrics.snapshot()["counters"]
            assert ambient.get("cache.groups_carried", 0) > 0
            assert ambient.get("cache.aggregates_migrated", 0) > 0
