"""The dataset registry: warm sessions, lease-safe eviction, breakers."""

from __future__ import annotations

import pytest

from repro.errors import ServeError, UnknownDatasetError
from repro.serve.registry import DatasetRegistry


@pytest.fixture()
def registry(fast_config):
    reg = DatasetRegistry(config=fast_config)
    yield reg
    reg.close()


def test_register_get_and_names(registry, serve_csv):
    entry = registry.register("covid", serve_csv)
    assert registry.get("covid") is entry
    assert registry.names() == ["covid"]
    assert entry.session.table.n_rows == 200
    # 200 rows is below one cost unit; the floor is 1.
    assert entry.cost_units == 1.0


def test_duplicate_and_invalid_names_are_rejected(registry, serve_csv):
    registry.register("covid", serve_csv)
    with pytest.raises(ServeError, match="already registered"):
        registry.register("covid", serve_csv)
    with pytest.raises(ServeError, match="invalid dataset name"):
        registry.register("a/b", serve_csv)


def test_get_unknown_raises(registry):
    with pytest.raises(UnknownDatasetError, match="ghost"):
        registry.get("ghost")


def test_evict_without_leases_closes_immediately(registry, serve_csv):
    entry = registry.register("covid", serve_csv)
    assert registry.evict("covid") is True
    assert registry.evict("covid") is False  # already gone
    with pytest.raises(UnknownDatasetError):
        registry.get("covid")
    assert entry.session._closed


def test_evict_with_a_lease_defers_the_close(registry, serve_csv):
    entry = registry.register("covid", serve_csv)
    session = entry.acquire()
    assert registry.evict("covid") is True
    # The registry forgot it, but the leased session stays open...
    with pytest.raises(UnknownDatasetError):
        registry.get("covid")
    assert not session._closed
    # ...until the last lease drops.
    entry.release()
    assert session._closed


def test_acquire_after_eviction_raises(registry, serve_csv):
    entry = registry.register("covid", serve_csv)
    registry.evict("covid")
    with pytest.raises(UnknownDatasetError, match="evicted"):
        entry.acquire()


def test_reregistration_after_eviction_is_a_fresh_entry(registry, serve_csv):
    first = registry.register("covid", serve_csv)
    registry.evict("covid")
    second = registry.register("covid", serve_csv)
    assert second is not first
    assert registry.get("covid") is second


def test_snapshot_reports_cache_counters(registry, serve_csv):
    entry = registry.register("covid", serve_csv)
    entry.session.generate()
    snap = entry.snapshot()
    assert snap["name"] == "covid"
    assert snap["rows"] == 200
    assert snap["breaker"]["state"] == "closed"
    assert snap["cache"]["aggregate_misses"] > 0
    # A second identical run hits the warm aggregate cache.
    entry.session.generate()
    assert entry.snapshot()["cache"]["aggregate_hits"] > 0


def test_close_evicts_everything(registry, serve_csv, tmp_path):
    registry.register("covid", serve_csv)
    registry.close()
    assert registry.names() == []

