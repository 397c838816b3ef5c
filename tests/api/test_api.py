"""The stable facade: ``repro.Session``, ``repro.generate_notebook``,
``repro.ReproConfig``, and the presets that feed it."""

from __future__ import annotations

import json
import warnings

import pytest

import repro
from repro import ReproConfig, Session, generate_notebook, obs
from repro.datasets import covid_table
from repro.errors import ReproError, StatisticsError
from repro.generation import GenerationConfig
from repro.generation.pipeline import preset
from repro.insights import SignificanceConfig
from repro.parallel import ParallelConfig
from repro.relational import write_csv


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


@pytest.fixture()
def quick_config():
    return ReproConfig(budget=4.0).with_significance(n_permutations=60)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


def test_session_from_table(covid, quick_config):
    with Session(covid, config=quick_config) as session:
        assert session.table is covid
        assert session.table_name == "dataset"
        run = session.generate()
    assert run.selected
    assert run.report.ok


def test_session_from_csv_path_uses_stem(tmp_path, quick_config):
    path = tmp_path / "monitoring.csv"
    write_csv(covid_table(200), path)
    with Session(path, config=quick_config) as session:
        assert session.table_name == "monitoring"
        assert session.table.n_rows == 200
    # str paths work too.
    with Session(str(path), config=quick_config) as session:
        assert session.table_name == "monitoring"


def test_session_rejects_other_sources():
    with pytest.raises(ReproError, match="Table or a CSV path"):
        Session(42)


def test_repeated_runs_are_identical_and_reuse_the_backend(covid, quick_config):
    with Session(covid, config=quick_config) as session:
        backend = session.backend
        first = session.generate()
        assert session.backend is backend
        second = session.generate()
    assert [str(q.query) for q in first.selected] == [
        str(q.query) for q in second.selected
    ]


def test_write_notebook_produces_valid_ipynb(covid, quick_config, tmp_path):
    out = tmp_path / "covid.ipynb"
    with Session(covid, config=quick_config, table_name="covid") as session:
        run = session.generate()
        returned = session.write_notebook(run, out, title="smoke")
    assert returned == out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["nbformat"] == 4
    assert any("smoke" in "".join(c.get("source", [])) for c in payload["cells"])


def test_closed_session_refuses_a_backend(covid, quick_config):
    session = Session(covid, config=quick_config)
    session.close()
    session.close()  # idempotent
    with pytest.raises(ReproError, match="closed"):
        session.backend


def test_tableless_session_has_no_backend():
    session = Session(None)
    with pytest.raises(ReproError, match="table-less"):
        session.backend


def test_session_owns_a_private_trace(covid, quick_config):
    with Session(covid, config=quick_config) as session:
        session.generate()
        spans = session.tracer.spans()
    assert any(span.name.startswith("stage.") for span in spans)
    # The surrounding capture() stack saw none of it.
    assert not any(
        span.name.startswith("stage.") for span in obs.current_tracer().spans()
    )


def test_generate_notebook_one_call(covid, quick_config, tmp_path):
    out = tmp_path / "one-call.ipynb"
    run = generate_notebook(covid, config=quick_config, out=out)
    assert run.selected
    assert json.loads(out.read_text(encoding="utf-8"))["nbformat"] == 4


def test_facade_is_exported_at_package_top():
    for name in ("Session", "generate_notebook", "ReproConfig", "ParallelConfig"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


# ---------------------------------------------------------------------------
# Thread safety
# ---------------------------------------------------------------------------


def test_concurrent_generate_on_one_session_serializes(covid, quick_config):
    """Two threads racing one Session both succeed: runs serialize on the
    session/run locks instead of corrupting the ambient obs state."""
    import threading

    results: list = [None, None]
    errors: list = []

    with Session(covid, config=quick_config) as session:

        def worker(index: int) -> None:
            try:
                results[index] = session.generate()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(t.is_alive() for t in threads)

    assert errors == []
    first, second = results
    assert [str(q.query) for q in first.selected] == [
        str(q.query) for q in second.selected
    ]
    # Both runs' spans landed in the session's private trace, untangled.
    stage_spans = [s for s in session.tracer.spans()
                   if s.name == "stage.stats"]
    assert len(stage_spans) == 2


def test_generate_on_a_closed_session_raises(covid, quick_config):
    session = Session(covid, config=quick_config)
    session.close()
    with pytest.raises(ReproError, match="closed"):
        session.generate()


def test_busy_probe_reflects_an_in_flight_run(covid, quick_config):
    with Session(covid, config=quick_config) as session:
        assert session.busy is False
        session.generate()
        assert session.busy is False  # released once the run returns


# ---------------------------------------------------------------------------
# ReproConfig
# ---------------------------------------------------------------------------


def test_config_round_trips_through_dict():
    config = ReproConfig(
        budget=7.5,
        solver="exact",
        generation=GenerationConfig(
            backend="sqlite",
            significance=SignificanceConfig(n_permutations=123),
            parallel=ParallelConfig(workers=3, store="heap"),
        ),
    )
    rebuilt = ReproConfig.from_dict(config.to_dict())
    assert rebuilt.to_dict() == config.to_dict()
    assert rebuilt.budget == 7.5
    assert rebuilt.backend == "sqlite"
    assert rebuilt.significance.n_permutations == 123
    assert rebuilt.parallel.workers == 3
    assert rebuilt.parallel.store == "heap"


def test_from_dict_rejects_zero_permutations():
    payload = ReproConfig().to_dict()
    payload["generation"]["significance"]["n_permutations"] = 0
    with pytest.raises(StatisticsError, match="n_permutations"):
        ReproConfig.from_dict(payload)


def test_config_dict_is_json_serializable():
    json.dumps(ReproConfig().to_dict())


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"budgett": 5}, "unknown ReproConfig keys"),
        ({"generation": {"bacckend": "sqlite"}}, "unknown generation keys"),
        ({"generation": {"significance": {"kernle": "batched"}}},
         "unknown significance keys"),
        # Removed execution switches are rejected, never silently dropped.
        ({"generation": {"mqo": False}}, "unknown generation keys"),
        ({"generation": {"significance": {"kernel": "legacy"}}},
         "unknown significance keys"),
        ({"generation": {"parallel": {"backend": "threads"}}},
         "unknown ParallelConfig keys"),
        # Scheduler tuning values are module constants, not config keys.
        ({"generation": {"parallel": {"chunk_size": 17}}},
         "unknown ParallelConfig keys"),
    ],
)
def test_from_dict_rejects_unknown_keys(payload, match):
    with pytest.raises(ReproError, match=match):
        ReproConfig.from_dict(payload)


def test_parallel_defaults_read_the_ci_matrix_hooks(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert ReproConfig().parallel == ParallelConfig(workers=2)
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ReproError, match="REPRO_WORKERS"):
        ParallelConfig()


def test_with_helpers_are_functional_updates():
    base = ReproConfig()
    changed = base.with_parallel(workers=4).with_significance(n_permutations=9)
    assert changed.parallel.workers == 4
    assert changed.significance.n_permutations == 9
    # The original is untouched (frozen + copy-on-write).
    assert base.parallel.workers == ParallelConfig().workers
    assert base.significance.n_permutations != 9


def test_config_validates_at_construction():
    with pytest.raises(ReproError, match="solver"):
        ReproConfig(solver="quantum")
    with pytest.raises(ReproError, match="budget"):
        ReproConfig(budget=0)


# ---------------------------------------------------------------------------
# Presets and warnings
# ---------------------------------------------------------------------------


def test_preset_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = preset("wsc-approx")
    assert isinstance(config, ReproConfig)
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_modern_config_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GenerationConfig(parallel=ParallelConfig(workers=8))
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
