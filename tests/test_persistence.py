"""Tests for saving/loading generation runs."""

import dataclasses
import json

import pytest

from repro import obs
from repro.datasets import covid_table
from repro.persistence import (
    PersistenceError,
    load_outcome,
    load_run,
    outcome_from_dict,
    outcome_to_dict,
    resolve_outcome,
    save_outcome,
    save_run,
)
from repro.runtime import resilient_generate


@pytest.fixture(scope="module", autouse=True)
def isolated_obs():
    """Keep this module's runs out of the ambient obs state."""
    with obs.capture():
        yield


@pytest.fixture(scope="module")
def covid():
    return covid_table(400)


@pytest.fixture(scope="module")
def run(covid):
    return resilient_generate(covid, budget=5)


class TestRoundTrip:
    def test_outcome_round_trip_preserves_queries(self, run, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome(run.outcome, path)
        loaded = load_outcome(path)
        assert [g.query.key for g in loaded.queries] == [
            g.query.key for g in run.outcome.queries
        ]
        assert [g.interest for g in loaded.queries] == pytest.approx(
            [g.interest for g in run.outcome.queries]
        )

    def test_evidence_identity_shared(self, run, tmp_path):
        """Two queries supporting the same insight must share one evidence
        object after loading (credibility is one fact, not per-query)."""
        path = tmp_path / "outcome.json"
        save_outcome(run.outcome, path)
        loaded = load_outcome(path)
        by_key = {}
        for g in loaded.queries:
            for e in g.supported:
                key = e.insight.key
                if key in by_key:
                    assert by_key[key] is e
                by_key[key] = e

    def test_run_round_trip_preserves_solution(self, run, tmp_path):
        path = tmp_path / "run.json"
        save_run(run, path)
        loaded = load_run(path)
        assert loaded.solution.indices == run.solution.indices
        assert loaded.solution.interest == pytest.approx(run.solution.interest)
        assert [g.query.key for g in loaded.selected] == [
            g.query.key for g in run.selected
        ]

    def test_counters_and_timings_preserved(self, run, tmp_path):
        path = tmp_path / "run.json"
        save_run(run, path)
        loaded = load_run(path)
        assert loaded.outcome.counters == run.outcome.counters

    def test_loaded_run_renders_notebook(self, covid, run, tmp_path):
        path = tmp_path / "run.json"
        save_run(run, path)
        loaded = load_run(path)
        notebook = loaded.to_notebook(covid, table_name="covid")
        assert notebook.n_queries == len(run.selected)


class TestResolveOutcome:
    def test_recut_with_smaller_budget(self, run, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome(run.outcome, path)
        loaded = load_outcome(path)
        recut = resolve_outcome(loaded, budget=3)
        assert len(recut.selected) <= 3
        assert recut.solution.distance <= recut.epsilon_distance + 1e-9

    def test_recut_matches_fresh_solve(self, run):
        recut = resolve_outcome(run.outcome, budget=run.budget,
                                epsilon_distance=run.epsilon_distance)
        assert recut.solution.indices == run.solution.indices

    def test_recut_of_saved_outcome_matches_fresh_run(self, covid, run, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome(run.outcome, path)
        recut = resolve_outcome(load_outcome(path), budget=3, epsilon_distance=6.0)
        fresh = resilient_generate(covid, budget=3, epsilon_distance=6.0)
        assert [g.query.key for g in recut.selected] == [
            g.query.key for g in fresh.selected
        ]
        assert recut.solution.interest == pytest.approx(fresh.solution.interest)
        assert recut.epsilon_distance == fresh.epsilon_distance

    def test_recut_resumes_the_controller(self, run):
        tap_seconds = run.timings.tap_solving
        recut = resolve_outcome(run.outcome, budget=3)
        stages = {s.name: (s.status, s.rung) for s in recut.report.stages}
        assert stages["stats"] == ("resumed", "checkpoint")
        assert stages["generation"] == ("resumed", "checkpoint")
        assert stages["tap"] == ("completed", "heuristic")
        # The caller's outcome is left as it was.
        assert run.timings.tap_solving == tap_seconds


class TestValidation:
    def test_version_checked(self, run, tmp_path):
        data = outcome_to_dict(run.outcome)
        data["schema_version"] = 999
        with pytest.raises(PersistenceError, match="version"):
            outcome_from_dict(data)

    def test_malformed_rejected(self):
        with pytest.raises(PersistenceError, match="malformed"):
            outcome_from_dict({"schema_version": 1, "evidences": {}, "queries": [{"nope": 1}]})

    def test_outcome_file_is_not_a_run(self, run, tmp_path):
        path = tmp_path / "outcome.json"
        save_outcome(run.outcome, path)
        with pytest.raises(PersistenceError, match="outcome, not a full run"):
            load_run(path)

    def test_json_is_human_readable(self, run, tmp_path):
        path = tmp_path / "run.json"
        save_run(run, path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert isinstance(data["queries"], list)


class TestRunReportPersistence:
    def test_saved_run_carries_the_report(self, covid, tmp_path):
        from repro.runtime import resilient_generate

        resilient = resilient_generate(covid, budget=4)
        assert resilient.report is not None
        path = tmp_path / "run.json"
        save_run(resilient, path)
        assert "report" in json.loads(path.read_text())
        loaded = load_run(path)
        assert loaded.report is not None
        assert loaded.report.as_dict() == resilient.report.as_dict()

    def test_plain_run_has_no_report(self, run, tmp_path):
        path = tmp_path / "plain.json"
        save_run(dataclasses.replace(run, report=None), path)
        assert "report" not in json.loads(path.read_text())
        assert load_run(path).report is None
