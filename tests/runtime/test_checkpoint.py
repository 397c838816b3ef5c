"""Stage checkpoints and resume: never re-run a completed expensive stage."""

import json

import pytest

from repro.generation import GenerationConfig
from repro.persistence import PersistenceError, load_checkpoint, save_checkpoint
from repro.runtime import FaultInjector, FaultSpec, resilient_generate
from repro.runtime.report import STATUS_RESUMED


@pytest.fixture
def fast_config() -> GenerationConfig:
    return GenerationConfig()


class TestCheckpointWriting:
    def test_full_run_checkpoints_the_generation_stage(self, two_measure_table,
                                                       fast_config, tmp_path):
        path = tmp_path / "run.ckpt.json"
        run = resilient_generate(two_measure_table, fast_config, budget=4,
                                 checkpoint_path=path)
        assert run.selected
        ck = load_checkpoint(path)
        assert ck.stage == "generation"
        assert ck.outcome is not None
        assert len(ck.outcome.queries) == len(run.outcome.queries)

    def test_failed_generation_keeps_the_stats_checkpoint(self, two_measure_table,
                                                          fast_config, tmp_path):
        path = tmp_path / "run.ckpt.json"
        faults = FaultInjector([FaultSpec("generation", times=None)])
        run = resilient_generate(two_measure_table, fast_config, budget=4,
                                 checkpoint_path=path, faults=faults)
        assert not run.report.ok
        # The failed stage's empty stand-in must never poison the snapshot:
        # the file still holds the completed stats stage.
        ck = load_checkpoint(path)
        assert ck.stage == "stats"
        assert ck.stats is not None
        assert ck.stats.significant

    def test_save_checkpoint_requires_a_payload(self, tmp_path):
        with pytest.raises(PersistenceError):
            save_checkpoint(tmp_path / "x.json")

    def test_load_rejects_non_checkpoints(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{\"kind\": \"something-else\"}")
        with pytest.raises(PersistenceError):
            load_checkpoint(path)
        path.write_text("not json at all")
        with pytest.raises(PersistenceError):
            load_checkpoint(path)


    def test_load_rejects_old_or_unversioned_checkpoints(self, two_measure_table,
                                                         fast_config, tmp_path):
        path = tmp_path / "run.ckpt.json"
        resilient_generate(two_measure_table, fast_config, budget=4,
                           checkpoint_path=path)
        data = json.loads(path.read_text())
        for change in ({"schema_version": 1}, {"version": None}):
            path.write_text(json.dumps({**data, **change}))
            with pytest.raises(PersistenceError):
                load_checkpoint(path)


class TestResume:
    def test_stats_checkpoint_resumes_without_rerunning_tests(
        self, two_measure_table, fast_config, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.ckpt.json"
        faults = FaultInjector([FaultSpec("generation", times=None)])
        interrupted = resilient_generate(two_measure_table, fast_config, budget=4,
                                         checkpoint_path=path, faults=faults)
        assert interrupted.selected == []

        def fail_if_called(*args, **kwargs):
            raise AssertionError("stats stage must not re-run on resume")

        monkeypatch.setattr("repro.runtime.controller.run_stats_stage", fail_if_called)
        run = resilient_generate(two_measure_table, fast_config, budget=4,
                                 resume=load_checkpoint(path))
        assert run.selected
        assert run.report.stage("stats").status == STATUS_RESUMED
        assert run.report.stage("stats").rung == "checkpoint"
        assert run.report.resumed_from == str(path)

    def test_generation_checkpoint_resumes_without_a_table(
        self, two_measure_table, fast_config, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.ckpt.json"
        baseline = resilient_generate(two_measure_table, fast_config, budget=4,
                                      checkpoint_path=path)

        def fail_if_called(*args, **kwargs):
            raise AssertionError("completed stages must not re-run on resume")

        monkeypatch.setattr("repro.runtime.controller.run_stats_stage", fail_if_called)
        monkeypatch.setattr("repro.runtime.controller.run_support_stage", fail_if_called)
        run = resilient_generate(None, fast_config, budget=4,
                                 resume=load_checkpoint(path))
        assert run.report.stage("stats").status == STATUS_RESUMED
        assert run.report.stage("generation").status == STATUS_RESUMED
        assert [g.query.describe() for g in run.selected] == [
            g.query.describe() for g in baseline.selected
        ]

    def test_resume_survives_different_budget(self, two_measure_table,
                                              fast_config, tmp_path):
        path = tmp_path / "run.ckpt.json"
        resilient_generate(two_measure_table, fast_config, budget=6,
                           checkpoint_path=path)
        run = resilient_generate(None, fast_config, budget=2,
                                 resume=load_checkpoint(path))
        assert len(run.selected) <= 2
