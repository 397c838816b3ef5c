"""RunReport / StageReport accounting and serialization."""

from repro.runtime import RunReport, StageReport
from repro.runtime.report import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_RESUMED,
)


def sample_report() -> RunReport:
    return RunReport(
        stages=[
            StageReport("stats", status=STATUS_RESUMED, rung="checkpoint"),
            StageReport(
                "generation",
                status=STATUS_DEGRADED,
                rung="top-k",
                seconds=1.25,
                retries=2,
                degradations=["evaluated only the top 60 insights"],
                warnings=["rung 'setcover' failed: injected fault"],
            ),
            StageReport("tap", status=STATUS_COMPLETED, rung="heuristic", seconds=0.1),
        ],
        deadline_seconds=5.0,
        total_seconds=2.5,
        resumed_from="run.ckpt.json",
    )


class TestProperties:
    def test_degraded_and_ok(self):
        report = sample_report()
        assert report.degraded
        assert report.ok  # degraded but nothing failed
        report.stages.append(StageReport("render", status=STATUS_FAILED, error="boom"))
        assert not report.ok

    def test_clean_report_not_degraded(self):
        report = RunReport(stages=[StageReport("stats"), StageReport("tap")])
        assert not report.degraded
        assert report.ok

    def test_degradations_are_stage_prefixed(self):
        notes = sample_report().degradations
        assert notes == ["generation: evaluated only the top 60 insights"]

    def test_stage_lookup(self):
        report = sample_report()
        assert report.stage("tap").rung == "heuristic"
        assert report.stage("nope") is None


class TestSerialization:
    def test_round_trip(self):
        report = sample_report()
        restored = RunReport.from_dict(report.as_dict())
        assert restored == report

    def test_mqo_fields_round_trip(self):
        report = sample_report()
        report.mqo_plan = {"batches": 3, "sets": 17}
        restored = RunReport.from_dict(report.as_dict())
        assert restored.mqo_plan == {"batches": 3, "sets": 17}

    def test_old_checkpoints_default_mqo_on(self):
        """Batching is always on; reports written before the plan existed
        load with no plan."""
        restored = RunReport.from_dict({})
        assert restored.mqo_plan is None

    def test_report_with_removed_execution_keys_loads(self):
        """Reports persisted while the kernel and MQO switches existed carry
        ``stats_kernel`` and ``mqo``; they load, and the keys are dropped."""
        data = sample_report().as_dict()
        data.update(
            stats_kernel="legacy", mqo=False, mqo_plan={"batches": 2, "sets": 5}
        )
        restored = RunReport.from_dict(data)
        assert restored.mqo_plan == {"batches": 2, "sets": 5}
        assert restored.backend_statements == data["backend_statements"]
        assert "stats_kernel" not in restored.as_dict()
        assert "mqo" not in restored.as_dict()

    def test_from_dict_defaults(self):
        restored = RunReport.from_dict({})
        assert restored.stages == []
        assert restored.deadline_seconds is None
        assert restored.resumed_from is None


class TestSummaryLines:
    def test_header_mentions_deadline_and_resume(self):
        lines = sample_report().summary_lines()
        assert "deadline 5s" in lines[0]
        assert "resumed from run.ckpt.json" in lines[0]

    def test_stage_lines_show_rung_retries_and_notes(self):
        text = "\n".join(sample_report().summary_lines())
        assert "rung=top-k" in text
        assert "retries=2" in text
        assert "~ evaluated only the top 60 insights" in text
        assert "! rung 'setcover' failed" in text

    def test_error_line_marked(self):
        report = RunReport(stages=[StageReport("render", status=STATUS_FAILED, error="boom")])
        assert any(line.strip() == "x boom" for line in report.summary_lines())

    def test_backend_line_shows_the_mqo_plan(self):
        report = RunReport(backend="sqlite", mqo_plan={"batches": 2, "sets": 9})
        text = "\n".join(report.summary_lines())
        assert "mqo=9 sets/2 batches" in text
