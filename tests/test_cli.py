"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro import __version__
from repro.cli import main
from repro.datasets import covid_table
from repro.relational import write_csv


@pytest.fixture
def covid_csv(tmp_path):
    path = tmp_path / "covid.csv"
    write_csv(covid_table(400), path)
    return path


class TestGenerate:
    def test_writes_ipynb(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        code = main(
            ["generate", str(covid_csv), "--budget", "4", "--out", str(out), "--quiet"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["nbformat"] == 4
        assert any(c["cell_type"] == "code" for c in doc["cells"])

    def test_writes_sql_script(self, covid_csv, tmp_path):
        out = tmp_path / "nb.ipynb"
        sql = tmp_path / "nb.sql"
        code = main(
            ["generate", str(covid_csv), "--budget", "3", "--out", str(out),
             "--sql-out", str(sql), "--quiet", "--no-previews"]
        )
        assert code == 0
        assert sql.read_text().startswith("--")

    def test_preset_option(self, covid_csv, tmp_path):
        out = tmp_path / "nb.ipynb"
        code = main(
            ["generate", str(covid_csv), "--preset", "wsc-rand-approx",
             "--sample-rate", "0.4", "--budget", "3", "--out", str(out), "--quiet"]
        )
        assert code == 0

    def test_default_output_path(self, covid_csv):
        code = main(["generate", str(covid_csv), "--budget", "3", "--quiet"])
        assert code == 0
        assert covid_csv.with_suffix(".comparisons.ipynb").exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "ghost.csv"), "--quiet"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_progress_output(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        main(["generate", str(covid_csv), "--budget", "3", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "[repro]" in stdout and "selected" in stdout

    def test_quiet_run_leaks_nothing_into_the_ambient_registry(
        self, covid_csv, tmp_path
    ):
        """Each invocation records into its Session's own tracer/registry;
        the module-level ambient pair must come back untouched — the leak
        regression the per-job isolation work guards against.
        """
        from repro import obs

        before_counters = dict(obs.current_metrics().snapshot()["counters"])
        before_spans = len(obs.current_tracer().spans())
        for n in range(2):
            out = tmp_path / f"nb-{n}.ipynb"
            assert main(["generate", str(covid_csv), "--budget", "3",
                         "--out", str(out), "--quiet"]) == 0
        assert obs.current_metrics().snapshot()["counters"] == before_counters
        assert len(obs.current_tracer().spans()) == before_spans


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert __version__ == declared


class TestLogging:
    def test_repeated_main_attaches_one_handler(self, covid_csv, tmp_path):
        root = logging.getLogger("repro")
        before = [h for h in root.handlers if getattr(h, "_repro_cli", False)]
        for _ in range(3):
            main(["inspect", str(covid_csv), "--quiet"])
        tagged = [h for h in root.handlers if getattr(h, "_repro_cli", False)]
        assert len(tagged) == 1
        assert len(tagged) >= len(before)

    def test_level_reflects_latest_invocation(self, covid_csv):
        main(["inspect", str(covid_csv), "--quiet"])
        assert logging.getLogger("repro").level == logging.ERROR
        main(["inspect", str(covid_csv), "--verbose"])
        assert logging.getLogger("repro").level == logging.DEBUG


class TestObservability:
    def test_generate_metrics_line(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        main(["generate", str(covid_csv), "--budget", "3", "--out", str(out)])
        assert "metrics:" in capsys.readouterr().out

    def test_quiet_silences_metrics_line(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        main(["generate", str(covid_csv), "--budget", "3", "--out", str(out), "--quiet"])
        assert "metrics:" not in capsys.readouterr().out

    def test_generate_trace_export(self, covid_csv, tmp_path):
        out = tmp_path / "nb.ipynb"
        trace = tmp_path / "trace.json"
        code = main(["generate", str(covid_csv), "--budget", "3", "--out", str(out),
                     "--trace", str(trace), "--quiet"])
        assert code == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        for stage in ("stage.stats", "stage.generation", "stage.tap", "stage.render"):
            assert stage in names


class TestProfile:
    def test_prints_tree_and_hotspots(self, covid_csv, capsys):
        assert main(["profile", str(covid_csv), "--budget", "3"]) == 0
        out = capsys.readouterr().out
        assert "stage.stats" in out
        assert "hotspots" in out
        assert "metrics:" in out

    def test_trace_covers_all_stages(self, covid_csv, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["profile", str(covid_csv), "--budget", "3",
                     "--trace", str(trace), "--quiet"]) == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        for stage in ("stage.stats", "stage.generation", "stage.tap", "stage.render"):
            assert stage in names
        assert doc["otherData"]["metrics"]["counters"]

    def test_metrics_out_is_prometheus_text(self, covid_csv, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(["profile", str(covid_csv), "--budget", "3",
                     "--metrics-out", str(prom), "--quiet"]) == 0
        text = prom.read_text()
        assert "# TYPE repro_stats_candidates_tested counter" in text
        assert "repro_process_peak_rss_bytes" in text

    def test_optional_notebook_output(self, covid_csv, tmp_path):
        out = tmp_path / "nb.ipynb"
        assert main(["profile", str(covid_csv), "--budget", "3",
                     "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["nbformat"] == 4


class TestInspect:
    def test_prints_schema_and_fds(self, covid_csv, capsys):
        assert main(["inspect", str(covid_csv)]) == 0
        out = capsys.readouterr().out
        assert "month" in out
        assert "country -> continent" in out
        assert "Lemma 3.2" in out


class TestDatasets:
    def test_writes_all_four(self, tmp_path):
        assert main(["datasets", "--out-dir", str(tmp_path), "--scale", "0.1"]) == 0
        for name in ("vaccine", "enedis", "flights", "covid"):
            assert (tmp_path / f"{name}.csv").exists()


class TestRecut:
    def test_save_and_recut(self, covid_csv, tmp_path):
        out = tmp_path / "nb.ipynb"
        saved = tmp_path / "run.json"
        assert main(
            ["generate", str(covid_csv), "--budget", "6", "--out", str(out),
             "--save-run", str(saved), "--quiet"]
        ) == 0
        assert saved.exists()
        recut_out = tmp_path / "recut.ipynb"
        code = main(
            ["recut", str(saved), "--budget", "3", "--out", str(recut_out),
             "--csv", str(covid_csv)]
        )
        assert code == 0
        doc = json.loads(recut_out.read_text())
        code_cells = [c for c in doc["cells"] if c["cell_type"] == "code"]
        assert 1 <= len(code_cells) <= 3

    def test_recut_without_csv_has_no_previews(self, covid_csv, tmp_path):
        saved = tmp_path / "run.json"
        main(["generate", str(covid_csv), "--budget", "4",
              "--out", str(tmp_path / "a.ipynb"), "--save-run", str(saved), "--quiet"])
        recut_out = tmp_path / "recut.ipynb"
        assert main(["recut", str(saved), "--budget", "2", "--out", str(recut_out)]) == 0
        doc = json.loads(recut_out.read_text())
        code_cells = [c for c in doc["cells"] if c["cell_type"] == "code"]
        assert all(not c["outputs"] for c in code_cells)

    def test_recut_render_failure_degrades(self, covid_csv, tmp_path, monkeypatch):
        """recut renders through the render ladder: a killed full render
        falls back to SQL-only cells instead of failing the command."""
        saved = tmp_path / "run.json"
        main(["generate", str(covid_csv), "--budget", "4",
              "--out", str(tmp_path / "a.ipynb"), "--save-run", str(saved), "--quiet"])
        monkeypatch.setenv("REPRO_FAULTS", "render:kill")
        recut_out = tmp_path / "recut.ipynb"
        assert main(["recut", str(saved), "--budget", "2", "--out", str(recut_out),
                     "--csv", str(covid_csv)]) == 0
        doc = json.loads(recut_out.read_text())
        code_cells = [c for c in doc["cells"] if c["cell_type"] == "code"]
        assert code_cells and all(not c["outputs"] for c in code_cells)


class TestSinceCheckpoint:
    """``--since-checkpoint``: incremental re-runs carried by the checkpoint."""

    @pytest.fixture
    def grown_pair(self, tmp_path):
        """(base_csv, grown_csv): the same dataset before/after 40 appended rows."""
        import numpy as np

        full = covid_table(240)
        base_csv = tmp_path / "base.csv"
        grown_csv = tmp_path / "grown.csv"
        write_csv(full.take(np.arange(200)), base_csv)
        write_csv(full, grown_csv)
        return base_csv, grown_csv

    def test_incremental_rerun_is_byte_identical(self, grown_pair, tmp_path,
                                                 capsys):
        base_csv, grown_csv = grown_pair
        ck = tmp_path / "run.ckpt.json"
        first = tmp_path / "first.ipynb"
        assert main(["generate", str(base_csv), "--checkpoint", str(ck),
                     "--out", str(first), "--permutations", "50",
                     "--quiet"]) == 0
        # The checkpoint carries the stats memo for the next run.
        doc = json.loads(ck.read_text())
        assert "incremental" in doc
        old_version = doc["incremental"]["version"]

        warm = tmp_path / "warm.ipynb"
        assert main(["generate", str(grown_csv), "--checkpoint", str(ck),
                     "--since-checkpoint", "--out", str(warm),
                     "--permutations", "50"]) == 0
        assert "incremental run since version" in capsys.readouterr().out

        cold = tmp_path / "cold.ipynb"
        assert main(["generate", str(grown_csv), "--out", str(cold),
                     "--permutations", "50", "--quiet"]) == 0
        assert warm.read_bytes() == cold.read_bytes()

        # The incremental run rewrote the checkpoint at the grown version:
        # a replay over the same CSV is fully incremental and still identical.
        assert json.loads(ck.read_text())["incremental"]["version"] != old_version
        replay = tmp_path / "replay.ipynb"
        assert main(["generate", str(grown_csv), "--checkpoint", str(ck),
                     "--since-checkpoint", "--out", str(replay),
                     "--permutations", "50", "--quiet"]) == 0
        assert replay.read_bytes() == cold.read_bytes()

    def test_version_mismatch_falls_back_to_full_run(self, grown_pair,
                                                     tmp_path, caplog):
        base_csv, grown_csv = grown_pair
        ck = tmp_path / "run.ckpt.json"
        assert main(["generate", str(base_csv), "--checkpoint", str(ck),
                     "--permutations", "50",
                     "--out", str(tmp_path / "a.ipynb"), "--quiet"]) == 0
        doc = json.loads(ck.read_text())
        tampered = ck.read_text().replace(
            doc["incremental"]["version"], "999-deadbeefdeadbeefdead"
        )
        ck.write_text(tampered)
        warm = tmp_path / "warm.ipynb"
        with caplog.at_level(logging.WARNING, logger="repro.cli"):
            assert main(["generate", str(grown_csv), "--checkpoint", str(ck),
                         "--since-checkpoint", "--out", str(warm),
                         "--permutations", "50", "--quiet"]) == 0
        assert "not a row prefix" in caplog.text
        cold = tmp_path / "cold.ipynb"
        assert main(["generate", str(grown_csv), "--out", str(cold),
                     "--permutations", "50", "--quiet"]) == 0
        assert warm.read_bytes() == cold.read_bytes()

    def test_requires_checkpoint_flag(self, covid_csv, capsys):
        assert main(["generate", str(covid_csv), "--since-checkpoint",
                     "--quiet"]) == 2
        assert "--since-checkpoint requires --checkpoint" in (
            capsys.readouterr().err
        )

    def test_checkpoint_without_memo_warns_and_runs_full(self, covid_csv,
                                                         tmp_path, caplog):
        ck = tmp_path / "stale.ckpt.json"
        # A sampled run is not memoizable: its checkpoint carries no memo.
        assert main(["generate", str(covid_csv), "--checkpoint", str(ck),
                     "--preset", "wsc-rand-approx", "--sample-rate", "0.5",
                     "--budget", "3",
                     "--out", str(tmp_path / "a.ipynb"), "--quiet"]) == 0
        assert "incremental" not in json.loads(ck.read_text())
        out = tmp_path / "b.ipynb"
        with caplog.at_level(logging.WARNING, logger="repro.cli"):
            assert main(["generate", str(covid_csv), "--checkpoint", str(ck),
                         "--since-checkpoint", "--preset", "wsc-rand-approx",
                         "--sample-rate", "0.5",
                         "--budget", "3", "--out", str(out), "--quiet"]) == 0
        assert "holds no incremental stats memo" in caplog.text
        assert out.exists()


class TestRemovedFlags:
    @pytest.mark.parametrize("command", ["generate", "profile"])
    @pytest.mark.parametrize("flag", [
        ["--threads", "2"],
        ["--parallel-backend", "threads"],
        ["--stats-kernel", "legacy"],
    ])
    def test_removed_execution_flags_are_rejected(self, command, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "x.csv", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorExits:
    """Malformed inputs exit with code 2 and a one-line message, no traceback."""

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("cat,num\n")
        assert main(["generate", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no data rows" in err
        assert "Traceback" not in err

    def test_single_value_categorical(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("cat,num\n" + "\n".join(f"same,{i}" for i in range(20)))
        assert main(["generate", str(path), "--quiet"]) == 2
        assert "fewer than two distinct" in capsys.readouterr().err

    def test_unwritable_out(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "nb.ipynb"
        assert main(["generate", str(covid_csv), "--budget", "3",
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_csv_without_resume(self, capsys):
        assert main(["generate", "--quiet"]) == 2
        assert "CSV argument is required" in capsys.readouterr().err

    @pytest.mark.parametrize("permutations", ["0", "-5"])
    def test_non_positive_permutations(self, covid_csv, permutations, capsys):
        assert main(["generate", str(covid_csv), "--permutations", permutations,
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "n_permutations must be at least 1" in err

    @pytest.mark.parametrize("command", ["generate", "profile"])
    def test_zero_workers(self, covid_csv, command, capsys):
        assert main([command, str(covid_csv), "--workers", "0", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "workers must be at least 1" in err

    def test_malformed_fault_plan(self, covid_csv, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "stats")
        assert main(["generate", str(covid_csv), "--quiet"]) == 2
        assert "malformed fault spec" in capsys.readouterr().err


class TestServe:
    """The blocking serve loop itself is exercised by the serve test suite
    and the CI smoke job; here we cover the CLI validation surface."""

    def test_malformed_dataset_spec_exits_2(self, capsys):
        code = main(["serve", "--port", "0", "--dataset", "no-equals-sign",
                     "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed --dataset" in err
        assert "NAME=PATH" in err

    def test_malformed_fault_plan_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "serve.handler")
        code = main(["serve", "--port", "0", "--quiet"])
        assert code == 2
        assert "malformed fault spec" in capsys.readouterr().err

    def test_parser_accepts_the_knob_surface(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--dataset", "a=a.csv", "--dataset", "b=b.csv",
             "--max-queue", "4", "--max-cost", "8",
             "--default-deadline", "10", "--executors", "2",
             "--breaker-failures", "5", "--breaker-reset", "60"]
        )
        assert args.command == "serve"
        assert args.dataset == ["a=a.csv", "b=b.csv"]
        assert args.max_queue == 4
        assert args.breaker_failures == 5


class TestResilience:
    def test_deadline_run_completes(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        code = main(["generate", str(covid_csv), "--budget", "4",
                     "--deadline", "30", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "run report" in capsys.readouterr().out

    def test_report_lines_printed(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        main(["generate", str(covid_csv), "--budget", "3", "--out", str(out)])
        stdout = capsys.readouterr().out
        for stage in ("stats", "generation", "tap", "render"):
            assert stage in stdout

    def test_quiet_suppresses_report(self, covid_csv, tmp_path, capsys):
        out = tmp_path / "nb.ipynb"
        main(["generate", str(covid_csv), "--budget", "3", "--out", str(out), "--quiet"])
        assert "run report" not in capsys.readouterr().out

    def test_injected_fault_still_writes_notebook(self, covid_csv, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "tap:kill")
        out = tmp_path / "nb.ipynb"
        code = main(["generate", str(covid_csv), "--budget", "4", "--out", str(out)])
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "degraded" in stdout
        assert "baseline" in stdout

    def test_checkpoint_and_resume(self, covid_csv, tmp_path, monkeypatch, capsys):
        ck = tmp_path / "run.ckpt.json"
        out = tmp_path / "nb.ipynb"
        # Interrupt the run after the stats stage: every generation attempt dies.
        monkeypatch.setenv("REPRO_FAULTS", "generation:kill:xall")
        code = main(["generate", str(covid_csv), "--budget", "4",
                     "--checkpoint", str(ck), "--quiet"])
        assert code == 1  # nothing selected, but no crash
        assert json.loads(ck.read_text())["stage"] == "stats"

        monkeypatch.delenv("REPRO_FAULTS")
        code = main(["generate", str(covid_csv), "--budget", "4",
                     "--resume", str(ck), "--out", str(out)])
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "resumed" in stdout

    def test_resume_with_deleted_checkpoint_exits_2(self, covid_csv, tmp_path,
                                                    capsys):
        ghost = tmp_path / "gone.ckpt.json"
        code = main(["generate", str(covid_csv), "--resume", str(ghost),
                     "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does not exist" in err
        assert "re-run without --resume" in err
        assert "Traceback" not in err

    def test_resume_with_corrupt_checkpoint_exits_2(self, covid_csv, tmp_path,
                                                    capsys):
        ck = tmp_path / "corrupt.ckpt.json"
        ck.write_bytes(b"\x80\x81\x82 not json at all \xff")
        code = main(["generate", str(covid_csv), "--resume", str(ck),
                     "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt" in err
        assert "Traceback" not in err

    def test_resume_with_truncated_json_exits_2(self, covid_csv, tmp_path,
                                                capsys):
        ck = tmp_path / "half.ckpt.json"
        ck.write_text('{"stage": "stats", "payload": {')
        code = main(["generate", str(covid_csv), "--resume", str(ck),
                     "--quiet"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_generation_checkpoint_without_csv(self, covid_csv, tmp_path):
        ck = tmp_path / "run.ckpt.json"
        out = tmp_path / "nb.ipynb"
        assert main(["generate", str(covid_csv), "--budget", "4",
                     "--checkpoint", str(ck), "--quiet"]) == 0
        assert json.loads(ck.read_text())["stage"] == "generation"
        assert main(["generate", "--resume", str(ck), "--budget", "4",
                     "--out", str(out), "--quiet", "--no-previews"]) == 0
        assert out.exists()
