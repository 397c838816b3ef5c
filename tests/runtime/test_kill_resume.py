"""A run killed mid-stats and resumed writes the cold run's notebook.

The kill is real: ``kill_mid_stats.py`` runs the CLI in a child process
and ends it with ``os._exit`` right after a ``stats-partial`` checkpoint
lands, so nothing after that write (later shards, the stats checkpoint,
rendering) ever runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import covid_table
from repro.persistence import load_checkpoint
from repro.relational import write_csv

from tests.runtime.kill_mid_stats import KILL_EXIT_CODE

KILLER = Path(__file__).with_name("kill_mid_stats.py")
SRC = Path(__file__).resolve().parents[2] / "src"
FLAGS = ["--budget", "4", "--permutations", "60", "--quiet"]


def _kill_after(k: int, csv: Path, checkpoint: Path, *extra: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(KILLER), str(k), "generate", str(csv),
         "--checkpoint", str(checkpoint), "--out", str(checkpoint.with_suffix(".nb")),
         *FLAGS, *extra],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == KILL_EXIT_CODE, proc.stderr
    assert load_checkpoint(checkpoint).stage == "stats-partial"


@pytest.fixture
def covid_csv(tmp_path):
    path = tmp_path / "covid.csv"
    write_csv(covid_table(400), path)
    return path


@pytest.mark.parametrize("workers", ["1", "2"])
def test_killed_run_resumes_to_the_cold_notebook(covid_csv, tmp_path, workers):
    ck = tmp_path / "run.ckpt.json"
    _kill_after(2, covid_csv, ck, "--workers", workers)
    partial = load_checkpoint(ck).memo
    assert partial is not None and partial.families

    resumed, trace = tmp_path / "resumed.ipynb", tmp_path / "trace.json"
    assert main(["generate", str(covid_csv), "--checkpoint", str(ck),
                 "--resume", str(ck), "--workers", workers, "--out", str(resumed),
                 "--trace", str(trace), *FLAGS]) == 0
    counters = json.loads(trace.read_text())["otherData"]["metrics"]["counters"]
    assert counters["stats.partitions_skipped"] > 0
    assert counters["stats.partitions_retested"] > 0

    cold = tmp_path / "cold.ipynb"
    assert main(["generate", str(covid_csv), "--workers", workers,
                 "--out", str(cold), *FLAGS]) == 0
    assert resumed.read_bytes() == cold.read_bytes()


def _trace_counters(path: Path) -> dict:
    return json.loads(path.read_text())["otherData"]["metrics"]["counters"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_killed_since_checkpoint_run_keeps_its_reused_families(tmp_path, workers):
    """A ``--since-checkpoint`` run killed after its first partial write
    has already checkpointed every family the old memo served, so the
    resume re-tests only what neither that memo nor a finished chunk
    covered, and writes the cold run's notebook."""
    full = covid_table(400)
    cut = 340
    continent = full.categorical_column("continent").codes
    rest = [i for i in range(cut, full.n_rows) if continent[i] == continent[cut]]
    base_csv, grown_csv = tmp_path / "base.csv", tmp_path / "grown.csv"
    write_csv(full.take(np.arange(cut)), base_csv)
    write_csv(full.take(np.array(list(range(cut)) + rest)), grown_csv)
    run = ["--workers", workers, *FLAGS]

    ck, warm_ck = tmp_path / "run.ckpt.json", tmp_path / "warm.ckpt.json"
    assert main(["generate", str(base_csv), "--checkpoint", str(ck),
                 "--out", str(tmp_path / "base.ipynb"), *run]) == 0
    warm_ck.write_bytes(ck.read_bytes())
    warm, warm_trace = tmp_path / "warm.ipynb", tmp_path / "warm-trace.json"
    assert main(["generate", str(grown_csv), "--checkpoint", str(warm_ck),
                 "--since-checkpoint", "--out", str(warm), "--trace", str(warm_trace),
                 *run]) == 0
    warm_counters = _trace_counters(warm_trace)
    reused = warm_counters["stats.partitions_skipped"]
    families = reused + warm_counters["stats.partitions_retested"]
    assert 0 < reused < families

    _kill_after(1, grown_csv, ck, "--since-checkpoint", "--workers", workers)
    covered = sum(len(f) for f in load_checkpoint(ck).memo.families.values())
    resumed, trace = tmp_path / "resumed.ipynb", tmp_path / "trace.json"
    assert main(["generate", str(grown_csv), "--checkpoint", str(ck),
                 "--resume", str(ck), "--out", str(resumed), "--trace", str(trace),
                 *run]) == 0
    counters = _trace_counters(trace)
    assert counters["stats.partitions_skipped"] == covered >= reused
    assert counters["stats.partitions_retested"] == families - covered

    cold = tmp_path / "cold.ipynb"
    assert main(["generate", str(grown_csv), "--out", str(cold), *run]) == 0
    assert resumed.read_bytes() == warm.read_bytes() == cold.read_bytes()


def test_partial_checkpoint_of_another_table_is_refused(covid_csv, tmp_path, capsys):
    ck = tmp_path / "run.ckpt.json"
    _kill_after(2, covid_csv, ck)
    other = tmp_path / "other.csv"
    write_csv(covid_table(400, seed=7), other)

    assert main(["generate", str(other), "--resume", str(ck),
                 "--out", str(tmp_path / "nb.ipynb"), *FLAGS]) == 2
    assert "different table" in capsys.readouterr().err
