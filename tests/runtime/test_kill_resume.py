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


def test_partial_checkpoint_of_another_table_is_refused(covid_csv, tmp_path, capsys):
    ck = tmp_path / "run.ckpt.json"
    _kill_after(2, covid_csv, ck)
    other = tmp_path / "other.csv"
    write_csv(covid_table(400, seed=7), other)

    assert main(["generate", str(other), "--resume", str(ck),
                 "--out", str(tmp_path / "nb.ipynb"), *FLAGS]) == 2
    assert "different table" in capsys.readouterr().err
