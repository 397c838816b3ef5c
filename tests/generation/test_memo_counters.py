"""Counter and log-line parity of the stats stage over the three memo cases.

Every ``Session.generate`` runs the stats stage from the memo the session
holds.  What the run reports about that memo is pinned here, so a change
to how the stage uses the memo cannot change what callers observe:

* **no memo** (a cold run): neither ``stats.partitions_*`` counter, no
  ``stats_partitions_*`` entry in the run's counters, no ``incremental:``
  line;
* **a usable memo**: both counters and both entries, one progress line
  ``incremental: N pair families reused, M re-tested`` and the matching
  log line;
* **an unusable memo** (configuration drift, a memo covering more rows
  than the table, offline sampling over a changed version): a
  ``stats_partitions_skipped`` entry of 0 and nothing else, plus one
  ``incremental stats disabled`` warning.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import covid_table
from repro.generation.config import SamplingSpec
from repro.obs.metrics import MetricsRegistry
from repro.stats.delta import incremental_config_token

FULL = covid_table(240)
BASE_ROWS = 200
COUNTERS = ("stats.partitions_skipped", "stats.partitions_retested")
ENTRIES = ("stats_partitions_skipped", "stats_partitions_retested")
GENERATOR_LOG = "repro.generation.generator"


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


def quick_config(**generation):
    return (
        ReproConfig(budget=3.0)
        .with_generation(**generation)
        .with_significance(n_permutations=30)
        .with_parallel(workers=1)
    )


def prefix(n):
    return FULL.take(np.arange(n))


def appended_rows():
    """Rows ``BASE_ROWS:`` of the full table, as an append mapping."""
    out = {}
    for name in FULL.schema.categorical_names:
        col = FULL.categorical_column(name)
        out[name] = [
            col.categories[c] if c >= 0 else None for c in col.codes[BASE_ROWS:]
        ]
    for name in FULL.schema.measure_names:
        data = FULL.measure_column(name).data[BASE_ROWS:]
        out[name] = [None if np.isnan(v) else float(v) for v in data]
    return out


def observed(session, caplog):
    """One ``generate``: (run counters, metrics counters, progress, log)."""
    lines: list[str] = []
    metrics = MetricsRegistry()
    caplog.clear()
    with caplog.at_level(logging.INFO):
        run = session.generate(metrics=metrics, progress=lines.append)
    records = [
        (r.name, r.levelno, r.getMessage()) for r in caplog.records
        if r.name.startswith("repro.")
    ]
    return run, metrics.snapshot()["counters"], lines, records


def incremental_lines(lines):
    return [line for line in lines if line.startswith("incremental:")]


def incremental_logs(records):
    return [m for name, _, m in records
            if name == GENERATOR_LOG and m.startswith("incremental stats:")]


def disabled_warnings(records):
    return [m for _, level, m in records
            if level == logging.WARNING and m.startswith("incremental stats disabled")]


def assert_unused(run, counters, lines, records):
    assert not any(name in counters for name in COUNTERS)
    assert not incremental_lines(lines)
    assert not incremental_logs(records)


class TestNoMemo:
    def test_cold_run_reports_no_reuse(self, caplog):
        with Session(prefix(BASE_ROWS), config=quick_config()) as session:
            run, counters, lines, records = observed(session, caplog)
        assert_unused(run, counters, lines, records)
        assert not any(name in run.outcome.counters for name in ENTRIES)
        assert not disabled_warnings(records)


class TestUsableMemo:
    @pytest.mark.parametrize("append", [False, True])
    def test_held_memo_reports_reuse_once(self, caplog, append):
        with Session(prefix(BASE_ROWS), config=quick_config()) as session:
            held = session.generate().stats_memo
            if append:
                session.append(appended_rows())
            run, counters, lines, records = observed(session, caplog)
        skipped = run.outcome.counters["stats_partitions_skipped"]
        retested = run.outcome.counters["stats_partitions_retested"]
        assert skipped > 0
        if not append:
            assert (skipped, retested) == (
                sum(len(f) for f in held.families.values()), 0
            )
        else:
            assert retested > 0
        assert counters["stats.partitions_skipped"] == skipped
        assert counters["stats.partitions_retested"] == retested
        assert incremental_lines(lines) == [
            f"incremental: {skipped} pair families reused, {retested} re-tested"
        ]
        assert incremental_logs(records) == [
            f"incremental stats: {skipped} pair families reused, "
            f"{retested} re-tested"
        ]
        assert not disabled_warnings(records)


def _config_drift(session, memo):
    return dataclasses.replace(memo, token="0" * 16)


def _memo_of_a_larger_table(session, memo):
    with Session(FULL, config=session.config) as other:
        return other.generate().stats_memo


def _sampled_memo_over_a_new_version(session, memo):
    session.config = quick_config(sampling=SamplingSpec("random", 0.5))
    session.append(appended_rows())
    return dataclasses.replace(
        memo, token=incremental_config_token(session.config.generation)
    )


class TestUnusableMemo:
    @pytest.mark.parametrize(
        "spoil",
        [_config_drift, _memo_of_a_larger_table, _sampled_memo_over_a_new_version],
        ids=["config-drift", "more-rows-than-table", "sampling-new-version"],
    )
    def test_unusable_memo_reports_a_zero_skip_only(self, caplog, spoil):
        with Session(prefix(BASE_ROWS), config=quick_config()) as session:
            memo = session.generate().stats_memo
            session.restore_memo(spoil(session, memo))
            run, counters, lines, records = observed(session, caplog)
        assert_unused(run, counters, lines, records)
        assert run.outcome.counters["stats_partitions_skipped"] == 0
        assert "stats_partitions_retested" not in run.outcome.counters
        assert len(disabled_warnings(records)) == 1
