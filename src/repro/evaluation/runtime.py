"""Timing harness for the scalability experiments (Figures 6-9).

Small helpers shared by the benchmark scripts: a stopwatch, repeated-run
aggregation, and a one-call "run preset on dataset, return timings +
counters" driver.  :func:`run_preset` measures through the
:mod:`repro.obs` span clock, so its wall time lines up with the span
tree the same run records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.config import ReproConfig
from repro.generation.pipeline import NotebookRun
from repro.relational.table import Table
from repro.runtime.controller import resilient_generate


@dataclass(slots=True)
class Stopwatch:
    """Accumulating named timers."""

    laps: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def lap(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.laps[name] = self.laps.get(name, 0.0) + (time.perf_counter() - start)

    def total(self) -> float:
        return sum(self.laps.values())


@dataclass(frozen=True, slots=True)
class PresetRun:
    """Outcome of one preset execution with its phase breakdown."""

    preset_name: str
    run: NotebookRun
    wall_seconds: float

    @property
    def breakdown(self) -> dict[str, float]:
        return self.run.timings.as_dict()

    @property
    def n_queries(self) -> int:
        return self.run.outcome.n_queries

    @property
    def insights_tested(self) -> int:
        return self.run.outcome.counters.get("insights_tested", 0)

    @property
    def insights_significant(self) -> int:
        return self.run.outcome.counters.get("insights_significant", 0)


def run_preset(
    config: ReproConfig,
    table: Table,
    preset_name: str,
    budget: float,
    epsilon_distance: float | None = None,
    progress: Callable[[str], None] | None = None,
) -> PresetRun:
    """Run ``config`` (e.g. a :func:`~repro.generation.preset`) end-to-end
    under the resilient controller and time it.

    ``epsilon_distance`` defaults to the config's own ε_d.
    """
    if epsilon_distance is None:
        epsilon_distance = config.epsilon_distance
    with obs.span("bench.preset", preset=preset_name, rows=table.n_rows) as sp:
        run = resilient_generate(
            table,
            config.generation,
            budget=budget,
            epsilon_distance=epsilon_distance,
            solver=config.solver,
            exact_timeout=config.exact_timeout,
            max_exact_queries=config.max_exact_queries,
            deadline_seconds=config.deadline_seconds,
            progress=progress,
        )
    return PresetRun(preset_name, run, sp.duration)
