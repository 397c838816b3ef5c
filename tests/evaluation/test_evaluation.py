"""Tests for repro.evaluation: quality metrics, reporting, runtime, user study."""

import numpy as np
import pytest

from repro import obs
from repro.datasets import covid_table
from repro.errors import ReproError, TAPError
from repro.evaluation import (
    CRITERIA,
    AggregateStat,
    NotebookFeatures,
    Stopwatch,
    objective_deviation_percent,
    render_histogram,
    render_series,
    render_table,
    run_preset,
    simulate_user_study,
    solution_recall,
)
from repro.generation import preset
from repro.tap import TAPSolution


def solution(indices, interest):
    return TAPSolution(tuple(indices), interest, float(len(indices)), 0.0)


class TestQualityMetrics:
    def test_deviation_zero_when_equal(self):
        exact = solution([0, 1], 2.0)
        assert objective_deviation_percent(exact, solution([1, 0], 2.0)) == 0.0

    def test_deviation_percent(self):
        exact = solution([0, 1], 4.0)
        approx = solution([0], 3.0)
        assert objective_deviation_percent(exact, approx) == pytest.approx(25.0)

    def test_deviation_negative_when_approx_better(self):
        assert objective_deviation_percent(solution([0], 2.0), solution([1], 3.0)) < 0

    def test_deviation_zero_exact_rejected(self):
        with pytest.raises(TAPError):
            objective_deviation_percent(solution([], 0.0), solution([0], 1.0))

    def test_recall(self):
        exact = solution([0, 1, 2, 3], 4.0)
        approx = solution([2, 3, 9], 3.0)
        assert solution_recall(exact, approx) == 0.5

    def test_recall_empty_exact_rejected(self):
        with pytest.raises(TAPError):
            solution_recall(solution([], 0.0), solution([0], 1.0))

    def test_aggregate_stat(self):
        stat = AggregateStat.of([1.0, 2.0, 3.0])
        assert stat.mean == 2.0
        assert stat.minimum == 1.0 and stat.maximum == 3.0
        assert stat.n == 3
        assert "2.00" in stat.format()

    def test_aggregate_stat_single_value(self):
        assert AggregateStat.of([5.0]).std == 0.0

    def test_aggregate_stat_empty_rejected(self):
        with pytest.raises(TAPError):
            AggregateStat.of([])


class TestReporting:
    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "---" in lines[2]

    def test_render_series(self):
        assert render_series("s", [1, 2], [10.0, 20.0]) == "s: 1=10, 2=20"

    def test_render_histogram(self):
        text = render_histogram([1.0] * 5 + [2.0] * 10 + [3.0], n_bins=4)
        assert "#" in text

    def test_render_histogram_degenerate(self):
        assert "values" in render_histogram([2.0, 2.0])
        assert render_histogram([]) == "(no data)"


class TestStopwatchAndRunner:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.lap("phase"):
            pass
        with watch.lap("phase"):
            pass
        assert watch.laps["phase"] >= 0.0
        assert watch.total() == sum(watch.laps.values())

    def test_stopwatch_restores_timing_on_exception(self):
        watch = Stopwatch()
        with pytest.raises(ValueError):
            with watch.lap("phase"):
                raise ValueError("interrupted")
        assert "phase" in watch.laps  # the lap still landed

    def test_run_preset(self):
        covid = covid_table(300)
        with obs.capture():
            outcome = run_preset(preset("wsc-approx"), covid, "wsc-approx", budget=3)
        assert outcome.preset_name == "wsc-approx"
        assert outcome.wall_seconds > 0
        assert outcome.n_queries >= len(outcome.run.selected)
        assert set(outcome.breakdown) == {
            "preprocessing", "sampling", "statistical_tests",
            "hypothesis_evaluation", "tap_solving",
        }

    def test_run_preset_honours_the_config_epsilon_distance(self):
        config = preset("wsc-approx").replace(epsilon_distance=2.0)
        with obs.capture():
            outcome = run_preset(config, covid_table(300), "wsc-approx", budget=3)
        assert outcome.run.epsilon_distance == 2.0
        assert outcome.run.solution.distance <= 2.0

    def test_run_preset_wall_seconds_matches_span(self):
        covid = covid_table(300)
        with obs.capture() as (tracer, _):
            outcome = run_preset(preset("wsc-approx"), covid, "wsc-approx", budget=3)
        (bench_span,) = tracer.find("bench.preset")
        assert outcome.wall_seconds == bench_span.duration
        assert bench_span.attrs["preset"] == "wsc-approx"
        # the span encloses the pipeline: breakdown phases cannot exceed it
        assert sum(outcome.breakdown.values()) <= outcome.wall_seconds


@pytest.fixture(scope="module")
def notebooks():
    covid = covid_table(400)
    runs = {}
    with obs.capture():
        for name in ("wsc-approx", "wsc-approx-sig"):
            runs[name] = run_preset(preset(name), covid, name, budget=4).run.selected
    return runs


class TestUserStudy:
    def test_features_computed(self, notebooks):
        features = NotebookFeatures.of(notebooks["wsc-approx"])
        assert features.n_distinct_insights >= 1
        assert 0 <= features.mean_significance <= 1
        assert 0 < features.coherence <= 1
        assert 0 < features.diversity <= 1

    def test_empty_notebook_rejected(self):
        with pytest.raises(ReproError):
            NotebookFeatures.of([])

    def test_study_shape(self, notebooks):
        study = simulate_user_study(notebooks, n_raters=9, seed=1)
        for name, matrix in study.ratings.items():
            assert matrix.shape == (9, len(CRITERIA))
            assert np.all((1 <= matrix) & (matrix <= 7))

    def test_study_deterministic(self, notebooks):
        one = simulate_user_study(notebooks, seed=7)
        two = simulate_user_study(notebooks, seed=7)
        for name in notebooks:
            np.testing.assert_array_equal(one.ratings[name], two.ratings[name])

    def test_t_test_symmetric(self, notebooks):
        study = simulate_user_study(notebooks, seed=3)
        a, b = list(notebooks)
        assert study.t_test(a, b, "informativity") == pytest.approx(
            study.t_test(b, a, "informativity")
        )

    def test_identical_notebooks_not_significant(self, notebooks):
        name = "wsc-approx"
        pair = {"one": notebooks[name], "two": notebooks[name]}
        study = simulate_user_study(pair, n_raters=9, seed=5)
        assert not study.significant_difference("one", "two", "comprehensibility")

    def test_mean_table(self, notebooks):
        study = simulate_user_study(notebooks, seed=2)
        rows = study.mean_table()
        assert len(rows) == len(notebooks)
        assert all(len(r) == 1 + len(CRITERIA) for r in rows)

    def test_empty_study_rejected(self):
        with pytest.raises(ReproError):
            simulate_user_study({})
