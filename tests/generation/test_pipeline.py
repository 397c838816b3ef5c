"""Tests for the end-to-end pipeline and the Table 3/7 presets."""

import pytest

from repro.errors import TAPError
from repro.generation import NotebookGenerator, preset, preset_names
from repro.queries import sequence_distance
from repro.datasets import covid_table


@pytest.fixture(scope="module")
def covid_small():
    return covid_table(400)


@pytest.fixture(scope="module")
def default_run(covid_small):
    return NotebookGenerator().generate(covid_small, budget=5)


class TestNotebookGenerator:
    def test_budget_bounds_selection(self, default_run):
        assert len(default_run.selected) <= 5

    def test_selection_matches_solution_order(self, default_run):
        selected_keys = [g.query.key for g in default_run.selected]
        solution_keys = [
            default_run.outcome.queries[i].query.key for i in default_run.solution.indices
        ]
        assert selected_keys == solution_keys

    def test_distance_bound_respected(self, default_run):
        queries = [g.query for g in default_run.selected]
        assert sequence_distance(queries) <= default_run.epsilon_distance + 1e-9

    def test_tap_timing_recorded(self, default_run):
        assert default_run.timings.tap_solving >= 0.0

    def test_exact_solver_on_small_q(self, covid_small):
        from repro.generation import GenerationConfig

        config = GenerationConfig(
            insight_types=("M",), aggregates=("avg",),
            sampling=None,
        )
        generator = NotebookGenerator(config, solver="exact", exact_timeout=30.0)
        run = generator.generate(covid_small, budget=3, epsilon_distance=6.0)
        heuristic = NotebookGenerator(config).generate(
            covid_small, budget=3, epsilon_distance=6.0
        )
        assert run.solution.interest >= heuristic.solution.interest - 1e-9
        assert run.solution.optimal

    def test_exact_refuses_oversized_q(self, covid_small):
        generator = NotebookGenerator(solver="exact", max_exact_queries=3)
        with pytest.raises(TAPError, match="refused"):
            generator.generate(covid_small, budget=5)

    def test_unknown_solver(self):
        with pytest.raises(TAPError):
            NotebookGenerator(solver="annealing")

    def test_to_notebook(self, covid_small, default_run):
        notebook = default_run.to_notebook(covid_small, table_name="covid")
        assert notebook.n_queries == len(default_run.selected)


class TestPresets:
    def test_all_presets_construct(self):
        for name in preset_names():
            generator = preset(name)
            assert isinstance(generator, NotebookGenerator)

    def test_unknown_preset(self):
        with pytest.raises(TAPError, match="unknown preset"):
            preset("wsc-hyperdrive")

    def test_naive_exact_uses_exact_solver(self):
        assert preset("naive-exact").solver == "exact"
        assert preset("wsc-approx").solver == "heuristic"

    def test_sampling_presets_configured(self):
        unb = preset("wsc-unb-approx", sample_rate=0.3)
        assert unb.config.sampling.strategy == "unbalanced"
        assert unb.config.sampling.rate == 0.3
        rand = preset("wsc-rand-approx")
        assert rand.config.sampling.strategy == "random"

    def test_interestingness_variants(self):
        sig = preset("wsc-approx-sig").config.interestingness
        assert not sig.use_conciseness and not sig.use_credibility
        sig_cred = preset("wsc-approx-sig-cred").config.interestingness
        assert not sig_cred.use_conciseness and sig_cred.use_credibility

    def test_wsc_presets_use_setcover(self):
        for name in ("wsc-approx", "wsc-unb-approx", "wsc-rand-approx"):
            assert preset(name).config.evaluator == "setcover"
        for name in ("naive-exact", "naive-approx"):
            assert preset(name).config.evaluator == "pairwise"

    def test_presets_generate_notebooks(self, covid_small):
        for name in ("wsc-approx", "wsc-rand-approx"):
            run = preset(name, sample_rate=0.4).generate(covid_small, budget=4)
            assert len(run.selected) <= 4
