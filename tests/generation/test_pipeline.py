"""Tests for the end-to-end run path and the Table 3/7 presets."""

import pytest

from repro import ReproConfig, Session
from repro.errors import ReproError, TAPError
from repro.generation import GenerationConfig, preset, preset_names
from repro.queries import sequence_distance
from repro.datasets import covid_table
from repro.runtime import resilient_generate


@pytest.fixture(scope="module")
def covid_small():
    return covid_table(400)


def _session_run(table, config: ReproConfig):
    # A Session records into its own tracer, never the ambient one.
    with Session(table, config=config) as session:
        return session.generate()


@pytest.fixture(scope="module")
def default_run(covid_small):
    return _session_run(covid_small, ReproConfig(budget=5))


class TestRun:
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
        config = GenerationConfig(
            insight_types=("M",), aggregates=("avg",),
            sampling=None,
        )
        heuristic_config = ReproConfig(generation=config, budget=3, epsilon_distance=6.0)
        run = _session_run(
            covid_small, heuristic_config.replace(solver="exact", exact_timeout=30.0)
        )
        heuristic = _session_run(covid_small, heuristic_config)
        assert run.solution.interest >= heuristic.solution.interest - 1e-9
        assert run.solution.optimal
        assert run.report.stage("tap").rung == "exact"

    def test_exact_refuses_oversized_q(self, covid_small):
        config = ReproConfig(budget=5, solver="exact", max_exact_queries=3)
        run = _session_run(covid_small, config)
        n = len(run.outcome.queries)
        tap = run.report.stage("tap")
        assert tap.rung == "heuristic"
        assert tap.degradations == [
            f"exact solver refused: {n} queries > max_exact_queries=3"
        ]
        assert run.degraded
        assert run.report.degradations == [f"tap: {tap.degradations[0]}"]

    def test_unknown_solver(self, covid_small):
        with pytest.raises(ReproError, match="unknown solver"):
            ReproConfig(solver="annealing")
        with pytest.raises(ReproError, match="unknown solver"):
            resilient_generate(covid_small, solver="annealing")

    def test_to_notebook(self, covid_small, default_run):
        notebook = default_run.to_notebook(covid_small, table_name="covid")
        assert notebook.n_queries == len(default_run.selected)


class TestPresets:
    def test_all_presets_construct(self):
        for name in preset_names():
            assert isinstance(preset(name), ReproConfig)

    def test_unknown_preset(self):
        with pytest.raises(TAPError, match="unknown preset"):
            preset("wsc-hyperdrive")

    def test_naive_exact_uses_exact_solver(self):
        assert preset("naive-exact").solver == "exact"
        assert preset("wsc-approx").solver == "heuristic"

    def test_sampling_presets_configured(self):
        unb = preset("wsc-unb-approx", sample_rate=0.3)
        assert unb.generation.sampling.strategy == "unbalanced"
        assert unb.generation.sampling.rate == 0.3
        rand = preset("wsc-rand-approx")
        assert rand.generation.sampling.strategy == "random"

    def test_interestingness_variants(self):
        sig = preset("wsc-approx-sig").generation.interestingness
        assert not sig.use_conciseness and not sig.use_credibility
        sig_cred = preset("wsc-approx-sig-cred").generation.interestingness
        assert not sig_cred.use_conciseness and sig_cred.use_credibility

    def test_wsc_presets_use_setcover(self):
        for name in ("wsc-approx", "wsc-unb-approx", "wsc-rand-approx"):
            assert preset(name).generation.evaluator == "setcover"
        for name in ("naive-exact", "naive-approx"):
            assert preset(name).generation.evaluator == "pairwise"

    def test_preset_keeps_run_level_defaults(self):
        config = preset("naive-exact", exact_timeout=5.0)
        assert config.exact_timeout == 5.0
        assert config.budget == ReproConfig().budget
        assert config.max_exact_queries == ReproConfig().max_exact_queries

    def test_presets_generate_notebooks(self, covid_small):
        for name in ("wsc-approx", "wsc-rand-approx"):
            config = preset(name, sample_rate=0.4).replace(budget=4)
            run = _session_run(covid_small, config)
            assert len(run.selected) <= 4


_MONTH_CONTINENT = [
    ("month", "continent", "Europe", "Asia", "deaths", "avg"),
    ("month", "continent", "Europe", "Asia", "cases", "avg"),
]
_CONTINENT_MONTH = [
    ("continent", "month", "4", "3", "deaths", "avg"),
    ("continent", "month", "4", "3", "cases", "avg"),
    ("continent", "month", "4", "3", "cases", "sum"),
    ("continent", "month", "4", "3", "deaths", "sum"),
]
_HEURISTIC_DEFAULT = _MONTH_CONTINENT + [
    ("month", "country", "EU0", "AS2", "cases", "avg"),
    ("month", "country", "EU2", "AS2", "cases", "avg"),
]

#: What each configuration selected on covid_table(400) with budget 4
#: before presets ran through the resilient controller: |Q|, the selected
#: query keys in notebook order, and the solution's total interest.
_PINNED = {
    None: (481, _HEURISTIC_DEFAULT, 1.9507546753114557),
    "naive-exact": (481, [
        ("month", "country", "EU5", "AS2", "cases", "avg"),
        ("month", "country", "EU5", "AS2", "deaths", "avg"),
    ] + _MONTH_CONTINENT, 1.9507546753114555),
    "naive-approx": (481, _HEURISTIC_DEFAULT, 1.9507546753114557),
    "wsc-approx": (481, _HEURISTIC_DEFAULT, 1.9507546753114557),
    "wsc-unb-approx": (30, _CONTINENT_MONTH, 0.0),
    "wsc-rand-approx": (14, _MONTH_CONTINENT + [
        ("month", "continent", "Asia", "Africa", "cases", "avg"),
        ("month", "continent", "Asia", "Africa", "cases", "sum"),
    ], 0.9502482105120843),
    "wsc-approx-sig": (481, _CONTINENT_MONTH, 7.956580732700136),
    "wsc-approx-sig-cred": (481, _MONTH_CONTINENT + [
        ("month", "country", "EU1", "AS1", "cases", "avg"),
        ("month", "country", "EU4", "AS1", "deaths", "avg"),
    ], 1.9802838090169665),
}


@pytest.mark.parametrize("name", [None, *preset_names()], ids=str)
def test_configuration_selects_its_pinned_notebook(covid_small, name):
    config = ReproConfig() if name is None else preset(name)
    run = _session_run(covid_small, config.replace(budget=4))
    n_queries, keys, interest = _PINNED[name]
    assert run.outcome.n_queries == n_queries
    assert [g.query.key for g in run.selected] == keys
    assert run.solution.interest == pytest.approx(interest, rel=1e-9, abs=1e-12)
    assert run.solution.optimal == (name == "naive-exact")
    assert not run.degraded
