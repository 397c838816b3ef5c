"""Backend parity: the whole pipeline must not care which engine ran it.

The acceptance bar of the backend split: on the same dataset and
configuration, the columnar and sqlite backends produce identical
supported-query sets, interestingness scores within 1e-9, and rendered
notebooks with identical cell structure.
"""

import dataclasses

import pytest

from repro import obs
from repro.backend import BACKEND_NAMES
from repro.datasets import covid_table
from repro.generation import GenerationConfig, NotebookGenerator, SamplingSpec
from repro.insights.significance import SignificanceConfig
from repro.notebook.cells import MarkdownCell, SQLCell
from repro.relational import table_from_arrays
from repro.runtime import resilient_generate, resilient_render
from repro.stats import derive_rng


@pytest.fixture(autouse=True)
def isolated_obs():
    """Keep this module's pipeline runs out of the ambient obs state."""
    with obs.capture():
        yield


def synthetic_table():
    rng = derive_rng(99, "backend-parity")
    n = 300
    b = rng.choice(["b0", "b1", "b2"], n)
    c = rng.choice(["c0", "c1"], n)
    return table_from_arrays(
        {
            "a": rng.choice(["a0", "a1", "a2", "a3"], n),
            "b": b,
            "c": c,
        },
        {"m": rng.normal(20, 3, n) + (b == "b0") * 15.0},
    )


DATASETS = {
    "synthetic": synthetic_table,
    "covid": lambda: covid_table(500),
}


def fast_config(**overrides) -> GenerationConfig:
    # 200 permutations: enough resolution for the BH-corrected minimum
    # p-value to clear the threshold on the small synthetic table.
    base = GenerationConfig(
        significance=SignificanceConfig(n_permutations=200),
        **overrides,
    )
    return base


def run_under(backend_name: str, table, config: GenerationConfig):
    generator = NotebookGenerator(dataclasses.replace(config, backend=backend_name))
    return generator.generate(table, budget=6)


def assert_runs_match(runs):
    reference = runs[BACKEND_NAMES[0]]
    for name, run in runs.items():
        if run is reference:
            continue
        ref_q = reference.outcome.queries
        got_q = run.outcome.queries
        assert [g.query for g in got_q] == [g.query for g in ref_q], name
        for got, ref in zip(got_q, ref_q):
            assert abs(got.interest - ref.interest) <= 1e-9, name
            assert got.tuples_aggregated == ref.tuples_aggregated
            assert got.n_groups == ref.n_groups
        assert [g.query for g in run.selected] == [g.query for g in reference.selected]


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("evaluator", ["pairwise", "setcover"])
def test_pipeline_parity(dataset, evaluator):
    table = DATASETS[dataset]()
    config = fast_config(evaluator=evaluator)
    runs = {name: run_under(name, table, config) for name in BACKEND_NAMES}
    assert_runs_match(runs)


def test_pipeline_parity_with_sampling():
    table = DATASETS["covid"]()
    config = fast_config(sampling=SamplingSpec("random", 0.5))
    runs = {name: run_under(name, table, config) for name in BACKEND_NAMES}
    assert_runs_match(runs)


def test_notebook_cell_structure_identical():
    table = DATASETS["synthetic"]()
    notebooks = {}
    for name in BACKEND_NAMES:
        run = run_under(name, table, fast_config())
        notebooks[name] = run.to_notebook(table=table, table_name="dataset")
    reference = notebooks[BACKEND_NAMES[0]]
    assert reference.n_queries > 0
    for name, notebook in notebooks.items():
        assert [type(c) for c in notebook.cells] == [type(c) for c in reference.cells], name
        for got, ref in zip(notebook.cells, reference.cells):
            if isinstance(got, SQLCell):
                assert got.sql == ref.sql
            else:
                assert isinstance(got, MarkdownCell)
                assert got.text == ref.text


def test_resilient_run_reports_backend_statements():
    table = DATASETS["synthetic"]()
    reports = {}
    for name in BACKEND_NAMES:
        run = resilient_generate(
            table, fast_config(backend=name), budget=5, solver="heuristic"
        )
        resilient_render(run, table, table_name="dataset")
        assert run.report is not None
        assert run.report.backend == name
        reports[name] = run.report
    assert reports["columnar"].backend_statements == 0
    assert reports["sqlite"].backend_statements > 0
    # The backend line is part of the human-readable summary.
    assert any("sqlite" in line for line in reports["sqlite"].summary_lines())
