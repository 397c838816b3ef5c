"""Worker-count invariance: the PR 5 determinism contract, end to end.

For every execution backend, a notebook generated
with ``workers in {2, 4}`` must be byte-identical to the ``workers=1``
run — same selected queries, same rendered ``.ipynb`` JSON — and the
:class:`RunReport` must agree on everything except wall-clock timings and
the worker count itself.  The column-store plane (``heap`` pickling vs
``shm`` zero-copy handles) and the support evaluator (set-cover runs its
shards in-process at every worker count) are more dimensions that must
never show up in the output.
"""

from __future__ import annotations

import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import covid_table
from repro.generation import GenerationConfig
from repro.insights import SignificanceConfig
from repro.insights.enumeration import enumerate_candidates
from repro.insights.significance import run_attribute_chunk
from repro.notebook import to_ipynb_json
from repro.parallel import ParallelConfig, shards
from repro.relational.store import shm_available

BACKENDS = ("columnar", "sqlite")
STORES = ("heap", "shm")
EVALUATORS = ("pairwise", "setcover", "naive")

#: (backend, workers, store, evaluator); the default evaluator keeps the
#: bare ``backend-workers-store`` id.
CASES = [
    pytest.param(
        backend, workers, store, evaluator,
        id="-".join([backend, str(workers), store]
                    + ([] if evaluator == "pairwise" else [evaluator])),
    )
    for evaluator in EVALUATORS
    for backend in BACKENDS
    for workers in (2, 4)
    for store in STORES
]


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


@pytest.fixture(autouse=True)
def small_shards(monkeypatch):
    """Cut pool shards of ~10 candidates, so each attribute spans several."""
    monkeypatch.setattr(shards, "CHUNK_SIZE", 10)


@pytest.fixture(scope="module")
def table():
    return covid_table(400)


def _config(backend: str, workers: int, store: str = "heap",
            evaluator: str = "pairwise") -> ReproConfig:
    return ReproConfig(
        generation=GenerationConfig(
            backend=backend,
            evaluator=evaluator,
            significance=SignificanceConfig(n_permutations=80),
            parallel=ParallelConfig(workers=workers, store=store),
        ),
        budget=6.0,
    )


def _run(table, backend: str, workers: int, store: str = "heap",
         evaluator: str = "pairwise"):
    config = _config(backend, workers, store, evaluator)
    with Session(table, config=config, table_name="covid") as session:
        run = session.generate()
        notebook = session.render(run, title="invariance")
    return run, to_ipynb_json(notebook)


def _normalized_report(run) -> dict:
    """The report with timing and execution-topology fields blanked out.

    ``backend_statements`` counts traffic on the engine connections a run
    happened to open; sharded workers answer from shipped sample tables
    and the pickled aggregate cache, so the count is a property of *where*
    queries ran, not of the result — normalized away like wall-clock.
    """
    data = run.report.as_dict()
    data["total_seconds"] = None
    data["workers"] = None
    data["backend_statements"] = None
    for stage in data["stages"]:
        stage["seconds"] = None
    return data


_baselines: dict[tuple[str, str], tuple] = {}


def _baseline(table, backend: str, evaluator: str):
    if (backend, evaluator) not in _baselines:
        _baselines[backend, evaluator] = _run(
            table, backend, workers=1, evaluator=evaluator
        )
    return _baselines[backend, evaluator]


@pytest.mark.parametrize("backend, workers, store, evaluator", CASES)
def test_notebook_is_byte_identical_across_worker_counts(
    table, backend, workers, store, evaluator
):
    if store == "shm" and not shm_available():
        pytest.skip("shared memory unavailable on this platform")
    base_run, base_json = _baseline(table, backend, evaluator)
    run, ipynb_json = _run(table, backend, workers, store, evaluator)

    assert ipynb_json == base_json
    assert [str(q.query) for q in run.selected] == [
        str(q.query) for q in base_run.selected
    ]
    assert _normalized_report(run) == _normalized_report(base_run)
    # The un-normalized reports do differ where they should.
    assert run.report.workers == workers
    assert base_run.report.workers == 1
    assert run.report.backend == backend


def test_one_worker_runs_the_shard_tasks_in_process(table):
    config = _config("columnar", workers=1)
    with Session(table, config=config, table_name="covid") as session:
        session.generate()
        names = {span.name for span in session.tracer.spans()}
        counters = session.metrics.snapshot()["counters"]
    assert "generation.evaluate_grouping" in names
    assert not names & {"parallel.stats", "parallel.support", "parallel.task"}
    assert "parallel.worker_spawns" not in counters
    assert "parallel.tasks_inprocess" not in counters

    # In-process each attribute is one task, so one batch cache serves all
    # its pair families — exactly one unchunked call per attribute.
    generation = config.generation
    with obs.capture() as (_, reference):
        for attribute in table.schema.categorical_names:
            candidates = list(enumerate_candidates(
                table,
                insight_types=generation.insight_types,
                attributes=[attribute],
                max_pairs_per_attribute=generation.max_pairs_per_attribute,
            ))
            if candidates:
                run_attribute_chunk(table, attribute, candidates,
                                    generation.significance)
    reused = reference.snapshot()["counters"]["stats.permutation_batches_reused"]
    assert reused > 0
    assert counters["stats.permutation_batches_reused"] == reused
