"""Worker-count invariance: the PR 5 determinism contract, end to end.

For every execution backend, a notebook generated
with ``workers in {2, 4}`` must be byte-identical to the ``workers=1``
run — same selected queries, same rendered ``.ipynb`` JSON — and the
:class:`RunReport` must agree on everything except wall-clock timings and
the worker count itself.  The column-store plane (``heap`` pickling vs
``shm`` zero-copy handles) is one more dimension that must never show up
in the output.
"""

from __future__ import annotations

import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import covid_table
from repro.generation import GenerationConfig
from repro.insights import SignificanceConfig
from repro.notebook import to_ipynb_json
from repro.parallel import ParallelConfig
from repro.relational.store import shm_available

BACKENDS = ("columnar", "sqlite")
STORES = ("heap", "shm")


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


@pytest.fixture(scope="module")
def table():
    return covid_table(400)


def _run(table, backend: str, workers: int, store: str = "heap"):
    config = ReproConfig(
        generation=GenerationConfig(
            backend=backend,
            significance=SignificanceConfig(n_permutations=80),
            parallel=ParallelConfig(workers=workers, chunk_size=10, store=store),
        ),
        budget=6.0,
    )
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


_baselines: dict[str, tuple] = {}


def _baseline(table, backend: str):
    if backend not in _baselines:
        _baselines[backend] = _run(table, backend, workers=1)
    return _baselines[backend]


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("backend", BACKENDS)
def test_notebook_is_byte_identical_across_worker_counts(
    table, backend, workers, store
):
    if store == "shm" and not shm_available():
        pytest.skip("shared memory unavailable on this platform")
    base_run, base_json = _baseline(table, backend)
    run, ipynb_json = _run(table, backend, workers, store)

    assert ipynb_json == base_json
    assert [str(q.query) for q in run.selected] == [
        str(q.query) for q in base_run.selected
    ]
    assert _normalized_report(run) == _normalized_report(base_run)
    # The un-normalized reports do differ where they should.
    assert run.report.workers == workers
    assert base_run.report.workers == 1
    assert run.report.backend == backend
