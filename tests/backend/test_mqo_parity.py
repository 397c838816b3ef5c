"""MQO parity: batching changes statement counts, never results.

The batched multi-aggregate compiler must be invisible in every output.
The oracle is the per-set fallback of
:func:`~repro.backend.base.materialize_batch`: the same pipeline run
through a backend wrapper that hides ``batched_aggregates``, so every
group-by set costs its own statement.  Batched runs at worker counts 1
and 2 must produce byte-identical serialized notebooks and
interestingness scores within 1e-9 of that oracle, under either
execution backend and either bounded evaluator.
"""

import dataclasses

import pytest

from repro import obs
from repro.backend import BACKEND_NAMES, create_backend
from repro.generation import GenerationConfig
from repro.insights.significance import SignificanceConfig
from repro.notebook import to_ipynb_json
from repro.parallel import ParallelConfig
from repro.relational import table_from_arrays
from repro.runtime import resilient_generate
from repro.stats import derive_rng


@pytest.fixture(autouse=True)
def isolated_obs():
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
        {"m": rng.normal(20, 3, n) + (b == "b0") * 15.0 + (c == "c0") * 9.0},
    )


class PerSetBackend:
    """A backend that hides its multi-query compiler.

    Everything delegates to the wrapped backend except ``capabilities``,
    which reports ``batched_aggregates=False`` so ``materialize_batch``
    takes its one-statement-per-set fallback.
    """

    def __init__(self, inner):
        self._inner = inner
        self.capabilities = dataclasses.replace(
            inner.capabilities, batched_aggregates=False
        )
        self.per_set_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def statements_executed(self):
        return self._inner.statements_executed

    @statements_executed.setter
    def statements_executed(self, value):
        self._inner.statements_executed = value

    def materialize_aggregate(self, attributes, measures=None):
        self.per_set_calls += 1
        return self._inner.materialize_aggregate(attributes, measures)

    def materialize_aggregates(self, requests):
        raise AssertionError("the per-set oracle must never batch")


def run_once(config: GenerationConfig, per_set: bool = False):
    table = synthetic_table()
    backend = create_backend(config.backend, table)
    if per_set:
        backend = PerSetBackend(backend)
    try:
        run = resilient_generate(table, config, budget=6, backend=backend)
    finally:
        backend.close()
    notebook = run.to_notebook(table=table, table_name="dataset")
    return run, to_ipynb_json(notebook).encode("utf-8"), backend


def assert_mqo_invisible(config: GenerationConfig):
    oracle_config = dataclasses.replace(config, parallel=ParallelConfig(workers=1))
    run_ref, payload_ref, oracle = run_once(oracle_config, per_set=True)
    run, payload, _ = run_once(config)
    assert oracle.per_set_calls > 0, "the oracle never took the per-set path"
    assert run.outcome.queries, "parity test needs a non-empty run"
    assert [g.query for g in run.outcome.queries] == [
        g.query for g in run_ref.outcome.queries
    ]
    for got, ref in zip(run.outcome.queries, run_ref.outcome.queries):
        assert abs(got.interest - ref.interest) <= 1e-9
        assert got.tuples_aggregated == ref.tuples_aggregated
        assert got.n_groups == ref.n_groups
    if not config.parallel.active:
        # queries_sent counts logical group-by sets: invariant under
        # batching.  Sharded runs are left out: each worker's evaluator
        # counts the sets its shards build, which depends on scheduling.
        assert (
            run.outcome.counters["aggregation_queries_sent"]
            == run_ref.outcome.counters["aggregation_queries_sent"]
        )
        if config.backend == "sqlite":
            assert run.report.backend_statements <= run_ref.report.backend_statements
    assert payload == payload_ref


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("kernel", ["batched"])
def test_mqo_parity_backends_and_kernels(backend, kernel):
    # One stats kernel remains: the mask-GEMM batched one.  Parity must
    # hold with every permutation test routed through it.
    with obs.capture() as (_, metrics):
        assert_mqo_invisible(
            GenerationConfig(
                significance=SignificanceConfig(n_permutations=200),
                backend=backend,
                parallel=ParallelConfig(workers=1),
            )
        )
        counters = metrics.snapshot()["counters"]
    assert counters["stats.kernel_batches"] > 0
    assert counters["stats.permutation_tests"] >= counters["stats.kernel_batches"]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("workers", [1, 2])
def test_mqo_parity_across_worker_counts(backend, workers):
    assert_mqo_invisible(
        GenerationConfig(
            significance=SignificanceConfig(n_permutations=200),
            backend=backend,
            parallel=ParallelConfig(workers=workers),
        )
    )


@pytest.mark.parametrize("evaluator", ["pairwise", "setcover"])
def test_mqo_parity_per_evaluator(evaluator):
    assert_mqo_invisible(
        GenerationConfig(
            significance=SignificanceConfig(n_permutations=200),
            backend="sqlite",
            evaluator=evaluator,
        )
    )


def test_run_report_records_the_plan():
    table = synthetic_table()
    config = GenerationConfig(
        significance=SignificanceConfig(n_permutations=200),
        backend="sqlite",
    )
    run = resilient_generate(table, config, budget=5, solver="heuristic")
    assert run.report is not None
    assert run.report.mqo_plan is not None
    assert run.report.mqo_plan["sets"] >= run.report.mqo_plan["batches"] >= 1
    assert any("mqo=" in line for line in run.report.summary_lines())
