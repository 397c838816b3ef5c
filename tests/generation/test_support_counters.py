"""Pinned support-stage counters for every evaluator × backend.

The hypothesis-query stage may change how it lays out aggregates and how
it decides support, but not how many hypothesis queries it evaluates, how
many of them are supported, or what it asks a backend to compute.  These
numbers were recorded from the dict-based support loop on a small seeded
ENEDIS-shaped table; a change to any of them is a change of behaviour,
not of speed.
"""

from __future__ import annotations

import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import enedis_table

COUNTER_NAMES = (
    "hypothesis_queries_evaluated",
    "queries_supported",
    "aggregation_queries_sent",
    "backend_statements_executed",
    "mqo_plan_batches",
    "mqo_plan_sets",
)

#: (evaluator, backend) -> counters, in ``COUNTER_NAMES`` order.
PINNED = {
    ("naive", "columnar"): (732, 525, 576, 0, 7, 18),
    ("naive", "sqlite"): (732, 525, 576, 36, 7, 18),
    ("pairwise", "columnar"): (732, 525, 18, 0, 7, 18),
    ("pairwise", "sqlite"): (732, 525, 18, 6, 7, 18),
    ("setcover", "columnar"): (732, 525, 17, 0, 1, 17),
    ("setcover", "sqlite"): (732, 525, 17, 1, 1, 17),
}


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


@pytest.fixture(scope="module")
def table():
    return enedis_table(scale=0.05, seed=7)


@pytest.mark.parametrize("evaluator, backend", sorted(PINNED))
def test_support_counters_are_pinned(table, evaluator, backend):
    config = ReproConfig().with_generation(backend=backend, evaluator=evaluator)
    config = config.with_parallel(workers=1)
    with Session(table, config=config, table_name="enedis") as session:
        run = session.generate()
    counters = run.outcome.counters
    got = tuple(counters[name] for name in COUNTER_NAMES)
    assert got == PINNED[(evaluator, backend)]
