"""Unit tests for repro.generation.evaluators — all strategies must agree."""

import threading

import numpy as np
import pytest

from repro.backend import BackendError, ColumnarBackend
from repro.generation import (
    NaiveEvaluator,
    PairwiseEvaluator,
    SetCoverEvaluator,
    build_evaluator,
)
from repro.generation.evaluators import (
    DEFAULT_MAX_SET_SIZE,
    MAX_BUILD_ATTEMPTS,
    _cap_candidates,
)
from repro.queries import ComparisonQuery
from repro.relational import table_from_arrays
from repro.stats import derive_rng


@pytest.fixture
def table():
    rng = derive_rng(66, "evaluators")
    n = 250
    return table_from_arrays(
        {
            "a": rng.choice(["a0", "a1", "a2"], n),
            "b": rng.choice(["b0", "b1", "b2"], n),
            "c": rng.choice(["c0", "c1"], n),
        },
        {"m": rng.normal(10, 2, n)},
    )


QUERIES = [
    ComparisonQuery("a", "b", "b0", "b1", "m", "sum"),
    ComparisonQuery("a", "b", "b0", "b2", "m", "avg"),
    ComparisonQuery("c", "b", "b1", "b2", "m", "avg"),
    ComparisonQuery("b", "a", "a0", "a1", "m", "sum"),
    ComparisonQuery("a", "c", "c0", "c1", "m", "var"),
]


class TestAgreement:
    def test_all_three_strategies_agree(self, table):
        naive = NaiveEvaluator(table)
        pairwise = PairwiseEvaluator(table)
        setcover = SetCoverEvaluator(table)
        for query in QUERIES:
            results = [e.evaluate(query) for e in (naive, pairwise, setcover)]
            base = results[0]
            for other in results[1:]:
                assert other.groups == base.groups
                np.testing.assert_allclose(other.x, base.x, rtol=1e-9, equal_nan=True)
                np.testing.assert_allclose(other.y, base.y, rtol=1e-9, equal_nan=True)
                assert other.tuples_aggregated == base.tuples_aggregated


class TestQueryCounting:
    def test_naive_counts_every_call(self, table):
        naive = NaiveEvaluator(table)
        for query in QUERIES:
            naive.evaluate(query)
            naive.evaluate(query)
        assert naive.queries_sent == 2 * len(QUERIES)

    def test_pairwise_counts_distinct_pairs(self, table):
        pairwise = PairwiseEvaluator(table)
        for query in QUERIES:
            pairwise.evaluate(query)
            pairwise.evaluate(query)
        distinct_pairs = {frozenset((q.group_by, q.selection_attribute)) for q in QUERIES}
        assert pairwise.queries_sent == len(distinct_pairs)

    def test_setcover_sends_cover_queries_up_front(self, table):
        setcover = SetCoverEvaluator(table)
        sent_before = setcover.queries_sent
        for query in QUERIES:
            setcover.evaluate(query)
        assert setcover.queries_sent == sent_before  # nothing extra at query time
        assert sent_before >= 1

    def test_setcover_fewer_queries_than_pairwise_worst_case(self, table):
        setcover = SetCoverEvaluator(table)
        n = len(table.schema.categorical_names)
        assert setcover.queries_sent <= n * (n - 1) / 2


class TestSetCoverSpecifics:
    def test_chosen_sets_cover_all_pairs(self, table):
        from repro.generation import pairs_covered
        from repro.relational import pair_group_by_sets

        setcover = SetCoverEvaluator(table)
        covered = set()
        for s in setcover.chosen_sets:
            covered |= pairs_covered(s)
        assert set(pair_group_by_sets(table.schema.categorical_names)) <= covered

    def test_memory_budget_forces_pairs(self, table):
        tight = SetCoverEvaluator(table, memory_budget_bytes=1)
        assert all(len(s) == 2 for s in tight.chosen_sets)
        # Still answers everything.
        result = tight.evaluate(QUERIES[0])
        assert result.n_groups > 0

    def test_cache_bytes_reported(self, table):
        setcover = SetCoverEvaluator(table)
        assert setcover.cache_bytes > 0


class TestPlanning:
    def test_planned_pairs_cost_nothing_at_evaluate_time(self, table):
        pairwise = PairwiseEvaluator(table)
        pairwise.plan([("a", "b"), ("b", "c")])
        sent = pairwise.queries_sent
        assert sent == 2
        pairwise.evaluate(QUERIES[0])  # (a, b): planned
        pairwise.evaluate(QUERIES[2])  # (c, b): planned
        assert pairwise.queries_sent == sent
        pairwise.evaluate(QUERIES[4])  # (a, c): unplanned, lazy build
        assert pairwise.queries_sent == sent + 1

    def test_plan_skips_already_covered_pairs(self, table):
        pairwise = PairwiseEvaluator(table)
        pairwise.evaluate(QUERIES[0])  # builds (a, b) lazily
        pairwise.plan([("a", "b"), ("a", "b"), ("b", "c")])
        assert pairwise.queries_sent == 2  # only (b, c) was new

    def test_planned_results_match_lazy_results(self, table):
        planned = PairwiseEvaluator(table)
        planned.plan(
            [(q.group_by, q.selection_attribute) for q in QUERIES]
        )
        lazy = PairwiseEvaluator(table)  # never planned: builds lazily
        for query in QUERIES:
            got, ref = planned.evaluate(query), lazy.evaluate(query)
            assert got.groups == ref.groups
            np.testing.assert_allclose(got.x, ref.x, rtol=1e-9, equal_nan=True)
            np.testing.assert_allclose(got.y, ref.y, rtol=1e-9, equal_nan=True)


class FailingBackend:
    """Delegates everything but fails every aggregation build."""

    def __init__(self, table):
        self._inner = ColumnarBackend(table)
        self.name = self._inner.name
        self.capabilities = self._inner.capabilities
        self.statements_executed = 0
        self.build_attempts = 0

    @property
    def table(self):
        return self._inner.table

    def materialize_aggregate(self, attributes, measures=None):
        self.build_attempts += 1
        raise BackendError("injected build failure")

    def materialize_aggregates(self, requests):
        self.build_attempts += len(requests)
        raise BackendError("injected batch failure")


class TestBoundedRetry:
    def test_builder_failure_propagates_immediately(self, table):
        pairwise = PairwiseEvaluator(FailingBackend(table))
        with pytest.raises(BackendError, match="injected"):
            pairwise.evaluate(QUERIES[0])

    def test_waiters_give_up_after_bounded_attempts(self, table):
        """A waiter whose builder keeps failing must not recurse forever.

        Simulated by pre-registering a completed build event that never
        produced a covering aggregate: each wait returns instantly, the
        cache never covers the pair, and the loop must terminate with a
        BackendError instead of unbounded recursion.
        """
        pairwise = PairwiseEvaluator(table)
        key = frozenset((QUERIES[0].group_by, QUERIES[0].selection_attribute))
        stuck = threading.Event()
        stuck.set()
        pairwise._building[key] = stuck
        with pytest.raises(BackendError, match=f"{MAX_BUILD_ATTEMPTS} attempts"):
            pairwise.evaluate(QUERIES[0])

    def test_failed_plan_releases_reservations(self, table):
        backend = FailingBackend(table)
        pairwise = PairwiseEvaluator(backend)
        with pytest.raises(BackendError, match="injected"):
            pairwise.plan([("a", "b")])
        # The reservation is gone: a later evaluate may become the builder
        # (and sees the backend's error, not a deadlock or a stale wait).
        with pytest.raises(BackendError, match="injected"):
            pairwise.evaluate(QUERIES[0])
        assert backend.build_attempts >= 2


def wide_schema_table(n_attrs: int, n_rows: int = 80):
    rng = derive_rng(67, "evaluators-wide")
    return table_from_arrays(
        {f"a{i:02d}": rng.choice(["x", "y", "z"], n_rows) for i in range(n_attrs)},
        {"m": rng.normal(0, 1, n_rows)},
    )


class TestBoundedEnumeration:
    def test_cap_keeps_all_pairs(self):
        candidates = {
            frozenset(s): float(len(s))
            for s in [("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c"),
                      ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
        }
        capped = _cap_candidates(candidates, max_candidates=4)
        assert all(len(s) == 2 for s in capped if len(s) == 2)
        assert {s for s in candidates if len(s) == 2} <= set(capped)
        assert len(capped) == 4

    def test_cap_prefers_cheapest_larger_sets_deterministically(self):
        candidates = {
            frozenset(("a", "b")): 1.0,
            frozenset(("a", "b", "c")): 5.0,
            frozenset(("a", "b", "d")): 2.0,
        }
        capped = _cap_candidates(candidates, max_candidates=2)
        assert set(capped) == {frozenset(("a", "b")), frozenset(("a", "b", "d"))}

    def test_many_attribute_schema_stays_bounded(self):
        """The satellite regression: 12 attributes (4083 subsets of size
        >= 2 unbounded) must enumerate at most max_candidates sets and
        never pick a set wider than max_set_size."""
        from repro.generation import pairs_covered
        from repro.relational import pair_group_by_sets

        table = wide_schema_table(12)
        setcover = SetCoverEvaluator(table)
        assert all(len(s) <= DEFAULT_MAX_SET_SIZE for s in setcover.chosen_sets)
        names = table.schema.categorical_names
        covered = set()
        for s in setcover.chosen_sets:
            covered |= pairs_covered(s)
        assert set(pair_group_by_sets(names)) <= covered

    def test_tighter_caps_still_cover(self):
        from repro.generation import pairs_covered
        from repro.relational import pair_group_by_sets

        table = wide_schema_table(9)
        n_pairs = 9 * 8 // 2
        setcover = SetCoverEvaluator(table, max_set_size=3, max_candidates=n_pairs)
        # With no room for larger sets, the cover degenerates to pairs.
        assert all(len(s) == 2 for s in setcover.chosen_sets)
        covered = set()
        for s in setcover.chosen_sets:
            covered |= pairs_covered(s)
        assert set(pair_group_by_sets(table.schema.categorical_names)) <= covered


class TestFactory:
    def test_dispatch(self, table):
        assert isinstance(build_evaluator(table, "naive"), NaiveEvaluator)
        assert isinstance(build_evaluator(table, "pairwise"), PairwiseEvaluator)
        assert isinstance(build_evaluator(table, "setcover"), SetCoverEvaluator)

    def test_unknown_kind(self, table):
        with pytest.raises(ValueError):
            build_evaluator(table, "quantum")
