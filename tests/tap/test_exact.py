"""Correctness tests for the exact TAP solver against brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tap import (
    ExactConfig,
    TAPInstance,
    held_karp_path,
    random_euclidean_instance,
    random_hamming_instance,
    solve_exact,
    validate_solution,
)
from repro.errors import TAPError


def brute_force_optimum(instance, budget, epsilon_d):
    """Max total interest over feasible subsets (uniform costs assumed 1)."""
    best = 0.0
    n = instance.n
    max_size = int(budget)
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(n), size):
            if len(subset) <= 1:
                length = 0.0
            else:
                length, _ = held_karp_path(instance.distances, list(subset))
            if length <= epsilon_d + 1e-9:
                z = instance.sequence_interest(list(subset))
                best = max(best, z)
    return best


class TestAgainstBruteForce:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4), st.floats(0.3, 1.5))
    def test_optimal_interest(self, seed, budget, epsilon_d):
        instance = random_euclidean_instance(9, seed=seed)
        outcome = solve_exact(instance, ExactConfig(budget, epsilon_d, timeout_seconds=30))
        assert outcome.solution.optimal
        expected = brute_force_optimum(instance, budget, epsilon_d)
        assert outcome.solution.interest == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_solution_is_feasible(self, seed):
        instance = random_hamming_instance(15, seed=seed)
        config = ExactConfig(4, 12.0, timeout_seconds=30)
        outcome = solve_exact(instance, config)
        validate_solution(instance, outcome.solution, 4, 12.0)

    def test_reported_distance_matches_sequence(self):
        instance = random_euclidean_instance(10, seed=3)
        outcome = solve_exact(instance, ExactConfig(4, 1.0, timeout_seconds=30))
        assert outcome.solution.distance == pytest.approx(
            instance.sequence_distance(outcome.solution.indices)
        )


class TestBehaviour:
    def test_zero_epsilon_gives_single_best_query(self):
        instance = random_euclidean_instance(12, seed=5)
        outcome = solve_exact(instance, ExactConfig(5, 0.0, timeout_seconds=30))
        assert outcome.solution.size == 1
        assert outcome.solution.interest == pytest.approx(float(instance.interests.max()))

    def test_generous_epsilon_takes_top_budget_queries(self):
        instance = random_euclidean_instance(12, seed=6)
        outcome = solve_exact(instance, ExactConfig(4, 1e9, timeout_seconds=30))
        top4 = np.sort(instance.interests)[-4:].sum()
        assert outcome.solution.interest == pytest.approx(top4)

    def test_budget_bounds_size(self):
        instance = random_euclidean_instance(20, seed=7)
        outcome = solve_exact(instance, ExactConfig(3, 10.0, timeout_seconds=30))
        assert outcome.solution.size <= 3

    def test_timeout_returns_incumbent(self):
        instance = random_hamming_instance(150, seed=8)
        outcome = solve_exact(instance, ExactConfig(8, 25.0, timeout_seconds=0.02))
        assert outcome.timed_out
        assert not outcome.solution.optimal
        # Whatever it found must still be feasible.
        validate_solution(instance, outcome.solution, 8, 25.0)

    def test_invalid_config(self):
        with pytest.raises(TAPError):
            ExactConfig(0, 1.0)
        with pytest.raises(TAPError):
            ExactConfig(5, -1.0)

    def test_nodes_and_time_reported(self):
        instance = random_euclidean_instance(10, seed=9)
        outcome = solve_exact(instance, ExactConfig(3, 1.0, timeout_seconds=30))
        assert outcome.nodes_explored > 0
        assert outcome.solve_seconds >= 0.0

    def test_all_zero_interest_is_solved_without_search(self):
        """Nothing scores above 0: the empty sequence is optimal at once,
        instead of after the whole tree (or the timeout) is spent."""
        base = random_hamming_instance(60, seed=11)
        instance = TAPInstance(
            base.items, np.zeros(base.n), base.costs, base.distances
        )
        outcome = solve_exact(instance, ExactConfig(6, 30.0, timeout_seconds=30))
        assert not outcome.timed_out
        assert outcome.solution.optimal
        assert outcome.solution.indices == ()
        assert outcome.solution.interest == 0.0
        assert outcome.nodes_explored == 0

    def test_non_uniform_costs_respected(self):
        instance = random_euclidean_instance(10, seed=10, uniform_cost=False)
        outcome = solve_exact(instance, ExactConfig(2.0, 1e9, timeout_seconds=30))
        assert outcome.solution.cost <= 2.0 + 1e-9


class TestBeyondExactPathLimit:
    def test_large_budget_degrades_not_crashes(self):
        """Budgets beyond the Held-Karp limit must yield a feasible anytime
        solution flagged non-optimal (not raise mid-search)."""
        instance = random_euclidean_instance(60, seed=11)
        config = ExactConfig(budget=30, epsilon_distance=12.0, timeout_seconds=3.0)
        outcome = solve_exact(instance, config)
        validate_solution(instance, outcome.solution, 30, 12.0)
        assert not outcome.solution.optimal


class TestRaiseOnTimeout:
    """The anytime contract consumed by the resilient runtime's TAP ladder."""

    def _ticking_clock(self, monkeypatch, step=1.0):
        """Replace the exact module's clock: each call advances `step`s."""
        import types

        from repro.tap import exact as exact_module

        state = {"t": 0.0}

        def perf_counter():
            state["t"] += step
            return state["t"]

        monkeypatch.setattr(
            exact_module, "time", types.SimpleNamespace(perf_counter=perf_counter)
        )

    def test_timeout_raises_with_incumbent(self, monkeypatch):
        # Each clock tick is one second and every B&B node reads the clock,
        # so a 10s timeout deterministically expires after ~10 nodes — well
        # after the first include made an incumbent, well before the search
        # is done.
        self._ticking_clock(monkeypatch)
        instance = random_euclidean_instance(14, seed=21)
        config = ExactConfig(4, 5.0, timeout_seconds=10.0, raise_on_timeout=True)
        from repro.errors import SolverTimeout

        with pytest.raises(SolverTimeout) as err:
            solve_exact(instance, config)
        incumbent = err.value.incumbent
        assert incumbent is not None
        assert not incumbent.optimal
        assert incumbent.size > 0
        validate_solution(instance, incumbent, 4, 5.0)

    def test_default_keeps_returning_silently(self, monkeypatch):
        self._ticking_clock(monkeypatch)
        instance = random_euclidean_instance(14, seed=21)
        outcome = solve_exact(instance, ExactConfig(4, 5.0, timeout_seconds=10.0))
        assert outcome.timed_out
        assert not outcome.solution.optimal
