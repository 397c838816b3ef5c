"""Exact TAP resolution by branch-and-bound (the CPLEX substitute).

The paper solves the ε-constraint form of the TAP with a MILP on CPLEX
(Section 5.3): maximize total interest subject to the cost budget ε_t and
``Σ dist(q_i, q_{i+1}) <= ε_d``.  This module solves the same problem
exactly in pure Python:

* items are explored in decreasing interest order with an include/exclude
  branch-and-bound;
* the upper bound is the fractional-knapsack relaxation of the remaining
  interest under the remaining cost budget;
* distance feasibility of a partial selection prunes via the MST lower
  bound first (cheap) and the exact Held-Karp minimum path second — sound
  because with a metric distance the minimum Hamiltonian path length is
  monotone non-decreasing in the selected set;
* ties on interest are broken toward smaller path distance, matching the
  bi-objective reading of Definition 4.1.

A wall-clock timeout makes the solver anytime: on expiry it reports the
incumbent with ``optimal=False`` (this is how Table 4's "%Timeouts" column
is reproduced).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SolverTimeout, TAPError
from repro.tap.instance import TAPInstance, TAPSolution, make_solution
from repro.tap.path import best_insertion_order, held_karp_path, mst_lower_bound

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ExactConfig:
    """Settings for the exact solver.

    ``budget`` is ε_t (with uniform unit costs this is the notebook
    length); ``epsilon_distance`` is ε_d; ``timeout_seconds`` bounds the
    wall clock (None = no limit).
    """

    #: Above this selected-set size the feasibility check degrades to the
    #: greedy upper bound (see ``_Search._path_check``); 12 keeps a single
    #: Held-Karp call well under a second in pure Python.
    DEFAULT_PATH_LIMIT = 12

    budget: float
    epsilon_distance: float
    timeout_seconds: float | None = None
    exact_path_limit: int = DEFAULT_PATH_LIMIT
    #: When True, a timeout raises :class:`~repro.errors.SolverTimeout`
    #: carrying the anytime incumbent instead of returning it silently —
    #: the contract the resilient runtime's degradation ladder consumes.
    raise_on_timeout: bool = False

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise TAPError("budget must be positive")
        if self.epsilon_distance < 0:
            raise TAPError("epsilon_distance must be non-negative")


@dataclass(frozen=True, slots=True)
class ExactOutcome:
    """Solver result: the best solution found plus proof status."""

    solution: TAPSolution
    timed_out: bool
    nodes_explored: int
    solve_seconds: float


_EPS = 1e-9


class _Search:
    def __init__(self, instance: TAPInstance, config: ExactConfig):
        self.instance = instance
        self.config = config
        # Branch order: decreasing interest (the paper's MILP has no order,
        # but for B&B this makes the knapsack bound tight early).
        self.order = np.argsort(-instance.interests, kind="stable")
        self.interests = instance.interests[self.order]
        self.costs = instance.costs[self.order]
        # Ratio order for the fractional bound.
        self.deadline = (
            time.perf_counter() + config.timeout_seconds
            if config.timeout_seconds is not None
            else None
        )
        self.best_interest = -1.0
        self.best_distance = float("inf")
        self.best_order: list[int] = []
        self.nodes = 0
        self.timed_out = False
        self.approximate_paths = False
        # Suffix structures for the bound: items from position k onward,
        # sorted by interest/cost ratio.
        n = instance.n
        self._suffix_ratio_order: list[np.ndarray] = []
        for k in range(n + 1):
            tail = np.arange(k, n)
            ratios = self.interests[tail] / self.costs[tail]
            self._suffix_ratio_order.append(tail[np.argsort(-ratios, kind="stable")])

    def run(self) -> None:
        self._dfs(0, [], 0.0, 0.0)

    # -- bounding --------------------------------------------------------------

    def _upper_bound(self, k: int, interest: float, cost_used: float) -> float:
        remaining = self.config.budget - cost_used
        bound = interest
        for idx in self._suffix_ratio_order[k]:
            c = self.costs[idx]
            if c <= remaining:
                bound += self.interests[idx]
                remaining -= c
            else:
                if remaining > 0:
                    bound += self.interests[idx] * remaining / c
                break
        return bound

    # -- feasibility -------------------------------------------------------------

    def _path_check(self, chosen: list[int]) -> tuple[bool, float, list[int]]:
        """(feasible, exact length, exact order) for the chosen set."""
        subset = [int(self.order[i]) for i in chosen]
        if len(subset) <= 1:
            return True, 0.0, subset
        if mst_lower_bound(self.instance.distances, subset) > self.config.epsilon_distance + _EPS:
            return False, float("inf"), []
        if len(subset) > self.config.exact_path_limit:
            # Beyond the Held-Karp limit the path check degrades to the
            # greedy best-insertion *upper bound*: accepted sets are still
            # genuinely feasible, but pruning may discard feasible sets, so
            # optimality can no longer be proven (the outcome is flagged).
            self.approximate_paths = True
            order = best_insertion_order(self.instance.distances, subset)
            length = float(
                sum(
                    self.instance.distances[order[i], order[i + 1]]
                    for i in range(len(order) - 1)
                )
            )
            return length <= self.config.epsilon_distance + _EPS, length, order
        length, path = held_karp_path(self.instance.distances, subset)
        return length <= self.config.epsilon_distance + _EPS, length, path

    # -- search ------------------------------------------------------------------

    def _dfs(self, k: int, chosen: list[int], interest: float, cost_used: float) -> None:
        if self.timed_out:
            return
        self.nodes += 1
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.timed_out = True
            return
        if k >= self.instance.n:
            return
        if self._upper_bound(k, interest, cost_used) < self.best_interest - _EPS:
            return
        # Include branch first (high interest first drives incumbents up fast).
        cost_k = float(self.costs[k])
        if cost_used + cost_k <= self.config.budget + _EPS:
            chosen.append(k)
            feasible, length, path = self._path_check(chosen)
            if feasible:
                new_interest = interest + float(self.interests[k])
                if new_interest > self.best_interest + _EPS or (
                    abs(new_interest - self.best_interest) <= _EPS
                    and length < self.best_distance - _EPS
                ):
                    self.best_interest = new_interest
                    self.best_distance = length
                    self.best_order = path
                self._dfs(k + 1, chosen, new_interest, cost_used + cost_k)
            chosen.pop()
        if self.timed_out:
            return
        self._dfs(k + 1, chosen, interest, cost_used)


def solve_exact(instance: TAPInstance, config: ExactConfig) -> ExactOutcome:
    """Solve the ε-constraint TAP to optimality (or timeout).

    The empty sequence is always feasible, so the outcome always carries a
    valid (possibly empty) solution.
    """
    logger.debug("exact B&B: n=%d budget=%g eps_d=%g timeout=%s",
                 instance.n, config.budget, config.epsilon_distance,
                 config.timeout_seconds)
    with obs.span("tap.exact", n=instance.n, budget=config.budget) as sp:
        search = _Search(instance, config)
        # With no positive interest the empty sequence is already optimal;
        # searching would only tie at 0 until the timeout.
        if np.any(instance.interests > 0):
            search.run()
        sp.set(nodes=search.nodes, timed_out=search.timed_out)
    elapsed = sp.duration
    obs.counter("tap.exact.nodes").inc(search.nodes)
    obs.counter("tap.exact.solves").inc()
    if search.timed_out:
        obs.counter("tap.exact.timeouts").inc()
    order = search.best_order if search.best_interest > 0 else []
    solution = make_solution(
        instance,
        order,
        optimal=not search.timed_out and not search.approximate_paths,
        solve_seconds=elapsed,
        nodes_explored=search.nodes,
    )
    if search.timed_out:
        logger.warning("exact B&B timed out after %.3fs (%d nodes); "
                       "incumbent interest=%.4f", elapsed, search.nodes,
                       solution.interest)
        if config.raise_on_timeout:
            raise SolverTimeout(
                f"exact TAP solver exceeded {config.timeout_seconds}s "
                f"({search.nodes} nodes explored)",
                incumbent=solution,
            )
    else:
        logger.info("exact B&B solved in %.3fs (%d nodes, optimal=%s)",
                    elapsed, search.nodes, solution.optimal)
    return ExactOutcome(solution, search.timed_out, search.nodes, elapsed)
