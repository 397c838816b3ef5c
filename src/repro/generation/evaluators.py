"""Support-check evaluators: how hypothesis queries get their data.

Three strategies, matching Table 3's implementation column:

* :class:`NaiveEvaluator` — re-aggregates the base table for every
  hypothesis query (the unbounded Algorithm 1; ablation arm);
* :class:`PairwiseEvaluator` — the §5.2.1 bounding: one 2-attribute
  group-by per (grouping, selection) pair, reused for every value pair,
  measure, and aggregate;
* :class:`SetCoverEvaluator` — Algorithm 2: a weighted-set-cover choice of
  larger group-by sets materialized up front; every pair is answered by
  rolling a covering aggregate up.

All three run their aggregation passes through an
:class:`~repro.backend.base.ExecutionBackend` (a bare :class:`Table` is
accepted and wrapped in the columnar adapter), expose
``evaluate(query) -> ComparisonResult``, and count ``queries_sent`` —
the paper's "number of queries sent to the DBMS" metric, i.e. the number
of aggregation passes the strategy issued.  With a pushdown backend those
passes are real SQL statements; the backend's ``statements_executed``
counts them from the engine side.

Since the COMPARE-style multi-query optimization, the two bounded
strategies *plan their full demand up front* instead of materializing one
key at a time: :meth:`PairwiseEvaluator.plan` takes every (grouping,
selection) pair of a work unit and :class:`SetCoverEvaluator` ships its
whole chosen cover, both routed through
:func:`~repro.backend.base.materialize_batch` so a batched backend
compiles them into one (or few) engine statements.  ``queries_sent``
still counts *group-by sets materialized* — the logical demand — so it is
invariant under batching; only the backend's ``statements_executed``
collapses.  A backend without the ``batched_aggregates`` capability gets
one statement per set from :func:`~repro.backend.base.materialize_batch`'s
fallback, which the MQO parity suite uses as its per-set oracle.
"""

from __future__ import annotations

import threading
from typing import Iterable, Protocol, Sequence

from repro.backend import as_backend
from repro.backend.base import (
    AggregateRequest,
    BackendError,
    ExecutionBackend,
    materialize_batch,
)
from repro.queries.comparison import ComparisonQuery
from repro.queries.evaluate import ComparisonResult, evaluate_comparison_cached
from repro.relational.cube import (
    PartialAggregateCache,
    pair_group_by_sets,
    powerset_group_by_sets,
)
from repro.relational.statistics import estimate_aggregate_bytes
from repro.relational.table import Table
from repro.generation.setcover import apply_memory_fallback, greedy_weighted_set_cover

#: How often a waiter retries after the pair-aggregate builder it waited on
#: failed (it may become the builder itself on retry).  Bounded: a backend
#: that fails deterministically must surface its error, not recurse forever.
MAX_BUILD_ATTEMPTS = 3

#: Largest group-by set the set-cover enumeration considers.  The raw
#: candidate collection of Algorithm 2 is the powerset of the categorical
#: attributes — exponential in attribute count — but sets wider than a few
#: attributes approach base-table cardinality and are never picked by the
#: weighted cover, so capping the enumeration changes nothing on realistic
#: schemas while keeping wide ones polynomial (O(n^4) at the default).
DEFAULT_MAX_SET_SIZE = 4

#: Cap on the number of candidate sets handed to the greedy cover.  All
#: 2-attribute sets are always kept (they alone guarantee the universe is
#: coverable); the remaining slots go to the cheapest larger sets by
#: estimated size, with a deterministic name tie-break.
DEFAULT_MAX_CANDIDATES = 256


class SupportEvaluator(Protocol):
    """Interface of the three evaluation strategies."""

    queries_sent: int

    def plan(self, pairs: Iterable[Iterable[str]]) -> None:  # pragma: no cover
        """Announce upcoming (grouping, selection) demand for batching."""
        ...

    def evaluate(self, query: ComparisonQuery) -> ComparisonResult:  # pragma: no cover
        ...


class NaiveEvaluator:
    """One full aggregation pass per hypothesis query (no reuse)."""

    def __init__(self, source: "Table | ExecutionBackend"):
        self._backend = as_backend(source)
        self.queries_sent = 0

    def plan(self, pairs: Iterable[Iterable[str]]) -> None:
        """No-op: the ablation arm deliberately reuses nothing."""

    def evaluate(self, query: ComparisonQuery) -> ComparisonResult:
        self.queries_sent += 1
        return self._backend.evaluate_comparison(query)


class PairwiseEvaluator:
    """§5.2.1 bounding: per-pair 2-group-by materialization.

    At most ``n(n-1)/2`` aggregation passes regardless of how many
    hypothesis queries are evaluated.  :meth:`plan` pre-materializes a
    whole batch of pairs through the backend's multi-query compiler (one
    statement per batch on a batched backend); :meth:`evaluate` serves
    planned pairs from the cache and falls back to lazy per-pair builds
    for anything unplanned, so callers that never call :meth:`plan` see
    the classic behavior.
    """

    def __init__(self, source: "Table | ExecutionBackend"):
        self._backend = as_backend(source)
        self._cache = PartialAggregateCache()
        self._building: dict[frozenset[str], threading.Event] = {}
        self._lock = threading.Lock()  # evaluate() is safe across threads
        self.queries_sent = 0

    def plan(self, pairs: Iterable[Iterable[str]]) -> None:
        """Batch-materialize every not-yet-covered pair in one backend call.

        Pairs already covered (or being built by a concurrent thread) are
        skipped; the rest are reserved under the lock and compiled as one
        batch, so on a batched backend the whole work unit costs one
        statement.
        """
        with self._lock:
            todo: list[frozenset[str]] = []
            for pair in pairs:
                key = frozenset(pair)
                attrs = sorted(key)
                if key in self._building or self._cache.covers(attrs[0], attrs[-1]):
                    continue
                self._building[key] = threading.Event()
                todo.append(key)
        if not todo:
            return
        requests = [AggregateRequest.of(sorted(key)) for key in todo]
        try:
            aggregates = materialize_batch(self._backend, requests)
        except BaseException:
            with self._lock:
                events = [self._building.pop(key, None) for key in todo]
            for event in events:
                if event is not None:
                    event.set()
            raise
        with self._lock:
            for aggregate in aggregates:
                self._cache.add(aggregate)
            self.queries_sent += len(aggregates)
            events = [self._building[key] for key in todo]
        for event in events:
            event.set()

    def evaluate(self, query: ComparisonQuery) -> ComparisonResult:
        key = frozenset((query.group_by, query.selection_attribute))
        # Bounded retry: each round either serves from the cache, becomes
        # the builder (build failures propagate immediately), or waits for
        # a concurrent builder.  A waiter retries only when that builder
        # failed and un-reserved the key — after MAX_BUILD_ATTEMPTS such
        # failures we give up rather than recurse forever.
        for _attempt in range(MAX_BUILD_ATTEMPTS):
            with self._lock:
                if self._cache.covers(query.group_by, query.selection_attribute):
                    return evaluate_comparison_cached(self._cache, query)
                # Reserve the key under the lock so exactly one thread
                # builds each pair aggregate; the others wait on its event
                # instead of issuing a redundant (and double-counted)
                # aggregation pass.
                done = self._building.get(key)
                if done is None:
                    done = threading.Event()
                    self._building[key] = done
                    builder = True
                else:
                    builder = False
            if builder:
                try:
                    aggregate = self._backend.materialize_aggregate(sorted(key))
                    with self._lock:
                        self._cache.add(aggregate)
                        self.queries_sent += 1
                except BaseException:
                    with self._lock:
                        self._building.pop(key, None)
                    raise
                finally:
                    done.set()
                return evaluate_comparison_cached(self._cache, query)
            done.wait()
        raise BackendError(
            f"pair aggregate for {sorted(key)} failed to build after "
            f"{MAX_BUILD_ATTEMPTS} attempts"
        )


class SetCoverEvaluator:
    """Algorithm 2: cover all pairs with few large group-by sets.

    The cover is chosen on optimizer *estimates* (Cardenas) as in the
    paper; ``memory_budget_bytes`` triggers the fallback replacement of
    over-budget sets by plain 2-group-bys.  Candidate enumeration is
    bounded by ``max_set_size`` / ``max_candidates`` (see
    :data:`DEFAULT_MAX_SET_SIZE`) so wide schemas stay polynomial; the
    chosen cover — known in full up front — is materialized as one batch
    through the backend's multi-query compiler.
    """

    def __init__(
        self,
        source: "Table | ExecutionBackend",
        attributes: Sequence[str] | None = None,
        memory_budget_bytes: int | None = None,
        max_set_size: int = DEFAULT_MAX_SET_SIZE,
        max_candidates: int = DEFAULT_MAX_CANDIDATES,
    ):
        self._backend = as_backend(source)
        table = self._backend.table
        names = list(attributes or table.schema.categorical_names)
        universe = pair_group_by_sets(names)
        candidates = {
            g: estimate_aggregate_bytes(table, sorted(g))
            for g in powerset_group_by_sets(names, min_size=2, max_size=max_set_size)
        }
        candidates = _cap_candidates(candidates, max_candidates)
        chosen = greedy_weighted_set_cover(universe, candidates)
        chosen = apply_memory_fallback(chosen, candidates, memory_budget_bytes)
        self.chosen_sets = tuple(chosen)
        self._cache = PartialAggregateCache()
        self.queries_sent = 0
        requests = [AggregateRequest.of(sorted(g)) for g in chosen]
        for aggregate in materialize_batch(self._backend, requests):
            self._cache.add(aggregate)
            self.queries_sent += 1

    @property
    def cache_bytes(self) -> int:
        return self._cache.total_bytes()

    def plan(self, pairs: Iterable[Iterable[str]]) -> None:
        """No-op: the whole cover was materialized at construction."""

    def evaluate(self, query: ComparisonQuery) -> ComparisonResult:
        return evaluate_comparison_cached(self._cache, query)


def _cap_candidates(
    candidates: dict[frozenset[str], float], max_candidates: int
) -> dict[frozenset[str], float]:
    """Bound the candidate collection while keeping the universe coverable.

    Every 2-attribute set survives unconditionally (the cover can always
    fall back to them), so the cap only prunes *larger* sets: cheapest by
    estimated bytes first, sorted-name tie-break for determinism.
    """
    if len(candidates) <= max_candidates:
        return candidates
    pairs = {g: w for g, w in candidates.items() if len(g) == 2}
    larger = sorted(
        ((w, tuple(sorted(g)), g) for g, w in candidates.items() if len(g) > 2),
    )
    keep = dict(pairs)
    for weight, _, group_by_set in larger:
        if len(keep) >= max_candidates:
            break
        keep[group_by_set] = weight
    return keep


def build_evaluator(
    source: "Table | ExecutionBackend",
    kind: str,
    memory_budget_bytes: int | None = None,
) -> SupportEvaluator:
    """Factory keyed by :class:`GenerationConfig.evaluator`."""
    if kind == "naive":
        return NaiveEvaluator(source)
    if kind == "pairwise":
        return PairwiseEvaluator(source)
    if kind == "setcover":
        return SetCoverEvaluator(source, memory_budget_bytes=memory_budget_bytes)
    raise ValueError(f"unknown evaluator kind {kind!r}")
