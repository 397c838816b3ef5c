"""Deterministic sharding of the two expensive pipeline stages.

This module decides *what* a pool task is; :mod:`repro.parallel.pool`
decides where it runs.  Two shard shapes exist:

* **stats shards** — one attribute's candidates, chunked at pair-family
  boundaries (:func:`~repro.insights.significance.family_chunks`).  Chunk
  results merge per attribute *in chunk order* before the BH correction,
  and every permutation batch derives its RNG from the root seed plus a
  chunk-independent key, so any worker count reproduces the sequential
  results bit for bit.  Completed shards can be recorded in a
  :class:`ShardStore` (the mid-shard checkpoint hook) and skipped on
  resume.

* **support shards** — one grouping attribute's slice of the hypothesis
  evaluation.  A worker evaluates every (pair-group × its grouping ×
  aggregate) combination and ships back compact records; the parent then
  *replays the sequential iteration order* (pair groups in insertion
  order × valid groupings × aggregates) over those records, so the
  assembled query list, evidence counts, and even the aggregation-query /
  backend-statement counters are identical to a ``workers=1`` run
  (per-grouping shards partition the evaluators' ``(grouping, selection)``
  cache keys cleanly).

Workers re-create their own execution backend (SQLite connections never
cross process boundaries) and their spans/counters are folded back into
the main trace by the pool.
"""

from __future__ import annotations

import logging
from typing import Sequence

from repro import obs
from repro.insights.insight import CandidateInsight, InsightEvidence, TestedInsight
from repro.insights.significance import (
    SignificanceConfig,
    family_chunks,
    finalize_attribute,
    run_attribute_chunk,
)
from repro.insights.types import insight_type
from repro.parallel.config import ParallelConfig, resolve_store_kind
from repro.parallel.pool import ShardPool, WorkerContext
from repro.relational.store import export_table, resolve_table
from repro.queries.comparison import ComparisonQuery
from repro.queries.evaluate import ComparisonResult
from repro.relational.table import Table
from repro.runtime.deadline import Deadline
from repro.stats.permutation import TestResult

logger = logging.getLogger(__name__)

__all__ = [
    "ShardStore",
    "evidence_supported",
    "run_stats_shards",
    "run_support_shards",
    "stats_shard_ids",
]


class ShardStore:
    """Completed stats shards, keyed by shard id (the mid-shard checkpoint).

    The base class is a plain in-memory dict; the persistent variant
    (:class:`repro.persistence.PersistentShardStore`) overrides
    :meth:`put` to also write the ``stats-partial`` checkpoint file.
    A store only makes sense for one (config, dataset) pair — the
    persistent variant guards that with a config token.
    """

    def __init__(self, completed: dict[str, tuple[list, list]] | None = None):
        self._completed: dict[str, tuple[list, list]] = dict(completed or {})

    def get(self, shard_id: str) -> tuple[list, list] | None:
        return self._completed.get(shard_id)

    def put(
        self,
        shard_id: str,
        oriented: list[CandidateInsight],
        results: list[TestResult],
    ) -> None:
        self._completed[shard_id] = (oriented, results)

    def __len__(self) -> int:
        return len(self._completed)


# ---------------------------------------------------------------------------
# Stats-stage shards
# ---------------------------------------------------------------------------


def _stats_jobs(
    work: Sequence[tuple[str, Table, list[CandidateInsight]]],
    chunk_size: int,
) -> list[tuple[str, str, list[CandidateInsight]]]:
    """``(shard_id, attribute, chunk)`` jobs; ids are stable across runs."""
    jobs = []
    for attribute, _, candidates in work:
        for index, chunk in enumerate(family_chunks(candidates, chunk_size)):
            jobs.append((f"{attribute}#{index}", attribute, chunk))
    return jobs


def stats_shard_ids(
    work: Sequence[tuple[str, Table, list[CandidateInsight]]],
    chunk_size: int,
) -> list[str]:
    """The shard ids a run over ``work`` would produce (resume planning)."""
    return [shard_id for shard_id, _, _ in _stats_jobs(work, chunk_size)]


def _stats_worker_init(payload):
    """Resolve the shipped per-attribute sources into tables.

    Under the shared-memory plane each source is a compact
    :class:`~repro.relational.store.TableHandle`; attaching is zero-copy
    and counted (``parallel.shm_attach``).  Under the heap plane the
    sources are the pickled tables themselves.
    """
    sources, config = payload
    return (
        {name: resolve_table(source) for name, source in sources.items()},
        config,
    )


def _stats_task(ctx: WorkerContext, payload) -> tuple[list, list]:
    tables, config = ctx.state
    _, attribute, chunk = payload
    return run_attribute_chunk(
        tables[attribute], attribute, chunk, config, checkpoint=ctx.checkpoint
    )


def _exportable(parallel: ParallelConfig) -> bool:
    """Whether this run should ship handles instead of tables."""
    return parallel.active and resolve_store_kind(parallel) == "shm"


def run_stats_shards(
    work: Sequence[tuple[str, Table, list[CandidateInsight]]],
    config: SignificanceConfig,
    parallel: ParallelConfig,
    deadline: Deadline | None = None,
    store: ShardStore | None = None,
    raw_out: dict[str, tuple[list, list]] | None = None,
) -> list[TestedInsight]:
    """Test every attribute's candidates across the shard pool.

    Returns the tested insights in the exact order the sequential path
    produces them: attributes in ``work`` order, candidates in enumeration
    order, BH applied per attribute family over the merged chunks.

    When ``raw_out`` is given it receives, per attribute, the merged raw
    ``(oriented, results)`` sequences *before* the BH correction — the
    incremental stats stage memoizes these per pair family.
    """
    jobs = _stats_jobs(work, parallel.chunk_size)
    tables = {attribute: sample for attribute, sample, _ in work}
    # Under the shm plane workers receive handles (a table already shared
    # — e.g. the session's resident table — reuses its segment; sampled
    # tables are shared for the duration of this run).  Under the heap
    # plane the tables ship pickled, once per worker; per-attribute
    # samples typically alias one object, deduplicated either way.
    sources: dict[str, object] = tables
    owned: list = []
    if _exportable(parallel):
        by_identity: dict[int, object] = {}
        sources = {}
        for attribute, sample in tables.items():
            payload = by_identity.get(id(sample))
            if payload is None:
                payload, owned_store = export_table(sample, "shm")
                by_identity[id(sample)] = payload
                if owned_store is not None:
                    owned.append(owned_store)
            sources[attribute] = payload
    pool = ShardPool(
        parallel,
        task_fn=_stats_task,
        worker_init=_stats_worker_init,
        init_payload=(sources, config),
        label="stats",
        deadline=deadline,
    )

    skip: set[int] = set()
    restored: dict[int, tuple[list, list]] = {}
    on_result = None
    if store is not None:
        for index, (shard_id, _, _) in enumerate(jobs):
            cached = store.get(shard_id)
            if cached is not None:
                skip.add(index)
                restored[index] = cached
        if skip:
            logger.info("stats: resuming with %d/%d shard(s) from checkpoint",
                        len(skip), len(jobs))

        def on_result(index: int, value) -> None:
            oriented, results = value
            store.put(jobs[index][0], oriented, results)

    try:
        outputs = pool.run(jobs, on_result=on_result, skip=frozenset(skip))
    finally:
        for owned_store in owned:
            owned_store.release()
    for index, cached in restored.items():
        outputs[index] = cached

    merged: dict[str, tuple[list, list]] = {
        attribute: ([], []) for attribute, _, _ in work
    }
    for (shard_id, attribute, _), (oriented, results) in zip(jobs, outputs):
        merged[attribute][0].extend(oriented)
        merged[attribute][1].extend(results)
    if raw_out is not None:
        raw_out.update(merged)
    tested: list[TestedInsight] = []
    for attribute, _, _ in work:
        oriented, results = merged[attribute]
        tested.extend(finalize_attribute(oriented, results, config))
    return tested


# ---------------------------------------------------------------------------
# Support-stage shards
# ---------------------------------------------------------------------------


def evidence_supported(
    result: ComparisonResult, evidence: InsightEvidence, lo: str
) -> bool:
    """Support check with orientation: ``x`` is the lo-side series."""
    itype = insight_type(evidence.insight.candidate.type_code)
    if result.n_groups == 0:
        return False
    if evidence.insight.candidate.val == lo:
        return itype.supports(result.x, result.y)
    return itype.supports(result.y, result.x)


class _SupportWorkerState:
    """Per-worker evaluation state: own backend, own evaluator."""

    def __init__(self, table, backend_name, evaluator_name, memory_budget,
                 groups, valid_groupings, aggregates):
        # Imported here, not at module top: repro.parallel must stay
        # importable without touching repro.generation (which imports
        # repro.parallel.config for its own configuration).
        from repro.backend import create_backend

        # create_backend resolves a TableHandle into a zero-copy view.
        self.backend = create_backend(backend_name, table)
        self.evaluator_name = evaluator_name
        self.memory_budget = memory_budget
        self.groups = groups
        self.valid_groupings = valid_groupings
        self.aggregates = aggregates
        self.refresh()

    def refresh(self) -> None:
        """Per-stage reset when the fleet reuses this state.

        The backend — its connection, attached segment views, and the
        table's cross-stage :class:`~repro.relational.aggcache
        .AggregateCache` — stays warm; only the cheap evaluator wrapper
        is rebuilt, so a repeat run re-requests its pair aggregates and
        records ``cache.aggregate_hits`` exactly as a ``workers=1`` rerun
        over the resident table does.
        """
        from repro.generation.evaluators import build_evaluator

        self.evaluator = build_evaluator(
            self.backend, self.evaluator_name, self.memory_budget
        )

    def close(self) -> None:
        self.backend.close()


def _support_worker_init(payload) -> _SupportWorkerState:
    return _SupportWorkerState(*payload)


def _support_task(ctx: WorkerContext, grouping: str):
    """Evaluate every (pair group × ``grouping`` × aggregate) combination.

    Returns compact records — ``(group_index, agg, tuples_aggregated,
    n_groups, supported member indices)`` for combinations that supported
    at least one member — plus this shard's aggregation-query and
    backend-statement counts.
    """
    state: _SupportWorkerState = ctx.state
    queries_before = state.evaluator.queries_sent
    statements_before = state.backend.statements_executed
    records = []
    # Plan this shard's full pair demand up front: one batched backend
    # call per grouping attribute (the multi-query optimization), instead
    # of one lazy materialization per (grouping, selection) pair inside
    # the evaluate loop.  A no-op for non-batching evaluators.
    shard_pairs = [
        frozenset((grouping, key[0]))
        for key, _ in state.groups
        if grouping in state.valid_groupings[key[0]]
    ]
    state.evaluator.plan(shard_pairs)
    with obs.span("generation.evaluate_grouping", grouping=grouping) as sp:
        evaluated = 0
        for group_index, (key, members) in enumerate(state.groups):
            attribute, lo, hi, measure_name = key
            if grouping not in state.valid_groupings[attribute]:
                continue
            for agg in state.aggregates:
                if ctx.checkpoint is not None:
                    ctx.checkpoint()
                query = ComparisonQuery(grouping, attribute, lo, hi, measure_name, agg)
                result = state.evaluator.evaluate(query)
                evaluated += 1
                supported = tuple(
                    i for i, evidence in enumerate(members)
                    if evidence_supported(result, evidence, lo)
                )
                if supported:
                    records.append(
                        (group_index, agg, result.tuples_aggregated,
                         result.n_groups, supported)
                    )
        sp.set(evaluated=evaluated, supported=len(records))
    return (
        records,
        state.evaluator.queries_sent - queries_before,
        state.backend.statements_executed - statements_before,
    )


def run_support_shards(
    table: Table,
    groups: list[tuple[tuple, list[InsightEvidence]]],
    valid_groupings: dict[str, list[str]],
    aggregates: Sequence[str],
    *,
    backend_name: str,
    evaluator_name: str,
    memory_budget: int | None,
    parallel: ParallelConfig,
    deadline: Deadline | None = None,
) -> tuple[dict[tuple[int, str, str], tuple[int, int, tuple[int, ...]]], int, int]:
    """Evaluate the hypothesis stage sharded by grouping attribute.

    Returns ``(records, queries_sent, statements_executed)`` where
    ``records`` maps ``(group_index, grouping, agg)`` to ``(tuples_aggregated,
    n_groups, supported member indices)``.  The caller replays the
    sequential iteration order over this mapping to assemble the supported
    queries byte-identically.
    """
    shard_groupings = sorted({g for gs in valid_groupings.values() for g in gs})
    # Ship the table's handle when the shm plane is on (a session's
    # resident table is already shared, costing nothing extra here).
    source: object = table
    owned_store = None
    if _exportable(parallel):
        source, owned_store = export_table(table, "shm")
    pool = ShardPool(
        parallel,
        task_fn=_support_task,
        worker_init=_support_worker_init,
        init_payload=(source, backend_name, evaluator_name, memory_budget,
                      groups, valid_groupings, list(aggregates)),
        label="support",
        deadline=deadline,
    )
    try:
        outputs = pool.run(shard_groupings)
    finally:
        if owned_store is not None:
            owned_store.release()
    records: dict[tuple[int, str, str], tuple[int, int, tuple[int, ...]]] = {}
    queries_sent = 0
    statements = 0
    for grouping, output in zip(shard_groupings, outputs):
        shard_records, shard_queries, shard_statements = output
        queries_sent += shard_queries
        statements += shard_statements
        for group_index, agg, tuples_aggregated, n_groups, supported in shard_records:
            records[(group_index, grouping, agg)] = (
                tuples_aggregated, n_groups, supported
            )
    return records, queries_sent, statements
