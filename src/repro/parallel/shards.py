"""Deterministic sharding of the two expensive pipeline stages.

The shard tasks here are the only implementation of the stats and
support stages: this module decides *what* a task is, and
:mod:`repro.parallel.pool` decides where it runs — in-process at one
worker, on the subprocess fleet otherwise.  Two shard shapes exist:

* **stats shards** — one attribute's candidates.  In-process an attribute
  is one job, so one permutation-batch cache serves all its pair
  families; on a pool it is chunked at pair-family boundaries
  (:func:`~repro.insights.significance.family_chunks`) for balance.
  Chunk results merge per attribute *in chunk order* before the BH
  correction, and every permutation batch derives its RNG from the root
  seed plus a chunk-independent key, so any worker count reproduces the
  same results bit for bit.  Each completed shard is handed to an
  ``on_chunk`` sink as it lands; the run controller records its pair
  families in a :class:`~repro.stats.delta.StatsMemo` (the
  ``stats-partial`` checkpoint), and a resumed run re-tests only the
  families that memo lacks — shards themselves are never stored.

* **support shards** — one grouping attribute's slice of the hypothesis
  evaluation.  A task evaluates every (pair-group × its grouping ×
  aggregate) combination and returns compact records; the caller then
  assembles them in one fixed order (pair groups in insertion order ×
  valid groupings × aggregates), so the query list and evidence counts
  are the same at every worker count.  In-process tasks share the
  caller's backend and evaluator; pool workers re-create their own
  (SQLite connections never cross process boundaries) and report their
  aggregation-query and backend-statement counts back.

Workers' spans/counters are folded back into the main trace by the pool.
"""

from __future__ import annotations

from typing import Callable, Sequence

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

__all__ = [
    "CHUNK_SIZE",
    "ChunkSink",
    "evidence_supported",
    "run_stats_shards",
    "run_support_shards",
]

#: Target candidates per stats shard on a worker pool.  Shards are cut
#: only at pair-family boundaries so the batched kernel sees whole
#: families per worker; the value never affects results, only balance.
CHUNK_SIZE = 250

#: ``(attribute, candidates, oriented, results)`` of one tested chunk.
ChunkSink = Callable[
    [str, Sequence[CandidateInsight], Sequence[CandidateInsight], Sequence[TestResult]],
    None,
]


# ---------------------------------------------------------------------------
# Stats-stage shards
# ---------------------------------------------------------------------------


def _stats_jobs(
    work: Sequence[tuple[str, Table, list[CandidateInsight]]],
    workers: int,
) -> list[tuple[str, list[CandidateInsight]]]:
    """``(attribute, chunk)`` jobs, in work order.

    In-process each attribute is one job (one batch cache for all its
    pair families); a pool gets :data:`CHUNK_SIZE` chunks to balance.
    """
    if workers == 1:
        return [(attribute, candidates) for attribute, _, candidates in work]
    return [
        (attribute, chunk)
        for attribute, _, candidates in work
        for chunk in family_chunks(candidates, CHUNK_SIZE)
    ]


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
    attribute, chunk = payload
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
    on_chunk: ChunkSink | None = None,
    raw_out: dict[str, tuple[list, list]] | None = None,
) -> list[TestedInsight]:
    """Test every attribute's candidates as shard tasks.

    Returns the tested insights in one fixed order at every worker
    count: attributes in ``work`` order, candidates in enumeration
    order, BH applied per attribute family over the merged chunks.

    ``on_chunk`` fires in the parent as each shard completes (in
    completion order).  When ``raw_out`` is given it receives, per
    attribute, the merged raw ``(oriented, results)`` sequences *before*
    the BH correction — the incremental stats stage memoizes these per
    pair family.
    """
    jobs = _stats_jobs(work, parallel.workers)
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
        parallel.workers,
        task_fn=_stats_task,
        worker_init=_stats_worker_init,
        init_payload=(sources, config),
        label="stats",
        deadline=deadline,
    )

    on_result = None
    if on_chunk is not None:

        def on_result(index: int, value) -> None:
            on_chunk(*jobs[index], *value)

    try:
        outputs = pool.run(jobs, on_result=on_result)
    finally:
        for owned_store in owned:
            owned_store.release()

    merged: dict[str, tuple[list, list]] = {
        attribute: ([], []) for attribute, _, _ in work
    }
    for (attribute, _), (oriented, results) in zip(jobs, outputs):
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


class _SupportState:
    """What a support task reads: a backend, its evaluator, the demand."""

    def __init__(self, backend, evaluator, groups, valid_groupings, aggregates):
        self.backend = backend
        self.evaluator = evaluator
        self.groups = groups
        self.valid_groupings = valid_groupings
        self.aggregates = aggregates


class _SupportWorkerState(_SupportState):
    """A pool worker's state: its own backend, a rebuildable evaluator."""

    def __init__(self, table, backend_name, evaluator_name, memory_budget,
                 groups, valid_groupings, aggregates):
        # Imported here, not at module top: repro.parallel must stay
        # importable without touching repro.generation (which imports
        # repro.parallel.config for its own configuration).
        from repro.backend import create_backend

        # create_backend resolves a TableHandle into a zero-copy view.
        super().__init__(create_backend(backend_name, table), None,
                         groups, valid_groupings, aggregates)
        self.evaluator_name = evaluator_name
        self.memory_budget = memory_budget
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
    state: _SupportState = ctx.state
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
    backend,
    evaluator,
    evaluator_name: str,
    memory_budget: int | None,
    parallel: ParallelConfig,
    deadline: Deadline | None = None,
) -> tuple[dict[tuple[int, str, str], tuple[int, int, tuple[int, ...]]], int, int]:
    """Evaluate the hypothesis stage sharded by grouping attribute.

    The shards run in-process on the caller's ``backend`` and
    ``evaluator`` at one worker, and always for the set-cover evaluator,
    whose up-front cover is shared by every grouping (per-grouping
    workers would each rebuild it).  Otherwise they run on the worker
    pool, each worker over its own backend and evaluator.

    Returns ``(records, queries_sent, statements_executed)`` where
    ``records`` maps ``(group_index, grouping, agg)`` to ``(tuples_aggregated,
    n_groups, supported member indices)``; the caller assembles the
    supported queries from it in its canonical order.  The two counts
    cover only traffic on backends other than the caller's (pool
    workers, or their in-process fallback) — the caller's own evaluator
    and backend count the rest.
    """
    shard_groupings = sorted({g for gs in valid_groupings.values() for g in gs})
    in_process = not parallel.active or evaluator_name == "setcover"
    owned_store = None
    if in_process:
        pool = ShardPool(
            1,
            task_fn=_support_task,
            init_payload=_SupportState(backend, evaluator, groups,
                                       valid_groupings, list(aggregates)),
            label="support",
            deadline=deadline,
        )
    else:
        # Ship the table's handle when the shm plane is on (a session's
        # resident table is already shared, costing nothing extra here).
        source: object = table
        if _exportable(parallel):
            source, owned_store = export_table(table, "shm")
        pool = ShardPool(
            parallel.workers,
            task_fn=_support_task,
            worker_init=_support_worker_init,
            init_payload=(source, backend.name, evaluator_name, memory_budget,
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
        if not in_process:
            queries_sent += shard_queries
            statements += shard_statements
        for group_index, agg, tuples_aggregated, n_groups, supported in shard_records:
            records[(group_index, grouping, agg)] = (
                tuples_aggregated, n_groups, supported
            )
    return records, queries_sent, statements
