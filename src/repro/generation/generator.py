"""The comparison-query generation core (Algorithm 1 and its optimized forms).

One code path serves every implementation row of Table 3 — they differ
only in configuration:

* which *evaluator* materializes aggregates (naive / pairwise bounding /
  Algorithm 2 set cover);
* whether the statistical tests run on an offline *sample*;
* how many *workers* the test and support phases use.

The output carries everything the TAP needs (queries, interests) plus the
phase timings the scalability figures break down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.backend import create_backend
from repro.backend.base import ExecutionBackend
from repro.generation.config import GenerationConfig
from repro.generation.evaluators import SupportEvaluator, build_evaluator
from repro.insights.enumeration import enumerate_candidates
from repro.insights.insight import CandidateInsight, InsightEvidence, TestedInsight
# run_attribute_chunk now runs only inside the stats shard tasks; the name
# stays importable from here because benchmarks/e2e/test_harness.py checks
# its layer wrapper through this module.
from repro.insights.significance import finalize_attribute, run_attribute_chunk  # noqa: F401
from repro.parallel.shards import ChunkSink, run_stats_shards, run_support_shards
from repro.insights.transitivity import prune_transitive
from repro.queries.comparison import ComparisonQuery
from repro.queries.interestingness import conciseness, insight_term
from repro.relational.functional_deps import detect_functional_dependencies, related_attributes
from repro.relational.moments import touched_labels
from repro.relational.table import Table
from repro.runtime.deadline import Deadline
from repro.stats.delta import (
    IncrementalRequest,
    StatsMemo,
    incremental_config_token,
    merge_attribute,
    plan_incremental,
    segment_families,
)
from repro.stats.sampling import offline_test_sources

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class PhaseTimings:
    """Wall-clock seconds per pipeline phase (Figure 7's breakdown)."""

    preprocessing: float = 0.0
    sampling: float = 0.0
    statistical_tests: float = 0.0
    hypothesis_evaluation: float = 0.0
    tap_solving: float = 0.0

    @property
    def generation_total(self) -> float:
        return (
            self.preprocessing
            + self.sampling
            + self.statistical_tests
            + self.hypothesis_evaluation
        )

    @property
    def total(self) -> float:
        return self.generation_total + self.tap_solving

    def as_dict(self) -> dict[str, float]:
        return {
            "preprocessing": self.preprocessing,
            "sampling": self.sampling,
            "statistical_tests": self.statistical_tests,
            "hypothesis_evaluation": self.hypothesis_evaluation,
            "tap_solving": self.tap_solving,
        }


@dataclass(frozen=True, slots=True)
class GeneratedQuery:
    """A comparison query retained in Q, with its scoring ingredients."""

    query: ComparisonQuery
    tuples_aggregated: int
    n_groups: int
    supported: tuple[InsightEvidence, ...]
    interest: float

    @property
    def insights(self) -> tuple[TestedInsight, ...]:
        return tuple(e.insight for e in self.supported)


@dataclass(slots=True)
class GenerationOutcome:
    """Everything the generation phase produces."""

    queries: list[GeneratedQuery]
    significant: list[TestedInsight]
    evidences: dict[tuple, InsightEvidence]
    timings: PhaseTimings
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        return len(self.queries)


@dataclass(slots=True)
class StatsStageResult:
    """Everything the statistical stage produces (the checkpointable unit).

    Holds the significant insights plus the FD-derived exclusions the
    support stage needs, so an interrupted run can resume from here without
    re-running a single permutation test.

    ``memo`` — present when a table version token was supplied and the
    tests ran on the full table (no offline sampling) — carries the raw
    per-family test results so a later run over an *appended* table can
    re-test only the touched pair families (:mod:`repro.stats.delta`).
    """

    significant: list[TestedInsight]
    excluded_pairs: set[frozenset[str]]
    timings: PhaseTimings
    counters: dict[str, int] = field(default_factory=dict)
    memo: StatsMemo | None = None


def run_stats_stage(
    table: Table,
    config: GenerationConfig | None = None,
    progress: Callable[[str], None] | None = None,
    deadline: Deadline | None = None,
    backend: ExecutionBackend | None = None,
    incremental: IncrementalRequest | None = None,
    version: str | None = None,
    on_chunk: ChunkSink | None = None,
) -> StatsStageResult:
    """FD preprocessing, offline sampling, and the statistical tests.

    The expensive half of Algorithm 1 (lines 1-3).  ``deadline`` threads a
    cooperative cancellation checkpoint into the test loops; on expiry a
    :class:`~repro.errors.DeadlineExceeded` escapes with no partial state.
    ``on_chunk(attribute, candidates, oriented, results)`` sees each tested
    chunk's raw results as it completes — per shard on the worker pool,
    per attribute in-process; the run controller records them as the
    ``stats-partial`` checkpoint.  ``backend`` supplies the rows the offline
    samples draw from; the tests themselves are row-level statistics run
    as the shard tasks of :mod:`repro.parallel.shards`, in-process or on
    the worker pool per ``config.parallel``.

    ``incremental`` carries a :class:`~repro.stats.delta.StatsMemo` from an
    earlier run over ``table`` or a *prefix* of it (the caller has verified
    the version match); only pair families touched by the appended rows —
    or missing from the memo, or whose candidate set changed — are
    re-tested, and the merged raw results are element-identical to a full
    run's.  When the memo cannot soundly serve this configuration the stage
    logs a warning and runs in full.  ``version`` is the table's
    content-version token; when given (and the tests ran on the full
    table) the result carries a fresh memo for the next append.
    """
    config = config or GenerationConfig()
    timings = PhaseTimings()
    counters: dict[str, int] = {}
    say = progress or (lambda message: None)

    # -- preprocessing: functional dependencies ------------------------------
    with obs.span("stats.preprocessing", rows=table.n_rows) as sp:
        excluded_pairs: set[frozenset[str]] = set()
        if config.exclude_functional_dependencies:
            excluded_pairs = related_attributes(detect_functional_dependencies(table))
        sp.set(excluded_pairs=len(excluded_pairs))
    timings.preprocessing = sp.duration
    if excluded_pairs:
        say(f"excluding {len(excluded_pairs)} FD-related attribute pairs")
        logger.debug("excluding %d FD-related attribute pairs", len(excluded_pairs))

    # -- offline sampling -----------------------------------------------------
    strategy = config.sampling.strategy if config.sampling is not None else "none"
    with obs.span("stats.sampling", strategy=strategy) as sp:
        test_source = offline_test_sources(
            backend if backend is not None else table,
            config.sampling,
            config.significance.seed,
        )
        if config.sampling is not None:
            if isinstance(test_source, Table):
                say(f"testing on a random sample of {test_source.n_rows} rows")
            else:
                sizes = {t.n_rows for t in test_source.values()}
                say(f"testing on per-attribute balanced samples of ~{max(sizes)} rows")
    timings.sampling = sp.duration

    # -- statistical tests ------------------------------------------------------
    logger.info("statistical tests: %d permutations, engine=%s",
                config.significance.n_permutations, config.significance.engine)
    delta_input = None
    if incremental is not None:
        memo = incremental.memo
        if memo.n_rows > table.n_rows:
            logger.warning(
                "incremental stats disabled: memo covers %d rows but the "
                "table holds only %d", memo.n_rows, table.n_rows,
            )
        else:
            dirty_values = {
                name: touched_labels(table, name, memo.n_rows)
                for name in table.schema.categorical_names
            }
            delta_input = (memo, dirty_values)

    with obs.span(
        "stats.tests",
        engine=config.significance.engine,
        permutations=config.significance.n_permutations,
        workers=config.parallel.workers,
    ) as sp:
        # A sampled run keeps no memo: it could serve only a rerun at this
        # very version, which a resumed ``stats-partial`` memo covers.
        tested, records, plan = _run_tests(
            test_source, config, deadline, on_chunk, delta=delta_input,
            version=version,
            collect_memo=version is not None and config.sampling is None,
        )
        if plan is not None:
            counters["stats_partitions_skipped"] = plan.skipped
            counters["stats_partitions_retested"] = plan.retested
            obs.counter("stats.partitions_skipped").inc(plan.skipped)
            obs.counter("stats.partitions_retested").inc(plan.retested)
            say(f"incremental: {plan.skipped} pair families reused, "
                f"{plan.retested} re-tested")
            logger.info("incremental stats: %d pair families reused, %d re-tested",
                        plan.skipped, plan.retested)
        elif incremental is not None:
            counters["stats_partitions_skipped"] = 0
        counters["insights_tested"] = len(tested)
        significant = [t for t in tested if t.is_significant(config.significance.threshold)]
        counters["insights_significant"] = len(significant)
        if config.prune_transitive:
            with obs.span("stats.transitivity", before=len(significant)) as prune_span:
                significant = prune_transitive(significant)
                prune_span.set(after=len(significant))
        counters["insights_after_pruning"] = len(significant)
        sp.set(tested=len(tested), significant=counters["insights_significant"])
    timings.statistical_tests = sp.duration
    obs.counter("stats.candidates_tested").inc(counters["insights_tested"])
    obs.counter("stats.insights_significant").inc(counters["insights_significant"])
    obs.counter("stats.insights_pruned").inc(
        counters["insights_significant"] - counters["insights_after_pruning"]
    )
    say(f"{counters['insights_significant']} significant insights "
        f"({counters['insights_after_pruning']} after transitivity pruning)")
    logger.info("%d/%d insights significant (%d after pruning) in %.3fs",
                counters["insights_significant"], counters["insights_tested"],
                counters["insights_after_pruning"], timings.statistical_tests)
    memo = None
    if records is not None and version is not None:
        memo = StatsMemo(
            version, table.n_rows, incremental_config_token(config), records
        )
    return StatsStageResult(significant, excluded_pairs, timings, counters, memo)


def run_support_stage(
    table: Table,
    stats: StatsStageResult,
    config: GenerationConfig | None = None,
    progress: Callable[[str], None] | None = None,
    deadline: Deadline | None = None,
    backend: ExecutionBackend | None = None,
) -> GenerationOutcome:
    """Hypothesis-query evaluation and scoring over a stats-stage result.

    The second half of Algorithm 1 (lines 4-17); runs against the *full*
    relation regardless of any test-phase sampling.  Merges the stats
    stage's timings and counters into the returned outcome.

    The evaluation runs as the per-grouping shard tasks of
    :mod:`repro.parallel.shards`: in-process on ``backend`` (built from
    ``config.backend`` — and closed on the way out — when not supplied by
    the caller) at one worker or under the set-cover evaluator, on the
    worker pool otherwise.  The aggregation-query and statement counters
    include the pool workers' traffic.
    """
    config = config or GenerationConfig()
    say = progress or (lambda message: None)
    timings = stats.timings
    counters = dict(stats.counters)

    owns_backend = backend is None
    if backend is None:
        backend = create_backend(config.backend, table)
    statements_before = backend.statements_executed
    try:
        with obs.span(
            "generation.support",
            evaluator=config.evaluator,
            backend=backend.name,
            insights=len(stats.significant),
        ) as sp:
            evaluator = build_evaluator(
                backend, config.evaluator, config.memory_budget_bytes
            )
            logger.info("hypothesis evaluation: evaluator=%s backend=%s over %d insights",
                        config.evaluator, backend.name, len(stats.significant))
            queries, evidences, n_hypothesis, (fleet_queries, fleet_statements), plan = (
                _evaluate_support(
                    table, stats.significant, stats.excluded_pairs, backend,
                    evaluator, config, deadline,
                )
            )
            # Pool workers' traffic ran on their own evaluators and
            # backends; credit it to the caller's so run-level counts
            # include it.
            backend.statements_executed += fleet_statements
            aggregation_queries = evaluator.queries_sent + fleet_queries
            statements = backend.statements_executed - statements_before
            counters["hypothesis_queries_evaluated"] = n_hypothesis
            counters["queries_supported"] = len(queries)
            counters["aggregation_queries_sent"] = aggregation_queries
            counters["backend_statements_executed"] = statements
            # The multi-query plan shape (what a batching backend was asked
            # to compile): set-cover ships its whole chosen cover as one
            # batch; the pairwise strategies batch per grouping attribute.
            if config.evaluator == "setcover":
                chosen = getattr(evaluator, "chosen_sets", ())
                plan = {"batches": 1 if chosen else 0, "sets": len(chosen)}
            counters["mqo_plan_batches"] = plan["batches"]
            counters["mqo_plan_sets"] = plan["sets"]

            with obs.span("generation.scoring", candidates=len(queries)):
                scored = _score_and_deduplicate(queries, config)
            counters["queries_final"] = len(scored)
            sp.set(hypothesis_queries=n_hypothesis, queries_final=len(scored))
    finally:
        if owns_backend:
            backend.close()
    timings.hypothesis_evaluation = sp.duration
    obs.counter("generation.hypothesis_queries").inc(n_hypothesis)
    obs.counter("generation.queries_supported").inc(len(queries))
    obs.counter("generation.aggregation_queries").inc(aggregation_queries)
    obs.counter("generation.queries_final").inc(len(scored))
    obs.current_metrics().record_peak_rss()
    say(f"{len(scored)} comparison queries retained in Q")
    logger.info("%d comparison queries retained in Q (%.3fs)",
                len(scored), timings.hypothesis_evaluation)
    return GenerationOutcome(scored, stats.significant, evidences, timings, counters)


def generate_comparison_queries(
    table: Table,
    config: GenerationConfig | None = None,
    progress: Callable[[str], None] | None = None,
    deadline: Deadline | None = None,
    backend: ExecutionBackend | None = None,
) -> GenerationOutcome:
    """Run insight testing + hypothesis evaluation and build the set Q."""
    config = config or GenerationConfig()
    stats = run_stats_stage(table, config, progress, deadline, backend=backend)
    return run_support_stage(table, stats, config, progress, deadline, backend=backend)


# ---------------------------------------------------------------------------
# Phase: statistical tests
# ---------------------------------------------------------------------------


def _run_tests(
    test_source: Table | dict[str, Table],
    config: GenerationConfig,
    deadline: Deadline | None = None,
    on_chunk: ChunkSink | None = None,
    delta: tuple[StatsMemo, dict[str, frozenset]] | None = None,
    version: str | None = None,
    collect_memo: bool = False,
) -> tuple[list[TestedInsight], dict[str, list] | None, object]:
    """Run the per-attribute significance tests as shard tasks.

    ``test_source`` is either one table shared by every attribute (full
    data or a uniform random sample) or a mapping attribute -> table
    (per-attribute balanced samples of the unbalanced strategy).

    ``delta`` — ``(memo, dirty_values)`` from a verified prior run — routes
    only the dirty pair families through the runners and splices the
    memo's stored raw results in for the rest; ``version`` is the tested
    table's content version; ``collect_memo`` asks for the per-family
    records of this run (for the *next* memo).  Returns
    ``(tested, records_or_None, plan_or_None)``.

    The tests run as the shard tasks of
    :func:`~repro.parallel.shards.run_stats_shards`: in-process at one
    worker (one task per attribute), on the subprocess pool of
    :mod:`repro.parallel` otherwise (with worker-side deadline checkpoints
    and crash isolation); ``on_chunk`` sees every tested chunk either way.
    Every worker count produces identical results — shards are cut at
    pair-family boundaries and permutation batches derive their RNG from
    chunk-independent keys.  The incremental path feeds its dirty work
    through the same runner, so the parity holds there too.
    """
    if isinstance(test_source, Table):
        tables = {name: test_source for name in test_source.schema.categorical_names}
    else:
        tables = test_source

    work: list[tuple[str, Table, list[CandidateInsight]]] = []
    for attribute, sample in tables.items():
        if deadline is not None:
            deadline.check("statistical tests")
        candidates = list(
            enumerate_candidates(
                sample,
                insight_types=config.insight_types,
                attributes=[attribute],
                max_pairs_per_attribute=config.max_pairs_per_attribute,
            )
        )
        if candidates:
            work.append((attribute, sample, candidates))

    plan = None
    if delta is not None:
        memo, dirty_values = delta
        plan = plan_incremental(memo, work, dirty_values, config, version)

    raw: dict[str, tuple[list, list]] = {}
    tested = run_stats_shards(
        work if plan is None else plan.dirty_work,
        config.significance, config.parallel, deadline,
        on_chunk=on_chunk, raw_out=raw,
    )
    if plan is not None:
        tested = []
        records: dict[str, list] = {}
        for attribute, _, _ in work:
            oriented, results, family_records = merge_attribute(
                plan, attribute, raw.get(attribute, ((), ()))
            )
            tested.extend(finalize_attribute(oriented, results, config.significance))
            records[attribute] = family_records
        return tested, (records if collect_memo else None), plan

    records = None
    if collect_memo:
        records = {
            attribute: segment_families(candidates, *raw.get(attribute, ((), ())))
            for attribute, _, candidates in work
        }
    return tested, records, None


# ---------------------------------------------------------------------------
# Phase: hypothesis evaluation / support checking
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _SupportedQuery:
    """Pre-dedup record of a query together with its result statistics."""

    query: ComparisonQuery
    tuples_aggregated: int
    n_groups: int
    supported: list[InsightEvidence]


def _evaluate_support(
    table: Table,
    significant: Sequence[TestedInsight],
    excluded_pairs: set[frozenset[str]],
    backend: ExecutionBackend,
    evaluator: SupportEvaluator,
    config: GenerationConfig,
    deadline: Deadline | None = None,
) -> tuple[list[_SupportedQuery], dict[tuple, InsightEvidence], int, tuple[int, int], dict]:
    """Evaluate every hypothesis query; returns the supported set.

    The queries run as one shard task per grouping attribute
    (:func:`~repro.parallel.shards.run_support_shards`) — in-process on
    ``backend`` and ``evaluator``, or on the worker pool — and are
    assembled here in one fixed order (pair groups in insertion order ×
    valid groupings × aggregates), so the result is the same at every
    worker count.  The fourth element is the pool workers'
    ``(aggregation queries, backend statements)`` — traffic the caller's
    evaluator and backend never saw.  The fifth is the multi-query plan
    shape — how many per-grouping-attribute batches cover how many
    distinct group-by sets.
    """
    categorical = table.schema.categorical_names
    evidences: dict[tuple, InsightEvidence] = {}

    # Group insights by (selection attribute, unordered pair, measure): one
    # aggregated comparison answers every insight type of the group.
    groups: dict[tuple, list[InsightEvidence]] = {}
    valid_groupings: dict[str, list[str]] = {}
    for insight in significant:
        candidate = insight.candidate
        if candidate.attribute not in valid_groupings:
            valid_groupings[candidate.attribute] = [
                a
                for a in categorical
                if a != candidate.attribute
                and frozenset((a, candidate.attribute)) not in excluded_pairs
            ]
        n_postulating = len(valid_groupings[candidate.attribute]) * len(config.aggregates)
        evidence = InsightEvidence(insight, n_supporting=0, n_postulating=n_postulating)
        evidences[insight.key] = evidence
        lo, hi = sorted((candidate.val, candidate.val_other))
        groups.setdefault((candidate.attribute, lo, hi, candidate.measure), []).append(evidence)

    # The multi-query plan shape: each grouping attribute's shard issues
    # one batch to the backend's compiler, over the distinct
    # (grouping, selection) pairs.
    plan = {
        "batches": len({g for gs in valid_groupings.values() for g in gs}),
        "sets": len({frozenset((g, a)) for a, gs in valid_groupings.items() for g in gs}),
    }

    items = list(groups.items())
    records, queries_sent, statements = run_support_shards(
        table, items, valid_groupings, config.aggregates,
        backend=backend,
        evaluator=evaluator,
        evaluator_name=config.evaluator,
        memory_budget=config.memory_budget_bytes,
        parallel=config.parallel,
        deadline=deadline,
    )
    supported_queries: list[_SupportedQuery] = []
    hypothesis_count = 0
    for group_index, (key, members) in enumerate(items):
        attribute, lo, hi, measure_name = key
        for grouping in valid_groupings[attribute]:
            for agg in config.aggregates:
                hypothesis_count += len(members)
                record = records.get((group_index, grouping, agg))
                if record is None:
                    continue
                tuples_aggregated, n_groups, indices = record
                supported_here = [members[i] for i in indices]
                for evidence in supported_here:
                    evidence.n_supporting += 1
                supported_queries.append(
                    _SupportedQuery(
                        ComparisonQuery(grouping, attribute, lo, hi,
                                        measure_name, agg),
                        tuples_aggregated, n_groups, supported_here,
                    )
                )
    return supported_queries, evidences, hypothesis_count, (queries_sent, statements), plan


# ---------------------------------------------------------------------------
# Phase: scoring and deduplication (Algorithm 1, lines 14-17)
# ---------------------------------------------------------------------------


def _score_and_deduplicate(
    records: list[_SupportedQuery], config: GenerationConfig
) -> list[GeneratedQuery]:
    cfg = config.interestingness
    scored: list[GeneratedQuery] = []
    for record in records:
        total = sum(insight_term(e, cfg) for e in record.supported)
        if cfg.use_conciseness:
            total *= conciseness(
                record.tuples_aggregated, record.n_groups, cfg.alpha, cfg.delta
            )
        scored.append(
            GeneratedQuery(
                _oriented(record),
                record.tuples_aggregated,
                record.n_groups,
                tuple(record.supported),
                total,
            )
        )

    best: dict[tuple, GeneratedQuery] = {}
    for generated in scored:
        key = generated.query.dedup_key
        incumbent = best.get(key)
        if incumbent is None or generated.interest > incumbent.interest:
            best[key] = generated
    return sorted(best.values(), key=lambda g: -g.interest)


def _oriented(record: _SupportedQuery) -> ComparisonQuery:
    """Flip the query's value order so the dominant side displays first.

    The dominant side is taken from the most significant supported insight;
    flipping does not affect θ, γ, or interest.
    """
    top = max(record.supported, key=lambda e: e.insight.significance)
    query = record.query
    if top.insight.candidate.val == query.val:
        return query
    return ComparisonQuery(
        query.group_by,
        query.selection_attribute,
        query.val_other,
        query.val,
        query.measure,
        query.agg,
    )
