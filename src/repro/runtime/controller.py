"""The resilient run controller: every run returns a valid NotebookRun.

Each pipeline stage runs down a *degradation ladder* — an ordered list of
rungs from the configured behaviour to an always-cheap fallback.  A rung
that raises (deadline expiry, solver refusal, memory pressure, injected
fault) is recorded as a retry and the next rung runs; the final rung of
every ladder executes under a small grace extension past the deadline, so
a run that blew its budget mid-stage still finishes the cheap fallback.

Ladders
-------
stats:
    full config → cut permutation count (+ random sampling on large
    tables) → parametric tests with a pair cap.
generation (hypothesis evaluation):
    configured evaluator (Algorithm 2 set cover or §5.2.1 bounding) →
    Algorithm 1 + pairwise bounding → pairwise over the top-k insights.
tap:
    exact B&B (anytime: a timeout's incumbent is consumed, flagged
    ``optimal=False``) → Algorithm 3 heuristic → lazy top-k baseline.
render:
    previews + charts → SQL-only cells → skeleton notebook.

Stage boundaries checkpoint through :mod:`repro.persistence` when a
checkpoint path is given, and the stats stage checkpoints mid-stage too:
each tested chunk's pair families join a :class:`~repro.stats.delta
.StatsMemo` written as the ``stats-partial`` checkpoint.
:func:`resilient_generate` accepts a loaded checkpoint to resume without
re-running completed stages (or, from ``stats-partial``, completed pair
families); every checkpoint names its table's content version, and a
resume over a different table is refused.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro import obs
from repro.backend import create_backend
from repro.backend.base import ExecutionBackend
from repro.errors import DeadlineExceeded, ReproError, SolverTimeout
from repro.generation.config import GenerationConfig, SamplingSpec
from repro.generation.generator import (
    GeneratedQuery,
    GenerationOutcome,
    PhaseTimings,
    StatsStageResult,
    run_stats_stage,
    run_support_stage,
)
from repro.generation.pipeline import DEFAULT_EPSILON_PER_QUERY, NotebookRun
from repro.notebook.build import build_notebook
from repro.notebook.cells import Notebook
from repro.notebook.narrative import notebook_header
from repro.queries.distance import query_distance
from repro.queries.sqlgen import bind_table, comparison_sql
from repro.relational.table import Table, content_token
from repro.runtime.deadline import Deadline
from repro.runtime.faults import FaultInjector
from repro.runtime.report import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_RESUMED,
    RunReport,
    StageReport,
)
from repro.stats.delta import (
    IncrementalRequest,
    StatsMemo,
    incremental_config_token,
    segment_families,
)
from repro.stats.permutation import reduced_permutations
from repro.tap.baseline import solve_baseline_lazy
from repro.tap.exact import ExactConfig, solve_exact
from repro.tap.heuristic import HeuristicConfig, solve_heuristic_lazy
from repro.tap.instance import TAPInstance, TAPSolution

logger = logging.getLogger(__name__)

__all__ = [
    "STAGE_GENERATION",
    "STAGE_RENDER",
    "STAGE_STATS",
    "STAGE_TAP",
    "RuntimePolicy",
    "resilient_generate",
    "resilient_render",
]

STAGE_STATS = "stats"
STAGE_GENERATION = "generation"
STAGE_TAP = "tap"
STAGE_RENDER = "render"


@dataclass(frozen=True, slots=True)
class RuntimePolicy:
    """Tuning knobs of the resilient controller.

    Attributes
    ----------
    deadline_seconds:
        Shared wall-clock budget for the whole run (None = unlimited).
    grace_seconds:
        Extra allowance granted to the *final* rung of each ladder so a
        blown deadline still yields a result (this is why ``--deadline 5``
        may finish around six seconds, never much later).
    permutation_cut_factor:
        Permutation-count divisor of the stats stage's middle rung.
    degraded_sample_rate / degraded_sample_min_rows:
        The middle stats rung additionally switches to random offline
        sampling when the table has at least ``degraded_sample_min_rows``
        rows and no sampling was configured.
    top_k_insights:
        Insight cap of the generation stage's final rung.
    max_pairs_degraded:
        Per-attribute value-pair cap of the stats stage's final rung.
    exact_time_share:
        Fraction of the remaining deadline granted to the exact TAP solver
        before its anytime incumbent is taken.
    """

    deadline_seconds: float | None = None
    grace_seconds: float = 1.0
    permutation_cut_factor: int = 4
    degraded_sample_rate: float = 0.25
    degraded_sample_min_rows: int = 5000
    top_k_insights: int = 60
    max_pairs_degraded: int = 200
    exact_time_share: float = 0.6


@dataclass(slots=True)
class _Rung:
    """One step of a stage's degradation ladder.

    ``degradation`` names what the run gave up when this rung produced
    the stage's result (None for a rung that gives up nothing).
    """

    label: str
    run: Callable[[Deadline, list[str]], object]
    degradation: str | None = None


def _run_ladder(
    stage: str,
    rungs: Sequence[_Rung],
    deadline: Deadline,
    faults: FaultInjector,
    report: RunReport,
    grace_seconds: float,
) -> object | None:
    """Run ``rungs`` in order until one succeeds; record it all in the report.

    Returns the successful rung's result, or None when every rung failed
    (the caller substitutes a valid empty result).  Rung callables receive
    the deadline to honour and a mutable note list for in-rung degradations
    (e.g. "anytime incumbent after solver timeout").
    """
    entry = StageReport(stage)
    result = None
    succeeded = False
    with obs.span(f"stage.{stage}", rungs=len(rungs)) as stage_span:
        for index, rung in enumerate(rungs):
            is_last = index == len(rungs) - 1
            rung_deadline = deadline.extended(grace_seconds) if is_last else deadline
            notes: list[str] = []
            try:
                faults.fire(stage, deadline)
                rung_deadline.check(stage)
                result = rung.run(rung_deadline, notes)
            except (DeadlineExceeded, ReproError, MemoryError) as exc:
                entry.retries += 1
                entry.warnings.append(f"rung {rung.label!r} failed: {exc}")
                obs.counter(f"runtime.{stage}.rung_failures").inc()
                logger.warning("stage %s rung %s failed (%s); falling back",
                               stage, rung.label, exc)
                continue
            succeeded = True
            entry.rung = rung.label
            if index > 0 or rung.degradation:
                entry.status = STATUS_DEGRADED
                if rung.degradation:
                    entry.degradations.append(rung.degradation)
            if notes:
                entry.status = STATUS_DEGRADED
                entry.degradations.extend(notes)
            break
        if not succeeded:
            entry.status = STATUS_FAILED
            entry.error = entry.warnings[-1] if entry.warnings else "all rungs failed"
            logger.error("stage %s failed on every rung", stage)
        stage_span.set(rung=entry.rung, status=entry.status, retries=entry.retries)
    entry.seconds = stage_span.duration
    obs.histogram(
        "runtime.stage_seconds", {"stage": stage, "outcome": entry.status}
    ).observe(entry.seconds)
    report.stages.append(entry)
    return result


def _resumed_stage(report: RunReport, stage: str) -> None:
    report.stages.append(StageReport(stage, status=STATUS_RESUMED, rung="checkpoint"))


# ---------------------------------------------------------------------------
# Stage ladders
# ---------------------------------------------------------------------------


def _stats_ladder(
    table: Table,
    config: GenerationConfig,
    policy: RuntimePolicy,
    progress: Callable[[str], None] | None,
    backend: ExecutionBackend | None = None,
    incremental=None,
    version: str | None = None,
    on_chunk=None,
) -> list[_Rung]:
    base_permutations = config.significance.n_permutations
    cut = reduced_permutations(base_permutations, policy.permutation_cut_factor)
    reduced_config = replace(
        config, significance=replace(config.significance, n_permutations=cut)
    )
    reduced_note = f"permutations cut {base_permutations} -> {cut}"
    if config.sampling is None and table.n_rows >= policy.degraded_sample_min_rows:
        reduced_config = replace(
            reduced_config,
            sampling=SamplingSpec("random", policy.degraded_sample_rate),
        )
        reduced_note += f", random sampling at {policy.degraded_sample_rate:.0%}"

    pair_cap = policy.max_pairs_degraded
    if config.max_pairs_per_attribute is not None:
        pair_cap = min(pair_cap, config.max_pairs_per_attribute)
    parametric_config = replace(
        config,
        significance=replace(config.significance, engine="parametric"),
        sampling=config.sampling,
        max_pairs_per_attribute=pair_cap,
    )
    # Only the configured rung records mid-stage checkpoints or consumes
    # the incremental memo: the degraded rungs change the test
    # configuration, which would invalidate the memo's config token anyway.
    return [
        _Rung(
            "full",
            lambda d, n: run_stats_stage(table, config, progress, d, backend=backend,
                                         incremental=incremental, version=version,
                                         on_chunk=on_chunk),
        ),
        _Rung(
            "reduced",
            lambda d, n: run_stats_stage(table, reduced_config, progress, d, backend=backend),
            degradation=reduced_note,
        ),
        _Rung(
            "parametric",
            lambda d, n: run_stats_stage(
                table, parametric_config, progress, d, backend=backend
            ),
            degradation=(
                f"parametric tests, at most {pair_cap} value pairs per attribute"
            ),
        ),
    ]


def _generation_ladder(
    table: Table,
    stats: StatsStageResult,
    config: GenerationConfig,
    policy: RuntimePolicy,
    progress: Callable[[str], None] | None,
    backend: ExecutionBackend | None = None,
) -> list[_Rung]:
    rungs: list[_Rung] = [
        _Rung(
            config.evaluator,
            lambda d, n: run_support_stage(table, stats, config, progress, d, backend=backend),
        )
    ]
    if config.evaluator != "pairwise":
        pairwise_config = replace(config, evaluator="pairwise")
        rungs.append(
            _Rung(
                "pairwise",
                lambda d, n: run_support_stage(
                    table, stats, pairwise_config, progress, d, backend=backend
                ),
                degradation="fell back to Algorithm 1 + pairwise bounding",
            )
        )
    top_k = policy.top_k_insights
    truncated = sorted(stats.significant, key=lambda t: -t.significance)[:top_k]
    top_k_stats = StatsStageResult(
        truncated, stats.excluded_pairs, stats.timings, dict(stats.counters)
    )
    top_k_config = replace(config, evaluator="pairwise")
    rungs.append(
        _Rung(
            "top-k",
            lambda d, n: run_support_stage(
                table, top_k_stats, top_k_config, progress, d, backend=backend
            ),
            degradation=f"evaluated only the top {len(truncated)} insights",
        )
    )
    return rungs


def _tap_ladder(
    queries: Sequence[GeneratedQuery],
    config: GenerationConfig,
    budget: float,
    epsilon_distance: float,
    solver: str,
    exact_timeout: float | None,
    max_exact_queries: int,
    policy: RuntimePolicy,
) -> list[_Rung]:
    weights = config.distance_weights
    interests = [g.interest for g in queries]
    costs = [1.0] * len(queries)

    def distance_of(i: int, j: int) -> float:
        return query_distance(queries[i].query, queries[j].query, weights)

    rungs: list[_Rung] = []
    heuristic_degradation = None
    if solver == "exact" and len(queries) > max_exact_queries:
        # The exact solver needs the full distance matrix; an oversized
        # instance goes straight to the heuristic, reported as a fallback.
        heuristic_degradation = (
            f"exact solver refused: {len(queries)} queries > "
            f"max_exact_queries={max_exact_queries}"
        )
    elif solver == "exact":

        def run_exact(deadline: Deadline, notes: list[str]) -> TAPSolution:
            import numpy as np

            n = len(queries)
            with obs.span("tap.distance_matrix", n=n):
                matrix = np.zeros((n, n))
                for i in range(n):
                    deadline.check(STAGE_TAP)
                    for j in range(i + 1, n):
                        d = distance_of(i, j)
                        matrix[i, j] = d
                        matrix[j, i] = d
            instance = TAPInstance(list(queries), interests, costs, matrix)
            timeout = exact_timeout
            if deadline.limited:
                share = max(0.05, deadline.remaining() * policy.exact_time_share)
                timeout = min(share, timeout) if timeout is not None else share
            try:
                outcome = solve_exact(
                    instance,
                    ExactConfig(budget, epsilon_distance, timeout_seconds=timeout,
                                raise_on_timeout=True),
                )
            except SolverTimeout as exc:
                if exc.incumbent is None:
                    raise
                notes.append("exact solver timed out; kept anytime incumbent "
                             "(optimal=False)")
                return exc.incumbent
            return outcome.solution

        rungs.append(_Rung("exact", run_exact))
        heuristic_degradation = "fell back to the Algorithm 3 heuristic"
    rungs.append(
        _Rung(
            "heuristic",
            lambda d, n: solve_heuristic_lazy(
                interests, costs, distance_of,
                HeuristicConfig(budget, epsilon_distance), deadline=d,
            ),
            degradation=heuristic_degradation,
        )
    )
    rungs.append(
        _Rung(
            "baseline",
            lambda d, n: solve_baseline_lazy(interests, costs, distance_of, budget),
            degradation="fell back to the top-k interest baseline",
        )
    )
    return rungs


def _partial_recorder(path, memo: StatsMemo):
    """An ``on_chunk`` sink: add the chunk's pair families to ``memo`` and
    rewrite the ``stats-partial`` checkpoint at ``path``."""
    from repro import persistence

    def record(attribute, candidates, oriented, results) -> None:
        memo.families.setdefault(attribute, []).extend(
            segment_families(candidates, oriented, results)
        )
        persistence.save_checkpoint(path, memo=memo, version=memo.version)

    return record


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


def resilient_generate(
    table: Table | None,
    config: GenerationConfig | None = None,
    *,
    budget: float = 10.0,
    epsilon_distance: float | None = None,
    solver: str = "heuristic",
    exact_timeout: float | None = 60.0,
    max_exact_queries: int = 2000,
    deadline_seconds: float | None = None,
    policy: RuntimePolicy | None = None,
    faults: FaultInjector | None = None,
    checkpoint_path=None,
    resume=None,
    progress: Callable[[str], None] | None = None,
    backend: ExecutionBackend | None = None,
    incremental=None,
    version: str | None = None,
) -> NotebookRun:
    """End-to-end generation that *always* returns a valid NotebookRun.

    ``config``, ``solver``, ``exact_timeout`` and ``max_exact_queries``
    mirror the :class:`~repro.config.ReproConfig` fields; the rest are
    the runtime controls: ``deadline_seconds`` (shared wall clock),
    ``faults`` (deterministic fault injection), ``checkpoint_path`` (write
    stage snapshots there after the stats and generation stages), and
    ``resume`` (a :class:`~repro.persistence.RunCheckpoint` to restart
    from).  ``table`` may be None only when resuming past the generation
    stage.  ``backend`` lets a caller (the :class:`repro.api.Session`
    facade) lend a long-lived engine; the controller then reports only the
    statements this run executed and leaves closing to the owner.

    ``incremental`` is an :class:`~repro.stats.delta.IncrementalRequest`
    from a verified prior run over a prefix of ``table``: the stats
    stage's configured rung then re-tests only the pair families touched
    by the appended rows.  ``version`` stamps the table's content-version
    token onto the run so the stats stage can memoize its raw results for
    the *next* append (``run.stats_memo``); it is computed from ``table``
    when a checkpoint is written or resumed without one.  A ``resume``
    whose table version differs raises :class:`~repro.errors.ReproError`;
    a ``stats-partial`` resume becomes an incremental request at the same
    version, so only the pair families its memo lacks are tested.
    """
    if solver not in ("heuristic", "exact"):
        raise ReproError(f"unknown solver {solver!r}")
    policy = policy or RuntimePolicy()
    if deadline_seconds is not None:
        policy = replace(policy, deadline_seconds=deadline_seconds)
    config = config or GenerationConfig()
    faults = faults or FaultInjector.none()
    deadline = Deadline(policy.deadline_seconds)
    report = RunReport(deadline_seconds=policy.deadline_seconds,
                       backend=config.backend,
                       workers=config.parallel.workers)
    if epsilon_distance is None:
        epsilon_distance = DEFAULT_EPSILON_PER_QUERY * max(1.0, budget - 1.0)

    if (
        resume is not None
        and resume.report is not None
        and resume.report.backend
        and resume.report.backend != config.backend
    ):
        raise ReproError(
            f"checkpoint was produced by the {resume.report.backend!r} backend "
            f"but this run is configured for {config.backend!r}; resuming "
            "across backends would mix engines mid-run (re-run without "
            "--resume, or match the backend)"
        )
    if version is None and table is not None and (
        resume is not None or checkpoint_path is not None
    ):
        version = content_token(table)
    if (
        resume is not None
        and table is not None
        and resume.version is not None
        and resume.version != version
    ):
        raise ReproError(
            f"checkpoint was produced from a different table (version "
            f"{resume.version}) than this run's (version {version}); resuming "
            "would reuse another table's results (re-run without --resume, "
            "or pass the checkpointed data)"
        )

    with obs.span(
        "run", solver=solver, budget=budget, backend=config.backend,
        deadline_seconds=policy.deadline_seconds,
    ) as run_span:
        stats: StatsStageResult | None = None
        outcome: GenerationOutcome | None = None
        resumed_memo: StatsMemo | None = None
        if resume is not None:
            report.resumed_from = str(resume.source) if resume.source else "checkpoint"
            if resume.report is not None:
                report.backend_statements = resume.report.backend_statements
                if resume.report.mqo_plan is not None:
                    report.mqo_plan = resume.report.mqo_plan
            if resume.outcome is not None:
                outcome = resume.outcome
                _resumed_stage(report, STAGE_STATS)
                _resumed_stage(report, STAGE_GENERATION)
                logger.info("resumed past the generation stage from checkpoint")
            elif resume.stats is not None:
                stats = resume.stats
                _resumed_stage(report, STAGE_STATS)
                logger.info("resumed past the stats stage from checkpoint")
            elif resume.stage == "stats-partial" and resume.memo is not None:
                resumed_memo = resume.memo
                incremental = IncrementalRequest(resumed_memo)
                logger.info(
                    "resuming mid-stats: %d completed pair family(ies) in checkpoint",
                    sum(len(f) for f in resumed_memo.families.values()),
                )

        if outcome is None and table is None:
            raise ReproError(
                "a table is required unless the resume checkpoint contains the "
                "generation stage"
            )

        # One backend instance serves both data stages (the sqlite backend
        # loads the dataset once); resumed-past-generation runs never touch
        # the engine, so none is created for them.
        owns_backend = backend is None
        if outcome is None and backend is None:
            backend = create_backend(config.backend, table)
        statements_before = backend.statements_executed if backend is not None else 0
        try:
            # -- stage: statistical tests -----------------------------------
            if outcome is None and stats is None:
                # Checkpointed runs record every tested chunk's pair families
                # in a memo at this table's version, written as the
                # "stats-partial" checkpoint; a resumed run re-tests only the
                # families it lacks.  A resumed memo under the same config
                # token seeds the new one, so a second kill loses nothing.
                on_chunk = None
                if checkpoint_path is not None:
                    token = incremental_config_token(config)
                    partial = StatsMemo(version, table.n_rows, token)
                    if resumed_memo is not None and resumed_memo.token == token:
                        partial.families = {
                            attribute: list(records)
                            for attribute, records in resumed_memo.families.items()
                        }
                    on_chunk = _partial_recorder(checkpoint_path, partial)
                stats = _run_ladder(
                    STAGE_STATS,
                    _stats_ladder(table, config, policy, progress, backend=backend,
                                  incremental=incremental, version=version,
                                  on_chunk=on_chunk),
                    deadline,
                    faults,
                    report,
                    policy.grace_seconds,
                )
                if stats is not None and checkpoint_path is not None:
                    from repro.persistence import save_checkpoint

                    executed = backend.statements_executed - statements_before
                    report.backend_statements += executed
                    save_checkpoint(checkpoint_path, stats=stats, report=report,
                                    memo=stats.memo, version=version)
                    report.backend_statements -= executed
                    logger.info("checkpoint written after stats stage: %s", checkpoint_path)
                if stats is None:
                    # Every rung failed: stand in an empty result so the run can
                    # still complete, but never checkpoint it.
                    stats = StatsStageResult([], set(), PhaseTimings(), {})

            # -- stage: hypothesis evaluation -------------------------------
            if outcome is None:
                outcome = _run_ladder(
                    STAGE_GENERATION,
                    _generation_ladder(table, stats, config, policy, progress,
                                       backend=backend),
                    deadline,
                    faults,
                    report,
                    policy.grace_seconds,
                )
                if outcome is not None and "mqo_plan_batches" in outcome.counters:
                    report.mqo_plan = {
                        "batches": outcome.counters["mqo_plan_batches"],
                        "sets": outcome.counters["mqo_plan_sets"],
                    }
                if outcome is not None and checkpoint_path is not None:
                    from repro.persistence import save_checkpoint

                    executed = backend.statements_executed - statements_before
                    report.backend_statements += executed
                    # A resumed-stats run re-saves the resume file's memo so
                    # the superseding generation checkpoint never drops it.
                    memo = stats.memo if stats is not None else None
                    if memo is None and resume is not None and resume.stats is not None:
                        memo = resume.memo
                    save_checkpoint(checkpoint_path, outcome=outcome, report=report,
                                    memo=memo, version=version)
                    report.backend_statements -= executed
                    logger.info("checkpoint written after generation stage: %s",
                                checkpoint_path)
                if outcome is None:
                    outcome = GenerationOutcome(
                        [], stats.significant, {}, stats.timings, dict(stats.counters)
                    )
        finally:
            if backend is not None:
                report.backend_statements += (
                    backend.statements_executed - statements_before
                )
                if owns_backend:
                    backend.close()

        # -- stage: TAP resolution ------------------------------------------
        queries = outcome.queries
        if not queries:
            solution: TAPSolution | None = TAPSolution((), 0.0, 0.0, 0.0, optimal=True)
            with obs.span(f"stage.{STAGE_TAP}", rung="empty") as tap_span:
                pass
            report.stages.append(
                StageReport(STAGE_TAP, status=STATUS_COMPLETED, rung="empty",
                            seconds=tap_span.duration)
            )
        else:
            solution = _run_ladder(
                STAGE_TAP,
                _tap_ladder(queries, config, budget, epsilon_distance, solver,
                            exact_timeout, max_exact_queries, policy),
                deadline,
                faults,
                report,
                policy.grace_seconds,
            )
            if solution is None:
                solution = TAPSolution((), 0.0, 0.0, 0.0, optimal=False)
        # The TAP stage entry was appended last; its span-derived seconds
        # are the phase timing (span and report stay in exact agreement).
        outcome.timings.tap_solving = report.stages[-1].seconds

        selected = [queries[i] for i in solution.indices]
        report.total_seconds = run_span.elapsed
        obs.current_metrics().record_peak_rss()
    run = NotebookRun(outcome, solution, selected, budget, epsilon_distance,
                      report=report,
                      stats_memo=stats.memo if stats is not None else None)
    if report.degraded:
        logger.warning("run degraded: %s", "; ".join(report.degradations) or
                       "stage failures")
    return run


# ---------------------------------------------------------------------------
# Rendering (its own guarded stage)
# ---------------------------------------------------------------------------


def _skeleton_notebook(
    selected: Sequence[GeneratedQuery], table_name: str, title: str
) -> Notebook:
    """Bare notebook: header + raw SQL cells, no execution at all."""
    notebook = Notebook(title)
    notebook.add_markdown(notebook_header(title, table_name, len(selected)))
    for item in selected:
        notebook.add_sql(bind_table(comparison_sql(item.query), table_name) + ";")
    return notebook


def _empty_notebook(table_name: str, title: str) -> Notebook:
    notebook = Notebook(title)
    notebook.add_markdown(notebook_header(title, table_name, 0))
    notebook.add_markdown(
        "_No significant comparison insights survived this run; "
        "see the run report for the degradations applied._"
    )
    return notebook


def resilient_render(
    run: NotebookRun,
    table: Table | None = None,
    table_name: str = "dataset",
    title: str = "Comparison notebook",
    include_previews: bool = True,
    deadline: Deadline | None = None,
    faults: FaultInjector | None = None,
    policy: RuntimePolicy | None = None,
) -> Notebook:
    """Render a notebook with its own degradation ladder.

    Always returns a valid notebook: full previews/charts → SQL-only
    cells → a skeleton (header + unbound SQL).  The stage is appended to
    ``run.report`` when one is attached.
    """
    policy = policy or RuntimePolicy()
    faults = faults or FaultInjector.none()
    deadline = deadline or Deadline(None)
    report = run.report if run.report is not None else RunReport()

    if not run.selected:
        with obs.span(f"stage.{STAGE_RENDER}", rung="empty") as render_span:
            notebook = _empty_notebook(table_name, title)
        report.stages.append(
            StageReport(STAGE_RENDER, status=STATUS_COMPLETED, rung="empty",
                        seconds=render_span.duration)
        )
        return notebook

    rungs = [
        _Rung(
            "full",
            lambda d, n: build_notebook(
                run.selected, table=table, table_name=table_name, title=title,
                include_previews=include_previews and table is not None,
            ),
        ),
        _Rung(
            "sql-only",
            lambda d, n: build_notebook(
                run.selected, table=table, table_name=table_name, title=title,
                include_previews=False, include_explanations=False,
                include_charts=False,
            ),
            degradation="previews, charts, and explanations disabled",
        ),
        _Rung(
            "skeleton",
            lambda d, n: _skeleton_notebook(run.selected, table_name, title),
            degradation="skeleton notebook (header + SQL text only)",
        ),
    ]
    notebook = _run_ladder(
        STAGE_RENDER, rungs, deadline, faults, report, policy.grace_seconds
    )
    if notebook is None:
        notebook = _empty_notebook(table_name, title)
    if run.report is None:
        run.report = report
    return notebook
