"""Save / load generation runs as JSON.

Generating the query set Q is the expensive phase (statistical tests +
hypothesis evaluation); solving the TAP and rendering notebooks are cheap.
Persisting a run lets a user re-cut notebooks — different budgets ε_t,
distance bounds ε_d, or solvers — without re-testing:

    run = repro.generate_notebook(table, config=repro.ReproConfig(budget=10))
    save_run(run, "enedis_run.json")
    ...
    outcome = load_outcome("enedis_run.json")
    shorter = resolve_outcome(outcome, budget=5, epsilon_distance=12.0)

The format is versioned, plain JSON, and contains only derived artifacts
(never the dataset rows).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ReproError
from repro.generation.config import GenerationConfig
from repro.generation.generator import (
    GeneratedQuery,
    GenerationOutcome,
    PhaseTimings,
    StatsStageResult,
)
from repro.generation.pipeline import NotebookRun
from repro.insights.insight import CandidateInsight, InsightEvidence, TestedInsight
from repro.queries.comparison import ComparisonQuery
from repro.queries.distance import DEFAULT_WEIGHTS, DistanceWeights
from repro.runtime.controller import resilient_generate
from repro.runtime.report import RunReport
from repro.stats.delta import StatsMemo

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

#: Version of the stage-checkpoint format (independent of saved runs).
#: Version 2 stamps every checkpoint with its table's content version.
CHECKPOINT_VERSION = 2


class PersistenceError(ReproError):
    """The file is not a valid saved run (wrong shape or version)."""


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _insight_to_dict(evidence: InsightEvidence) -> dict:
    insight = evidence.insight
    candidate = insight.candidate
    return {
        "measure": candidate.measure,
        "attribute": candidate.attribute,
        "val": candidate.val,
        "val_other": candidate.val_other,
        "type": candidate.type_code,
        "statistic": insight.statistic,
        "p_value": insight.p_value,
        "p_adjusted": insight.p_adjusted,
        "n_supporting": evidence.n_supporting,
        "n_postulating": evidence.n_postulating,
    }


def outcome_to_dict(outcome: GenerationOutcome) -> dict:
    """JSON-ready representation of a generation outcome."""
    evidences = {}
    for key, evidence in outcome.evidences.items():
        evidences["|".join(key)] = _insight_to_dict(evidence)
    queries = []
    for generated in outcome.queries:
        q = generated.query
        queries.append(
            {
                "group_by": q.group_by,
                "selection_attribute": q.selection_attribute,
                "val": q.val,
                "val_other": q.val_other,
                "measure": q.measure,
                "agg": q.agg,
                "tuples_aggregated": generated.tuples_aggregated,
                "n_groups": generated.n_groups,
                "interest": generated.interest,
                "supported": ["|".join(e.insight.key) for e in generated.supported],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "queries": queries,
        "evidences": evidences,
        "counters": dict(outcome.counters),
        "timings": outcome.timings.as_dict(),
    }


def run_to_dict(run: NotebookRun) -> dict:
    """JSON-ready representation of a full end-to-end run."""
    data = outcome_to_dict(run.outcome)
    data["solution"] = {
        "indices": list(run.solution.indices),
        "interest": run.solution.interest,
        "cost": run.solution.cost,
        "distance": run.solution.distance,
        "optimal": run.solution.optimal,
    }
    data["budget"] = run.budget
    data["epsilon_distance"] = run.epsilon_distance
    if run.report is not None:
        data["report"] = run.report.as_dict()
    return data


def save_run(run: NotebookRun, path: str | Path) -> None:
    Path(path).write_text(json.dumps(run_to_dict(run), indent=1), encoding="utf-8")


def save_outcome(outcome: GenerationOutcome, path: str | Path) -> None:
    Path(path).write_text(json.dumps(outcome_to_dict(outcome), indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------


def _evidence_from_dict(data: dict) -> InsightEvidence:
    candidate = CandidateInsight(
        data["measure"], data["attribute"], data["val"], data["val_other"], data["type"]
    )
    tested = TestedInsight(candidate, data["statistic"], data["p_value"], data["p_adjusted"])
    return InsightEvidence(
        tested, n_supporting=data["n_supporting"], n_postulating=data["n_postulating"]
    )


def outcome_from_dict(data: dict) -> GenerationOutcome:
    """Rebuild a :class:`GenerationOutcome` (shared evidence identity kept)."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported saved-run version {version!r} (expected {SCHEMA_VERSION})"
        )
    try:
        evidences = {key: _evidence_from_dict(d) for key, d in data["evidences"].items()}
        queries = []
        for q in data["queries"]:
            supported = tuple(evidences[key] for key in q["supported"])
            queries.append(
                GeneratedQuery(
                    ComparisonQuery(
                        q["group_by"],
                        q["selection_attribute"],
                        q["val"],
                        q["val_other"],
                        q["measure"],
                        q["agg"],
                    ),
                    q["tuples_aggregated"],
                    q["n_groups"],
                    supported,
                    q["interest"],
                )
            )
        timings = PhaseTimings(**data.get("timings", {}))
        keyed = {tuple(key.split("|")): evidence for key, evidence in evidences.items()}
        significant = [e.insight for e in evidences.values()]
        return GenerationOutcome(queries, significant, keyed, timings, dict(data.get("counters", {})))
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed saved run: {exc}") from exc


def load_outcome(path: str | Path) -> GenerationOutcome:
    return outcome_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def load_run(path: str | Path) -> NotebookRun:
    """Rebuild the full run, including the stored TAP solution."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    outcome = outcome_from_dict(data)
    solution_data = data.get("solution")
    if solution_data is None:
        raise PersistenceError("saved file holds an outcome, not a full run")
    from repro.tap.instance import TAPSolution

    solution = TAPSolution(
        tuple(solution_data["indices"]),
        solution_data["interest"],
        solution_data["cost"],
        solution_data["distance"],
        optimal=solution_data.get("optimal", False),
    )
    selected = [outcome.queries[i] for i in solution.indices]
    report = None
    if data.get("report") is not None:
        report = RunReport.from_dict(data["report"])
    return NotebookRun(
        outcome, solution, selected, data["budget"], data["epsilon_distance"],
        report=report,
    )


# ---------------------------------------------------------------------------
# Stage-level checkpoints (the resilient runtime's resume unit)
# ---------------------------------------------------------------------------


def _tested_to_dict(tested: TestedInsight) -> dict:
    candidate = tested.candidate
    return {
        "measure": candidate.measure,
        "attribute": candidate.attribute,
        "val": candidate.val,
        "val_other": candidate.val_other,
        "type": candidate.type_code,
        "statistic": tested.statistic,
        "p_value": tested.p_value,
        "p_adjusted": tested.p_adjusted,
    }


def _tested_from_dict(data: dict) -> TestedInsight:
    candidate = CandidateInsight(
        data["measure"], data["attribute"], data["val"], data["val_other"], data["type"]
    )
    return TestedInsight(candidate, data["statistic"], data["p_value"], data["p_adjusted"])


def stats_stage_to_dict(stats: StatsStageResult) -> dict:
    """JSON-ready snapshot of a completed statistical stage."""
    return {
        "significant": [_tested_to_dict(t) for t in stats.significant],
        "excluded_pairs": sorted(sorted(pair) for pair in stats.excluded_pairs),
        "timings": stats.timings.as_dict(),
        "counters": dict(stats.counters),
    }


def stats_stage_from_dict(data: dict) -> StatsStageResult:
    try:
        significant = [_tested_from_dict(d) for d in data["significant"]]
        excluded = {frozenset(pair) for pair in data.get("excluded_pairs", [])}
        timings = PhaseTimings(**data.get("timings", {}))
        return StatsStageResult(significant, excluded, timings, dict(data.get("counters", {})))
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed stats checkpoint: {exc}") from exc


@dataclass(slots=True)
class RunCheckpoint:
    """A loaded stage checkpoint: what completed, ready to resume from.

    ``stage`` names the last completed stage (``"stats"``,
    ``"generation"``, or ``"stats-partial"`` — a mid-stage snapshot whose
    only payload is the memo of the pair families tested so far); the
    matching payload field is populated.  The TAP and render stages are
    cheap and always re-run on resume.
    """

    stage: str
    stats: StatsStageResult | None = None
    outcome: GenerationOutcome | None = None
    report: RunReport | None = None
    source: Path | None = None
    #: The run's per-family stats memo: the completed families of a
    #: ``stats-partial`` checkpoint, or, after the stats stage, the seed of
    #: a ``--since-checkpoint`` incremental run.
    memo: StatsMemo | None = None
    #: Content version of the table the checkpointed run read; a resume
    #: over any other table is refused.
    version: str | None = None


def save_checkpoint(
    path: str | Path,
    stats: StatsStageResult | None = None,
    outcome: GenerationOutcome | None = None,
    report: RunReport | None = None,
    memo: StatsMemo | None = None,
    version: str | None = None,
) -> None:
    """Write a stage snapshot; the generation outcome supersedes stats.

    ``memo`` rides along when the run kept one: a later
    ``--since-checkpoint`` run over a grown copy of the same data reuses
    it to re-test only the pair families the appended rows touched.  A
    memo alone is the ``stats-partial`` checkpoint the controller writes
    while the stats stage runs.  ``version``, required, is the content
    version of the run's table.

    The write goes through a temporary file and an atomic rename so a
    crash mid-checkpoint never leaves a truncated file behind.  Compact
    JSON, because ``indent`` selects json's much slower Python encoder.
    """
    if outcome is not None:
        stage = "generation"
    elif stats is not None:
        stage = "stats"
    elif memo is not None:
        stage = "stats-partial"
    else:
        raise PersistenceError("a checkpoint needs a stats result, an outcome or a memo")
    if version is None:
        raise PersistenceError("a checkpoint needs its table's content version")
    data: dict = {
        "schema_version": CHECKPOINT_VERSION,
        "kind": "checkpoint",
        "stage": stage,
        "version": version,
    }
    if outcome is not None:
        data["outcome"] = outcome_to_dict(outcome)
    elif stats is not None:
        data["stats"] = stats_stage_to_dict(stats)
    if report is not None:
        data["report"] = report.as_dict()
    if memo is not None:
        data["incremental"] = memo.to_dict()
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
    scratch.replace(path)


def load_checkpoint(path: str | Path) -> RunCheckpoint:
    """Load a stage checkpoint written by :func:`save_checkpoint`.

    Every way the file can be unusable — deleted, unreadable, truncated,
    binary-corrupt, or structurally wrong — raises
    :class:`PersistenceError` with the path and the reason, so callers
    (the CLI's ``--resume``, the serving layer) turn it into a clean
    error instead of an unhandled traceback.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PersistenceError(
            f"checkpoint {path} does not exist (deleted, or never written); "
            "re-run without --resume"
        ) from None
    except OSError as exc:
        raise PersistenceError(f"checkpoint {path} is not readable: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PersistenceError(
            f"checkpoint {path} is corrupt (not UTF-8 text): {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != "checkpoint":
        raise PersistenceError(f"{path} is not a stage checkpoint")
    version = data.get("schema_version")
    if version != CHECKPOINT_VERSION:
        raise PersistenceError(
            f"unsupported checkpoint version {version!r} (expected {CHECKPOINT_VERSION})"
        )
    stage = data.get("stage")
    if stage not in ("stats", "generation", "stats-partial"):
        raise PersistenceError(f"checkpoint names unknown stage {stage!r}")
    version = data.get("version")
    if not isinstance(version, str):
        raise PersistenceError(f"checkpoint {path} carries no table version")
    stats = None
    outcome = None
    if stage == "generation":
        if not isinstance(data.get("outcome"), dict):
            raise PersistenceError(
                f"checkpoint {path} names stage 'generation' but carries no outcome"
            )
        outcome = outcome_from_dict(data["outcome"])
    elif stage == "stats":
        if not isinstance(data.get("stats"), dict):
            raise PersistenceError(
                f"checkpoint {path} names stage 'stats' but carries no stats payload"
            )
        stats = stats_stage_from_dict(data["stats"])
    try:
        report = RunReport.from_dict(data["report"]) if data.get("report") else None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PersistenceError(
            f"checkpoint {path} carries a malformed run report: {exc}"
        ) from exc
    memo = None
    if data.get("incremental") is not None:
        # The memo is an optimization seed, never a correctness input: a
        # malformed or stale payload downgrades to a full run, not an error.
        try:
            memo = StatsMemo.from_dict(data["incremental"])
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "ignoring malformed incremental payload in checkpoint %s: %s",
                path, exc,
            )
    if stage == "stats-partial" and memo is None:
        raise PersistenceError(
            f"checkpoint {path} names stage 'stats-partial' but carries no memo"
        )
    return RunCheckpoint(stage, stats=stats, outcome=outcome, report=report,
                         source=path, memo=memo, version=version)


def resolve_outcome(
    outcome: GenerationOutcome,
    budget: float,
    epsilon_distance: float | None = None,
    weights: DistanceWeights = DEFAULT_WEIGHTS,
) -> NotebookRun:
    """Re-solve the TAP over a (loaded) outcome — no statistics re-run.

    The resilient controller resumes past the generation stage, so a
    re-cut runs the same TAP ladder as a fresh run and carries its
    :class:`~repro.runtime.report.RunReport`.  ``outcome`` is not
    modified.
    """
    # The controller records the TAP time on the outcome's timings.
    resumed = replace(outcome, timings=replace(outcome.timings))
    return resilient_generate(
        None,
        GenerationConfig(distance_weights=weights),
        budget=budget,
        epsilon_distance=epsilon_distance,
        resume=RunCheckpoint("generation", outcome=resumed),
    )
