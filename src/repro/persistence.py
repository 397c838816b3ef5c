"""Save / load generation runs as JSON.

Generating the query set Q is the expensive phase (statistical tests +
hypothesis evaluation); solving the TAP and rendering notebooks are cheap.
Persisting a run lets a user re-cut notebooks — different budgets ε_t,
distance bounds ε_d, or solvers — without re-testing:

    run = NotebookGenerator().generate(table, budget=10)
    save_run(run, "enedis_run.json")
    ...
    outcome = load_outcome("enedis_run.json")
    shorter = resolve_outcome(outcome, budget=5, epsilon_distance=12.0)

The format is versioned, plain JSON, and contains only derived artifacts
(never the dataset rows).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.generation.config import GenerationConfig
from repro.generation.generator import (
    GeneratedQuery,
    GenerationOutcome,
    PhaseTimings,
    StatsStageResult,
)
from repro.generation.pipeline import DEFAULT_EPSILON_PER_QUERY, NotebookRun
from repro.insights.insight import CandidateInsight, InsightEvidence, TestedInsight
from repro.parallel.shards import ShardStore
from repro.queries.comparison import ComparisonQuery
from repro.queries.distance import DEFAULT_WEIGHTS, DistanceWeights, query_distance
from repro.runtime.report import RunReport
from repro.stats.delta import StatsMemo
from repro.stats.permutation import TestResult
from repro.tap.heuristic import HeuristicConfig, solve_heuristic_lazy

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

#: Version of the stage-checkpoint format (independent of saved runs).
CHECKPOINT_VERSION = 1


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
    ``"generation"``, or ``"stats-partial"`` — a mid-stage snapshot of
    completed stats shards); the matching payload field is populated.
    The TAP and render stages are cheap and always re-run on resume.
    """

    stage: str
    stats: StatsStageResult | None = None
    outcome: GenerationOutcome | None = None
    report: RunReport | None = None
    source: Path | None = None
    #: ``stats-partial`` only: completed shards keyed by shard id, and the
    #: config token they were produced under (mismatched tokens are
    #: ignored on resume rather than mixing incompatible test results).
    partial_shards: dict[str, tuple[list, list]] = field(default_factory=dict)
    partial_token: str | None = None
    #: The run's per-family stats memo, when the checkpointed run was
    #: memoizable — the seed of a ``--since-checkpoint`` incremental run.
    memo: StatsMemo | None = None


def _candidate_to_dict(candidate: CandidateInsight) -> dict:
    return {
        "measure": candidate.measure,
        "attribute": candidate.attribute,
        "val": candidate.val,
        "val_other": candidate.val_other,
        "type": candidate.type_code,
    }


def _candidate_from_dict(data: dict) -> CandidateInsight:
    return CandidateInsight(
        data["measure"], data["attribute"], data["val"], data["val_other"], data["type"]
    )


def stats_config_token(config: GenerationConfig, n_rows: int) -> str:
    """Fingerprint of everything that shapes stats-shard ids and contents.

    A ``stats-partial`` checkpoint is only reusable when the resumed run
    would cut identical shards and test them identically; any drift in
    these fields silently invalidates the partial state (the shards are
    re-run, never mixed).
    """
    significance = config.significance
    payload = {
        "n_rows": n_rows,
        "backend": config.backend,
        "insight_types": list(config.insight_types),
        "max_pairs_per_attribute": config.max_pairs_per_attribute,
        "sampling": (
            [config.sampling.strategy, config.sampling.rate]
            if config.sampling is not None else None
        ),
        "significance": {
            "n_permutations": significance.n_permutations,
            "threshold": significance.threshold,
            "engine": significance.engine,
            "apply_bh": significance.apply_bh,
            "share_across_pairs": significance.share_across_pairs,
            "seed": significance.seed,
            # Constant since the legacy kernel was removed; kept so tokens
            # of checkpoints written before then still match.
            "kernel": "batched",
        },
        "chunk_size": config.parallel.chunk_size,
    }
    digest = hashlib.blake2s(
        json.dumps(payload, sort_keys=True).encode("utf-8"), digest_size=8
    )
    return digest.hexdigest()


class PersistentShardStore(ShardStore):
    """A :class:`~repro.parallel.shards.ShardStore` backed by a checkpoint file.

    Every completed stats shard rewrites the ``stats-partial`` checkpoint
    (atomically), so a run killed mid-stage resumes from its last finished
    shard.  The file is superseded by the regular ``stats`` checkpoint the
    controller writes once the stage completes.
    """

    def __init__(
        self,
        path: str | Path,
        token: str,
        completed: dict[str, tuple[list, list]] | None = None,
    ):
        super().__init__(completed)
        self._path = Path(path)
        self._token = token

    @classmethod
    def open(cls, path: str | Path, token: str,
             resume: RunCheckpoint | None = None) -> "PersistentShardStore":
        """A store at ``path``, preloaded from a matching partial resume."""
        completed = None
        if resume is not None and resume.stage == "stats-partial":
            if resume.partial_token == token:
                completed = resume.partial_shards
            else:
                import logging

                logging.getLogger(__name__).warning(
                    "ignoring stats-partial checkpoint: config token %s does "
                    "not match this run's %s", resume.partial_token, token,
                )
        return cls(path, token, completed)

    def put(self, shard_id, oriented, results) -> None:
        super().put(shard_id, oriented, results)
        self._write()

    def _write(self) -> None:
        shards = {}
        for shard_id, (oriented, results) in sorted(self._completed.items()):
            shards[shard_id] = {
                "candidates": [_candidate_to_dict(c) for c in oriented],
                "results": [[r.statistic, r.p_value] for r in results],
            }
        data = {
            "schema_version": CHECKPOINT_VERSION,
            "kind": "checkpoint",
            "stage": "stats-partial",
            "token": self._token,
            "shards": shards,
        }
        scratch = self._path.with_name(self._path.name + ".tmp")
        scratch.write_text(json.dumps(data, indent=1), encoding="utf-8")
        scratch.replace(self._path)


def _partial_shards_from_dict(data: dict) -> dict[str, tuple[list, list]]:
    shards: dict[str, tuple[list, list]] = {}
    for shard_id, payload in data.items():
        oriented = [_candidate_from_dict(c) for c in payload["candidates"]]
        results = [TestResult(float(s), float(p)) for s, p in payload["results"]]
        if len(oriented) != len(results):
            raise PersistenceError(
                f"shard {shard_id!r} has {len(oriented)} candidates but "
                f"{len(results)} results"
            )
        shards[shard_id] = (oriented, results)
    return shards


def save_checkpoint(
    path: str | Path,
    stats: StatsStageResult | None = None,
    outcome: GenerationOutcome | None = None,
    report: RunReport | None = None,
    memo: StatsMemo | None = None,
) -> None:
    """Write a stage snapshot; the generation outcome supersedes stats.

    ``memo`` rides along when the run was memoizable: a later
    ``--since-checkpoint`` run over a grown copy of the same data reuses
    it to re-test only the pair families the appended rows touched.

    The write goes through a temporary file and an atomic rename so a
    crash mid-checkpoint never leaves a truncated file behind.
    """
    if outcome is None and stats is None:
        raise PersistenceError("a checkpoint needs a stats result or an outcome")
    data: dict = {
        "schema_version": CHECKPOINT_VERSION,
        "kind": "checkpoint",
        "stage": "generation" if outcome is not None else "stats",
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
    scratch.write_text(json.dumps(data, indent=1), encoding="utf-8")
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
    stats = None
    outcome = None
    partial: dict[str, tuple[list, list]] = {}
    token = None
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
    else:
        try:
            partial = _partial_shards_from_dict(data.get("shards", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"malformed stats-partial checkpoint: {exc}") from exc
        token = data.get("token")
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
    return RunCheckpoint(stage, stats=stats, outcome=outcome, report=report,
                         source=path, partial_shards=partial, partial_token=token,
                         memo=memo)


def resolve_outcome(
    outcome: GenerationOutcome,
    budget: float,
    epsilon_distance: float | None = None,
    weights: DistanceWeights = DEFAULT_WEIGHTS,
) -> NotebookRun:
    """Re-solve the TAP over a (loaded) outcome — no statistics re-run."""
    if epsilon_distance is None:
        epsilon_distance = DEFAULT_EPSILON_PER_QUERY * max(1.0, budget - 1.0)
    queries = outcome.queries

    def distance_of(i: int, j: int) -> float:
        return query_distance(queries[i].query, queries[j].query, weights)

    solution = solve_heuristic_lazy(
        [g.interest for g in queries],
        [1.0] * len(queries),
        distance_of,
        HeuristicConfig(budget, epsilon_distance),
    )
    selected = [queries[i] for i in solution.indices]
    return NotebookRun(outcome, solution, selected, budget, epsilon_distance)
