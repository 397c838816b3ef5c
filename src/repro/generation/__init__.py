"""Comparison-query generation: Algorithm 1, Algorithm 2, presets, pipeline."""

from repro.generation.config import GenerationConfig, SamplingSpec
from repro.generation.evaluators import (
    NaiveEvaluator,
    PairwiseEvaluator,
    SetCoverEvaluator,
    SupportEvaluator,
    build_evaluator,
)
from repro.generation.generator import (
    GeneratedQuery,
    GenerationOutcome,
    PhaseTimings,
    StatsStageResult,
    generate_comparison_queries,
    run_stats_stage,
    run_support_stage,
)
from repro.generation.pipeline import (
    DEFAULT_EPSILON_PER_QUERY,
    NotebookRun,
    preset,
    preset_names,
)
from repro.generation.setcover import (
    apply_memory_fallback,
    greedy_weighted_set_cover,
    pairs_covered,
)

__all__ = [
    "DEFAULT_EPSILON_PER_QUERY",
    "GeneratedQuery",
    "GenerationConfig",
    "GenerationOutcome",
    "NaiveEvaluator",
    "NotebookRun",
    "PairwiseEvaluator",
    "PhaseTimings",
    "SamplingSpec",
    "SetCoverEvaluator",
    "StatsStageResult",
    "SupportEvaluator",
    "apply_memory_fallback",
    "build_evaluator",
    "generate_comparison_queries",
    "run_stats_stage",
    "run_support_stage",
    "greedy_weighted_set_cover",
    "pairs_covered",
    "preset",
    "preset_names",
]
