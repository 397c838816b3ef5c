"""Comparison queries: model, SQL generation, evaluation, scoring."""

from repro.queries.comparison import ComparisonQuery
from repro.queries.cost import CostModel, MeasuredCost, UniformCost
from repro.queries.distance import (
    DEFAULT_WEIGHTS,
    DistanceWeights,
    query_distance,
    sequence_distance,
)
from repro.queries.explain import GroupContribution, explain_comparison, explanation_sentence
from repro.queries.evaluate import (
    ComparisonResult,
    evaluate_comparison,
    evaluate_comparison_cached,
    supported_types,
)
from repro.queries.interestingness import (
    DEFAULT_ALPHA,
    DEFAULT_DELTA,
    DEFAULT_OMEGA,
    InterestingnessConfig,
    conciseness,
    insight_term,
    query_interest,
)
from repro.queries.sqlgen import (
    bind_table,
    comparison_aliases,
    comparison_sql,
    comparison_sql_pivot,
    hypothesis_sql,
    sql_identifier,
    sql_string,
    value_alias,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_DELTA",
    "DEFAULT_OMEGA",
    "DEFAULT_WEIGHTS",
    "ComparisonQuery",
    "ComparisonResult",
    "CostModel",
    "DistanceWeights",
    "GroupContribution",
    "InterestingnessConfig",
    "MeasuredCost",
    "UniformCost",
    "bind_table",
    "comparison_aliases",
    "comparison_sql",
    "comparison_sql_pivot",
    "conciseness",
    "evaluate_comparison",
    "evaluate_comparison_cached",
    "explain_comparison",
    "explanation_sentence",
    "hypothesis_sql",
    "insight_term",
    "query_distance",
    "query_interest",
    "sequence_distance",
    "sql_identifier",
    "sql_string",
    "supported_types",
    "value_alias",
]
