"""Evaluation of comparison queries: direct and cached.

Two evaluation paths, used by different parts of the reproduction:

* :func:`evaluate_comparison` — direct vectorized group-by on the base
  table (what Algorithm 1 does per hypothesis query);
* :func:`evaluate_comparison_cached` — from Algorithm 2's in-memory
  partial aggregates, "for free" once the covering group-by is loaded.

Both return the same :class:`ComparisonResult`.  The generated SQL text
itself runs on stdlib :mod:`sqlite3` through
:meth:`repro.backend.SqliteBackend.execute`; the test suite checks it
against these paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.insights.types import InsightType
from repro.queries.comparison import ComparisonQuery
from repro.relational.cube import MaterializedAggregate, PairAggregate, PartialAggregateCache
from repro.relational.table import Table


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Aligned result of a comparison query (Definition 3.1's join).

    Attributes
    ----------
    groups:
        Values of the grouping attribute present under *both* selections,
        sorted (the τ operator).
    x, y:
        Aggregate series for ``B = val`` and ``B = val'``, aligned with
        ``groups``.
    tuples_aggregated:
        θ_q of the conciseness measure: base tuples matching either
        selection.
    """

    query: ComparisonQuery
    groups: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    tuples_aggregated: int

    @property
    def n_groups(self) -> int:
        """γ_q of the conciseness measure: output rows of the query."""
        return len(self.groups)

    def supports(self, insight_type: InsightType) -> bool:
        """Definition 3.8: does this result support the given insight type?

        The result must be non-empty — an empty comparison triggers nothing.
        """
        if self.n_groups == 0:
            return False
        return insight_type.supports(self.x, self.y)


def evaluate_comparison(table: Table, query: ComparisonQuery) -> ComparisonResult:
    """Direct evaluation against base data (one grouped pass per side).

    Routed through the table's cross-stage aggregate cache under the
    in-process ("columnar") key: notebook rendering re-evaluates the very
    pairs hypothesis evaluation already materialized, and two aggs over the
    same (pair, measure) share one group-by pass.
    """
    query.validate_against(table)
    pair = (query.group_by, query.selection_attribute)
    aggregate = table.aggregate_cache().get_or_build(
        "columnar",
        pair,
        [query.measure],
        lambda: MaterializedAggregate.build(table, pair, [query.measure]),
    )
    return comparison_from_aggregate(aggregate, query)


def comparison_from_aggregate(
    aggregate: MaterializedAggregate, query: ComparisonQuery
) -> ComparisonResult:
    """Evaluation from a pre-built pair aggregate over (A, B).

    The aggregate must cover exactly the query's grouping and selection
    attributes with its measure materialized; any engine that can produce
    the additive per-group summaries (see :mod:`repro.backend`) funnels
    through here, so alignment and θ/γ accounting are engine-independent.
    """
    pair = aggregate.pair_view(query.group_by, query.selection_attribute)
    return _from_pair(pair, query)


def evaluate_comparison_cached(
    cache: PartialAggregateCache, query: ComparisonQuery
) -> ComparisonResult:
    """Evaluation from Algorithm 2's partial-aggregate cache."""
    pair = cache.pair(query.group_by, query.selection_attribute)
    return _from_pair(pair, query)


def _from_pair(pair: PairAggregate, query: ComparisonQuery) -> ComparisonResult:
    groups, x, y, theta = pair.comparison(
        query.group_by,
        query.selection_attribute,
        query.val,
        query.val_other,
        query.measure,
        query.agg,
    )
    return ComparisonResult(query, groups, x, y, theta)


def supported_types(
    result: ComparisonResult, insight_types: Sequence[InsightType]
) -> list[InsightType]:
    """The insight types this comparison result supports."""
    return [t for t in insight_types if result.supports(t)]
