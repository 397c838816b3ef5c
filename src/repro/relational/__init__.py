"""In-memory columnar relation and the grouped aggregation the pipeline runs.

The paper runs its comparison queries on PostgreSQL; here the generated SQL
runs on stdlib ``sqlite3`` (:mod:`repro.backend`), and this package holds
what the pipeline itself computes on: a columnar :class:`Table` with CSV
I/O, dense grouping by dictionary codes (:meth:`Table.group_by_codes`),
additive per-group summaries (:class:`GroupedSummary`), the
partial-aggregate cube of Algorithm 2, size estimation,
and functional-dependency detection.  There is no join, sort or expression engine.
"""

from repro.relational.aggregates import (
    AGGREGATE_NAMES,
    DEFAULT_COMPARISON_AGGREGATES,
    GroupedSummary,
    aggregate_all,
    is_aggregate,
)
from repro.relational.columns import CategoricalColumn, MeasureColumn
from repro.relational.csv_io import (
    infer_kinds,
    read_csv,
    read_csv_text,
    validate_for_analysis,
    write_csv,
)
from repro.relational.cube import (
    MaterializedAggregate,
    PairAggregate,
    PartialAggregateCache,
    pair_group_by_sets,
    powerset_group_by_sets,
)
from repro.relational.functional_deps import (
    FunctionalDependency,
    detect_functional_dependencies,
    related_attributes,
)
from repro.relational.schema import Attribute, AttributeKind, Schema, categorical, measure
from repro.relational.statistics import (
    collect_statistics,
    estimate_aggregate_bytes,
    estimate_group_count,
    exact_group_count,
)
from repro.relational.table import Table, table_from_arrays

__all__ = [
    "AGGREGATE_NAMES",
    "DEFAULT_COMPARISON_AGGREGATES",
    "Attribute",
    "AttributeKind",
    "CategoricalColumn",
    "FunctionalDependency",
    "GroupedSummary",
    "MaterializedAggregate",
    "MeasureColumn",
    "PairAggregate",
    "PartialAggregateCache",
    "Schema",
    "Table",
    "aggregate_all",
    "categorical",
    "collect_statistics",
    "detect_functional_dependencies",
    "estimate_aggregate_bytes",
    "estimate_group_count",
    "exact_group_count",
    "infer_kinds",
    "is_aggregate",
    "measure",
    "pair_group_by_sets",
    "powerset_group_by_sets",
    "read_csv",
    "read_csv_text",
    "validate_for_analysis",
    "related_attributes",
    "table_from_arrays",
    "write_csv",
]
