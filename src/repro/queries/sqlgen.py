"""SQL text generation for comparison and hypothesis queries.

Two forms of the comparison query are supported, mirroring Section 3.1:

* the **join form** of Definition 3.1 / Figure 2 — two aggregating
  subqueries joined on the grouping attribute, tabular presentation;
* the **pivot form** — a single group-by over both attributes with a
  disjunctive selection, which "would require a pivot operation" for
  tabular presentation but is useful for cost comparisons.

Hypothesis queries (Definition 3.7 / Figure 3) wrap the comparison in a CTE
and test the insight predicate in a ``HAVING`` over the whole result.
All emitted SQL is plain SQL that runs on PostgreSQL and on stdlib
:mod:`sqlite3` (see :meth:`repro.backend.SqliteBackend.execute`).
"""

from __future__ import annotations

import re

from repro.insights.types import InsightType
from repro.queries.comparison import ComparisonQuery

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Keywords of the statements this module emits.  Identifiers spelled like
# one are quoted and aliases renamed, so the emitted SQL stays parseable.
# Changing this set changes the SQL text of affected notebooks.
_RESERVED = frozenset(
    """
    select from where group by having order asc desc limit as and or not
    in is null join inner on with distinct union all between like
    """.split()
)


def sql_identifier(name: str) -> str:
    """Quote ``name`` if it is not a plain SQL identifier."""
    if _IDENTIFIER.match(name) and name.lower() not in _RESERVED:
        return name
    escaped = name.replace('"', "")
    return f'"{escaped}"'


def sql_string(value: str) -> str:
    """A single-quoted SQL string literal."""
    return "'" + str(value).replace("'", "''") + "'"


def value_alias(label: str, taken: set[str] | None = None) -> str:
    """A readable column alias derived from a selection value.

    ``May`` stays ``May``; ``4`` becomes ``val_4``; anything non-identifier
    is sanitized.  ``taken`` avoids collisions between the two sides.
    """
    candidate = str(label)
    if not _IDENTIFIER.match(candidate) or candidate.lower() in _RESERVED:
        sanitized = re.sub(r"[^A-Za-z0-9_]", "_", candidate)
        candidate = f"val_{sanitized}" if sanitized else "val"
    if taken is not None:
        base = candidate
        suffix = 2
        while candidate in taken:
            candidate = f"{base}_{suffix}"
            suffix += 1
        taken.add(candidate)
    return candidate


def comparison_aliases(query: ComparisonQuery) -> tuple[str, str]:
    """The two measure-column aliases of a comparison result."""
    taken: set[str] = set()
    return value_alias(query.val, taken), value_alias(query.val_other, taken)


def comparison_sql(query: ComparisonQuery) -> str:
    """Join-form SQL of a comparison query (Figure 2 shape)."""
    a = sql_identifier(query.group_by)
    b = sql_identifier(query.selection_attribute)
    m = sql_identifier(query.measure)
    alias_x, alias_y = comparison_aliases(query)
    return (
        f"select t1.{a}, {alias_x}, {alias_y}\n"
        f"from\n"
        f"  (select {b}, {a}, {query.agg}({m}) as {alias_x}\n"
        f"   from {_TABLE_PLACEHOLDER}\n"
        f"   where {b} = {sql_string(query.val)}\n"
        f"   group by {b}, {a}) t1,\n"
        f"  (select {b}, {a}, {query.agg}({m}) as {alias_y}\n"
        f"   from {_TABLE_PLACEHOLDER}\n"
        f"   where {b} = {sql_string(query.val_other)}\n"
        f"   group by {b}, {a}) t2\n"
        f"where t1.{a} = t2.{a}\n"
        f"order by t1.{a}"
    )


def comparison_sql_pivot(query: ComparisonQuery) -> str:
    """Pivot-form SQL (single group-by with a disjunctive selection)."""
    a = sql_identifier(query.group_by)
    b = sql_identifier(query.selection_attribute)
    m = sql_identifier(query.measure)
    return (
        f"select {a}, {b}, {query.agg}({m})\n"
        f"from {_TABLE_PLACEHOLDER}\n"
        f"where {b} = {sql_string(query.val)} or {b} = {sql_string(query.val_other)}\n"
        f"group by {a}, {b}\n"
        f"order by {a}, {b}"
    )


def hypothesis_sql(query: ComparisonQuery, insight_type: InsightType) -> str:
    """Hypothesis-query SQL (Figure 3 shape): CTE + HAVING on the predicate.

    One row iff the comparison supports the insight; zero rows otherwise,
    and on an empty comparison.  ``count(*)`` makes the select list an
    aggregate, which SQLite requires of a query with ``HAVING``.
    """
    alias_x, alias_y = comparison_aliases(query)
    predicate = insight_type.hypothesis_predicate_sql(alias_x, alias_y)
    comparison = _indent(comparison_sql(query), "  ")
    return (
        f"with comparison as (\n{comparison}\n)\n"
        f"select {sql_string(insight_type.label)} as hypothesis, count(*) as n_groups\n"
        f"from comparison\n"
        f"having {predicate}"
    )


_TABLE_PLACEHOLDER = "{table}"


def bind_table(sql: str, table_name: str) -> str:
    """Substitute the dataset's table name into generated SQL."""
    return sql.replace(_TABLE_PLACEHOLDER, sql_identifier(table_name))


def _indent(text: str, pad: str) -> str:
    return "\n".join(pad + line for line in text.splitlines())
