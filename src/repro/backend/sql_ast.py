"""The SQL statements the SQLite backend pushes down, as a small AST.

Only the node types :mod:`repro.backend.sqlite` emits live here: plain
and ``UNION ALL`` SELECTs over one table, with column references,
literals, binary operators, function calls and ``IS [NOT] NULL``.
:func:`format_statement` renders a statement as SQL text; the text is
what SQLite executes and what statement-level tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class SqlLiteral:
    """String literal, or NULL for ``None``."""

    value: Optional[str]


@dataclass(frozen=True)
class SqlName:
    """Possibly-qualified, pre-quoted column reference: ``col`` or ``t.col``."""

    parts: tuple[str, ...]


@dataclass(frozen=True)
class SqlBinary:
    """Binary operator: arithmetic, comparison, ``and``/``or``."""

    op: str
    left: "SqlExpression"
    right: "SqlExpression"


@dataclass(frozen=True)
class SqlFunction:
    """Function call, e.g. the aggregate ``sum(m)``."""

    name: str
    arguments: tuple["SqlExpression", ...] = ()


@dataclass(frozen=True)
class SqlIsNull:
    operand: "SqlExpression"
    negated: bool = False


SqlExpression = Union[SqlLiteral, SqlName, SqlBinary, SqlFunction, SqlIsNull]


@dataclass(frozen=True)
class SelectItem:
    expression: SqlExpression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expression: SqlExpression
    ascending: bool = True


@dataclass(frozen=True)
class TableRef:
    """A (pre-quoted) base table name."""

    name: str


@dataclass(frozen=True)
class SelectStatement:
    items: tuple[SelectItem, ...]
    from_items: tuple[TableRef, ...] = ()
    where: Optional[SqlExpression] = None
    group_by: tuple[SqlExpression, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False


@dataclass(frozen=True)
class UnionStatement:
    """``select ... UNION [ALL] select ...``; ``all`` keeps duplicates."""

    selects: tuple[SelectStatement, ...]
    all: bool = False

    def __post_init__(self) -> None:
        assert len(self.selects) >= 2


Statement = Union[SelectStatement, UnionStatement]


def format_statement(statement: Statement) -> str:
    """Render a statement as SQL text, one clause per line."""
    if isinstance(statement, UnionStatement):
        junction = "\nunion all\n" if statement.all else "\nunion\n"
        return junction.join(format_statement(s) for s in statement.selects)
    select_kw = "select distinct" if statement.distinct else "select"
    items = ", ".join(_format_select_item(i) for i in statement.items)
    lines = [f"{select_kw} {items}"]
    if statement.from_items:
        lines.append("from " + ",\n  ".join(t.name for t in statement.from_items))
    if statement.where is not None:
        lines.append(f"where {format_expression(statement.where)}")
    if statement.group_by:
        lines.append("group by " + ", ".join(format_expression(e) for e in statement.group_by))
    if statement.order_by:
        parts = []
        for item in statement.order_by:
            suffix = "" if item.ascending else " desc"
            parts.append(format_expression(item.expression) + suffix)
        lines.append("order by " + ", ".join(parts))
    return "\n".join(lines)


def _format_select_item(item: SelectItem) -> str:
    text = format_expression(item.expression)
    if item.alias:
        return f"{text} as {item.alias}"
    return text


_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 3,
    "<>": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
}


def format_expression(node: SqlExpression, parent_precedence: int = 0) -> str:
    """Render an expression with minimal parenthesization."""
    if isinstance(node, SqlLiteral):
        if node.value is None:
            return "null"
        return "'" + str(node.value).replace("'", "''") + "'"
    if isinstance(node, SqlName):
        return ".".join(node.parts)
    if isinstance(node, SqlBinary):
        precedence = _PRECEDENCE[node.op]
        left = format_expression(node.left, precedence)
        right = format_expression(node.right, precedence + 1)
        text = f"{left} {node.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(node, SqlFunction):
        return f"{node.name}({', '.join(format_expression(a) for a in node.arguments)})"
    if isinstance(node, SqlIsNull):
        verb = "is not null" if node.negated else "is null"
        return f"{format_expression(node.operand, 3)} {verb}"
    raise TypeError(f"cannot format expression {type(node).__name__}")
