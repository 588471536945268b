"""A small SQL dialect for the relational engine.

The parser covers the subset used by the paper's example workloads:

.. code-block:: sql

    SELECT col [, col ...] | * | agg(col) AS alias
    FROM table [JOIN table ON t1.col = t2.col ...]
    [WHERE predicate [AND|OR predicate ...]]
    [GROUP BY col [, col ...]]
    [ORDER BY col [ASC|DESC]]
    [LIMIT n]

The output is a :class:`SelectStatement` describing the query;
:func:`lower_select` folds it into operators of the IR vocabulary
(:data:`repro.ir.kinds.KINDS`), whatever tree the caller builds from them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.exceptions import QueryError
from repro.stores.relational.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
)
from repro.stores.relational.operators import AggregateSpec

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*')"
    r"|(?P<number>-?\d+\.\d+|-?\d+)"
    r"|(?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\.)"
    r"|(?P<word>[A-Za-z_][A-Za-z_0-9]*)"
    r")"
)

_KEYWORDS = {
    "select", "from", "where", "group", "order", "by", "limit", "join", "on",
    "and", "or", "not", "as", "asc", "desc", "in", "is", "null", "inner", "left",
}

_AGGREGATES = {"count", "sum", "avg", "min", "max"}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str
    value: str


def tokenize(text: str) -> list[Token]:
    """Split SQL text into tokens, raising :class:`QueryError` on junk."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise QueryError(f"cannot tokenize SQL near {remainder[:20]!r}")
        pos = match.end()
        if match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(Token("string", raw))
        elif match.lastgroup == "number":
            tokens.append(Token("number", match.group("number")))
        elif match.lastgroup == "op":
            tokens.append(Token("op", match.group("op")))
        else:
            word = match.group("word")
            kind = "keyword" if word.lower() in _KEYWORDS else "identifier"
            tokens.append(Token(kind, word))
    return tokens


@dataclass(frozen=True)
class SelectItem:
    """One item of the SELECT list."""

    column: str | None = None          # plain column (possibly table-qualified)
    aggregate: str | None = None       # aggregate function name
    argument: str | None = None        # aggregate argument column ('*' for count)
    alias: str | None = None

    @property
    def output_name(self) -> str:
        """The column name this item produces."""
        if self.alias:
            return self.alias
        if self.aggregate:
            arg = self.argument or "*"
            return f"{self.aggregate}_{arg}".replace("*", "all")
        assert self.column is not None
        return self.column.split(".")[-1]


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON left = right``."""

    table: str
    left_key: str
    right_key: str
    how: str = "inner"


@dataclass
class SelectStatement:
    """Parsed representation of a SELECT query."""

    table: str
    items: list[SelectItem] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[str] = field(default_factory=list)
    order_by: str | None = None
    order_descending: bool = False
    limit: int | None = None
    select_star: bool = False


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------------

    def _peek(self) -> Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> bool:
        token = self._peek()
        if token and token.kind == "keyword" and token.value.lower() in words:
            self._pos += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            token = self._peek()
            raise QueryError(f"expected {word.upper()}, found {token.value if token else 'EOF'!r}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token and token.kind == "op" and token.value == op:
            self._pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            token = self._peek()
            raise QueryError(f"expected {op!r}, found {token.value if token else 'EOF'!r}")

    def _identifier(self) -> str:
        token = self._next()
        if token.kind not in ("identifier", "keyword"):
            raise QueryError(f"expected identifier, found {token.value!r}")
        name = token.value
        if self._accept_op("."):
            suffix = self._next()
            name = f"{name}.{suffix.value}"
        return name

    # -- grammar ------------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        items, star = self._select_list()
        self._expect_keyword("from")
        table = self._identifier()
        statement = SelectStatement(table=table, items=items, select_star=star)
        while True:
            how = "inner"
            if self._accept_keyword("left"):
                how = "left"
                self._expect_keyword("join")
            elif self._accept_keyword("inner"):
                self._expect_keyword("join")
            elif self._accept_keyword("join"):
                pass
            else:
                break
            join_table = self._identifier()
            self._expect_keyword("on")
            left = self._identifier()
            self._expect_op("=")
            right = self._identifier()
            statement.joins.append(JoinClause(join_table, left, right, how))
        if self._accept_keyword("where"):
            statement.where = self._expression()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            statement.group_by.append(self._identifier())
            while self._accept_op(","):
                statement.group_by.append(self._identifier())
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            statement.order_by = self._identifier()
            if self._accept_keyword("desc"):
                statement.order_descending = True
            else:
                self._accept_keyword("asc")
        if self._accept_keyword("limit"):
            token = self._next()
            if token.kind != "number":
                raise QueryError(f"LIMIT expects a number, found {token.value!r}")
            statement.limit = int(float(token.value))
        trailing = self._peek()
        if trailing is not None:
            raise QueryError(f"unexpected trailing token {trailing.value!r}")
        return statement

    def _select_list(self) -> tuple[list[SelectItem], bool]:
        if self._accept_op("*"):
            return [], True
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())
        return items, False

    def _select_item(self) -> SelectItem:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of SELECT list")
        if (token.kind in ("identifier", "keyword")
                and token.value.lower() in _AGGREGATES
                and self._pos + 1 < len(self._tokens)
                and self._tokens[self._pos + 1].value == "("):
            func = self._next().value.lower()
            self._expect_op("(")
            if self._accept_op("*"):
                argument = None
            else:
                argument = self._identifier()
            self._expect_op(")")
            alias = None
            if self._accept_keyword("as"):
                alias = self._identifier()
            return SelectItem(aggregate=func, argument=argument, alias=alias)
        name = self._identifier()
        alias = None
        if self._accept_keyword("as"):
            alias = self._identifier()
        return SelectItem(column=name, alias=alias)

    # -- predicate grammar (OR -> AND -> NOT -> comparison) -------------------------

    def _expression(self) -> Expression:
        return self._or_expression()

    def _or_expression(self) -> Expression:
        operands = [self._and_expression()]
        while self._accept_keyword("or"):
            operands.append(self._and_expression())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("or", tuple(operands))

    def _and_expression(self) -> Expression:
        operands = [self._not_expression()]
        while self._accept_keyword("and"):
            operands.append(self._not_expression())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("and", tuple(operands))

    def _not_expression(self) -> Expression:
        if self._accept_keyword("not"):
            return BooleanOp("not", (self._not_expression(),))
        return self._comparison()

    def _comparison(self) -> Expression:
        if self._accept_op("("):
            inner = self._expression()
            self._expect_op(")")
            return inner
        left = self._operand()
        token = self._peek()
        if token and token.kind == "keyword" and token.value.lower() == "is":
            self._next()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated=negated)
        if token and token.kind == "keyword" and token.value.lower() == "in":
            self._next()
            self._expect_op("(")
            values = [self._literal_value()]
            while self._accept_op(","):
                values.append(self._literal_value())
            self._expect_op(")")
            return InList(left, tuple(values))
        op_token = self._next()
        if op_token.kind != "op" or op_token.value not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise QueryError(f"expected comparison operator, found {op_token.value!r}")
        right = self._operand()
        return Comparison(op_token.value, left, right)

    def _operand(self) -> Expression:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of expression")
        if token.kind == "number":
            self._next()
            return Literal(_to_number(token.value))
        if token.kind == "string":
            self._next()
            return Literal(token.value)
        name = self._identifier()
        return ColumnRef(name)

    def _literal_value(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return _to_number(token.value)
        if token.kind == "string":
            return token.value
        raise QueryError(f"expected literal in IN list, found {token.value!r}")


def _to_number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


def parse_select(sql: str) -> SelectStatement:
    """Parse a SELECT statement, raising :class:`QueryError` on syntax errors."""
    tokens = tokenize(sql)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse_select()


_Node = TypeVar("_Node")


def lower_select(statement: SelectStatement, scan: Callable[[str], _Node],
                 step: Callable[..., _Node]) -> _Node:
    """Fold a parsed SELECT into a tree of IR-vocabulary operators.

    ``scan(table)`` builds a leaf, ``step(kind, params, *children)`` every
    operator above it, with the ``(kind, params)`` names
    :func:`~repro.stores.relational.operators.build_operator` and
    :class:`~repro.eide.dataflow.DataflowNode` share — so the engine folds a
    statement into physical operators and ``dataset(engine).sql(text)`` into
    a dataflow tree with the same walk.  Canonical order, bottom to top:
    scans, joins, filter, aggregate or projection, sort, limit; the
    compiler's passes rearrange from there (pushdown, join reordering).
    """
    node = scan(statement.table)
    for join in statement.joins:
        node = step("join", {"left_key": _bare(join.left_key),
                             "right_key": _bare(join.right_key),
                             "how": join.how, "algorithm": "hash"},
                    node, scan(join.table))
    if statement.where is not None:
        node = step("filter", {"predicate": statement.where}, node)
    aggregates = [
        AggregateSpec(item.aggregate, _bare(item.argument) if item.argument else None,
                      item.output_name)
        for item in statement.items if item.aggregate is not None
    ]
    if aggregates or statement.group_by:
        node = step("aggregate", {"group_by": [_bare(c) for c in statement.group_by],
                                  "aggregates": aggregates}, node)
    elif not statement.select_star:
        columns = [_bare(item.column) for item in statement.items
                   if item.column is not None]
        if columns:
            node = step("project", {"columns": columns}, node)
    if statement.order_by is not None:
        node = step("sort", {"by": _bare(statement.order_by),
                             "descending": statement.order_descending}, node)
    if statement.limit is not None:
        node = step("limit", {"n": statement.limit}, node)
    return node


def _bare(name: str) -> str:
    """A column name without its table qualifier."""
    return name.split(".")[-1]
