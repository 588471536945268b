"""Scalar expressions evaluated by the relational engine.

Expressions appear in WHERE predicates, projections and join conditions.
They form a small tree of :class:`Expression` nodes which can be compiled
into a function of row tuples (:meth:`Expression.compile`), inspected for
referenced columns (used by the compiler's predicate-pushdown pass) and
estimated for selectivity (used by the cost model).

Every node implements its semantics exactly once, in ``_emit``: it writes
itself as Python source over ``row[i]`` into a
:class:`~repro.stores.relational.kernels.Source`, which binds its literals as
arguments and compiles the text once per expression shape.  The same text is
what ``kernels.select`` inlines into its filter-and-project pass.  ``None``
operands make a comparison false and arithmetic ``None``, ``/`` and ``%`` by
zero give ``None``, ``and`` / ``or`` keep their operands' order and
short-circuit, and operands are evaluated left to right before any is tested
for ``None``.
:meth:`Expression.evaluate` is the public-edge form for a caller holding one
row as a ``{column: value}`` mapping; nothing on an execution path uses it.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Mapping

from repro.datamodel.schema import DataType, Schema
from repro.exceptions import QueryError
from repro.stores.relational.kernels import Source
from repro.stores.relational.partition import partitions_equal_to

#: Comparison operators, as written in an expression and in generated source.
_COMPARISONS = {"=": "==", "==": "==", "!=": "!=", "<>": "!=",
                "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Arithmetic operators; ``div`` / ``mod`` give ``None`` on a zero divisor.
_ARITHMETIC = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
               "/": "div({}, {})", "%": "mod({}, {})"}


class Expression(abc.ABC):
    """Base class for scalar expressions.

    Expressions double as the *builder* vocabulary of the dataflow API
    (:mod:`repro.eide.expressions`): ordering comparisons, arithmetic and the
    boolean connectives ``&``/``|``/``~`` construct new expression nodes
    instead of evaluating, so ``col("age") > 60`` is itself first-class IR.
    Equality stays structural (dataclass semantics); use :meth:`eq`/:meth:`ne`
    (or the :func:`repro.eide.expressions.col` sugar) to build equality
    predicates.
    """

    #: Whether ``_emit``'s text is right only as a truth value.
    _truth_only: ClassVar[bool] = False

    def compile(self, schema: Schema) -> Callable[[Any], Any]:
        """``row -> value`` over positional row tuples laid out in ``schema``.

        A reference to a column the schema lacks raises :class:`QueryError`
        here rather than on the first row.
        """
        out = Source(schema)
        return out.kernel("row", "row", f"return {out.value(self)}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """Evaluate against one row given as ``{column: value}``.

        Binds per call: loops over many rows should hoist :meth:`compile`.
        """
        names = sorted(name for name in self.referenced_columns() if name in row)
        layout = Schema.from_pairs([(name, DataType.STRING) for name in names])
        return self.compile(layout)(tuple(row[name] for name in names))

    @abc.abstractmethod
    def _emit(self, out: Source) -> str:
        """This node's semantics as Python source over ``row[i]``."""

    @abc.abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """Names of columns this expression reads."""

    def estimated_selectivity(self) -> float:
        """Fraction of rows expected to satisfy this expression as a predicate."""
        return 0.5

    # -- builder operators (the dataflow API's predicate sugar) ---------------------

    def __bool__(self) -> bool:
        # Guard against Python's `and`/`or`/`not` and chained comparisons
        # (`1 < col < 5`), which would silently evaluate one operand's
        # truthiness and drop the rest of the predicate.
        raise QueryError(
            "an Expression has no truth value; combine predicates with "
            "&, | and ~ (not `and`/`or`/`not`), and avoid chained comparisons"
        )

    def __gt__(self, other: Any) -> "Comparison":
        return Comparison(">", self, _as_operand(other))

    def __ge__(self, other: Any) -> "Comparison":
        return Comparison(">=", self, _as_operand(other))

    def __lt__(self, other: Any) -> "Comparison":
        return Comparison("<", self, _as_operand(other))

    def __le__(self, other: Any) -> "Comparison":
        return Comparison("<=", self, _as_operand(other))

    def eq(self, other: Any) -> "Comparison":
        """An equality predicate (``==`` keeps dataclass equality)."""
        return Comparison("=", self, _as_operand(other))

    def ne(self, other: Any) -> "Comparison":
        """An inequality predicate."""
        return Comparison("!=", self, _as_operand(other))

    def isin(self, *values: Any) -> "InList":
        """An ``IN (...)`` membership predicate."""
        if len(values) == 1 and isinstance(values[0], (list, tuple, set, frozenset)):
            values = tuple(values[0])
        return InList(self, tuple(values))

    def is_null(self) -> "IsNull":
        """An ``IS NULL`` predicate."""
        return IsNull(self)

    def is_not_null(self) -> "IsNull":
        """An ``IS NOT NULL`` predicate."""
        return IsNull(self, negated=True)

    def __and__(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("and", (self, _as_operand(other)))

    def __or__(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("or", (self, _as_operand(other)))

    def __invert__(self) -> "BooleanOp":
        return BooleanOp("not", (self,))

    def __add__(self, other: Any) -> "Arithmetic":
        return Arithmetic("+", self, _as_operand(other))

    def __sub__(self, other: Any) -> "Arithmetic":
        return Arithmetic("-", self, _as_operand(other))

    def __mul__(self, other: Any) -> "Arithmetic":
        return Arithmetic("*", self, _as_operand(other))

    def __truediv__(self, other: Any) -> "Arithmetic":
        return Arithmetic("/", self, _as_operand(other))

    def __mod__(self, other: Any) -> "Arithmetic":
        return Arithmetic("%", self, _as_operand(other))


def _as_operand(value: Any) -> "Expression":
    """Wrap a bare Python value as a :class:`Literal` operand."""
    return value if isinstance(value, Expression) else Literal(value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by name."""

    name: str

    def _emit(self, out: Source) -> str:
        return out.column(self.name)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def _emit(self, out: Source) -> str:
        return out.constant(self.value)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison such as ``age >= 65``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    _truth_only = True

    def _emit(self, out: Source) -> str:
        (a, b), present = out.operands(self.left, self.right)
        return f"({present} and {a} {_COMPARISONS[self.op]} {b})"

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def estimated_selectivity(self) -> float:
        if self.op in ("=", "=="):
            return 0.1
        if self.op in ("!=", "<>"):
            return 0.9
        return 0.33

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """AND / OR / NOT combination of predicates."""

    op: str
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or", "not"):
            raise QueryError(f"unknown boolean operator {self.op!r}")
        if self.op == "not" and len(self.operands) != 1:
            raise QueryError("NOT takes exactly one operand")
        if self.op in ("and", "or") and len(self.operands) < 2:
            raise QueryError(f"{self.op.upper()} needs at least two operands")

    _truth_only = True

    def _emit(self, out: Source) -> str:
        tests = [out.value(operand, truth=True) for operand in self.operands]
        return f"(not {tests[0]})" if self.op == "not" \
            else "(" + f" {self.op} ".join(tests) + ")"

    def referenced_columns(self) -> frozenset[str]:
        columns: frozenset[str] = frozenset()
        for operand in self.operands:
            columns |= operand.referenced_columns()
        return columns

    def estimated_selectivity(self) -> float:
        child = [op.estimated_selectivity() for op in self.operands]
        if self.op == "and":
            product = 1.0
            for s in child:
                product *= s
            return product
        if self.op == "or":
            miss = 1.0
            for s in child:
                miss *= (1.0 - s)
            return 1.0 - miss
        return 1.0 - child[0]

    def __str__(self) -> str:
        if self.op == "not":
            return f"(NOT {self.operands[0]})"
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """A binary arithmetic expression such as ``price * quantity``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def _emit(self, out: Source) -> str:
        (a, b), present = out.operands(self.left, self.right)
        return f"({_ARITHMETIC[self.op].format(a, b)} if {present} else None)"

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class InList(Expression):
    """``column IN (v1, v2, ...)``."""

    operand: Expression
    values: tuple[Any, ...]

    def _emit(self, out: Source) -> str:
        return f"({out.value(self.operand)} in {out.constant(self.values)})"

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def estimated_selectivity(self) -> float:
        return min(1.0, 0.1 * max(1, len(self.values)))

    def __str__(self) -> str:
        values = ", ".join(repr(v) for v in self.values)
        return f"({self.operand} IN ({values}))"


@dataclass(frozen=True)
class IsNull(Expression):
    """``column IS NULL`` / ``IS NOT NULL``."""

    operand: Expression
    negated: bool = False

    def _emit(self, out: Source) -> str:
        return f"({out.value(self.operand)} is{' not' * self.negated} None)"

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def estimated_selectivity(self) -> float:
        return 0.9 if self.negated else 0.1

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


def column(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def literal(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def compare(left: Expression | str, op: str, right: Any) -> Comparison:
    """Build a comparison, wrapping bare names/values for convenience."""
    left_expr = ColumnRef(left) if isinstance(left, str) else left
    right_expr = right if isinstance(right, Expression) else Literal(right)
    return Comparison(op, left_expr, right_expr)


def and_(*operands: Expression) -> Expression:
    """AND of one or more predicates (a single predicate passes through)."""
    if not operands:
        raise QueryError("and_ needs at least one operand")
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("and", tuple(operands))


def or_(*operands: Expression) -> Expression:
    """OR of one or more predicates (a single predicate passes through)."""
    if not operands:
        raise QueryError("or_ needs at least one operand")
    if len(operands) == 1:
        return operands[0]
    return BooleanOp("or", tuple(operands))


def not_(operand: Expression) -> BooleanOp:
    """Negation of a predicate."""
    return BooleanOp("not", (operand,))


def split_conjunction(expression: Expression) -> list[Expression]:
    """Split a predicate into its top-level AND conjuncts.

    Used by the predicate-pushdown pass: each conjunct can be pushed to the
    engine that owns all of its referenced columns independently.
    """
    if isinstance(expression, BooleanOp) and expression.op == "and":
        parts: list[Expression] = []
        for operand in expression.operands:
            parts.extend(split_conjunction(operand))
        return parts
    return [expression]


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: ``literal op column`` read as ``column op literal``.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "=="}


#: Which kinds compare with which: a number with a number, a ``str`` with a ``str``.
_FAMILY = {int: 0, bool: 0, float: 0, str: 1}


def leading_checks(predicate: Expression, schema: Schema
                    ) -> tuple[list[tuple[int, str, tuple[Any, ...]]], bool]:
    """The leading conjuncts of the form column ``= == < <= > >=`` literal
    (either way round) or column ``IN`` literals (op ``=``), as ``(position,
    op, values)``, and whether they are all the conjuncts there are."""
    checks: list[tuple[int, str, tuple[Any, ...]]] = []
    conjuncts = split_conjunction(predicate)
    for conjunct in conjuncts:
        if isinstance(conjunct, InList):
            subject, op, values = conjunct.operand, "=", conjunct.values
        elif isinstance(conjunct, Comparison) and conjunct.op in _MIRRORED:
            subject, op, other = conjunct.left, conjunct.op, conjunct.right
            if isinstance(subject, Literal):
                subject, op, other = other, _MIRRORED[op], subject
            if not isinstance(other, Literal):
                break
            values = (other.value,)
        else:
            break
        if not isinstance(subject, ColumnRef) or subject.name not in schema:
            break  # an unknown column is the walk's QueryError, as a filter's
        checks.append((schema.index_of(subject.name), op, values))
    return checks, len(checks) == len(conjuncts)


def page_test(predicate: Expression, schema: Schema,
              partitioning: tuple[int, int] | None = None
              ) -> Callable[[Any], bool] | None:
    """A conservative ``page -> may a row of it satisfy predicate``, or ``None``
    when the predicate constrains no column.

    ``page.bounds(position)`` is a column's ``(min, max)`` over its values
    that are neither ``None`` nor NaN (none of the comparisons here holds for
    those), or ``None`` for unknown.  Only the leading conjuncts of the form
    column ``= == < <= > >=`` literal (either way round) or column ``IN``
    literals constrain: a row failing conjunct *k* never evaluates conjunct
    *k + 1*, so a conjunct may rule a page out only if none before it could
    have raised there.  Unknown bounds, or a ``TypeError`` comparing them with
    the literal, mean "may match": the rows are evaluated, and raise what
    they raise.  With ``partitioning`` — a partitioned table's ``(key
    position, partitions)`` — an ``=`` / ``IN`` conjunct on the key also rules
    a page out when ``page.partitions(key, partitions)`` holds none of its
    values' partitions.
    """
    checks, _ = leading_checks(predicate, schema)
    if not checks:
        return None
    key, count = partitioning or (None, 0)
    wanted = [frozenset().union(*(partitions_equal_to(v, count) for v in values))
              if position == key and op[0] == "=" else None
              for position, op, values in checks]

    def may_match(page: Any) -> bool:
        for (position, op, values), owners in zip(checks, wanted):
            if owners is not None and owners.isdisjoint(page.partitions(key, count)):
                return False
            bounds = page.bounds(position)
            if bounds is None:
                return True
            low, high = bounds
            try:
                if op[0] == "=":
                    # Written so that a NaN (equal to nothing, yet ``in``
                    # finds it by identity) rules nothing out.
                    possible = not all(v < low or v > high for v in values)
                else:  # ``column < v`` can hold on the page iff ``min < v`` does
                    possible = _ORDERINGS[op](low if op[0] == "<" else high, values[0])
            except TypeError:
                return True
            if not possible:
                return False
        return True
    return may_match


def page_covered(predicate: Expression, schema: Schema) -> Callable[[Any], bool] | None:
    """The exact dual of :func:`page_test`, ``page -> does every row of it
    satisfy predicate``: ``None`` unless every conjunct is a column ``= == <
    <= > >=`` literal comparison.  Only bounds over cells of one
    ``page.kind(position)`` decide, against a literal that kind compares
    with: no row is ``None`` or NaN there, and none raises."""
    checks, complete = leading_checks(predicate, schema)
    if not checks or not complete or any(len(values) != 1 for _, _, values in checks):
        return None

    def covers(page: Any) -> bool:
        for position, op, (value,) in checks:
            bounds, kind = page.bounds(position), page.kind(position)
            if kind is None or _FAMILY.get(type(value)) != _FAMILY[kind] \
                    or not (bounds[0] == value == bounds[1] if op[0] == "=" else  # NaN: never
                            _ORDERINGS[op](bounds[op[0] == "<"], value)):
                return False
        return True
    return covers
