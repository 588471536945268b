"""Client-facing expression builders for the dataflow API.

The dataflow API (:mod:`repro.eide.dataflow`) takes predicates as
*structured expression trees* — the same
:class:`~repro.stores.relational.expressions.Expression` vocabulary the
relational engine evaluates and the compiler's pushdown pass rewrites — so a
filter written as ``col("age") > 60`` is first-class IR end to end: no SQL
string is ever parsed, the predicate pushes into leaf scans, and a predicate
on a partitioned table's shard key skips the other partitions' pages.

This module adds the three things the engine layer does not provide:

* :func:`col` — a column reference whose ``==``/``!=`` build predicates
  (plain :class:`~repro.stores.relational.expressions.ColumnRef` keeps
  dataclass equality so the compiler can still compare expression objects).
* :func:`canonicalize` — a normal form for fingerprinting: nested
  AND/OR chains are flattened and commutative operands sorted, so
  ``a & b`` and ``b & a`` hash identically and hit the same plan-cache
  entry.
* :class:`~repro.eide.program.Param` support — placeholders may appear as
  comparison operands (``col("age") > Param("min_age", 60)``);
  :func:`find_params` discovers them for ``Session.prepare`` and
  :func:`bind_params` substitutes bound values on each run.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable

from repro.eide.program import Param
from repro.exceptions import CompilationError
from repro.stores.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
)


class Col(ColumnRef):
    """A column reference with predicate-building ``==`` and ``!=``.

    Everything else (ordering comparisons, arithmetic, ``&``/``|``/``~``)
    comes from the :class:`Expression` base.  :func:`canonicalize` rewrites
    ``Col`` back to a plain :class:`ColumnRef` when a predicate is attached
    to a dataset, so stored trees are identical to SQL-parsed ones.
    """

    def __eq__(self, other: Any) -> Comparison:  # type: ignore[override]
        return self.eq(other)

    def __ne__(self, other: Any) -> Comparison:  # type: ignore[override]
        return self.ne(other)

    # Predicate-building __eq__ breaks the eq/hash contract on purpose;
    # hash by column name so Col stays usable in sets during construction.
    __hash__ = ColumnRef.__hash__


def col(name: str) -> Col:
    """A column reference: ``col("age") > 60`` builds a predicate."""
    return Col(name)


def lit(value: Any) -> Literal:
    """An explicit literal operand (rarely needed; values auto-wrap)."""
    return Literal(value)


# -- canonicalization -------------------------------------------------------------------


def canonical_key(expression: Expression) -> str:
    """A deterministic sort key for commutative operand ordering."""
    return repr(expression)


def canonicalize(expression: Expression) -> Expression:
    """Rewrite a predicate into its canonical, fingerprint-stable form.

    * ``Col`` sugar nodes become plain :class:`ColumnRef`.
    * Nested ``and``/``or`` chains are flattened one level per operator
      (``(a & b) & c`` -> ``and(a, b, c)``).
    * Commutative operands are sorted by their canonical repr, so the two
      orders of ``a & b`` produce one tree.
    """
    if isinstance(expression, ColumnRef):
        return ColumnRef(expression.name)
    if isinstance(expression, Literal):
        return expression
    if isinstance(expression, Comparison):
        return Comparison(expression.op, canonicalize(expression.left),
                          canonicalize(expression.right))
    if isinstance(expression, Arithmetic):
        return Arithmetic(expression.op, canonicalize(expression.left),
                          canonicalize(expression.right))
    if isinstance(expression, InList):
        return InList(canonicalize(expression.operand), expression.values)
    if isinstance(expression, IsNull):
        return IsNull(canonicalize(expression.operand), expression.negated)
    if isinstance(expression, BooleanOp):
        if expression.op == "not":
            return BooleanOp("not", (canonicalize(expression.operands[0]),))
        flattened: list[Expression] = []
        for operand in expression.operands:
            operand = canonicalize(operand)
            if isinstance(operand, BooleanOp) and operand.op == expression.op:
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        flattened.sort(key=canonical_key)
        return BooleanOp(expression.op, tuple(flattened))
    return expression


def as_predicate(value: Any) -> Expression:
    """Validate and canonicalize a user-supplied predicate."""
    if not isinstance(value, Expression):
        raise CompilationError(
            f"expected a predicate Expression (e.g. col('age') > 60), "
            f"got {type(value).__name__}"
        )
    return canonicalize(value)


# -- Param discovery and binding --------------------------------------------------------


def find_params(value: Any, found: dict[str, Param] | None = None) -> dict[str, Param]:
    """All :class:`Param` placeholders inside a value, containers and
    expression trees included."""
    if found is None:
        found = {}
    if isinstance(value, Param):
        found[value.name] = value
    elif isinstance(value, Mapping):
        for item in value.values():
            find_params(item, found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            find_params(item, found)
    elif isinstance(value, Literal):
        find_params(value.value, found)
    elif isinstance(value, InList):
        find_params(value.operand, found)
        for item in value.values:
            find_params(item, found)
    elif isinstance(value, (Comparison, Arithmetic)):
        find_params(value.left, found)
        find_params(value.right, found)
    elif isinstance(value, BooleanOp):
        for operand in value.operands:
            find_params(operand, found)
    elif isinstance(value, IsNull):
        find_params(value.operand, found)
    return found


def bind_params(expression: Expression,
                resolve: Callable[[Param], Any]) -> Expression:
    """Rebuild an expression with every embedded ``Param`` substituted."""
    if isinstance(expression, Literal):
        if isinstance(expression.value, Param):
            return Literal(resolve(expression.value))
        return expression
    if isinstance(expression, Comparison):
        return Comparison(expression.op, bind_params(expression.left, resolve),
                          bind_params(expression.right, resolve))
    if isinstance(expression, Arithmetic):
        return Arithmetic(expression.op, bind_params(expression.left, resolve),
                          bind_params(expression.right, resolve))
    if isinstance(expression, InList):
        values = tuple(resolve(v) if isinstance(v, Param) else v
                       for v in expression.values)
        return InList(bind_params(expression.operand, resolve), values)
    if isinstance(expression, IsNull):
        return IsNull(bind_params(expression.operand, resolve), expression.negated)
    if isinstance(expression, BooleanOp):
        return BooleanOp(expression.op,
                         tuple(bind_params(op, resolve) for op in expression.operands))
    return expression
