"""Compiled expressions keep the tree-walking evaluator's semantics exactly.

``Expression.compile(schema)`` (closures over tuple positions) and
``Expression.evaluate(row_dict)`` (the same closures over names) are checked
against ``_reference`` below — the row-at-a-time interpreter the engine used
before predicates were compiled, kept here as the oracle for null handling,
comparison results and division by zero.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import DataType, make_schema
from repro.exceptions import QueryError
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

SCHEMA = make_schema(("a", DataType.INT), ("b", DataType.FLOAT), ("c", DataType.INT))

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "%": operator.mod}


def _reference(expr: Expression, row: dict):
    if isinstance(expr, ColumnRef):
        return row[expr.name]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Comparison):
        left, right = _reference(expr.left, row), _reference(expr.right, row)
        if left is None or right is None:
            return False
        return bool(_COMPARE[expr.op](left, right))
    if isinstance(expr, Arithmetic):
        left, right = _reference(expr.left, row), _reference(expr.right, row)
        if left is None or right is None:
            return None
        try:
            return _ARITHMETIC[expr.op](left, right)
        except ZeroDivisionError:
            return None
    if isinstance(expr, BooleanOp):
        values = (_reference(operand, row) for operand in expr.operands)
        if expr.op == "and":
            return all(values)
        if expr.op == "or":
            return any(values)
        return not next(values)
    if isinstance(expr, InList):
        return _reference(expr.operand, row) in expr.values
    assert isinstance(expr, IsNull)
    is_null = _reference(expr.operand, row) is None
    return not is_null if expr.negated else is_null


# Mixed int/float, NULLs and zero divisors; magnitudes small enough that no
# arithmetic overflows, so every difference is a semantic one.
_values = st.one_of(
    st.none(), st.just(0), st.just(0.0), st.integers(-50, 50),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False))
_rows = st.tuples(_values, _values, _values)
_leaves = st.one_of(
    st.sampled_from(SCHEMA.names).map(ColumnRef), _values.map(Literal))


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_COMPARE)), children, children)
        .map(lambda t: Comparison(*t)),
        st.tuples(st.sampled_from(sorted(_ARITHMETIC)), children, children)
        .map(lambda t: Arithmetic(*t)),
        st.tuples(st.sampled_from(["and", "or"]), pairs).map(lambda t: BooleanOp(*t)),
        children.map(lambda e: BooleanOp("not", (e,))),
        st.tuples(children, st.lists(_values, max_size=3).map(tuple))
        .map(lambda t: InList(*t)),
        st.tuples(children, st.booleans()).map(lambda t: IsNull(*t)),
    )


_expressions = st.recursive(_leaves, _grow, max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(_expressions, _rows)
def test_compiled_and_by_name_match_the_reference(expression, row):
    as_dict = dict(zip(SCHEMA.names, row))
    expected = _reference(expression, as_dict)
    for actual in (expression.compile(SCHEMA)(row), expression.evaluate(as_dict)):
        assert actual == expected
        assert type(actual) is type(expected)


def test_unknown_column_is_rejected_at_compile_time():
    predicate = (ColumnRef("a") > 1) & (ColumnRef("nope") < 2)
    with pytest.raises(QueryError, match="nope"):
        predicate.compile(SCHEMA)
    # By name there is no schema to check against: the first row raises.
    by_name = predicate.compile()
    with pytest.raises(QueryError, match="nope"):
        by_name({"a": 5})
