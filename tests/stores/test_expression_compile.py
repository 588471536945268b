"""Generated expressions keep the tree-walking evaluator's semantics exactly.

``Expression.compile(schema)`` (source generated over tuple positions) and
``Expression.evaluate(row_dict)`` (the same, over the mapping's columns) are
checked against ``_reference`` below — the row-at-a-time interpreter the
engine used before predicates were compiled, kept here as the oracle for null
handling, comparison results, division by zero and which statements raise.
"""

from __future__ import annotations

import linecache
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import DataType, Table, make_schema
from repro.exceptions import QueryError
from repro.stores import RelationalEngine
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


# Mixed int/float, NULLs, zero divisors, NaN and the infinities, bools and
# strings (which make comparisons and arithmetic raise); magnitudes small
# enough that nothing overflows, so every difference is a semantic one.
NAN = float("nan")
_values = st.one_of(
    st.none(), st.just(0), st.just(0.0), st.integers(-50, 50),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([NAN, float("inf"), float("-inf"), True, False, "", "a", "%d", "zz"]))
_rows = st.tuples(_values, _values, _values)
_columns = st.sampled_from(SCHEMA.names).map(ColumnRef)
_leaves = st.one_of(_columns, _values.map(Literal))


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_COMPARE)), children, children)
        .map(lambda t: Comparison(*t)),
        # A literal — ``None`` too — on either side of a column.
        st.tuples(st.sampled_from(sorted(_COMPARE)), _values.map(Literal), _columns)
        .map(lambda t: Comparison(*t)),
        st.tuples(st.sampled_from(sorted(_COMPARE)), _columns, st.just(Literal(None)))
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


def _outcome(compute):
    """``("ok", type, value)`` — NaN compared by ``repr`` — or what was raised."""
    try:
        value = compute()
    except Exception as exc:  # noqa: BLE001 - the type is the thing compared
        return "raised", type(exc)
    return "ok", type(value), repr(value) if value != value else value


@settings(max_examples=600, deadline=None)
@given(_expressions, _rows)
def test_compiled_and_by_name_match_the_reference(expression, row):
    as_dict = dict(zip(SCHEMA.names, row))
    expected = _outcome(lambda: _reference(expression, as_dict))
    assert _outcome(lambda: expression.compile(SCHEMA)(row)) == expected
    assert _outcome(lambda: expression.evaluate(as_dict)) == expected


@pytest.mark.parametrize("expression, row, expected", [
    # Predicate nodes nested where a value is read are bools there.
    (((ColumnRef("a") > 1) + 1) > 1, (5, None, None), True),
    (((ColumnRef("a") > 1) + 1) > 1, (0, None, None), False),
    ((ColumnRef("a") > 1) + 1, (None, None, None), 1),
    (IsNull(ColumnRef("a") & ColumnRef("b")), (0, None, None), False),
    ((ColumnRef("a") & ColumnRef("b")) + 0, (3, 2.5, None), 1),
    (ColumnRef("a") & ColumnRef("b"), (3, 2.5, None), True),
    # Both operands are evaluated before either is tested for None.
    (Comparison("<", Literal(5), ColumnRef("a")), (7, None, None), True),
    (Comparison("=", Literal(None), ColumnRef("a")), (None, None, None), False),
    (Arithmetic("%", Literal("%d"), ColumnRef("a")), (0, None, None), "0"),
    (Arithmetic("%", ColumnRef("b"), ColumnRef("a")), (0, 2.0, None), None),
])
def test_value_position_and_literal_sides(expression, row, expected):
    as_dict = dict(zip(SCHEMA.names, row))
    assert _outcome(lambda: _reference(expression, as_dict)) == ("ok", type(expected), expected)
    assert _outcome(lambda: expression.compile(SCHEMA)(row)) == ("ok", type(expected), expected)


def test_a_raising_operand_raises_whether_or_not_the_other_is_none():
    raises = Arithmetic("+", Literal("x"), Literal(1))
    for expression in (Comparison("<", ColumnRef("a"), raises),
                       Arithmetic("*", ColumnRef("a"), raises)):
        with pytest.raises(TypeError):
            expression.compile(SCHEMA)((None, None, None))


def test_unknown_column_is_rejected_at_compile_time():
    predicate = (ColumnRef("a") > 1) & (ColumnRef("nope") < 2)
    with pytest.raises(QueryError, match="nope"):
        predicate.compile(SCHEMA)
    # By name the mapping is the layout: a name it lacks is rejected the same way.
    with pytest.raises(QueryError, match="nope"):
        predicate.evaluate({"a": 5})


# -- what a user supplies is data, never source -------------------------------------------

HOSTILE_COLUMN = "x'] or __import__('os') #"
HOSTILE_TEXT = "line one\n'; \"\"\" + __import__('os').system('true') #"


def _generated_text(kernel) -> str:
    return "".join(linecache.getlines(kernel.__code__.co_filename))


def test_hostile_names_and_literals_round_trip_as_data():
    schema = make_schema((HOSTILE_COLUMN, DataType.STRING), ("n", DataType.INT))
    rows = [(HOSTILE_TEXT, 1), ("plain", 2), (None, 3), (HOSTILE_COLUMN, 4)]
    cases = {
        ColumnRef(HOSTILE_COLUMN).eq(HOSTILE_TEXT): [1],
        ColumnRef(HOSTILE_COLUMN).isin(HOSTILE_TEXT, HOSTILE_COLUMN): [1, 4],
        ColumnRef(HOSTILE_COLUMN).ne(HOSTILE_TEXT) & (ColumnRef("n") > 2): [4],
        ColumnRef("n").eq(NAN) | ColumnRef("n").eq(object()): [],
    }
    engine = RelationalEngine("hostile")
    engine.load_table("t", Table(schema, rows))
    for predicate, expected in cases.items():
        kernel = predicate.compile(schema)
        assert [row[1] for row in rows if kernel(row)] == expected
        assert engine.scan("t", ["n"], predicate).column("n") == expected
        text = _generated_text(kernel)
        assert "row[0]" in text or "row[1]" in text
        for supplied in (HOSTILE_COLUMN, HOSTILE_TEXT, "__import__", "plain"):
            assert supplied not in text
            assert supplied not in map(str, kernel.__code__.co_consts)
        assert kernel.__code__.co_names == ()  # no global, no builtin, no attribute
