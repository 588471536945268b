"""Relational store: SQL parsing and lowering, indexes and positional physical operators."""

from repro.stores.relational.engine import RelationalEngine, StoredTable
from repro.stores.relational.expressions import (
    and_,
    column,
    compare,
    literal,
    not_,
    or_,
)
from repro.stores.relational.operators import AggregateSpec
from repro.stores.relational.sql import lower_select, parse_select

__all__ = [
    "RelationalEngine",
    "StoredTable",
    "AggregateSpec",
    "parse_select",
    "lower_select",
    "column",
    "literal",
    "compare",
    "and_",
    "or_",
    "not_",
]
