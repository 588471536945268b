"""Adapter base class.

An adapter co-locates with each data-processing engine (paper §III, Figure 4)
and translates IR operators into the engine's native calls.  The executor
hands an adapter one operator plus the materialized outputs of the operator's
inputs; the adapter returns the operator's output (usually a
:class:`~repro.datamodel.table.Table`); the executor records what the call
cost in the operator's :class:`~repro.middleware.executor.report.TaskRecord`.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.datamodel.table import Table
from repro.exceptions import AdapterError
from repro.ir.nodes import Operator
from repro.stores.base import Engine
from repro.stores.relational.expressions import Expression
from repro.stores.relational.operators import Filter, TableScan, build_operator


class Adapter(abc.ABC):
    """Translates and executes IR operators on one engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    @abc.abstractmethod
    def supported_kinds(self) -> frozenset[str]:
        """IR operator kinds this adapter can execute."""

    @abc.abstractmethod
    def execute(self, node: Operator, inputs: list[Any]) -> Any:
        """Execute ``node`` given its input values (in ``node.inputs`` order)."""

    def can_execute(self, node: Operator) -> bool:
        """Whether this adapter handles the node's kind."""
        return node.kind in self.supported_kinds()

    def details(self, node: Operator) -> dict[str, Any]:
        """What the record of ``node``, just executed, carries beside its costs."""
        return {}

    def _table_operator(self, node: Operator, inputs: list[Any]) -> Table:
        """Run a relational operator over already-materialized input tables.

        Federated evaluation: inputs may come from any engine and run through
        the operators the relational engine itself uses, so semantics (and
        the plan-derived result schema) match wherever they came from.
        """
        self._require_inputs(node, inputs, 2 if node.kind == "join" else 1)
        tables = [self._as_table(value, node) for value in inputs]
        if node.kind == "filter":
            if not isinstance(node.params.get("predicate"), Expression):
                raise AdapterError(f"filter {node.op_id} has no predicate expression")
            return self._apply_predicate(tables[0], node)
        if node.kind == "project" and not len(tables[0]):
            # Nothing to read, and a schemaless read's empty result may not
            # declare the columns named: keep those its schema has.
            schema = tables[0].schema
            return Table.wrap(schema.project(
                [name for name in node.params.get("columns") or ()
                 if name in schema]), [])
        return build_operator(node.kind, node.params,
                              *map(TableScan, tables)).to_table()

    @staticmethod
    def _apply_predicate(table: Table, node: Operator) -> Table:
        """Evaluate a node's structured ``predicate`` parameter against a table.

        Shared by ``filter`` operators and the leaf reads of every data
        model (whose filters the pushdown pass absorbs), so predicate
        semantics match the relational engine exactly.  Nodes without a
        predicate pass through untouched, and so does an empty table: the
        empty result of a schemaless read (key/value, graph nodes) has only a
        placeholder schema, which does not know the predicate's columns.
        """
        predicate = node.params.get("predicate")
        if not isinstance(predicate, Expression) or not len(table):
            return table
        return Filter(TableScan(table), predicate).to_table()

    @staticmethod
    def _as_table(value: Any, node: Operator) -> Table:
        if isinstance(value, Table):
            return value
        if isinstance(value, list) and all(isinstance(r, dict) for r in value):
            return Table.from_dicts(value)  # a UDF's dict rows: the public edge
        raise AdapterError(
            f"operator {node.op_id} expected a Table input, got {type(value).__name__}"
        )

    def _require_inputs(self, node: Operator, inputs: list[Any], expected: int) -> None:
        if len(inputs) != expected:
            raise AdapterError(
                f"{type(self).__name__} expected {expected} inputs for "
                f"{node.kind} ({node.op_id}), got {len(inputs)}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(engine={self.engine.name!r})"
