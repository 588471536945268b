"""Adapter for the relational engine.

Two execution modes per operator:

* *native* — leaf operators (``scan``, ``index_seek``) call straight into the
  engine's storage and indexes; a ``scan`` an aggregate was fused into returns
  that aggregate's result, which the aggregate hands on unchanged.
* *federated* — non-leaf operators receive already-materialized tables
  (possibly migrated from other engines) and are evaluated with the same
  physical operators the engine itself uses, so semantics match regardless of
  where the inputs came from.
"""

from __future__ import annotations

from typing import Any

from repro.datamodel.table import Table
from repro.exceptions import AdapterError
from repro.ir.nodes import FOLDED_INTO_SCAN, SCAN_AGGREGATE, Operator
from repro.middleware.adapters.base import Adapter
from repro.stores.relational.engine import RelationalEngine
from repro.stores.relational.expressions import Expression


class RelationalAdapter(Adapter):
    """Executes relational IR operators on a :class:`RelationalEngine`."""

    def __init__(self, engine: RelationalEngine) -> None:
        super().__init__(engine)
        self.engine: RelationalEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({
            "scan", "index_seek", "filter", "project", "join", "aggregate",
            "sort", "limit", "top_k", "union", "materialize", "python_udf",
        })

    def execute(self, node: Operator, inputs: list[Any]) -> Any:
        kind = node.kind
        if kind in ("scan", "index_seek"):
            return self.read(node)
        if kind == "aggregate" and FOLDED_INTO_SCAN in node.annotations:
            self._require_inputs(node, inputs, 1)
            return inputs[0]
        if kind == "python_udf":
            fn = node.params["fn"]
            return fn(*inputs)
        if kind == "union":
            tables = [self._as_table(value, node) for value in inputs]
            if not tables:
                raise AdapterError(f"union {node.op_id} has no inputs")
            result = tables[0]
            for other in tables[1:]:
                result = result.concat(other)
            return result
        if kind == "materialize":
            self._require_inputs(node, inputs, 1)
            return self._as_table(inputs[0], node)
        return self._table_operator(node, inputs)

    def details(self, node: Operator) -> dict[str, Any]:
        """A read of a partitioned table records ``shards``, the number of its
        partitions the read's predicate allows (shim for the suite's
        ``cluster.shards_contacted`` probe: PR A deletes it)."""
        if node.kind not in ("scan", "index_seek"):
            return {}
        predicate = node.params.get("predicate")
        shards = self.engine.partitions_read(
            str(node.params["table"]), predicate if isinstance(predicate, Expression) else None)
        return {} if shards is None else {"shards": shards}

    def read(self, node: Operator) -> Table:
        """A leaf read, ``scan`` or ``index_seek``.

        A structured predicate absorbed by the pushdown pass evaluates
        engine-side, on full rows inside the page walk and before the
        projection; nothing unfiltered crosses the adapter boundary.  A seek
        converted from a predicated scan applies the residual conjuncts (and
        the cheap equality re-check) in the same pass over the rows the index
        found.
        """
        table = str(node.params["table"])
        columns = node.params.get("columns")
        columns = list(columns) if columns else None
        predicate = node.params.get("predicate")
        predicate = predicate if isinstance(predicate, Expression) else None
        if node.kind == "index_seek":
            return self.engine.index_lookup(table, str(node.params["column"]),
                                            node.params["value"], columns, predicate)
        return self.engine.scan(table, columns, predicate,
                                node.annotations.get(SCAN_AGGREGATE))
