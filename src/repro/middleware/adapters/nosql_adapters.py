"""Adapters for the key/value, timeseries, graph and text engines.

Each adapter converts its engine's native results into
:class:`~repro.datamodel.table.Table` objects so that downstream relational
operators (joins, filters, feature assembly) can consume them uniformly —
this is the "transform to the data model of the receiving application" step
a polystore automates.
"""

from __future__ import annotations

from typing import Any

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Table
from repro.exceptions import AdapterError
from repro.ir.nodes import Operator
from repro.middleware.adapters.base import Adapter
from repro.stores.graph.engine import GraphEngine
from repro.stores.keyvalue.engine import KeyValueEngine
from repro.stores.text.engine import TextEngine
from repro.stores.timeseries.engine import SUMMARY_FIELDS, TimeseriesEngine


def _key_value_to_cell(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _coerce_key(key: str) -> Any:
    """Keys embedded in series/doc names are often numeric ids; keep joins typed."""
    try:
        return int(key)
    except ValueError:
        return key


class KeyValueAdapter(Adapter):
    """Executes ``kv_get`` and ``kv_range`` operators on the key/value engine."""

    def __init__(self, engine: KeyValueEngine) -> None:
        super().__init__(engine)
        self.engine: KeyValueEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({"kv_get", "kv_range", "filter", "project"})

    def execute(self, node: Operator, inputs: list[Any]) -> Table:
        if node.kind in ("filter", "project"):
            return self._table_operator(node, inputs)
        if node.kind == "kv_get":
            keys = node.params.get("keys")
            prefix = node.params.get("key_prefix")
            if keys:
                pairs = [(k, self.engine.get(k)) for k in keys if self.engine.contains(k)]
            elif prefix is not None:
                end = prefix[:-1] + chr(ord(prefix[-1]) + 1) if prefix else None
                pairs = list(self.engine.range(prefix, end))
            else:
                raise AdapterError(f"kv_get {node.op_id} needs keys or key_prefix")
        else:
            pairs = list(self.engine.range(node.params.get("start"), node.params.get("end")))
        table = self._pairs_to_table(pairs, node.params.get("key_prefix"),
                                     node.params.get("key_column", "key"))
        return self._apply_predicate(table, node)

    @staticmethod
    def _pairs_to_table(pairs: list[tuple[str, Any]], prefix: str | None,
                        key_column: str) -> Table:
        rows = []
        for key, value in pairs:
            short_key = key[len(prefix):] if prefix and key.startswith(prefix) else key
            record: dict[str, Any] = {key_column: _coerce_key(short_key)}
            if isinstance(value, dict):
                record.update({k: _key_value_to_cell(v) for k, v in value.items()})
            else:
                record["value"] = _key_value_to_cell(value)
            rows.append(record)
        if not rows:
            return Table(Schema([Column(key_column, DataType.STRING)]), [])
        return Table.from_dicts(rows)


class TimeseriesAdapter(Adapter):
    """Executes timeseries operators: range scans, windows and summaries."""

    def __init__(self, engine: TimeseriesEngine) -> None:
        super().__init__(engine)
        self.engine: TimeseriesEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({"ts_range", "window_aggregate", "ts_summarize",
                          "filter", "project"})

    def execute(self, node: Operator, inputs: list[Any]) -> Table:
        if node.kind in ("filter", "project"):
            return self._table_operator(node, inputs)
        if node.kind == "ts_range":
            columns = self.engine.range_columns(str(node.params["series"]),
                                                node.params.get("start"),
                                                node.params.get("end"))
            return Table.wrap(Schema([Column("timestamp", DataType.FLOAT),
                                      Column("value", DataType.FLOAT)]),
                              list(zip(*columns)))
        if node.kind == "window_aggregate":
            results = self.engine.window_aggregate(
                str(node.params["series"]),
                float(node.params["window_s"]),
                str(node.params.get("aggregation", "mean")),
                node.params.get("start"),
                node.params.get("end"),
            )
            return Table(Schema([Column("window_start", DataType.FLOAT),
                                 Column("value", DataType.FLOAT),
                                 Column("count", DataType.INT)]),
                         [(r.window_start, r.value, r.count) for r in results])
        return self._summarize(node)

    def _summarize(self, node: Operator) -> Table:
        prefix = str(node.params["series_prefix"])
        key_column = str(node.params.get("key_column", "pid"))
        start = node.params.get("start")
        end = node.params.get("end")
        series_keys = node.params.get("series_keys")
        if series_keys is not None:
            # The pushdown pass pinned the summary to explicit series: read
            # only those instead of listing every series under the prefix.
            candidates = [key for key in series_keys if self.engine.has_series(key)]
        else:
            candidates = self.engine.list_series()
        keys = [key for key in candidates if key.startswith(prefix)]
        # Series suffixes are usually numeric ids; keep joins typed.  One
        # declared schema whether or not any series matched.
        entities: list[Any] = [key[len(prefix):] for key in keys]
        dtype = DataType.STRING
        try:
            entities, dtype = [int(entity) for entity in entities], DataType.INT
        except ValueError:
            pass
        schema = Schema([Column(key_column, dtype),
                         *(Column(f"vital_{name}", DataType.FLOAT)
                           for name in SUMMARY_FIELDS)])
        summaries = self.engine.summarize_many(keys, start, end)
        rows = [(entity, *summary) for entity, summary in zip(entities, summaries)]
        return self._apply_predicate(Table.wrap(schema, rows), node)


class GraphAdapter(Adapter):
    """Executes graph operators: node scans, paths and neighbourhood features."""

    def __init__(self, engine: GraphEngine) -> None:
        super().__init__(engine)
        self.engine: GraphEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({"graph_nodes", "shortest_path", "neighborhood",
                          "graph_match", "filter", "project"})

    def execute(self, node: Operator, inputs: list[Any]) -> Any:
        kind = node.kind
        if kind in ("filter", "project"):
            return self._table_operator(node, inputs)
        if kind == "graph_nodes":
            label = str(node.params.get("label", ""))
            rows = self.engine.node_properties(label)
            return Table.from_dicts(rows) if rows else Table(
                Schema([Column("node_id", DataType.STRING)]), [])
        if kind == "shortest_path":
            path, cost = self.engine.shortest_path(
                str(node.params["start"]), str(node.params["end"]),
                weighted=bool(node.params.get("weighted", False)),
                edge_label=node.params.get("edge_label"),
            )
            return {"path": path, "cost": cost, "hops": len(path) - 1}
        if kind == "neighborhood":
            value = self.engine.neighborhood_aggregate(
                str(node.params["node_id"]), str(node.params["property_name"]),
                edge_label=node.params.get("edge_label"),
                aggregation=str(node.params.get("aggregation", "mean")),
            )
            return {"node_id": node.params["node_id"], "value": value}
        matches = self.engine.match(str(node.params["start_label"]),
                                    list(node.params.get("steps", [])))
        return Table(
            Schema([Column("start", DataType.STRING), Column("end", DataType.STRING),
                    Column("length", DataType.INT)]),
            [(m.nodes[0].node_id, m.nodes[-1].node_id, len(m.edges)) for m in matches])


class TextAdapter(Adapter):
    """Executes text operators: ranked search and keyword feature extraction."""

    def __init__(self, engine: TextEngine) -> None:
        super().__init__(engine)
        self.engine: TextEngine = engine

    def supported_kinds(self) -> frozenset[str]:
        return frozenset({"text_search", "keyword_features", "filter", "project"})

    def execute(self, node: Operator, inputs: list[Any]) -> Table:
        if node.kind in ("filter", "project"):
            return self._table_operator(node, inputs)
        if node.kind == "text_search":
            results = self.engine.search(str(node.params["query"]),
                                         top_k=int(node.params.get("top_k", 10)))
            return Table(Schema([Column("doc_id", DataType.STRING),
                                 Column("score", DataType.FLOAT)]), results)
        return self._keyword_features(node)

    def _keyword_features(self, node: Operator) -> Table:
        keywords = list(dict.fromkeys(str(k) for k in node.params.get("keywords", [])))
        if not keywords:
            raise AdapterError(f"keyword_features {node.op_id} needs at least one keyword")
        prefix = node.params.get("doc_prefix")
        doc_ids, counts = self.engine.keyword_counts(  # ``doc_ids``: pushed down
            keywords, doc_prefix=prefix, doc_ids=node.params.get("doc_ids"))
        ids = [_coerce_key(doc_id[len(prefix):] if prefix else doc_id) for doc_id in doc_ids]
        # Typed by the first id, as ``Schema.infer`` types a column.
        id_type = DataType.INT if ids and isinstance(ids[0], int) else DataType.STRING
        schema = Schema([Column(str(node.params.get("id_column", "doc_id")), id_type),
                         *(Column(f"kw_{k}", DataType.FLOAT) for k in keywords)])
        return self._apply_predicate(Table.wrap(schema, list(zip(ids, *counts))), node)
