"""Scatter-gather execution over a :class:`~repro.cluster.sharded.ShardedEngine`.

The executor delegates here when an operator is bound to a sharded engine.
Three operator classes are handled:

* **leaf reads** (``scan``, ``kv_range``, ``ts_summarize``, ...) fan out to
  every shard's adapter and produce a :class:`ShardedValue` — the per-shard
  partitions stay separate so downstream shard-local operators keep working
  partition-wise.  Reads that name their key (``index_seek`` on the declared
  shard key, ``ts_range``/``window_aggregate`` on one series, ``kv_get`` with
  explicit keys) are *routed* to the owning shard(s) instead of broadcast.
* **partition-wise operators** (``filter``, ``project``) apply to each
  partition independently and stay sharded.
* **merging operators** reassemble one value: ``aggregate`` folds per-shard
  *partial* aggregates in the generated aggregate loop (``avg`` decomposes
  into ``sum``/``count``) — computed by each shard's scan when the compiler
  fused the two, by an aggregate per partition otherwise — ``sort`` merges
  per-shard sorted runs in order, ``limit``/``top_k``/``text_search``
  re-apply their cut after concatenation.

Everything else returns ``None`` and the executor falls back to the primary
shard.  Shard subtasks run one after another on the calling thread, and each
records its thread-CPU time; the scatter's charged (simulated) time is the
*critical path* — the slowest shard plus the merge — which models the shards
as separate machines the way migration and offload charges model the network
and devices.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cancellation import CancellationToken
from repro.cluster.partition import Partitioner
from repro.cluster.sharded import ShardedEngine, align_tables, concat_tables
from repro.compiler.passes.pushdown import predicate_key_values
from repro.stores.relational.expressions import Expression
from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Row, Table
from repro.middleware.adapters import Adapter, adapter_for
from repro.obs import Observability
from repro.ir.kinds import KINDS
from repro.ir.nodes import COMBINE_PARTIALS, Operator
from repro.stores.base import Engine
from repro.stores.relational.operators import (
    TableScan,
    TopK,
    column_reader,
    combine_partial_aggregates,
    decompose_aggregates,
)

@dataclass(frozen=True)
class ShardedValue:
    """Per-shard partitions of one operator's output, merged lazily.

    ``shard_indexes[i]`` is the shard that produced ``parts[i]`` — routed
    reads may cover a subset of the shards.  ``ordered_by`` names a column
    each partition is sorted on (key/value range reads are key-ordered per
    shard); the gather then k-way-merges instead of concatenating, so
    sharded results keep the same global ordering the unsharded engine
    guarantees.  Consumers that cannot work partition-wise call
    :meth:`gather`.
    """

    engine: str
    parts: tuple[Any, ...]
    shard_indexes: tuple[int, ...]
    ordered_by: str | None = None

    def gather(self) -> Any:
        """Merge the partitions into one value (order-preserving for tables)."""
        tables = [part for part in self.parts if isinstance(part, Table)]
        if len(tables) == len(self.parts) and tables:
            if self.ordered_by is not None:
                return _ordered_merge(tables, self.ordered_by, False,
                                      stringify=True)
            return concat_tables(tables)
        if len(self.parts) == 1:
            return self.parts[0]
        merged: list[Any] = []
        for part in self.parts:
            merged.extend(part if isinstance(part, list) else [part])
        return merged

    def copy_parts(self, copier: Callable[[Any], Any]) -> "ShardedValue":
        """A new value with each partition passed through ``copier``."""
        return ShardedValue(self.engine, tuple(copier(p) for p in self.parts),
                            self.shard_indexes, self.ordered_by)

    def __len__(self) -> int:
        return sum(len(part) if hasattr(part, "__len__") else 1
                   for part in self.parts)


def gather(value: Any) -> Any:
    """Coerce ``value`` to a plain (merged) value if it is sharded."""
    return value.gather() if isinstance(value, ShardedValue) else value


@dataclass
class ScatterExecution:
    """Outcome of one scatter-gather dispatch, consumed by the executor."""

    value: Any
    #: Modeled cluster time: slowest shard subtask plus the merge.
    critical_path_s: float
    details: dict[str, Any] = field(default_factory=dict)


class ScatterGather:
    """Plans and runs scatter-gather dispatch for one executor instance.

    Every shard subtask runs on the calling thread, one after another.
    """

    def __init__(self, *, obs: Observability | None = None,
                 cancellation: CancellationToken | None = None) -> None:
        self._adapters: dict[int, Adapter] = {}
        #: Cooperative cancellation token for the run this instance serves;
        #: checked before each shard subtask, so a cancelled fan-out stops
        #: at the next shard.
        self._cancellation = cancellation
        #: Observability hub: one span + one counter/histogram sample per
        #: shard subtask (inert shared hub when obs is off).
        self._obs = obs if obs is not None else Observability.disabled()

    # -- public entry point ------------------------------------------------------------

    def execute(self, engine: ShardedEngine, node: Operator,
                inputs: list[Any]) -> ScatterExecution | None:
        """Scatter-gather ``node`` across the engine's shards.

        Returns ``None`` when the operator is not partitionable here — the
        executor then falls back to the designated primary shard.
        """
        if not engine.partitionable:
            return None
        shards = engine.shards
        if not shards or not self._adapter(shards[0]).can_execute(node):
            # An unsupported kind must take the ordinary path, where
            # ``can_execute`` raises a clean error instead of a duck-typed
            # adapter misreading the node.
            return None
        role = KINDS[node.kind].scatter
        if role == "leaf" and not node.inputs:
            return self._execute_leaf(engine, node)
        if len(inputs) == 1 and isinstance(inputs[0], ShardedValue):
            if role == "partwise":
                return self._execute_partwise(engine, node, inputs[0])
            if role == "merge":
                return self._execute_merge(engine, node, inputs[0])
        return None

    # -- leaf reads --------------------------------------------------------------------

    def _execute_leaf(self, engine: ShardedEngine,
                      node: Operator) -> ScatterExecution | None:
        # The shard list and the partitioner that routes into it, read once.
        shards, partitioner = engine.topology()
        routed = self._route(engine, node, partitioner)
        if routed is not None:
            return self._execute_routed(engine, node, shards, routed)
        results = self._fan_out(engine.name, node.kind,
                                [(self._adapter(shard), node, []) for shard in shards])
        parts = tuple(value for value, _ in results)
        times = [cpu for _, cpu in results]
        details = {"shards": len(shards), "fan_out": "serial",
                   "shard_times_s": times,
                   "contacted_shards": [shard.name for shard in shards]}
        if node.kind == "text_search":
            merge_start = time.thread_time()
            merged = _rerank_search(parts, int(node.params.get("top_k", 10)))
            merge_s = time.thread_time() - merge_start
            details["merge"] = "rerank"
            return ScatterExecution(merged, max(times, default=0.0) + merge_s, details)
        details["merge"] = "deferred"
        value = ShardedValue(engine.name, parts, tuple(range(len(shards))),
                             _leaf_order_column(node))
        return ScatterExecution(value, max(times, default=0.0), details)

    def _route(self, engine: ShardedEngine, node: Operator,
               partitioner: "Partitioner") -> dict[int, Operator] | None:
        """Shard-subset routing for key-addressed reads, or ``None``.

        Returns a map of shard index -> the node to run there.  Reads that
        name their keys explicitly (``kv_get`` keys, absorbed ``series_keys``
        / ``doc_ids`` hints) split the key list per owning shard; a scan
        whose absorbed predicate pins the table's declared shard key routes
        to the owning shard subset unchanged — every other read stays a full
        fan-out.
        """
        if node.kind == "index_seek":
            table = str(node.params.get("table", ""))
            if engine.shard_key_for(table) == node.params.get("column"):
                return {partitioner.shard_for(node.params.get("value")): node}
        if node.kind in ("ts_range", "window_aggregate"):
            series = node.params.get("series")
            if series is not None:
                return {partitioner.shard_for(str(series)): node}
        if node.kind == "kv_get" and node.params.get("keys"):
            return self._split_keys(node, partitioner, "keys")
        if node.kind == "ts_summarize" and node.params.get("series_keys"):
            return self._split_keys(node, partitioner, "series_keys")
        if node.kind == "keyword_features" and node.params.get("doc_ids"):
            return self._split_keys(node, partitioner, "doc_ids")
        if node.kind in ("scan", "index_seek"):
            # index_seek nodes converted from predicated scans retain the full
            # predicate, so a shard-key conjunct still prunes the fan-out even
            # when the seek column is a different (indexed) column.
            predicate = node.params.get("predicate")
            table = str(node.params.get("table", ""))
            shard_key = engine.shard_key_for(table)
            if shard_key is not None and isinstance(predicate, Expression):
                values = predicate_key_values(predicate, shard_key)
                if values is not None:
                    owners = sorted({partitioner.shard_for(v) for v in values})
                    # Contradictory conjuncts select nothing; one shard still
                    # answers so the result keeps the right (empty) shape.
                    owners = owners or [0]
                    return {index: node for index in owners}
        return None

    @staticmethod
    def _split_keys(node: Operator, partitioner: "Partitioner",
                    param: str) -> dict[int, Operator]:
        grouped = partitioner.shards_for(list(node.params[param]))
        plan: dict[int, Operator] = {}
        for shard_index in sorted(grouped):
            subset = node.copy()
            subset.params = dict(node.params, **{param: list(grouped[shard_index])})
            plan[shard_index] = subset
        return plan

    def _execute_routed(self, engine: ShardedEngine, node: Operator,
                        shards: list[Engine],
                        routed: dict[int, Operator]) -> ScatterExecution:
        indexes = sorted(routed)
        results = self._fan_out(engine.name, node.kind, [
            (self._adapter(shards[index]), routed[index], []) for index in indexes])
        parts = tuple(value for value, _ in results)
        times = [cpu for _, cpu in results]
        details: dict[str, Any] = {
            "shards": len(indexes), "fan_out": "routed",
            "shard_times_s": times,
            "contacted_shards": [shards[index].name for index in indexes],
        }
        if len(indexes) == 1:
            details["shard"] = shards[indexes[0]].name
            return ScatterExecution(parts[0], max(times, default=0.0), details)
        details["merge"] = "deferred"
        value = ShardedValue(engine.name, parts, tuple(indexes),
                             _leaf_order_column(node))
        return ScatterExecution(value, max(times, default=0.0), details)

    # -- partition-wise operators ------------------------------------------------------

    def _execute_partwise(self, engine: ShardedEngine, node: Operator,
                          sharded: ShardedValue) -> ScatterExecution:
        results = self._per_partition(engine, node, sharded)
        times = [cpu for _, cpu in results]
        # ordered_by is not propagated: partition-wise operators only ever
        # follow relational leaves today, whose partitions are unordered.
        value = ShardedValue(engine.name, tuple(v for v, _ in results),
                             sharded.shard_indexes)
        return ScatterExecution(value, max(times, default=0.0), {
            "shards": len(results), "fan_out": "serial", "merge": "deferred",
            "shard_times_s": times,
        })

    # -- merging operators -------------------------------------------------------------

    def _execute_merge(self, engine: ShardedEngine, node: Operator,
                       sharded: ShardedValue) -> ScatterExecution:
        if node.kind == "aggregate":
            return self._execute_partial_aggregate(engine, node, sharded)
        results = self._per_partition(engine, node, sharded)
        parts = [value for value, _ in results]
        times = [cpu for _, cpu in results]
        merge_start = time.thread_time()
        if node.kind == "sort":
            merged = _ordered_merge(parts, str(node.params["by"]),
                                    bool(node.params.get("descending", False)))
            merge_name = "ordered"
        elif node.kind == "limit":
            merged = concat_tables(parts).limit(int(node.params["n"]))
            merge_name = "concat+limit"
        else:  # top_k
            merged = _global_top_k(parts, str(node.params["by"]),
                                   int(node.params["k"]),
                                   bool(node.params.get("descending", True)))
            merge_name = "top_k"
        merge_s = time.thread_time() - merge_start
        return ScatterExecution(merged, max(times, default=0.0) + merge_s, {
            "shards": len(results), "fan_out": "serial", "merge": merge_name,
            "shard_times_s": times,
        })

    def _execute_partial_aggregate(self, engine: ShardedEngine, node: Operator,
                                   sharded: ShardedValue) -> ScatterExecution:
        group_by = list(node.params.get("group_by") or [])
        combines = node.annotations.get(COMBINE_PARTIALS)
        if combines is not None:
            # Each shard's scan already folded its rows into partials.
            parts, times = list(sharded.parts), []
        else:
            partial_specs, combines = decompose_aggregates(
                list(node.params.get("aggregates") or []))
            partial_node = node.copy()
            partial_node.params = dict(node.params, group_by=group_by,
                                       aggregates=partial_specs)
            results = self._per_partition(engine, partial_node, sharded)
            parts = [value for value, _ in results]
            times = [cpu for _, cpu in results]
        merge_start = time.thread_time()
        merged = combine_partial_aggregates(parts, group_by, combines)
        merge_s = time.thread_time() - merge_start
        return ScatterExecution(merged, max(times, default=0.0) + merge_s, {
            "shards": len(parts), "fan_out": "serial",
            "merge": "aggregate_combine", "shard_times_s": times,
        })

    # -- dispatch helpers --------------------------------------------------------------

    def _per_partition(self, engine: ShardedEngine, node: Operator,
                       sharded: ShardedValue) -> list[tuple[Any, float]]:
        """Run ``node`` over each partition on the shard that produced it."""
        shards = engine.shards
        return self._fan_out(engine.name, node.kind, [
            (self._adapter(shards[index]), node, [part])
            for part, index in zip(sharded.parts, sharded.shard_indexes)])

    def _fan_out(self, engine: str, kind: str,
                 tasks: list[tuple[Adapter, Operator, list[Any]]]
                 ) -> list[tuple[Any, float]]:
        """Run shard subtasks in order: ``(value, thread-CPU seconds)`` each.

        Thread CPU time models each shard as its own machine.  The token is
        checked before every subtask, so a cancel stops the fan-out at the
        next shard.
        """
        token = self._cancellation
        obs = self._obs
        results: list[tuple[Any, float]] = []
        for index, (adapter, node, inputs) in enumerate(tasks):
            if token is not None:
                token.check()
            if not obs.enabled:
                start = time.thread_time()
                value = adapter.execute(node, inputs)
                results.append((value, time.thread_time() - start))
                continue
            with obs.tracer.span(f"shard:{index}", "scatter", engine=engine,
                                 kind=kind, shard=index) as span:
                start = time.thread_time()
                value = adapter.execute(node, inputs)
                cpu = time.thread_time() - start
                if span is not None:
                    span.set(cpu_s=cpu)
            obs.scatter_subtasks_total.inc(engine=engine)
            obs.scatter_subtask_seconds.observe(cpu, engine=engine)
            results.append((value, cpu))
        return results

    def _adapter(self, shard: Engine) -> Adapter:
        adapter = self._adapters.get(id(shard))
        if adapter is None:
            adapter = self._adapters[id(shard)] = adapter_for(shard)
        return adapter


def _leaf_order_column(node: Operator) -> str | None:
    """The column a leaf read's per-shard partitions are sorted on, if any.

    Key/value range reads come back in key order from every shard (the LSM
    range scan sorts), so their gather must merge rather than concatenate to
    match the unsharded engine's ordering.
    """
    if node.kind == "kv_range" or (node.kind == "kv_get"
                                   and not node.params.get("keys")):
        return str(node.params.get("key_column", "key"))
    return None


# -- order-preserving merges ----------------------------------------------------------


def _ordered_merge(parts: Sequence[Table], by: str, descending: bool, *,
                   stringify: bool = False) -> Table:
    """K-way merge of per-shard sorted runs (``None`` sorts first, as Sort does).

    ``stringify`` compares by the value's string form — key/value range reads
    are ordered by the *string* key even when the adapter coerced the column
    to integers, so the sharded merge must follow the same collation.
    """
    non_empty = [part for part in parts if len(part)]
    if not non_empty:
        return parts[0] if parts else Table(Schema([Column(by, DataType.FLOAT)]), [])
    schema, runs = align_tables(non_empty)
    read = column_reader(schema, by)

    def key(row: Row) -> tuple:
        value = read(row)
        if stringify and value is not None:
            return (True, str(value))
        return (value is not None, value)

    return Table.wrap(schema, list(heapq.merge(*runs, key=key, reverse=descending)))


def _global_top_k(parts: Sequence[Table], by: str, k: int, descending: bool) -> Table:
    """Heap-select the global top ``k`` from per-shard top-``k`` results.

    Matches the single-node ``TopK`` operator's semantics: rows whose
    ``by`` value is ``None`` never qualify (single-node drops them before
    the heap; the old concat-and-full-sort here let them pad ascending
    results), and the selected key sequence is identical.  Ties are
    *deterministic* — ``heapq.nlargest``/``nsmallest`` are stable and the
    candidates stream in shard-index order (per-shard insertion order
    within each shard) — but when equal keys straddle the k boundary
    *across* shards the surviving rows may differ from single-node, whose
    stable order is the global insertion order partitioning destroyed.
    Unique sort keys reproduce single-node output exactly; see DESIGN.md.
    """
    if not parts:
        return Table(Schema([Column(by, DataType.FLOAT)]), [])
    # The single-node operator over the shard-ordered concatenation is
    # exactly that selection.
    return TopK(TableScan(concat_tables(parts)), by, max(k, 0),
                descending=descending).to_table()


def _rerank_search(parts: Sequence[Table], top_k: int) -> Table:
    """Global re-rank of per-shard search results by descending score.

    Scores are TF-IDF with *shard-local* document frequencies — the same
    query-then-fetch approximation production distributed search engines
    default to.  Rankings can deviate from a single-node index when term
    distribution is very skewed across shards; see DESIGN.md.
    """
    if not parts:
        return Table(Schema([Column("doc_id", DataType.STRING),
                             Column("score", DataType.FLOAT)]), [])
    merged = concat_tables(parts)
    score = column_reader(merged.schema, "score")
    ranked = sorted(merged.rows, key=lambda row: float(score(row) or 0.0),
                    reverse=True)
    return Table.wrap(merged.schema, ranked[:top_k])
