"""Scatter-gather execution over a :class:`~repro.cluster.sharded.ShardedEngine`.

The executor delegates here when an operator is bound to a sharded engine.

* **relational leaf reads** (``scan``, ``index_seek``) are one engine call
  over the shards they need — all of them, or the owning subset when the
  read names the table's shard key — which reads those shards' heaps in
  shard order as one engine reads one heap (a fused aggregate folds them in
  one pass).  The result is one table, so every operator above it runs as
  on one engine, through the primary shard.
* **other leaf reads** (``kv_range``, ``ts_summarize``, ...) fan out to
  every shard's adapter and merge the shards' tables into one at the leaf:
  ``text_search`` re-ranks the hits, key-ordered reads merge in key order,
  the rest concatenate.  Reads that name their key (``ts_range`` /
  ``window_aggregate`` on one series, ``kv_get`` with explicit keys) are
  *routed* to the owning shard(s) instead of broadcast.

Every operator hands on one table: for anything above a leaf
:meth:`ScatterGather.execute` returns ``None`` and the executor runs it on
the primary shard.  Shard subtasks run one after another on the calling
thread, and each records its thread-CPU time.  A fan-out is charged its
*critical path* — the slowest shard plus the merge — which models the
shards as separate machines the way migration and offload charges model the
network and devices; a relational read is charged its own thread CPU, one
read on one machine.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from repro.cancellation import CancellationToken
from repro.cluster.partition import Partitioner
from repro.cluster.sharded import ShardedEngine, align_tables, concat_tables
from repro.compiler.passes.pushdown import predicate_key_values
from repro.stores.relational.expressions import Expression
from repro.datamodel.table import Row, Table
from repro.middleware.adapters import Adapter, RelationalAdapter, adapter_for
from repro.obs import Observability
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator
from repro.stores.base import DataModel, Engine
from repro.stores.relational.operators import column_reader


@dataclass
class ScatterExecution:
    """Outcome of one scatter-gather dispatch, consumed by the executor."""

    value: Any
    #: Charged time: a fan-out's slowest shard subtask plus the merge, a
    #: relational read's own thread CPU.
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
        """Scatter-gather ``node``, a leaf read, across the engine's shards.

        Returns ``None`` for every other operator — the executor then runs it
        on the designated primary shard, over the one table its input is.
        """
        if not engine.partitionable or node.inputs or not KINDS[node.kind].source:
            return None
        shards = engine.shards
        if not shards or not self._adapter(shards[0]).can_execute(node):
            # An unsupported kind must take the ordinary path, where
            # ``can_execute`` raises a clean error instead of a duck-typed
            # adapter misreading the node.
            return None
        return self._execute_leaf(engine, node)

    # -- leaf reads --------------------------------------------------------------------

    def _execute_leaf(self, engine: ShardedEngine, node: Operator) -> ScatterExecution:
        # The shard list and the partitioner that routes into it, read once.
        shards, partitioner = engine.topology()
        routed = self._route(engine, node, partitioner)
        indexes = list(range(len(shards))) if routed is None else sorted(routed)
        if engine.data_model is DataModel.RELATIONAL:
            return self._execute_read(engine, node, shards, indexes, routed is not None)
        results = self._fan_out(engine.name, node.kind, [
            ((index,), partial(self._adapter(shards[index]).execute,
                               node if routed is None else routed[index], []))
            for index in indexes])
        times = [cpu for _, cpu in results]
        details: dict[str, Any] = {
            "shards": len(indexes), "fan_out": "serial" if routed is None else "routed",
            "shard_times_s": times,
            "contacted_shards": [shards[index].name for index in indexes]}
        if routed is not None and len(indexes) == 1:
            details["shard"] = shards[indexes[0]].name
            return ScatterExecution(results[0][0], times[0], details)
        merge_start = time.thread_time()
        value, details["merge"] = _merge([part for part, _ in results], node)
        merge_s = time.thread_time() - merge_start
        return ScatterExecution(value, max(times) + merge_s, details)

    def _execute_read(self, engine: ShardedEngine, node: Operator, shards: list[Engine],
                      indexes: list[int], routed: bool) -> ScatterExecution:
        """A relational leaf: one engine call over the shards ``indexes``
        names (every shard, unless ``routed``), whose one value is the read
        one engine holding their rows would give.  Charged its thread CPU."""
        chosen = [shards[index] for index in indexes]
        adapter = self._adapters.get(id(engine))
        if adapter is None:
            adapter = self._adapters[id(engine)] = RelationalAdapter(engine)
        [(value, cpu)] = self._fan_out(engine.name, node.kind, [
            (tuple(indexes), partial(adapter.read, node, shards=chosen))])
        details: dict[str, Any] = {
            "shards": len(chosen), "fan_out": "routed" if routed else "fold",
            "shard_times_s": [cpu], "contacted_shards": [shard.name for shard in chosen]}
        if routed and len(chosen) == 1:
            details["shard"] = chosen[0].name
        return ScatterExecution(value, cpu, details)

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

    # -- dispatch helpers --------------------------------------------------------------

    def _fan_out(self, engine: str, kind: str,
                 tasks: list[tuple[tuple[int, ...], Callable[[], Any]]]
                 ) -> list[tuple[Any, float]]:
        """Run shard subtasks in order: ``(value, thread-CPU seconds)`` each.

        A task is ``(shard indexes, call)``: one shard's adapter call, or a
        relational read's over the shards it names (one span,
        ``shard:0+1+…``).  Thread CPU time models each shard as its own
        machine.  The token is checked before every subtask, so a cancel
        stops the fan-out at the next shard, and a read before any heap.
        """
        token = self._cancellation
        obs = self._obs
        results: list[tuple[Any, float]] = []
        for indexes, call in tasks:
            if token is not None:
                token.check()
            if not obs.enabled:
                start = time.thread_time()
                value = call()
                results.append((value, time.thread_time() - start))
                continue
            with obs.tracer.span("shard:" + "+".join(map(str, indexes)), "scatter",
                                 engine=engine, kind=kind, shards=len(indexes)) as span:
                start = time.thread_time()
                value = call()
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


def _merge(parts: list[Table], node: Operator) -> tuple[Table, str]:
    """One table from a leaf's per-shard tables, and how they were merged:
    ``text_search`` hits re-ranked, key-ordered reads merged in key order,
    every other read concatenated in shard order."""
    if node.kind == "text_search":
        return _rerank_search(parts, int(node.params.get("top_k", 10))), "rerank"
    order = _leaf_order_column(node)
    if order is not None:
        return _ordered_merge(parts, order), "ordered"
    return concat_tables(parts), "concat"


def _leaf_order_column(node: Operator) -> str | None:
    """The column a leaf read's per-shard tables are sorted on, if any.

    Key/value range reads come back in key order from every shard (the LSM
    range scan sorts), so they must merge rather than concatenate to match
    the unsharded engine's ordering.
    """
    if node.kind == "kv_range" or (node.kind == "kv_get"
                                   and not node.params.get("keys")):
        return str(node.params.get("key_column", "key"))
    return None


# -- order-preserving merges ----------------------------------------------------------


def _ordered_merge(parts: Sequence[Table], by: str) -> Table:
    """K-way merge of per-shard sorted runs (``None`` sorts first, as Sort does).

    Compares by the value's string form — key/value range reads are ordered
    by the *string* key even when the adapter coerced the column to
    integers, so the sharded merge must follow the same collation.
    """
    non_empty = [part for part in parts if len(part)]
    if not non_empty:
        return parts[0]
    schema, runs = align_tables(non_empty)
    read = column_reader(schema, by)

    def key(row: Row) -> tuple:
        value = read(row)
        return (False, "") if value is None else (True, str(value))

    return Table.wrap(schema, list(heapq.merge(*runs, key=key)))


def _rerank_search(parts: Sequence[Table], top_k: int) -> Table:
    """Global re-rank of per-shard search results by descending score.

    Scores are TF-IDF with *shard-local* document frequencies — the same
    query-then-fetch approximation production distributed search engines
    default to.  Rankings can deviate from a single-node index when term
    distribution is very skewed across shards; see DESIGN.md.
    """
    merged = concat_tables(parts)
    score = column_reader(merged.schema, "score")
    ranked = sorted(merged.rows, key=lambda row: float(score(row) or 0.0),
                    reverse=True)
    return Table.wrap(merged.schema, ranked[:top_k])
