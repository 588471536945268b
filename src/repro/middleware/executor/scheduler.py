"""The executor: schedules an optimized IR graph across engines and accelerators.

Responsibilities (paper §III, "Executor: manage and monitor execution across
platforms"):

* topological stage scheduling of the IR graph,
* dispatching each operator to its engine's adapter, on the calling thread:
  the operators are Python under the GIL, so a pool could only interleave
  them, and no measured run ever overlapped two (the charged model
  :attr:`~repro.middleware.executor.report.ExecutionReport.pipelined_time_s`
  prices stage overlap without threads),
* charging operators the placement pass bound to an accelerator by that
  device, for the work the engine was observed to do,
* invoking the data migrator for ``migrate`` operators,
* serving operators from a prepared program's pinned scan snapshot (the
  ``result_cache``) and recording replays in the report,
* collecting the per-operator cost records into an
  :class:`~repro.middleware.executor.report.ExecutionReport`.
"""

from __future__ import annotations

import time
from typing import Any, Protocol

import numpy as np

from repro.accelerators.kernels import WorkEstimate, kernel_mapping
from repro.cancellation import CancellationToken
from repro.catalog import Catalog
from repro.cluster.scatter import ScatterGather, ShardedValue, gather
from repro.cluster.sharded import ShardedEngine
from repro.datamodel.table import Table
from repro.exceptions import CatalogError, ExecutionError
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator
from repro.middleware.adapters import Adapter, adapter_for
from repro.middleware.executor.report import ExecutionReport, TaskRecord
from repro.middleware.feedback.stats import RuntimeStats
from repro.middleware.migration import DataMigrator
from repro.obs import Observability


class ResultCache(Protocol):
    """What the executor needs from a prepared program's scan snapshot."""

    def begin_run(self, catalog: Catalog) -> None:
        """Validate pinned entries against current engine data versions."""

    def lookup(self, op_id: str) -> tuple[Any, TaskRecord] | None:
        """The pinned ``(value, record)`` for ``op_id``, or ``None``."""

    def store(self, op_id: str, value: Any, record: TaskRecord) -> None:
        """Offer a freshly computed result for pinning (cache may decline)."""


class Executor:
    """Executes optimized IR graphs."""

    def __init__(self, catalog: Catalog, migrator: DataMigrator | None = None, *,
                 migration_strategy: str | None = None,
                 max_workers: int | None = None,
                 runtime_stats: RuntimeStats | None = None,
                 views: Any | None = None,
                 obs: Observability | None = None,
                 cancellation: CancellationToken | None = None) -> None:
        # ``max_workers`` is accepted and ignored: every operator runs on the
        # thread that calls :meth:`execute`.
        self.catalog = catalog
        #: Cooperative cancellation token checked between stages, at operator
        #: starts and before each shard subtask (``None`` = never stop).
        self.cancellation = cancellation
        #: Observability hub spans and operator metrics report into; the
        #: shared inert hub when the deployment runs with obs disabled.
        self.obs = obs if obs is not None else Observability.disabled()
        self.migrator = migrator if migrator is not None else DataMigrator()
        self.migration_strategy = migration_strategy
        #: The deployment's view registry; ``view_read`` operators are served
        #: from it (policy-triggered refresh charges fold into the record).
        self.views = views
        #: Feedback store observed operator costs are recorded into after
        #: every run (``None`` disables recording entirely).
        self.runtime_stats = runtime_stats
        self._adapters: dict[str, Adapter] = {}
        self._scatter = ScatterGather(obs=self.obs, cancellation=cancellation)
        #: Engine-name -> ShardedEngine (or None) resolution cache; checked
        #: for every node, so the catalog lookup must not repeat per node.
        self._sharded_engines: dict[str, ShardedEngine | None] = {}

    # -- public API ---------------------------------------------------------------------

    def execute(self, graph: IRGraph, *, mode: str = "polystore++",
                result_cache: ResultCache | None = None
                ) -> tuple[dict[str, Any], ExecutionReport]:
        """Run ``graph`` and return ``(outputs, report)``.

        ``outputs`` maps each output node's fragment name (falling back to its
        op id) to its produced value.  When ``result_cache`` is given, pinned
        operator results are replayed instead of re-executed and fresh
        eligible results are offered back to the cache.
        """
        report = ExecutionReport(program=graph.name, mode=mode)
        run_start = time.perf_counter()
        if result_cache is not None:
            result_cache.begin_run(self.catalog)
        results: dict[str, Any] = {}
        tracer = self.obs.tracer
        with tracer.span("execute", "executor", program=graph.name, mode=mode):
            for stage_index, stage in enumerate(graph.stages()):
                if self.cancellation is not None:
                    self.cancellation.check()
                with tracer.span(f"stage:{stage_index}", "executor",
                                 stage=stage_index, operators=len(stage)):
                    self._execute_stage(stage, stage_index, results, report,
                                        result_cache)
        outputs: dict[str, Any] = {}
        for output_id in graph.outputs:
            node = graph.node(output_id)
            name = node.annotations.get("fragment") or output_id
            outputs[name] = gather(results[output_id])
        report.elapsed_wall_s = time.perf_counter() - run_start
        if self.runtime_stats is not None:
            self._record_feedback(graph, report)
        if self.obs.enabled:
            # Batched per kind: one lock acquisition per distinct operator
            # kind instead of two per record (this loop runs per request).
            by_kind: dict[str, list[float]] = {}
            for record in report.records:
                by_kind.setdefault(record.kind, []).append(
                    record.charged_time_s)
            for kind, charged in by_kind.items():
                self.obs.operators_total.inc(len(charged), kind=kind)
                self.obs.operator_seconds.observe_many(charged, kind=kind)
        return outputs, report

    def _record_feedback(self, graph: IRGraph, report: ExecutionReport) -> None:
        """Feed this run's measured operator costs back into the stats store.

        Snapshot replays are skipped — they carry the charged time of the run
        that produced them, not a fresh measurement.  Observations key on the
        structural fingerprint annotated at compile time, so a later
        re-compile of the same program finds them.
        """
        for record in report.records:
            if record.cached or record.op_id not in graph:
                continue
            node = graph.node(record.op_id)
            fingerprint = node.annotations.get("fingerprint")
            if not isinstance(fingerprint, str):
                continue
            self.runtime_stats.record(
                fingerprint,
                kind=record.kind,
                target=record.accelerator or record.engine,
                time_s=record.charged_time_s,
                rows_out=record.rows_out,
                rows_in=record.rows_in,
            )

    # -- stage dispatch -----------------------------------------------------------------

    def _execute_stage(self, stage: list[Operator], stage_index: int,
                       results: dict[str, Any], report: ExecutionReport,
                       result_cache: ResultCache | None) -> None:
        for node in stage:
            pinned = result_cache.lookup(node.op_id) if result_cache is not None else None
            if pinned is not None:
                replay_start = time.perf_counter()
                value, record = pinned
                results[node.op_id] = value
                report.add(record.as_cached(
                    stage_index, time.perf_counter() - replay_start))
                continue
            value, record = self._execute_node(
                node, [results[input_id] for input_id in node.inputs], stage_index)
            results[node.op_id] = value
            report.add(record)
            if result_cache is not None:
                result_cache.store(node.op_id, value, record)

    # -- per-node execution --------------------------------------------------------------

    def _execute_node(self, node: Operator, inputs: list[Any],
                      stage: int) -> tuple[Any, TaskRecord]:
        tracer = self.obs.tracer
        if tracer.current() is None:  # untraced (or obs off): skip the scope
            return self._run_node(node, inputs, stage)
        with tracer.span(f"op:{node.op_id}", "operator", kind=node.kind,
                         engine=node.engine, stage=stage) as span:
            value, record = self._run_node(node, inputs, stage)
            span.set(rows_out=record.rows_out, rows_in=record.rows_in,
                     charged_time_s=record.charged_time_s,
                     offloaded=record.offloaded)
        return value, record

    def _run_node(self, node: Operator, inputs: list[Any],
                  stage: int) -> tuple[Any, TaskRecord]:
        if self.cancellation is not None:
            self.cancellation.check()
        start = time.perf_counter()
        rows_in = sum(self._rows_of(value) for value in inputs) if inputs else 0
        if node.kind == "view_read":
            return self._execute_view_read(node, stage, start)
        scattered = self._try_scatter_gather(node, inputs)
        if scattered is not None:
            value, record = scattered
            record.stage = stage
            record.rows_in = rows_in
            record.wall_time_s = time.perf_counter() - start
            return value, record
        # Partitions only flow between operators the scatter path handles;
        # every other consumer sees the gathered (merged) value.
        inputs = [gather(value) for value in inputs]
        charged: float | None = None  # None: the operator is charged its wall time
        details: dict[str, Any] = {}
        offloaded = False
        if node.kind == "migrate":
            # Accelerated or not is the migrator's strategy and serializer
            # device; a placement mark on a migrate is not read.
            value, charged, details = self._execute_migration(node, inputs)
        elif node.accelerator:
            value, charged, details = self._run_offloaded(node, inputs, rows_in)
            offloaded = True
        else:
            value = self._execute_on_engine(node, inputs)
        wall = time.perf_counter() - start
        record = TaskRecord(
            op_id=node.op_id,
            kind=node.kind,
            engine=node.engine,
            accelerator=node.accelerator if offloaded else None,
            stage=stage,
            wall_time_s=wall,
            simulated_time_s=wall if charged is None else charged,
            rows_out=self._rows_of(value),
            rows_in=rows_in,
            offloaded=offloaded,
            details=details,
        )
        return value, record

    def _try_scatter_gather(self, node: Operator, inputs: list[Any]
                            ) -> tuple[Any, TaskRecord] | None:
        """Scatter-gather dispatch when the node targets a sharded engine.

        Returns ``None`` when the node is not scatter-gatherable (the caller
        falls back to the ordinary single-adapter path, which for sharded
        engines means the designated primary shard).  The record's charged
        time is the scatter's critical path: the slowest shard subtask plus
        the merge, modeling shards as independent machines.
        """
        if node.engine is None or node.accelerator or node.kind == "migrate":
            return None
        engine = self._sharded_engine(node.engine)
        if engine is None:
            return None
        execution = self._scatter.execute(engine, node, inputs)
        if execution is None:
            return None
        record = TaskRecord(
            op_id=node.op_id,
            kind=node.kind,
            engine=node.engine,
            accelerator=None,
            stage=0,
            wall_time_s=0.0,
            simulated_time_s=execution.critical_path_s,
            rows_out=self._rows_of(execution.value),
            details=execution.details,
        )
        return execution.value, record

    def _sharded_engine(self, name: str) -> ShardedEngine | None:
        if name not in self._sharded_engines:
            try:
                engine = self.catalog.engine(name)
            except CatalogError:
                engine = None
            self._sharded_engines[name] = (engine if isinstance(engine, ShardedEngine)
                                           else None)
        return self._sharded_engines[name]

    def _execute_view_read(self, node: Operator, stage: int,
                           start: float) -> tuple[Any, TaskRecord]:
        """Serve a materialized-view read from the registry.

        The charged time is the wall cost of the read plus the charged time
        of any maintenance refresh the read triggered under the view's
        policy — a stale deferred view pays its (delta-sized) refresh here,
        where a plain program would have paid a full recompute.
        """
        if self.views is None:
            raise ExecutionError(
                f"operator {node.op_id} reads view {node.params.get('view')!r} "
                f"but the executor has no view registry"
            )
        value, refresh_charged, refresh_wall, details = self.views.serve(
            str(node.params["view"]))
        wall = time.perf_counter() - start
        # Substitute the refresh's *charged* cost for its measured wall
        # share — adding it on top would double-count the refresh, since the
        # wall around serve() already contains its execution.
        charged = max(0.0, wall - refresh_wall) + refresh_charged
        record = TaskRecord(
            op_id=node.op_id,
            kind=node.kind,
            engine=None,
            accelerator=None,
            stage=stage,
            wall_time_s=wall,
            simulated_time_s=charged,
            rows_out=self._rows_of(value),
            details={**details, "refresh_charged_s": refresh_charged},
        )
        return value, record

    def _execute_on_engine(self, node: Operator, inputs: list[Any]) -> Any:
        if node.engine is None:
            if node.kind == "python_udf":
                # Engine-less UDFs run in the middleware itself.
                return node.params["fn"](*inputs)
            raise ExecutionError(f"operator {node.op_id} has no engine binding")
        adapter = self._adapter(node.engine)
        if not adapter.can_execute(node):
            raise ExecutionError(
                f"adapter for engine {node.engine!r} cannot execute {node.kind!r} "
                f"({node.op_id})"
            )
        return adapter.execute(node, inputs)

    def _execute_migration(self, node: Operator,
                           inputs: list[Any]) -> tuple[Any, float, dict[str, Any]]:
        if len(inputs) != 1:
            raise ExecutionError(f"migrate {node.op_id} expects exactly one input")
        payload = inputs[0]
        if not isinstance(payload, Table):
            # Non-tabular values (model handles, dictionaries) move by reference;
            # the middleware only charges real migration for tabular payloads.
            return payload, 0.0, {"skipped": True}
        strategy = node.params.get("strategy") or self.migration_strategy
        received, migration = self.migrator.migrate(
            payload,
            source=str(node.params.get("source_engine", "")),
            target=str(node.params.get("target_engine", "")),
            strategy=strategy,
        )
        details = {
            "strategy": migration.strategy,
            "payload_bytes": migration.payload_bytes,
            "transformation_s": migration.transformation_s,
        }
        return received, migration.total_s, details

    def _run_offloaded(self, node: Operator, inputs: list[Any],
                       rows_in: int) -> tuple[Any, float, dict[str, Any]]:
        """Run ``node`` on its engine; charge its device for the observed work.

        The kernel and its spec come from the table the planner placed the
        node with, so a device without a kernel for the kind is an error, not
        a free operator.
        """
        device = self.catalog.accelerator(node.accelerator)
        row = KINDS[node.kind]
        # Resolved before the engine runs: a ``train`` changes its engine.
        mapping = kernel_mapping(device, row.kernel)
        ops = getattr(self.catalog.engine(node.engine), "ops", None)
        # The ML engine's counter is cumulative: the node is charged what it adds.
        before = None if ops is None else (ops.counter.flops, ops.counter.bytes_moved)
        value = self._execute_on_engine(node, inputs)
        spec = mapping.spec(self._observed_work(node, inputs, value, rows_in, before))
        return value, device.charge(spec).total_s, \
            {"kernel": spec.name, "flops": spec.flops}

    def _observed_work(self, node: Operator, inputs: list[Any], value: Any,
                       rows_in: int, before: tuple[int, int] | None) -> WorkEstimate:
        """What the engine was just seen doing for ``node``, as a device prices
        it; ``before`` is the engine's ``(flops, bytes_moved)`` count ahead of
        the node, if it counts them."""
        if not KINDS[node.kind].matrix:
            tables = [v for v in inputs if isinstance(v, Table)]
            return WorkEstimate(
                rows=max(rows_in, self._rows_of(value)),
                bytes_in=sum(t.estimated_bytes() for t in tables) if tables else None,
                bytes_out=value.estimated_bytes() if isinstance(value, Table) else None)
        if before is not None:
            counter = self.catalog.engine(node.engine).ops.counter
            return WorkEstimate(bytes_in=counter.bytes_moved - before[1],
                                flops=counter.flops - before[0])
        (m, k), right = np.shape(inputs[0]), np.shape(inputs[1])
        return WorkEstimate(matrix_dims=(m, k, right[1] if len(right) > 1 else 1))

    # -- helpers --------------------------------------------------------------------------------

    def _adapter(self, engine_name: str) -> Adapter:
        if engine_name not in self._adapters:
            self._adapters[engine_name] = adapter_for(self.catalog.engine(engine_name))
        return self._adapters[engine_name]

    @staticmethod
    def _rows_of(value: Any) -> int:
        if isinstance(value, (Table, list, ShardedValue)):
            return len(value)
        # Z-set deltas report their total multiplicity as the row count.
        total = getattr(value, "total_weight", None)
        if isinstance(total, int):
            return total
        return 1
