"""The session layer: prepare once, run many, submit concurrently.

A :class:`Session` is the client-facing handle onto one Polystore++
deployment.  It separates *plan construction* from *execution* the way
relation-tree libraries separate building an expression from handing it to
an engine:

* :meth:`Session.prepare` compiles a :class:`DataflowProgram` once and
  caches the plan in the session's LRU :class:`~repro.client.cache.PlanCache`
  (keyed by program fingerprint + mode + compiler options + deployment
  generation).
* :meth:`PreparedProgram.run` re-executes the compiled plan with low
  latency: compilation is skipped, a frozen program's identity is the
  fingerprint stored when it was frozen, runtime parameters (:class:`Param`
  placeholders) are bound on copies of only the operators that hold one
  (every other operator is shared with the cached plan), and pure scan
  subtrees are served from a pinned
  :class:`~repro.client.cache.ScanSnapshot` validated against engine data
  versions.
* :meth:`Session.submit` / :meth:`Session.run_batch` dispatch executions on
  a thread pool, returning futures; each run executes wholly on the pool
  thread that picked it up.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Iterable

from repro.cancellation import CancellationToken
from repro.compiler.pipeline import CompilerOptions
from repro.eide.dataflow import DataflowProgram
from repro.eide.expressions import bind_params, find_params
from repro.eide.program import Param
from repro.exceptions import ConfigurationError, ExecutionError
from repro.ir.graph import IRGraph
from repro.stores.relational.expressions import Expression
from repro.middleware.executor import Executor
from repro.middleware.migration import DataMigrator
from repro.client.cache import CachedPlan, PlanCache, ScanSnapshot

if TYPE_CHECKING:  # avoid a circular import; the system creates sessions
    from repro.core.system import ExecutionResult, ModePlan, PolystorePlusPlus


def _resolve_token(deadline_s: float | None,
                   cancellation: CancellationToken | None
                   ) -> CancellationToken | None:
    """Combine the two cancellation inputs into one token (or ``None``).

    A caller-supplied token is reused (so a server-side cancel reaches the
    run); a plain deadline gets a private token.  When both are given the
    deadline tightens the shared token — it can only become more urgent.
    """
    if deadline_s is None:
        return cancellation
    if cancellation is None:
        return CancellationToken(deadline_s=deadline_s)
    return cancellation.add_deadline(deadline_s)


def _resolve_param(param: Param, bindings: dict[str, Any]) -> Any:
    if param.name in bindings:
        return bindings[param.name]
    if param.has_default:
        return param.default
    raise ExecutionError(
        f"no value bound for parameter {param.name!r} and it has no default"
    )


def _bind_value(value: Any, bindings: dict[str, Any]) -> Any:
    """Recursively substitute :class:`Param` placeholders with bound values."""
    if isinstance(value, Param):
        return _resolve_param(value, bindings)
    if isinstance(value, Expression):
        # Structured predicates may embed placeholders as literal operands
        # (``col("age") > Param("min_age", 60)``).
        return bind_params(value, lambda param: _resolve_param(param, bindings))
    if isinstance(value, Mapping):
        return {k: _bind_value(v, bindings) for k, v in value.items()}
    if isinstance(value, list):
        return [_bind_value(v, bindings) for v in value]
    if isinstance(value, tuple):
        return tuple(_bind_value(v, bindings) for v in value)
    if isinstance(value, (set, frozenset)):
        return type(value)(_bind_value(v, bindings) for v in value)
    return value


def _param_ops(graph: IRGraph) -> tuple[str, ...]:
    """Ids of the operators whose params hold a :class:`Param`."""
    return tuple(node.op_id for node in graph.nodes() if find_params(node.params))


class PreparedProgram:
    """A compiled, cached, re-executable program bound to one session.

    Obtained from :meth:`Session.prepare`; holding one amortizes compilation
    (and, for pure subtrees, engine reads) across many :meth:`run` calls.
    """

    def __init__(self, session: "Session", program: DataflowProgram,
                 plan: "ModePlan", entry: CachedPlan,
                 options: CompilerOptions | None = None) -> None:
        self._session = session
        self._program = program
        self._plan = plan
        self._entry = entry
        self._options = options
        self._lock = threading.RLock()

    # -- introspection -------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """The execution mode the plan was compiled for."""
        return self._plan.mode

    @property
    def fingerprint(self) -> str:
        """The program fingerprint the plan cache keyed on."""
        return self._entry.fingerprint

    @property
    def compilation(self):
        """The (possibly re-)compiled plan currently backing this program."""
        return self._entry.compilation

    @property
    def reoptimizations(self) -> int:
        """How many times plan aging replaced this program's physical plan."""
        return self._entry.reoptimizations

    def parameters(self) -> dict[str, Param]:
        """Declared runtime parameters (name -> placeholder)."""
        return dict(self._entry.declared_params)

    def explain(self) -> str:
        """The staged physical plan plus cache/pin status, for humans."""
        entry = self._entry
        lines = [
            f"PreparedProgram({self._program.name!r}, mode={self.mode!r}, "
            f"fingerprint={entry.fingerprint[:12]}...)",
            f"  compile_time_s: {entry.compilation.compile_time_s:.6f}"
            f" (cache hits: {entry.hits})",
            f"  pinned scans: {entry.snapshot.pinned}/{entry.snapshot.pinnable}",
        ]
        if entry.declared_params:
            lines.append("  parameters: " + ", ".join(sorted(entry.declared_params)))
        lines.append(entry.compilation.graph.render())
        return "\n".join(lines)

    # -- execution -----------------------------------------------------------------------

    def run(self, *, refresh: bool = False, reuse_scans: bool = True,
            deadline_s: float | None = None,
            cancellation: CancellationToken | None = None,
            **params: Any) -> "ExecutionResult":
        """Execute the prepared plan and return an :class:`ExecutionResult`.

        Keyword arguments bind the program's :class:`Param` placeholders.
        ``refresh=True`` unpins every scan snapshot first, forcing a full
        re-read of the engines (argument-less runs re-pin their results;
        explicitly bound runs never consult or populate the pins).
        ``reuse_scans=False`` executes everything fresh without touching the
        pins.

        ``deadline_s`` bounds this run's wall time and ``cancellation``
        attaches a shared :class:`~repro.cancellation.CancellationToken`
        (both may be given; the deadline tightens the token).  The executor
        checks the token between stages and at operator starts, raising
        :class:`~repro.exceptions.DeadlineExceededError` /
        :class:`~repro.exceptions.CancelledError` — work genuinely stops
        instead of running to completion.
        """
        token = _resolve_token(deadline_s, cancellation)
        obs = self._session.system.obs
        if not obs.enabled:
            return self._run_once(refresh=refresh, reuse_scans=reuse_scans,
                                  params=params, cancellation=token)
        start = time.perf_counter()
        trace_id = None
        with obs.tracer.request(f"request:{self._program.name}",
                                program=self._program.name,
                                mode=self.mode) as span:
            result = self._run_once(refresh=refresh, reuse_scans=reuse_scans,
                                    params=params, cancellation=token)
            if span is not None:
                trace_id = span.trace_id
                span.set(operators=len(result.report.records),
                         reoptimized=result.report.reoptimized)
        elapsed = time.perf_counter() - start
        obs.requests_total.inc(mode=self.mode)
        obs.request_seconds.observe(elapsed, mode=self.mode)
        obs.consider_slow(program=str(self._program.name), mode=self.mode,
                          fingerprint=self._entry.fingerprint,
                          report=result.report, elapsed_wall_s=elapsed,
                          trace_id=trace_id)
        return result

    def _run_once(self, *, refresh: bool, reuse_scans: bool,
                  params: dict[str, Any],
                  cancellation: CancellationToken | None = None
                  ) -> "ExecutionResult":
        if cancellation is not None:
            cancellation.check()  # fail fast before touching the plan
        with self._lock:  # revalidate plan + entry atomically across threads
            plan, entry, reoptimized = self._session._fresh_entry(
                self._program, self._plan, self._entry, self._options)
            self._plan, self._entry = plan, entry
        graph = entry.compilation.graph
        snapshot: ScanSnapshot | None = entry.snapshot
        if refresh:
            entry.snapshot.clear()
        if params:
            self._check_bindings(params, entry)
            graph = self._bound_graph(entry, params)
            snapshot = None  # results depend on this call's bindings
        else:
            if entry.declared_params:
                # Bind every placeholder to its default.  That binding is
                # identical on every argument-less run, so the pinned scans
                # stay valid (and the bound graph is computed only once);
                # only explicit bindings force a fresh read.
                with self._lock:
                    if entry.default_bound_graph is None:
                        entry.default_bound_graph = self._bound_graph(entry, {})
                graph = entry.default_bound_graph
            if not reuse_scans:
                snapshot = None
        result = self._session._run_graph(entry.compilation, graph, plan,
                                          snapshot, cancellation=cancellation)
        if reoptimized:
            result.report.reoptimized = True
        return result

    def _check_bindings(self, params: dict[str, Any], entry: CachedPlan) -> None:
        unknown = set(params) - set(entry.declared_params)
        if unknown:
            declared = sorted(entry.declared_params) or ["<none>"]
            raise ExecutionError(
                f"unknown parameter(s) {sorted(unknown)}; "
                f"declared parameters: {declared}"
            )

    @staticmethod
    def _bound_graph(entry: CachedPlan, params: dict[str, Any]) -> IRGraph:
        """The cached plan with ``params`` bound: only the operators that
        hold a Param are copied; the rest are the cached plan's own (no
        run mutates an operator it executes)."""
        graph = entry.compilation.graph
        bound = {}
        for op_id in entry.param_ops:
            node = graph.node(op_id).copy()
            node.params = _bind_value(node.params, params)
            bound[op_id] = node
        return graph.with_nodes(bound)


class Session:
    """A client session over one Polystore++ deployment.

    Sessions are cheap; create one per logical client (or use the system's
    default session through :meth:`PolystorePlusPlus.execute`).  All methods
    are thread-safe.  Use as a context manager to release the worker pool::

        with system.session() as session:
            prepared = session.prepare(program)
            futures = [session.submit(prepared) for _ in range(8)]
            results = [f.result() for f in futures]
    """

    def __init__(self, system: "PolystorePlusPlus", *, plan_cache_size: int = 64,
                 max_workers: int = 4, name: str = "session") -> None:
        if max_workers < 1:
            raise ConfigurationError("session max_workers must be at least 1")
        self.system = system
        self.name = name
        self.max_workers = max_workers
        self.plan_cache = PlanCache(plan_cache_size,
                                    on_evict=self._release_entry)
        self._lock = threading.RLock()
        #: Serializes lookup-or-compile so concurrent prepares of one program
        #: cannot compile twice and hand out divergent snapshot instances.
        self._prepare_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._submitted = 0
        self._closed = False

    # -- preparation ---------------------------------------------------------------------

    def prepare(self, program: DataflowProgram, *, mode: str = "polystore++",
                options: CompilerOptions | None = None,
                freeze: bool = True) -> PreparedProgram:
        """Compile ``program`` (or reuse a cached plan) for repeated execution.

        ``freeze=True`` (the default) freezes the program
        (:meth:`DataflowProgram.freeze`): the cached plan can never diverge
        from later edits, and every run reads the fingerprint stored at
        freezing.  ``freeze=False`` keeps the program editable and
        re-fingerprints it on every run, so an edit recompiles instead of
        replaying a stale plan.
        """
        self._check_open()
        plan = self.system.plan_mode(mode, options)
        if freeze:
            program.freeze()
        entry = self._lookup_or_compile(program, plan)
        return PreparedProgram(self, program, plan, entry, options)

    @staticmethod
    def _release_entry(entry: Any) -> None:
        """Unpin a plan-cache entry's scan snapshot when the cache lets it go.

        Fires on LRU eviction, same-key replacement (plan aging) and
        invalidation, so pinned engine reads never outlive the entry's
        reachability from the cache.  A prepared handle still holding the
        entry simply re-pins on its next run.
        """
        snapshot = getattr(entry, "snapshot", None)
        if snapshot is not None:
            snapshot.clear()

    def _plan_key(self, fingerprint: str, plan: "ModePlan") -> tuple:
        return (fingerprint, plan.mode, plan.compile_options,
                self.system.plan_generation)

    def _lookup_or_compile(self, program: DataflowProgram,
                           plan: "ModePlan") -> CachedPlan:
        obs = self.system.obs
        fingerprint = program.fingerprint()
        key = self._plan_key(fingerprint, plan)
        with self._prepare_lock:
            entry = self.plan_cache.get(key)
            if entry is not None:
                entry.hits += 1
                obs.plan_cache_total.inc(outcome="hit")
                return entry
            obs.plan_cache_total.inc(outcome="miss")
            with obs.tracer.span("compile", "compile", mode=plan.mode,
                                 fingerprint=fingerprint[:12]):
                compilation = self.system.compile(
                    program, accelerated=plan.accelerated,
                    options=plan.compile_options)
            compilation.source_fingerprint = fingerprint
            entry = CachedPlan(
                compilation=compilation,
                snapshot=ScanSnapshot(compilation.graph),
                generation=self.system.plan_generation,
                fingerprint=fingerprint,
                mode=plan.mode,
                declared_params=program.declared_params(),
                param_ops=_param_ops(compilation.graph),
                baked_estimates=self._baked_estimates(compilation),
            )
            self.plan_cache.put(key, entry)
            return entry

    def _fresh_entry(self, program: DataflowProgram, plan: "ModePlan",
                     entry: CachedPlan, options: CompilerOptions | None
                     ) -> tuple["ModePlan", CachedPlan, bool]:
        """Revalidate a prepared program's plan + entry against the deployment.

        When engines or accelerators were registered after preparation, the
        execution mode is re-resolved (migration strategy and serializer may
        have changed) and the plan recompiled (through the cache) against the
        new deployment.  The program fingerprint is compared on every run:
        a frozen program returns the one it stored when frozen (its trees
        cannot change), an unfrozen one re-hashes its trees, so an in-place
        edit (for example of a ``DataflowNode.params``) can never replay a
        stale plan — the changed program simply recompiles.

        With the deployment unchanged, the entry is additionally checked for
        *plan aging*: when the runtime statistics have drifted past the
        estimates baked into the cached plan, it is re-compiled with the
        fed-back stats.  The third element of the returned tuple reports
        whether this run's plan was physically re-optimized.
        """
        self._check_open()
        if (entry.generation == self.system.plan_generation
                and program.fingerprint() == entry.fingerprint):
            refreshed = self._reoptimize_if_stale(program, plan, entry)
            return plan, refreshed, refreshed is not entry
        plan = self.system.plan_mode(plan.mode, options)
        return plan, self._lookup_or_compile(program, plan), False

    # -- plan aging ----------------------------------------------------------------------

    @staticmethod
    def _baked_estimates(compilation) -> dict[str, int]:
        from repro.middleware.feedback import baked_estimates

        return baked_estimates(compilation.graph)

    def _drifted(self, entry: CachedPlan) -> bool:
        """Whether observed cardinalities left the cached plan's estimates behind."""
        from repro.middleware.feedback import drift_ratio

        stats = self.system.feedback_stats
        factor = self.system.config.reoptimize_drift_factor
        if stats is None or not factor or not entry.baked_estimates:
            return False
        for fingerprint, estimated in entry.baked_estimates.items():
            # actionable_rows suppresses tiny observed realities: whatever
            # the estimate said, re-planning a few hundred rows cannot pay
            # for its own compile time.
            observed = stats.actionable_rows(fingerprint)
            if observed is None:
                continue
            if drift_ratio(estimated, observed) >= factor:
                return True
        return False

    def _reoptimize_if_stale(self, program: DataflowProgram, plan: "ModePlan",
                             entry: CachedPlan) -> CachedPlan:
        """Age a drifted plan: re-compile with fed-back statistics.

        When the re-compiled plan is *physically identical* (same plan
        fingerprint — the estimates moved but changed no decision) the old
        entry survives with its pinned scans; only its baked estimates are
        refreshed so the same drift is not re-detected every run.  A changed
        plan replaces the entry in the cache and the run is flagged as
        re-optimized.
        """
        if entry.superseded_by is not None:
            return entry.superseded_by
        if not self._drifted(entry):
            return entry
        with self._prepare_lock:
            if entry.superseded_by is not None:  # a sibling got here first
                return entry.superseded_by
            if not self._drifted(entry):  # sibling re-baked the estimates
                return entry
            obs = self.system.obs
            with obs.tracer.span("compile", "compile", mode=plan.mode,
                                 fingerprint=entry.fingerprint[:12],
                                 reoptimize=True):
                compilation = self.system.compile(
                    program, accelerated=plan.accelerated,
                    options=plan.compile_options)
            compilation.source_fingerprint = entry.fingerprint
            if compilation.plan_fingerprint == entry.compilation.plan_fingerprint:
                entry.baked_estimates = self._baked_estimates(compilation)
                return entry
            replacement = CachedPlan(
                compilation=compilation,
                snapshot=ScanSnapshot(compilation.graph),
                generation=entry.generation,
                fingerprint=entry.fingerprint,
                mode=entry.mode,
                declared_params=dict(entry.declared_params),
                param_ops=_param_ops(compilation.graph),
                baked_estimates=self._baked_estimates(compilation),
                reoptimizations=entry.reoptimizations + 1,
                reoptimized_from=entry.compilation.plan_fingerprint,
            )
            entry.superseded_by = replacement
            self.plan_cache.put(self._plan_key(entry.fingerprint, plan), replacement)
            obs.plan_cache_total.inc(outcome="reoptimized")
            obs.logger("session").info(
                "plan_reoptimized", program=str(program.name), mode=plan.mode,
                fingerprint=entry.fingerprint[:12],
                reoptimizations=replacement.reoptimizations)
            return replacement

    # -- one-shot execution --------------------------------------------------------------

    def execute(self, program: DataflowProgram, *, mode: str = "polystore++",
                options: CompilerOptions | None = None,
                deadline_s: float | None = None,
                cancellation: CancellationToken | None = None
                ) -> "ExecutionResult":
        """Compile-or-reuse and run once, always re-reading every engine.

        This is the one-shot path :meth:`PolystorePlusPlus.execute` delegates
        to: it benefits from the plan cache but never replays pinned scans.
        ``deadline_s``/``cancellation`` bound the run cooperatively, exactly
        as on :meth:`PreparedProgram.run` (the deadline covers compilation
        too — an expired token stops the run at the next checkpoint).
        """
        # One request scope over prepare+run so a one-shot's compile span
        # lands in the same trace as its execution (the nested scope opened
        # by run() joins this tree instead of re-sampling).
        with self.system.obs.tracer.request(f"request:{program.name}",
                                            program=str(program.name),
                                            mode=mode, oneshot=True):
            prepared = self.prepare(program, mode=mode, options=options,
                                    freeze=False)
            return prepared.run(reuse_scans=False, deadline_s=deadline_s,
                                cancellation=cancellation)

    # -- concurrent execution ------------------------------------------------------------

    def submit(self, item: "DataflowProgram | PreparedProgram", *,
               mode: str = "polystore++", options: CompilerOptions | None = None,
               **run_kwargs: Any) -> "Future[ExecutionResult]":
        """Schedule one execution on the session's worker pool.

        ``item`` may be a raw program (prepared on the calling thread, so the
        plan cache stays warm) or an existing :class:`PreparedProgram`.
        ``run_kwargs`` are forwarded to :meth:`PreparedProgram.run`.
        """
        self._check_open()
        if isinstance(item, PreparedProgram):
            prepared = item
        else:
            prepared = self.prepare(item, mode=mode, options=options, freeze=False)
        with self._lock:
            self._submitted += 1
        return self._worker_pool().submit(prepared.run, **run_kwargs)

    def run_batch(self, items: "Iterable[DataflowProgram | PreparedProgram]", *,
                  mode: str = "polystore++",
                  options: CompilerOptions | None = None,
                  **run_kwargs: Any) -> list["ExecutionResult"]:
        """Run many programs concurrently; results come back in input order.

        The first failure is re-raised after all submissions are in flight.
        """
        futures = [self.submit(item, mode=mode, options=options, **run_kwargs)
                   for item in items]
        return [future.result() for future in futures]

    # -- internals -----------------------------------------------------------------------

    def _run_graph(self, compilation, graph: IRGraph, plan: "ModePlan",
                   snapshot: ScanSnapshot | None,
                   cancellation: CancellationToken | None = None
                   ) -> "ExecutionResult":
        from repro.core.system import ExecutionResult

        system = self.system
        migrator = DataMigrator(
            system.network,
            serializer_accelerator=(system.serializer_accelerator
                                    if plan.accelerated else None),
            default_strategy=plan.migration_strategy,
        )
        executor = Executor(system.catalog, migrator,
                            migration_strategy=plan.migration_strategy,
                            runtime_stats=system.feedback_stats,
                            views=system.views,
                            obs=system.obs,
                            cancellation=cancellation)
        outputs, report = executor.execute(graph, mode=plan.mode,
                                           result_cache=snapshot)
        report.migration_time_s = migrator.total_time_s()
        report.migration_bytes = migrator.total_migrated_bytes()
        # Migrations replayed from the snapshot never reach the migrator, but
        # their charges stay in total_time_s — keep the migration fields
        # consistent with that by carrying the pinned charges over too.
        for record in report.records:
            if record.cached and record.kind == "migrate":
                report.migration_time_s += record.simulated_time_s
                report.migration_bytes += int(record.details.get("payload_bytes", 0))
        return ExecutionResult(outputs=outputs, report=report,
                               compilation=compilation, mode=plan.mode)

    def _worker_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            # Re-check under the lock: a submit racing close() must not
            # resurrect a fresh pool nobody will ever shut down.
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=f"polystore-{self.name}",
                )
            return self._pool

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError(f"session {self.name!r} is closed")

    # -- lifecycle -----------------------------------------------------------------------

    def invalidate_plans(self) -> int:
        """Drop every cached plan (called when the deployment changes)."""
        return self.plan_cache.invalidate()

    def stats(self) -> dict[str, Any]:
        """Plan-cache counters plus submission accounting."""
        return {
            "name": self.name,
            "plan_cache": self.plan_cache.stats(),
            "submitted": self._submitted,
            "max_workers": self.max_workers,
            "closed": self._closed,
        }

    def close(self) -> None:
        """Shut down the worker pool; further use raises ``ExecutionError``."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(name={self.name!r}, plans={len(self.plan_cache)}, "
                f"submitted={self._submitted})")
