"""The Polystore++ system facade.

:class:`PolystorePlusPlus` wires together the whole stack of the paper's
Figure 4: the catalog of engines and accelerators, the compiler (frontend +
L1 passes + accelerator placement), the middleware (runtime statistics,
data migrator, executor) and returns execution results with full cost
reports.  It also exposes the three execution modes the benchmarks compare
(one-size-fits-all, CPU polystore, accelerated Polystore++).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.accelerators.base import Accelerator
from repro.accelerators.kernels import KernelRegistry
from repro.accelerators.simulator import Objective, OffloadPlanner
from repro.catalog import Catalog
from repro.compiler.pipeline import CompilationResult, Compiler, CompilerOptions
from repro.eide.dataflow import DataflowProgram, DatasetSource
from repro.exceptions import ConfigurationError, ExecutionError
from repro.middleware.executor import ExecutionReport
from repro.middleware.feedback import RuntimeStats
from repro.middleware.migration import SimulatedNetwork
from repro.obs import (
    Observability,
    SloTracker,
    chrome_trace,
    prometheus_text,
    run_checks,
    worst_status,
)
from repro.stores.base import Engine
from repro.views.registry import ViewRegistry
from repro.views.view import MaintenancePolicy, MaterializedView

#: Execution modes supported by :meth:`PolystorePlusPlus.execute`.
EXECUTION_MODES = ("one_size_fits_all", "cpu_polystore", "polystore++")


@dataclass(frozen=True)
class ModePlan:
    """How one execution mode maps onto compiler and migration choices."""

    mode: str
    accelerated: bool
    compile_options: CompilerOptions
    migration_strategy: str


@dataclass
class ExecutionResult:
    """Outputs plus cost accounting for one program run."""

    outputs: dict[str, Any]
    report: ExecutionReport
    compilation: CompilationResult
    mode: str

    @property
    def total_time_s(self) -> float:
        """Sequential charged execution time."""
        return self.report.total_time_s

    @property
    def pipelined_time_s(self) -> float:
        """Stage-pipelined charged execution time."""
        return self.report.pipelined_time_s

    def output(self, name: str) -> Any:
        """One named output (fragment name)."""
        try:
            return self.outputs[name]
        except KeyError:
            available = ", ".join(sorted(self.outputs)) or "<none>"
            raise ExecutionError(
                f"no output named {name!r}; available outputs: {available}"
            ) from None

    def summary(self) -> dict[str, Any]:
        """Compact dictionary combining compile- and run-time accounting."""
        summary = self.report.summary()
        summary["compilation"] = self.compilation.summary()
        return summary


@dataclass
class SystemConfig:
    """Deployment configuration for a Polystore++ instance."""

    migration_strategy: str = "binary_pipe"
    objective: Objective = Objective.LATENCY
    compiler_options: CompilerOptions = field(default_factory=CompilerOptions)
    #: Compiled-plan LRU capacity of each session created from this system.
    plan_cache_size: int = 64
    #: Worker threads of each session's ``submit`` / ``run_batch`` pool; a
    #: run itself executes on the one thread that runs it.
    session_workers: int = 4
    #: Close the measurement loop: the executor records observed operator
    #: costs and the compiler, offload planner and plan-aging logic consume
    #: them.  Disabling freezes every plan at its a-priori estimates.
    adaptive_feedback: bool = True
    #: Estimate-vs-observation row ratio beyond which a cached plan is aged
    #: and re-compiled with fed-back statistics; ``None`` disables aging.
    reoptimize_drift_factor: float | None = 4.0
    #: Data directory for durable storage; ``None`` keeps the deployment
    #: fully in-memory (see :mod:`repro.durability`).
    data_dir: str | None = None
    #: WAL sync policy: ``"always"`` (fsync per record), ``"interval"``
    #: (fsync at most once per ``durability_sync_interval_s``) or ``"off"``.
    durability_sync: str = "interval"
    #: Maximum fsync interval for the ``"interval"`` sync policy.
    durability_sync_interval_s: float = 0.05
    #: WAL records between automatic checkpoints (snapshot + rotation).
    durability_snapshot_every: int = 512
    #: Observability master switch: metrics registry, trace spans and the
    #: slow-query log (see :mod:`repro.obs`).  Off by default — every
    #: instrumented seam then costs a single attribute check.
    obs_enabled: bool = False
    #: Fraction of session requests that open trace spans; sampled-out
    #: requests still count in every metric.  Keep small in production so
    #: tracing stays off the hot path; set to 1.0 to trace every request.
    obs_trace_sample_rate: float = 0.05
    #: Requests slower than this (measured wall ms) are captured in the
    #: ring-buffer slow-query log with their plan fingerprint and
    #: per-stage breakdown.
    obs_slow_query_ms: float = 250.0
    #: Start the background sampling profiler with the deployment.  Off by
    #: default — with it off the profiler thread never exists and the
    #: prepared hot path is byte-identical to PR 7's.
    obs_profile_enabled: bool = False
    #: Profiler sweep rate (stack samples per second across all threads).
    obs_profile_hz: float = 67.0
    #: Serving tier (:meth:`PolystorePlusPlus.serve`): worker sessions in a
    #: server's bounded pool — also its admission-control slot count.
    serve_pool_size: int = 4


class PolystorePlusPlus:
    """The accelerated polystore system."""

    def __init__(self, config: SystemConfig | None = None, *,
                 data_dir: str | None = None) -> None:
        self.config = config if config is not None else SystemConfig()
        if data_dir is not None:
            self.config.data_dir = data_dir
        self.catalog = Catalog()
        #: The observability hub (metrics, traces, slow-query log); inert
        #: unless ``config.obs_enabled`` is set.
        self.obs = (Observability(
            sample_rate=self.config.obs_trace_sample_rate,
            slow_query_ms=self.config.obs_slow_query_ms,
            profile_hz=self.config.obs_profile_hz,
        ) if self.config.obs_enabled else Observability.disabled())
        if self.config.obs_enabled and self.config.obs_profile_enabled:
            self.obs.profiler.start()
        #: Observed per-operator runtime statistics (populated by executors).
        self.runtime_stats = RuntimeStats()
        self._network = SimulatedNetwork()
        self._serializer_accelerator: Accelerator | None = None
        #: Whether the serializer was pinned by an explicit
        #: ``use_for_migration=True`` (explicit pins are never displaced by
        #: implicit serialize-capable registrations).
        self._serializer_explicit = False
        #: Bumped whenever the deployment changes; part of every plan-cache
        #: key, so stale compiled plans are unreachable.
        self._plan_generation = 0
        self._sessions: "weakref.WeakSet" = weakref.WeakSet()
        self._servers: "weakref.WeakSet" = weakref.WeakSet()
        self._default_session = None
        self._default_session_lock = threading.Lock()
        #: Materialized views registered on this deployment (see repro.views).
        self.views = ViewRegistry(self)
        #: Durability manager when a data directory is configured.
        self._durability = None
        if self.config.data_dir is not None:
            self.open(self.config.data_dir)

    # -- durability -----------------------------------------------------------------------

    @property
    def durability(self):
        """The active :class:`~repro.durability.DurabilityManager`, if any."""
        return self._durability

    def open(self, path: str | None = None) -> "PolystorePlusPlus":
        """Open (or create) a durable data directory at ``path``.

        Every supported engine registered now or later is restored from its
        latest valid snapshot plus the WAL tail, then persisted from there
        on; persisted view definitions re-register once their source
        engines are back.  Returns ``self`` for chaining.
        """
        from repro.durability import DurabilityManager

        if self._durability is not None:
            raise ConfigurationError(
                f"system already open at {self._durability.root}"
            )
        target = path if path is not None else self.config.data_dir
        if target is None:
            raise ConfigurationError("open() needs a path or config.data_dir")
        self.config.data_dir = target
        self._durability = DurabilityManager(
            self, target,
            sync=self.config.durability_sync,
            sync_interval_s=self.config.durability_sync_interval_s,
            snapshot_every=self.config.durability_snapshot_every,
        )
        for engine in self.catalog.engines():
            self._durability.attach(engine)
        self._invalidate_plans()
        return self

    def close(self) -> None:
        """Checkpoint and detach durable storage (a clean shutdown).

        The system keeps working in memory afterwards; :meth:`open` the
        same directory (usually from a fresh process) to recover.
        """
        if self._durability is None:
            return
        self._durability.close()
        self._durability = None

    # -- deployment -----------------------------------------------------------------------

    def register_engine(self, engine: Engine) -> Engine:
        """Attach a data-processing engine (invalidates cached plans)."""
        self.catalog.register_engine(engine)
        if self._durability is not None:
            self._durability.attach(engine)
        self._invalidate_plans()
        return engine

    def register_sharded_engine(self, name: str, shard_factory,
                                num_shards: int | None = None, *,
                                partitioner=None):
        """Build and attach a :class:`~repro.cluster.ShardedEngine`.

        ``shard_factory`` is either an :class:`Engine` subclass (shards are
        named ``{name}-s{i}``) or a callable ``index -> Engine``.  The
        executor scatter-gathers partitionable operators across the shards;
        see :mod:`repro.cluster`.
        """
        from repro.cluster import ShardedEngine

        engine = ShardedEngine(name, shard_factory, num_shards,
                               partitioner=partitioner)
        self.register_engine(engine)
        return engine

    def register_accelerator(self, accelerator: Accelerator, *,
                             use_for_migration: bool = False) -> Accelerator:
        """Attach a hardware accelerator (optionally used for migrations).

        ``use_for_migration=True`` pins the accelerator as the migration
        serializer; the *last* explicit pin wins.  Without an explicit pin,
        the first serialize-capable accelerator is used.
        """
        if use_for_migration and not accelerator.supports("serialize"):
            raise ConfigurationError(
                f"accelerator {accelerator.profile.name!r} cannot serve as the "
                f"migration serializer: it has no 'serialize' kernel"
            )
        self.catalog.register_accelerator(accelerator)
        if use_for_migration:
            self._serializer_accelerator = accelerator
            self._serializer_explicit = True
        elif (self._serializer_accelerator is None
              and accelerator.supports("serialize")):
            self._serializer_accelerator = accelerator
        self._invalidate_plans()
        return accelerator

    def engine(self, name: str) -> Engine:
        """A registered engine by name."""
        return self.catalog.engine(name)

    def dataset(self, engine: str) -> DatasetSource:
        """Scans over a registered engine, as dataflow :class:`Dataset` handles.

        The entry point of the composable dataflow API::

            orders = system.dataset("ordersdb").table("orders")
            seniors = orders.filter(col("age") > 60).project("pid", "age")

        The returned trees are lazy; wrap them in a
        :class:`~repro.eide.dataflow.DataflowProgram` and hand that to
        :meth:`execute` or :meth:`~repro.client.Session.prepare`.
        """
        if not self.catalog.has_engine(engine):
            raise ConfigurationError(f"no engine named {engine!r}")
        return DatasetSource(engine)

    @property
    def network(self) -> SimulatedNetwork:
        """The simulated interconnect migrations travel over."""
        return self._network

    @property
    def serializer_accelerator(self) -> Accelerator | None:
        """The accelerator accelerated migrations serialize through."""
        return self._serializer_accelerator

    @property
    def plan_generation(self) -> int:
        """Deployment generation; changes invalidate every cached plan."""
        return self._plan_generation

    @property
    def feedback_stats(self) -> RuntimeStats | None:
        """The runtime statistics store, or ``None`` when feedback is off."""
        return self.runtime_stats if self.config.adaptive_feedback else None

    def _invalidate_plans(self) -> None:
        self._plan_generation += 1
        for session in list(self._sessions):
            session.invalidate_plans()

    def describe(self) -> dict[str, Any]:
        """The deployment description (engines, accelerators, config)."""
        description = self.catalog.describe()
        serializer = self._serializer_accelerator
        description["config"] = {
            "migration_strategy": self.config.migration_strategy,
            "objective": self.config.objective.value,
            "migration_serializer": serializer.profile.name if serializer else None,
            "migration_serializer_explicit": self._serializer_explicit,
            "plan_generation": self._plan_generation,
            "adaptive_feedback": self.config.adaptive_feedback,
            "reoptimize_drift_factor": self.config.reoptimize_drift_factor,
        }
        description["feedback"] = self.runtime_stats.stats()
        description["views"] = self.views.describe()
        description["durability"] = (self._durability.describe()
                                     if self._durability is not None else None)
        # Changelog retention per engine: how deep the delta log sits right
        # now (what incremental views and replicas would have to catch up).
        description["changelog"] = {
            engine.name: engine.changelog.retention_stats()
            for engine in self.catalog.engines()
        }
        description["observability"] = self.obs.describe()
        if self.obs.enabled:
            self.refresh_gauges()
            description["metrics"] = self.obs.registry.snapshot()
        return description

    # -- observability exports -------------------------------------------------------------

    def refresh_gauges(self) -> None:
        """Update collection-time gauges from live state (pre-export hook).

        Counters and histograms accumulate at the instrumented seams;
        gauges describing *current* state (changelog depth, materialized
        view sizes) are sampled here so a scrape always sees fresh values
        without taxing the write path.
        """
        if not self.obs.enabled:
            return
        for engine in self.catalog.engines():
            stats = engine.changelog.retention_stats()
            self.obs.changelog_retained_batches.set(
                stats["retained_batches"], engine=engine.name)
            self.obs.changelog_retained_rows.set(
                stats["retained_rows"], engine=engine.name)
        for view in self.views.describe():
            self.obs.view_rows.set(view["rows"], view=view["name"])
        for server in list(self._servers):
            server.refresh_gauges()
        self.obs.sample_slos()

    def export_prometheus(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        self.refresh_gauges()
        return prometheus_text(self.obs.registry)

    def export_chrome_trace(self) -> dict[str, Any]:
        """Buffered trace spans as a Chrome ``trace_event`` document.

        Write it to a ``.json`` file and open it in ``about:tracing`` or
        https://ui.perfetto.dev to see requests, stages, operators,
        per-shard subtasks and WAL fsyncs on a timeline.
        """
        return chrome_trace(self.obs.tracer.spans())

    def export_profile(self, *, fmt: str = "collapsed",
                       trace_id: int | None = None) -> Any:
        """The sampling profiler's aggregate, ready for flamegraph tooling.

        ``fmt="collapsed"`` returns flamegraph.pl/inferno collapsed-stack
        text; ``fmt="speedscope"`` returns a speedscope.app JSON document.
        Pass ``trace_id`` to narrow to one sampled request's stacks.
        Requires ``obs_profile_enabled`` (or a manual
        ``system.obs.profiler.start()``) to have produced samples.
        """
        profile = self.obs.profiler.profile(trace_id)
        if fmt == "collapsed":
            return profile.collapsed()
        if fmt == "speedscope":
            return profile.speedscope()
        raise ConfigurationError(
            f"unknown profile format {fmt!r}; choose 'collapsed' or 'speedscope'"
        )

    def export_logs(self, *, level: str | None = None,
                    component: str | None = None) -> list[dict[str, Any]]:
        """The structured event-log buffer, oldest first (see repro.obs.log)."""
        return self.obs.events.records(level=level, component=component)

    def health(self) -> dict[str, Any]:
        """Component health checks plus SLO burn rates, rolled up.

        Returns ``{"status": "ok"|"warn"|"fail", "checks": [...],
        "slos": [...]}`` — the payload the serve protocol's ``health`` op
        hands to load balancers.  A sustained error-budget burn (burn rate
        above 1.0 on every trailing window of an objective) degrades an
        otherwise-ok deployment to ``warn``.
        """
        with self.obs.tracer.request("health:system"):
            checks = run_checks(self)
            slos = self.obs.sample_slos()
        status = worst_status([check["status"] for check in checks])
        burning = SloTracker.burning(slos)
        if burning and status == "ok":
            status = "warn"
        self.obs.set_health_gauges(checks)
        return {"status": status, "checks": checks, "slos": slos,
                "burning_slos": burning}

    # -- compilation -----------------------------------------------------------------------

    def compiler(self, *, accelerated: bool = True,
                 options: CompilerOptions | None = None) -> Compiler:
        """Build a compiler bound to this deployment."""
        planner = self.offload_planner() if accelerated else None
        return Compiler(self.catalog, planner=planner,
                        options=options or self.config.compiler_options,
                        stats=self.feedback_stats)

    def offload_planner(self) -> OffloadPlanner:
        """An offload planner over the registered accelerator fleet."""
        registry = KernelRegistry(self.catalog.accelerators())
        return OffloadPlanner(registry, objective=self.config.objective)

    def compile(self, program: DataflowProgram, *,
                accelerated: bool = True,
                options: CompilerOptions | None = None) -> CompilationResult:
        """Compile a heterogeneous program against this deployment.

        Subtrees structurally matching a registered materialized view are
        first rewritten into ``view_read`` operators (unless the options
        disable ``use_views``), so the compiled plan reads maintained state
        instead of recomputing the view's pipeline.
        """
        opts = options if options is not None else self.config.compiler_options
        if opts.use_views and self.views.rewritable:
            program = self.views.rewrite(program)
        return self.compiler(accelerated=accelerated, options=options).compile(program)

    # -- execution --------------------------------------------------------------------------

    def plan_mode(self, mode: str,
                  options: CompilerOptions | None = None) -> ModePlan:
        """Resolve an execution mode to compiler and migration choices.

        * ``"polystore++"`` — federated execution with accelerator placement
          and accelerated migration (the paper's proposal).
        * ``"cpu_polystore"`` — federated execution on CPU engines only
          (BigDAWG-like baseline).
        * ``"one_size_fits_all"`` — for comparison purposes the program still
          runs federated, but with all optimizations off and the slowest
          (CSV) migration path, standing in for the copy-everything-to-one-
          store strawman of the paper's introduction.
        """
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {mode!r}; choose one of {EXECUTION_MODES}"
            )
        if mode == "one_size_fits_all":
            return ModePlan(mode, False, CompilerOptions.none(), "csv")
        compile_options = options or self.config.compiler_options
        if mode == "cpu_polystore":
            return ModePlan(mode, False, compile_options,
                            self.config.migration_strategy)
        migration_strategy = ("accelerated"
                              if self._serializer_accelerator is not None
                              else self.config.migration_strategy)
        return ModePlan(mode, True, compile_options, migration_strategy)

    def session(self, *, plan_cache_size: int | None = None,
                max_workers: int | None = None, name: str = "session"):
        """A new :class:`~repro.client.Session` bound to this deployment.

        Sessions expose ``prepare``/``submit``/``run_batch`` for plan-cached
        and concurrent execution; see :mod:`repro.client`.
        """
        from repro.client.session import Session

        session = Session(
            self,
            plan_cache_size=(self.config.plan_cache_size
                             if plan_cache_size is None else plan_cache_size),
            max_workers=(self.config.session_workers
                         if max_workers is None else max_workers),
            name=name,
        )
        self._sessions.add(session)
        return session

    def serve(self, *, host: str = "127.0.0.1", port: int = 0,
              pool_size: int | None = None, max_queue: int | None = None,
              max_queue_per_tenant: int | None = None,
              default_deadline_s: float | None = None,
              default_tenant: str = "default", start: bool = True):
        """Start a serving front-end over this deployment.

        Builds a :class:`~repro.serve.PolystoreServer`: an asyncio server
        multiplexing many clients onto a bounded pool of sessions, with
        per-tenant quotas, admission control (explicit ``OVERLOADED``
        rejections, never unbounded queues), request coalescing and
        cooperative cancellation.  Register programs with
        :meth:`~repro.serve.PolystoreServer.register`, connect in-process
        via :meth:`~repro.serve.PolystoreServer.connect` or over TCP at
        ``server.address``.  Pass ``start=False`` to configure tenants and
        programs before :meth:`~repro.serve.PolystoreServer.start`.
        """
        from repro.serve import PolystoreServer, ServeConfig

        overrides = {"max_queue": max_queue,
                     "max_queue_per_tenant": max_queue_per_tenant,
                     "default_deadline_s": default_deadline_s}
        config = ServeConfig(
            host=host, port=port,
            pool_size=(self.config.serve_pool_size
                       if pool_size is None else pool_size),
            default_tenant=default_tenant,
            **{k: v for k, v in overrides.items() if v is not None},
        )
        server = PolystoreServer(self, config)
        self._servers.add(server)
        if start:
            server.start()
        return server

    def default_session(self):
        """The session backing :meth:`execute` and :meth:`compare_modes`."""
        with self._default_session_lock:  # concurrent first executes race here
            if self._default_session is None:
                self._default_session = self.session(name="default")
            return self._default_session

    def execute(self, program: DataflowProgram, *, mode: str = "polystore++",
                options: CompilerOptions | None = None) -> ExecutionResult:
        """Compile (or reuse a cached plan) and run a program once.

        A thin wrapper over the default session's one-shot path: plans are
        cached across calls, but every engine is re-read on every call.  See
        :meth:`plan_mode` for what each mode means.
        """
        return self.default_session().execute(program, mode=mode, options=options)

    def compare_modes(self, program: DataflowProgram,
                      modes: tuple[str, ...] = EXECUTION_MODES
                      ) -> dict[str, ExecutionResult]:
        """Run the same program under several modes (experiments E7/E8/E9)."""
        return {mode: self.execute(program, mode=mode) for mode in modes}

    # -- materialized views ----------------------------------------------------------------

    def create_view(self, name: str, dataset, *,
                    policy: "MaintenancePolicy | str" = "deferred",
                    staleness_s: float = 0.0,
                    auto_delta_rows: int = 4096) -> MaterializedView:
        """Register a materialized view over a :class:`Dataset` expression.

        The initial materialization runs through the normal compile/execute
        pipeline; afterwards the view refreshes incrementally from the source
        engines' changelogs (where the tree is delta-composable) under the
        chosen maintenance policy — ``"eager"`` (on write), ``"deferred"``
        (staleness-bounded refresh on read), ``"manual"``, or ``"auto"``
        (feedback-steered between eager and deferred).  Prepared programs
        whose subtree matches the view's expression transparently read the
        maintained state.
        """
        return self.views.create(name, dataset, policy=policy,
                                 staleness_s=staleness_s,
                                 auto_delta_rows=auto_delta_rows)

    def drop_view(self, name: str) -> None:
        """Unregister a materialized view."""
        self.views.drop(name)

    def view(self, name: str) -> MaterializedView:
        """A registered materialized view by name."""
        return self.views.get(name)
