"""Materialized views: registered dataflow queries kept fresh from deltas.

A :class:`MaterializedView` is a named :class:`~repro.eide.dataflow.Dataset`
expression registered on the system.  The incremental compiler pass
(:mod:`repro.views.incremental`) lowers it to a delta program, a seed pass
over the base data fills the state and fixes the view's schema, and from
then on the state is maintained from the engines' scoped changelogs: a
refresh costs time proportional to the *delta*, not the base data.  Trees
with no delta form run through the ordinary compile/execute pipeline on
every refresh instead.

Maintenance policies (:class:`MaintenancePolicy`):

* ``eager`` — refresh synchronously on every source write (the registry
  subscribes to the source engines' changelogs),
* ``deferred`` — refresh on read, at most once per ``staleness_s``,
* ``manual`` — refresh only when :meth:`MaterializedView.refresh` is called,
* ``auto`` — eager while the *observed* delta sizes (EWMA, recorded in the
  system's runtime feedback store) stay small, deferred once write batches
  grow past ``auto_delta_rows`` — large bursts are better absorbed into one
  refresh at read time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.datamodel.table import Row, Table
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.exceptions import ConfigurationError, QueryError
from repro.middleware.executor import Executor
from repro.stores.changelog import DeltaBatch
from repro.views.incremental import DeltaProgram, ResyncRequired, compile_incremental
from repro.views.zset import ZSet

if TYPE_CHECKING:  # runtime import would cycle through the system facade
    from repro.core.system import PolystorePlusPlus

#: Prefix marking a view's own maintenance program; the registry never
#: rewrites these against the view registry (a view must not read itself).
VIEW_PROGRAM_PREFIX = "view::"


@dataclass(frozen=True)
class MaintenancePolicy:
    """When a materialized view's state is brought up to date."""

    mode: str = "deferred"
    #: ``deferred``/``auto``: refresh-on-read at most once per this many
    #: seconds of staleness (0 = every stale read refreshes).
    staleness_s: float = 0.0
    #: ``auto``: stay eager while the EWMA of observed delta rows per
    #: refresh is at or below this; defer above it.
    auto_delta_rows: int = 4096

    _MODES = ("eager", "deferred", "manual", "auto")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ConfigurationError(
                f"unknown maintenance mode {self.mode!r}; choose one of {self._MODES}"
            )


@dataclass
class RefreshOutcome:
    """What one :meth:`MaterializedView.refresh` call did."""

    kind: str                  # "incremental" | "full" | "noop"
    charged_time_s: float = 0.0
    #: Total multiplicity of the *output* delta (rows the state changed by).
    delta_rows: int = 0
    #: Total multiplicity pulled from the sources (the write volume this
    #: refresh absorbed) — what the auto policy's EWMA is steered by.
    input_rows: int = 0
    details: dict[str, Any] = field(default_factory=dict)


class MaterializedView:
    """One registered view: definition, materialized state, refresh machinery."""

    def __init__(self, system: "PolystorePlusPlus", name: str, dataset: Dataset,
                 policy: MaintenancePolicy) -> None:
        if not isinstance(dataset, Dataset):
            raise ConfigurationError(
                f"view {name!r} must be defined from a Dataset expression"
            )
        self.system = system
        self.name = name
        self.policy = policy
        self.root = dataset.node
        self._program = DataflowProgram(f"{VIEW_PROGRAM_PREFIX}{name}")
        self._program.output(name, Dataset(self.root))
        if self._program.declared_params():
            raise ConfigurationError(
                f"view {name!r} must not contain runtime Param placeholders"
            )
        if any(node.kind == "view_read" for node in self.root.walk()):
            # A view over a view has no engine sources to watch: staleness
            # tracking and changelog subscriptions would both be empty and
            # the outer view would silently serve its creation-time
            # snapshot forever.  Register the composed expression over the
            # base tables instead (it still shares the inner view's cached
            # plan via subtree rewriting at compile time).
            raise ConfigurationError(
                f"view {name!r} reads another materialized view; register "
                f"the composed expression over the base tables instead"
            )
        self._lock = threading.RLock()
        self._ready = False
        self._delta: DeltaProgram | None = None
        #: The content of an incremental view with an unordered root; ordered
        #: roots and direct-run views keep their rows, in order, in ``_table``.
        self._state: ZSet | None = None
        #: The materialized result, dropped when ``_state`` moves on: polls of
        #: a fresh view must not re-expand and re-sort the state.
        self._table: Table | None = None
        #: engine name -> data_version watched by the full-recompute path.
        self._watched: dict[str, int] = {}
        self._version = 0
        self._last_refresh_monotonic = 0.0
        #: Source engines, resolved once (the expression tree is immutable).
        self._source_engines: set[str] | None = None
        # accounting ---------------------------------------------------------
        self.initial_charged_s = 0.0
        self.refreshes = 0
        self.incremental_refreshes = 0
        self.full_recomputes = 0
        self.skipped_refreshes = 0
        self.last_refresh_charged_s = 0.0
        self.total_refresh_charged_s = 0.0
        self.last_delta_rows = 0
        #: Last exception a write-triggered (eager/auto) refresh swallowed;
        #: cleared by the next successful refresh.
        self.last_error: Exception | None = None

    # -- identity ------------------------------------------------------------------------

    @property
    def canonical(self) -> str:
        """Canonical form of the view's root — the registry's rewrite key."""
        return self.root.canonical()

    @property
    def incremental(self) -> bool:
        """Whether the view maintains state from deltas (vs full recompute)."""
        return self._delta is not None

    @property
    def version(self) -> int:
        """Bumped whenever a refresh changed the materialized state."""
        return self._version

    def source_engines(self) -> set[str]:
        """Names of the engines the view's leaf reads touch.

        Resolved once and memoized: the expression tree is immutable, and
        this runs on the write hot path (the registry consults it for every
        changelog batch once any eager/auto view exists).
        """
        if self._source_engines is None:
            from repro.eide.dataflow import resolve_node_engine

            engines: set[str] = set()
            for node in self.root.walk():
                if node.inputs:
                    continue
                name = resolve_node_engine(node, self.system.catalog)
                if name is not None:
                    engines.add(name)
            self._source_engines = engines
        return set(self._source_engines)

    # -- initialization ------------------------------------------------------------------

    def initialize(self) -> None:
        """Materialize the view for the first time (see :meth:`_full_refresh`)."""
        with self._lock:
            self.initial_charged_s = self._full_refresh().charged_time_s
            self._last_refresh_monotonic = time.monotonic()
            self._version += 1
            self._ready = True

    @staticmethod
    def _as_table(value: Any) -> Table:
        if isinstance(value, Table):
            return value
        if (isinstance(value, list) and value
                and all(isinstance(r, dict) for r in value)):
            return Table.from_dicts(value)  # a UDF's dict rows: the public edge
        raise ConfigurationError(
            f"materialized views require tabular results; the program "
            f"produced {type(value).__name__}"
        )

    # -- refresh -------------------------------------------------------------------------

    def refresh(self, *, force_full: bool = False) -> RefreshOutcome:
        """Bring the materialized state up to date; returns what was done."""
        obs = self.system.obs
        if not obs.enabled:
            return self._refresh_locked(force_full=force_full)
        with obs.tracer.span(f"view_refresh:{self.name}", "view",
                             view=self.name) as span:
            outcome = self._refresh_locked(force_full=force_full)
            if span is not None:
                span.set(kind=outcome.kind, delta_rows=outcome.delta_rows,
                         input_rows=outcome.input_rows)
                reason = outcome.details.get("resync_reason")
                if reason is not None:
                    span.set(resync_reason=reason)
        obs.view_refreshes_total.inc(view=self.name, kind=outcome.kind)
        if outcome.kind != "noop":
            obs.view_refresh_seconds.observe(outcome.charged_time_s,
                                             view=self.name)
            obs.view_delta_rows.observe(outcome.delta_rows, view=self.name)
        resync_reason = outcome.details.get("resync_reason")
        if resync_reason is not None:
            obs.logger("views").warning(
                "view_resync", view=self.name, cause=resync_reason,
                delta_rows=outcome.delta_rows)
        return outcome

    def _refresh_locked(self, *, force_full: bool) -> RefreshOutcome:
        with self._lock:
            if self._delta is not None and not force_full:
                if not self._delta.any_source_changed(self.system.catalog):
                    self.skipped_refreshes += 1
                    return RefreshOutcome(kind="noop")
                try:
                    charged, delta, pulled = self._run_delta(seed=False)
                    outcome = RefreshOutcome(kind="incremental",
                                             charged_time_s=charged,
                                             delta_rows=delta.total_weight,
                                             input_rows=pulled)
                    self._apply_output(delta)
                    self.incremental_refreshes += 1
                except Exception as exc:  # noqa: BLE001 - state may be torn
                    # Gap, truncation, divergence — or ANY mid-apply failure:
                    # source cursors advance and operator state mutates
                    # before downstream stages run, so a partial refresh can
                    # never be retried from deltas; rebuild from the base.
                    outcome = self._full_refresh()
                    outcome.details["resync_reason"] = repr(exc)
            else:
                outcome = self._full_refresh()
            self._finish_refresh(outcome)
            return outcome

    def _full_refresh(self) -> RefreshOutcome:
        """Build the content from the base data: compile + seed, else direct run.

        A fresh delta program is seeded from a full base read: the seed's
        output delta IS the new content (the base is scanned once) and its
        schema the view's.  A tree with no delta form — or whose seed cannot
        bind yet, an empty schemaless read having only a placeholder schema —
        runs the view's program through the ordinary pipeline and keeps its
        table verbatim, row order included; the next rebuild tries again.
        """
        self.close()
        self._delta = compile_incremental(self.name, self.root,
                                          self.system.catalog)
        if self._delta is not None:
            try:
                charged, delta, pulled = self._run_delta(seed=True)
            except QueryError:
                self._delta = None
            else:
                self._apply_output(delta, seed=True)
                return RefreshOutcome(kind="full", charged_time_s=charged,
                                      delta_rows=delta.total_weight,
                                      input_rows=pulled)
        session = self.system.default_session()
        prepared = session.prepare(self._program, freeze=False)
        # Watched versions are captured before the run: a write landing
        # mid-run must leave the view stale, not be marked as seen.
        self._snapshot_watched()
        result = prepared.run(reuse_scans=False)
        self._state = None
        self._table = table = self._as_table(result.output(self.name))
        return RefreshOutcome(kind="full", charged_time_s=result.total_time_s,
                              delta_rows=len(table), input_rows=len(table))

    def close(self) -> None:
        """Release the delta program's changelog holds; a later refresh resyncs."""
        with self._lock:
            if self._delta is not None:
                self._delta.release(self.system.catalog)

    def _run_delta(self, *, seed: bool) -> tuple[float, ZSet, int]:
        """Execute the delta program through the ordinary executor.

        Returns ``(charged_s, output_delta, pulled_rows)`` where
        ``pulled_rows`` is the total multiplicity the sources emitted.
        """
        assert self._delta is not None
        executor = Executor(self.system.catalog,
                            runtime_stats=self.system.feedback_stats,
                            obs=self.system.obs)
        self._delta.set_seed(seed)
        try:
            outputs, report = executor.execute(self._delta.graph,
                                               mode="view_maintenance")
        finally:
            self._delta.set_seed(False)
        delta = next(iter(outputs.values()))
        if not isinstance(delta, ZSet):
            raise ResyncRequired(
                f"delta program of view {self.name!r} produced "
                f"{type(delta).__name__}, expected a ZSet"
            )
        source_ids = {node.op_id for node in self._delta.graph.nodes()
                      if not node.inputs}
        pulled = sum(record.rows_out for record in report.records
                     if record.op_id in source_ids)
        return report.total_time_s, delta, pulled

    def _apply_output(self, delta: ZSet, *, seed: bool = False) -> None:
        assert self._delta is not None
        ordered = self._delta.ordered_rows()
        if ordered is not None:
            self._state, self._table = None, Table.wrap(delta.schema, ordered)
        elif seed:
            # Adopted, not copied: every delta a program hands out is its
            # caller's own object.
            self._state, self._table = delta, None
        elif not delta.is_empty:
            assert self._state is not None
            self._state.update(delta)
            self._table = None

    def _finish_refresh(self, outcome: RefreshOutcome) -> None:
        if outcome.kind == "noop":
            return
        self.refreshes += 1
        if outcome.kind == "full":
            self.full_recomputes += 1
        self.last_refresh_charged_s = outcome.charged_time_s
        self.total_refresh_charged_s += outcome.charged_time_s
        self.last_delta_rows = outcome.delta_rows
        self._last_refresh_monotonic = time.monotonic()
        if outcome.delta_rows or outcome.kind == "full":
            # A full rebuild replaces the state wholesale — the cached
            # materialization must drop even when the new content happens to
            # be empty (delta_rows == 0).
            self._version += 1
        stats = self.system.feedback_stats
        if stats is not None:
            # Observed delta sizes steer the auto policy's eager/deferred
            # choice (and land in describe() like any other observation).
            stats.record(self.stats_fingerprint, kind="view_refresh",
                         target="views", time_s=outcome.charged_time_s,
                         rows_out=outcome.delta_rows,
                         rows_in=outcome.input_rows)

    @property
    def stats_fingerprint(self) -> str:
        """The runtime-stats key refresh observations are recorded under."""
        return f"view::{self.name}"

    # -- staleness -----------------------------------------------------------------------

    @property
    def stale(self) -> bool:
        """Whether source data changed since the last refresh."""
        with self._lock:
            if self._delta is not None:
                return self._delta.any_source_changed(self.system.catalog)
            return self._watched_changed()

    def _snapshot_watched(self) -> None:
        self._watched = {
            name: self.system.catalog.engine(name).data_version
            for name in self.source_engines()
            if self.system.catalog.has_engine(name)
        }

    def _watched_changed(self) -> bool:
        for name, version in self._watched.items():
            if not self.system.catalog.has_engine(name):
                return True
            if self.system.catalog.engine(name).data_version != version:
                return True
        return False

    # -- reads ---------------------------------------------------------------------------

    def read(self) -> tuple[Table, float, float]:
        """The maintained state under this view's policy.

        Returns ``(table, refresh_charged_s, refresh_wall_s)``: the charged
        time of any refresh this read triggered and the wall time it spent
        doing so (0.0 when the state was already fresh).  The executor
        charges the ``view_read`` operator ``wall - refresh_wall +
        refresh_charged`` — substituting the refresh's *charged* cost for
        its measured one, without double-counting it.
        """
        with self._lock:
            charged = 0.0
            wall = 0.0
            if self._should_refresh_on_read() and self.stale:
                started = time.perf_counter()
                charged = self.refresh().charged_time_s
                wall = time.perf_counter() - started
            try:
                return self._materialize(), charged, wall
            except ValueError:
                # Negative weights surfacing at materialization mean the
                # delta stream and the base diverged after the last refresh
                # check; rebuild from the base instead of staying wedged.
                started = time.perf_counter()
                charged += self.refresh(force_full=True).charged_time_s
                wall += time.perf_counter() - started
                return self._materialize(), charged, wall

    def _should_refresh_on_read(self) -> bool:
        mode = self.policy.mode
        if mode == "manual":
            return False
        if mode in ("eager",):
            # Eager state is maintained on write; re-checking here covers
            # writes that raced initialization or bypassed the facade.
            return True
        age = time.monotonic() - self._last_refresh_monotonic
        return age >= self.policy.staleness_s

    def _materialize(self) -> Table:
        table = self._table
        if table is None:
            assert self._state is not None
            rows = self._state.to_rows()
            rows.sort(key=_canonical_key)
            table = self._table = Table.wrap(self._state.schema, rows)
        # Hand out a container-level copy: callers own their results and may
        # mutate them, which must never reach the cached materialization.
        return Table.wrap(table.schema, list(table.rows))

    # -- write notifications (registry-dispatched) ---------------------------------------

    def on_write(self, engine_name: str, batch: DeltaBatch) -> None:
        """React to one source-engine changelog batch under the policy.

        Runs synchronously inside the writer's mutator call, so failures
        are contained here: a refresh that cannot complete (the write was a
        DDL gap dropping a source table, a resync could not quiesce) must
        not make the *committed* mutation appear to fail.  The error is
        kept for introspection and the view stays stale; the next read
        retries the refresh and surfaces the problem to the reader.
        """
        if not self._ready:
            return
        mode = self.policy.mode
        if mode != "eager" and not (mode == "auto" and self._auto_prefers_eager()):
            return
        try:
            self.refresh()
            self.last_error = None
        except Exception as exc:  # noqa: BLE001 - contained, surfaced on read
            self.last_error = exc
            self.system.obs.logger("views").error(
                "view_refresh_error", view=self.name, cause=repr(exc))

    def _auto_prefers_eager(self) -> bool:
        """Eager while observed delta sizes stay small (feedback-steered)."""
        stats = self.system.feedback_stats
        if stats is None:
            return True
        observed = stats.observed(self.stats_fingerprint)
        if observed is None:
            return True
        return observed.rows_in <= self.policy.auto_delta_rows

    # -- introspection -------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Counters and configuration, for the system description and tests."""
        with self._lock:
            return {
                "name": self.name,
                "policy": self.policy.mode,
                "incremental": self.incremental,
                "version": self._version,
                "rows": len(self._state if self._state is not None
                            else self._table),
                "refreshes": self.refreshes,
                "incremental_refreshes": self.incremental_refreshes,
                "full_recomputes": self.full_recomputes,
                "skipped_refreshes": self.skipped_refreshes,
                "initial_charged_s": self.initial_charged_s,
                "last_refresh_charged_s": self.last_refresh_charged_s,
                "total_refresh_charged_s": self.total_refresh_charged_s,
                "last_delta_rows": self.last_delta_rows,
                "last_error": (repr(self.last_error)
                               if self.last_error is not None else None),
                "source_engines": sorted(self.source_engines()),
            }

    def __repr__(self) -> str:
        return (f"MaterializedView(name={self.name!r}, "
                f"policy={self.policy.mode!r}, incremental={self.incremental})")


def _canonical_key(row: Row) -> tuple:
    """Sort key giving an unordered state's rows one deterministic order."""
    return tuple(map(_canonical_part, row))


def _canonical_part(value: Any) -> tuple:
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, float(value))
    if isinstance(value, str):
        return (3, value)
    return (4, repr(value))
