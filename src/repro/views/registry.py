"""The view registry: registration, changelog subscriptions, plan rewriting.

The registry is the system-side home of every
:class:`~repro.views.view.MaterializedView`:

* :meth:`ViewRegistry.create` initializes and registers a view, subscribes
  it to its source engines' changelogs (eager/auto maintenance) and bumps
  the deployment's plan generation so cached plans recompile against the
  new registry.
* :meth:`ViewRegistry.rewrite` is the compiler hook: any subtree of a
  program that is *structurally identical* (same canonical form) to a
  registered view's definition is replaced by a ``view_read`` operator, so
  prepared programs transparently read maintained state — the plan cache
  and scan-snapshot machinery now *refresh* instead of recompute.
* :meth:`ViewRegistry.serve` is the executor hook backing ``view_read``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.datamodel.table import Table
from repro.eide.dataflow import DataflowNode, DataflowProgram, Dataset
from repro.exceptions import ConfigurationError
from repro.stores.changelog import DeltaBatch
from repro.views.view import (
    VIEW_PROGRAM_PREFIX,
    MaintenancePolicy,
    MaterializedView,
)

if TYPE_CHECKING:  # runtime import would cycle through the system facade
    from repro.core.system import PolystorePlusPlus


class ViewRegistry:
    """All materialized views registered on one deployment."""

    def __init__(self, system: "PolystorePlusPlus") -> None:
        self.system = system
        self._lock = threading.RLock()
        self._views: dict[str, MaterializedView] = {}
        self._by_canonical: dict[str, str] = {}
        #: Names/canonicals reserved by in-flight creates.  Reservations keep
        #: concurrent creates from colliding but are invisible to
        #: rewrite/serve — a half-initialized view must never be read.
        self._pending_names: set[str] = set()
        self._pending_canonicals: set[str] = set()
        #: engine name -> subscribed listener (one per engine, fans out).
        self._listeners: dict[str, Callable[[DeltaBatch], None]] = {}

    # -- registration --------------------------------------------------------------------

    def create(self, name: str, dataset: Dataset, *,
               policy: MaintenancePolicy | str = "deferred",
               staleness_s: float = 0.0,
               auto_delta_rows: int = 4096) -> MaterializedView:
        """Register, initialize and subscribe a new materialized view."""
        if isinstance(policy, str):
            policy = MaintenancePolicy(mode=policy, staleness_s=staleness_s,
                                       auto_delta_rows=auto_delta_rows)
        view = MaterializedView(self.system, name, dataset, policy)
        canonical = view.canonical
        with self._lock:
            if name in self._views or name in self._pending_names:
                raise ConfigurationError(f"view {name!r} already exists")
            existing = self._by_canonical.get(canonical)
            if existing is not None or canonical in self._pending_canonicals:
                raise ConfigurationError(
                    f"view {existing or '<being created>'!r} already "
                    f"materializes this expression"
                )
            self._pending_names.add(name)
            self._pending_canonicals.add(canonical)
        try:
            # Initialization compiles and runs the view's program through a
            # session, which takes the session's prepare lock — and prepare
            # itself takes this registry's lock (the rewrite hook).  Holding
            # the registry lock across initialize() would deadlock ABBA
            # against any concurrent prepare, so it runs on a reservation.
            view.initialize()
        except BaseException:
            with self._lock:
                self._pending_names.discard(name)
                self._pending_canonicals.discard(canonical)
            raise
        with self._lock:
            self._pending_names.discard(name)
            self._pending_canonicals.discard(canonical)
            self._views[name] = view
            self._by_canonical[canonical] = name
            self._subscribe(view)
        # Cached plans were compiled against the old registry; recompile so
        # matching subtrees start reading the view.
        self.system._invalidate_plans()
        if self.system.durability is not None:
            self.system.durability.save_view(view)
        return view

    def drop(self, name: str) -> None:
        """Unregister a view (its subscriptions are released)."""
        with self._lock:
            view = self._views.pop(name, None)
            if view is None:
                raise ConfigurationError(f"no view named {name!r}")
            self._by_canonical.pop(view.canonical, None)
            self._resubscribe_all()
        view.close()
        self.system._invalidate_plans()
        if self.system.durability is not None:
            self.system.durability.forget_view(name)

    def get(self, name: str) -> MaterializedView:
        """A registered view by name."""
        with self._lock:
            try:
                return self._views[name]
            except KeyError as exc:
                raise ConfigurationError(f"no view named {name!r}") from exc

    def names(self) -> list[str]:
        """Names of all registered views."""
        with self._lock:
            return sorted(self._views)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._views

    # -- changelog subscriptions ---------------------------------------------------------

    @staticmethod
    def _wants_notifications(view: MaterializedView) -> bool:
        """Only eager/auto views react to writes; deferred/manual refresh on
        read — subscribing them would tax every mutation for nothing."""
        return view.policy.mode in ("eager", "auto")

    def _subscribe(self, view: MaterializedView) -> None:
        if not self._wants_notifications(view):
            return
        for engine_name in view.source_engines():
            if engine_name in self._listeners:
                continue
            if not self.system.catalog.has_engine(engine_name):
                continue

            def listener(batch: DeltaBatch, _engine: str = engine_name) -> None:
                self._dispatch(_engine, batch)

            self.system.catalog.engine(engine_name).changelog.subscribe(listener)
            self._listeners[engine_name] = listener

    def _resubscribe_all(self) -> None:
        """Drop listeners no remaining view needs (called under the lock)."""
        needed: set[str] = set()
        for view in self._views.values():
            if self._wants_notifications(view):
                needed.update(view.source_engines())
        for engine_name in list(self._listeners):
            if engine_name in needed:
                continue
            listener = self._listeners.pop(engine_name)
            if self.system.catalog.has_engine(engine_name):
                self.system.catalog.engine(engine_name).changelog.unsubscribe(listener)

    def _dispatch(self, engine_name: str, batch: DeltaBatch) -> None:
        with self._lock:
            views = [view for view in self._views.values()
                     if self._wants_notifications(view)
                     and engine_name in view.source_engines()]
        for view in views:
            view.on_write(engine_name, batch)

    # -- executor hook -------------------------------------------------------------------

    def serve(self, name: str) -> tuple[Table, float, float, dict[str, Any]]:
        """Read a view for a ``view_read`` operator.

        Returns ``(table, refresh_charged_s, refresh_wall_s, details)``;
        the charge covers any policy-triggered refresh this read performed,
        and the wall figure lets the executor avoid double-counting it.
        """
        view = self.get(name)
        table, charged, wall = view.read()
        details = {"view": name, "view_version": view.version,
                   "incremental": view.incremental}
        return table, charged, wall, details

    # -- compiler hook -------------------------------------------------------------------

    @property
    def rewritable(self) -> bool:
        """Whether any registered view could match a program subtree."""
        with self._lock:
            return bool(self._by_canonical)

    def rewrite(self, program: DataflowProgram) -> DataflowProgram:
        """Substitute registered-view subtrees with ``view_read`` operators.

        Matching is by canonical structural form, largest subtree first.
        Programs named with the view-maintenance prefix are returned
        untouched (a view's own refresh must read the base engines).
        """
        if program.name.startswith(VIEW_PROGRAM_PREFIX):
            return program
        with self._lock:
            by_canonical = dict(self._by_canonical)
        if not by_canonical:
            return program
        converted: dict[int, DataflowNode] = {}
        changed = False

        def convert(node: DataflowNode) -> DataflowNode:
            nonlocal changed
            if id(node) in converted:
                return converted[id(node)]
            name = by_canonical.get(node.canonical())
            if name is not None:
                replacement = DataflowNode("view_read", {"view": name}, (),
                                           None, node.label)
                converted[id(node)] = replacement
                changed = True
                return replacement
            children = tuple(convert(child) for child in node.inputs)
            if all(child is original for child, original
                   in zip(children, node.inputs)):
                converted[id(node)] = node
                return node
            rebuilt = DataflowNode(node.kind, dict(node.params), children,
                                   node.engine, node.label)
            converted[id(node)] = rebuilt
            return rebuilt

        rewritten = DataflowProgram(program.name)
        for output_name, root in program.output_items():
            rewritten.output(output_name, Dataset(convert(root)))
        return rewritten if changed else program

    # -- introspection -------------------------------------------------------------------

    def describe(self) -> list[dict[str, Any]]:
        """Per-view counters for :meth:`PolystorePlusPlus.describe`."""
        with self._lock:
            views = list(self._views.values())
        return [view.describe() for view in views]
