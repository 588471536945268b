"""Caches behind the session API: compiled plans and pinned scan snapshots.

Two caches make :meth:`~repro.client.PreparedProgram.run` cheap:

* :class:`PlanCache` — an LRU over compiled plans, keyed by the program's
  deterministic fingerprint plus execution mode, compiler options and the
  deployment's plan generation.  Registering a new engine or accelerator
  bumps the generation, so every older plan is unreachable (and the system
  additionally clears live session caches explicitly).
* :class:`ScanSnapshot` — per-plan pinned results for *pure* operators whose
  values depend only on engine state (scans, summaries, joins over them, and
  the migrations that ship them).  Each pinned entry remembers the *scoped*
  data versions its subtree's leaf reads depend on — the table a scan reads,
  the series a window covers — so a write to one table no longer unpins
  entries that only read other tables; reads whose footprint cannot be named
  fall back to the engine-wide counter.  Operators with side effects or
  nondeterminism (``train``, which changes its engine's models and work
  counter, and ``python_udf``) are never pinned and re-execute every run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.catalog import Catalog
from repro.compiler.pipeline import CompilationResult
from repro.datamodel.table import Table
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.middleware.executor.report import TaskRecord
from repro.stores.changelog import leaf_read_scope

class PlanCache:
    """A thread-safe LRU cache of compiled plans with hit/miss statistics.

    ``on_evict`` is called (outside the cache lock) with every value the
    cache lets go of — LRU victims, same-key replacements and invalidated
    entries — so owners can release resources the value holds, most
    importantly a :class:`CachedPlan`'s pinned scan snapshot.
    """

    def __init__(self, capacity: int = 64,
                 on_evict: Callable[[Any], None] | None = None) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get(self, key: Hashable) -> Any | None:
        """The cached value for ``key`` (refreshing recency), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least-recently-used entry if full."""
        released: list[Any] = []
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None and previous is not value:
                released.append(previous)
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                _, victim = self._entries.popitem(last=False)
                released.append(victim)
                self._evictions += 1
        self._release(released)

    def invalidate(self) -> int:
        """Drop every entry; returns the number removed."""
        with self._lock:
            released = list(self._entries.values())
            removed = len(self._entries)
            self._entries.clear()
            if removed:
                self._invalidations += 1
        self._release(released)
        return removed

    def _release(self, values: list[Any]) -> None:
        """Run the eviction callback outside the lock (it may take others)."""
        if self._on_evict is None:
            return
        for value in values:
            self._on_evict(value)

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _protective_copy(value: Any) -> Any:
    """A container-level copy so caller mutation cannot reach a pinned value.

    Rows/elements themselves are immutable tuples or scalars in practice;
    copying the outer container is what protects against ``pop``/``append``/
    key-assignment on returned results.
    """
    if isinstance(value, Table):
        return Table.wrap(value.schema, list(value.rows))
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


#: One snapshot dependency: ``(engine name, scope or None)``.  ``None``
#: scope validates against the engine-wide counter.
SnapshotDep = tuple[str, "str | None"]


class ScanSnapshot:
    """Pinned pure-operator results for one compiled plan.

    Implements the executor's ``ResultCache`` protocol.  Entries are only
    pinned for operators whose whole upstream subtree consists of *pure*
    kinds (:data:`repro.ir.kinds.KINDS`: results that are functions of engine
    state and upstream values only); each entry is validated against the *scoped*
    data versions of the leaf reads that subtree depends on before every
    run.  Scoping is what keeps unrelated writes from unpinning everything:
    a scan of ``orders`` depends on ``(engine, "table:orders")``, so a write
    to ``customers`` on the same engine leaves it pinned.  Interior
    operators (filters, joins, migrations, ...) are pure functions of their
    inputs and contribute no dependencies of their own — except ``predict``,
    which reads the model registry of its ML engine.
    """

    def __init__(self, graph: IRGraph) -> None:
        self._lock = threading.RLock()
        self._eligible = self._eligible_subtrees(graph)
        self._entries: dict[str, tuple[Any, TaskRecord]] = {}
        self._entry_versions: dict[str, dict[SnapshotDep, int]] = {}
        # Versions observed at each run's begin_run.  Thread-local because
        # overlapping runs (Session.submit) share one snapshot: each run must
        # tag its pins with the versions *it* started from, not a sibling's.
        self._run_state = threading.local()
        self.replays = 0
        self.invalidated = 0

    @staticmethod
    def _eligible_subtrees(graph: IRGraph) -> dict[str, frozenset[SnapshotDep]]:
        """Map each pinnable op id to the scoped reads its subtree depends on."""
        eligible: dict[str, frozenset[SnapshotDep]] = {}
        for node in graph.topological_order():
            if not KINDS[node.kind].pure:
                continue
            if any(input_id not in eligible for input_id in node.inputs):
                continue
            deps: set[SnapshotDep] = set()
            for input_id in node.inputs:
                deps.update(eligible[input_id])
            if not node.inputs and node.engine:
                # A leaf read: depend on exactly the scope it covers.
                deps.add((node.engine, leaf_read_scope(node.kind, node.params)))
            elif node.kind == "predict" and node.engine:
                # Scoring reads model state from the ML engine, not just its
                # dataflow inputs.
                deps.add((node.engine, None))
            eligible[node.op_id] = frozenset(deps)
        return eligible

    # -- executor ResultCache protocol ---------------------------------------------------

    def begin_run(self, catalog: Catalog) -> None:
        """Drop entries whose scoped reads changed since they were pinned."""
        with self._lock:
            versions: dict[SnapshotDep, int] = {}
            for deps in self._eligible.values():
                for dep in deps:
                    name, scope = dep
                    if dep not in versions and catalog.has_engine(name):
                        versions[dep] = catalog.engine(name).data_version_for(scope)
            self._run_state.versions = versions
            stale = [
                op_id for op_id, pinned in self._entry_versions.items()
                if any(versions.get(dep) != version
                       for dep, version in pinned.items())
            ]
            for op_id in stale:
                self._entries.pop(op_id, None)
                self._entry_versions.pop(op_id, None)
                self.invalidated += 1

    def lookup(self, op_id: str) -> tuple[Any, TaskRecord] | None:
        with self._lock:
            entry = self._entries.get(op_id)
            if entry is None:
                return None
            # Revalidate against the versions THIS run started from: an
            # overlapping run may have pinned this entry from data read
            # before a write that this run's begin_run already observed.
            run_versions = getattr(self._run_state, "versions", None)
            if run_versions is not None:
                pinned = self._entry_versions.get(op_id, {})
                if any(run_versions.get(dep) != version
                       for dep, version in pinned.items()):
                    return None
            self.replays += 1
            value, record = entry
        # Hand out a defensive copy: callers own the result objects and may
        # mutate them, which must never poison the pinned original.  The
        # O(rows) copy happens outside the lock — entries are immutable once
        # stored, and copying inside would serialize concurrent replays of
        # exactly the large pinned scans the snapshot exists to accelerate.
        return _protective_copy(value), record

    def store(self, op_id: str, value: Any, record: TaskRecord) -> None:
        with self._lock:
            deps = self._eligible.get(op_id)
            if deps is None or op_id in self._entries:
                return
        pinned = _protective_copy(value)  # O(rows), outside the lock
        with self._lock:
            if op_id in self._entries:  # a concurrent run pinned it first
                return
            run_versions = getattr(self._run_state, "versions", {})
            self._entries[op_id] = (pinned, record)
            self._entry_versions[op_id] = {
                dep: run_versions[dep]
                for dep in deps if dep in run_versions
            }

    # -- management ----------------------------------------------------------------------

    def clear(self) -> int:
        """Unpin everything (the next run re-reads every engine)."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._entry_versions.clear()
            return removed

    @property
    def pinned(self) -> int:
        """Number of currently pinned operator results."""
        with self._lock:
            return len(self._entries)

    @property
    def pinnable(self) -> int:
        """Number of operators in the plan eligible for pinning."""
        return len(self._eligible)


@dataclass
class CachedPlan:
    """One plan-cache entry: the compilation plus its shared scan snapshot."""

    compilation: CompilationResult
    snapshot: ScanSnapshot
    generation: int
    fingerprint: str
    mode: str
    hits: int = 0
    declared_params: dict[str, Any] = field(default_factory=dict)
    #: Ids of the compiled graph's operators whose params hold a Param: the
    #: only nodes a run copies and binds; every other operator is shared
    #: with ``compilation.graph``.
    param_ops: tuple[str, ...] = ()
    #: The graph with every Param bound to its default, computed once: the
    #: all-defaults binding never changes, so argument-less runs must not
    #: rebind each time.
    default_bound_graph: IRGraph | None = None
    #: ``operator fingerprint -> estimated rows`` at compile time.  The
    #: session compares these against the runtime statistics before every
    #: run; drift past the configured factor ages the plan (see
    #: ``Session._reoptimize_if_stale``).
    baked_estimates: dict[str, int] = field(default_factory=dict)
    #: How many times plan aging replaced this program's physical plan.
    reoptimizations: int = 0
    #: Plan fingerprint of the entry this one re-optimized away from.
    reoptimized_from: str | None = None
    #: Set (under the session's prepare lock) when aging replaced this entry
    #: with a new one, so prepared handles racing the replacement converge.
    superseded_by: "CachedPlan | None" = None
