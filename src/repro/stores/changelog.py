"""The cross-engine changelog: typed, scoped delta batches per engine.

Every mutation of engine state is described by a :class:`DeltaBatch` — a
Z-set style set of ``(record, weight)`` entries (DBSP's generalized
multiset: weight ``+1`` inserts a record, ``-1`` deletes it, an update is a
``-1``/``+1`` pair; a :class:`PageEntry` stands for a whole heap page's
rows at one weight) tagged with a *scope* naming the table, namespace or
series the mutation touched.  The batch stream is the invalidation currency
of the system:

* per-scope version counters (:meth:`~repro.stores.base.Engine.data_version_for`)
  let pinned scan snapshots revalidate only against the scopes they read,
* materialized views (:mod:`repro.views`) consume the batches to refresh in
  time proportional to the change instead of the base data.

Mutations an engine cannot (or does not) describe as entries are recorded
as *gaps*: a gap poisons every cursor that opened before it, forcing
consumers of the affected scope back to a full resync.  This keeps the log
honest — a consumer never silently misses a write.

A log keeps a batch only while a registered reader is behind it
(:meth:`ChangeLog.register`): a view's changelog cursor.  Readers are held
weakly, so a dropped view releases what it held.  With no reader a batch
still goes to the WAL sink and the listeners, then is dropped.  The
``capacity`` and ``max_rows`` caps bound what a stalled reader can hold; a
cursor that falls behind the retained window reads ``complete=False`` and
must resync.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: Scope name for an engine-wide (unscoped) mutation.
UNSCOPED = None


def table_scope(table: str) -> str:
    """The changelog scope of one relational table."""
    return f"table:{table}"


def kv_scope() -> str:
    """The changelog scope of a key/value engine's single namespace."""
    return "kv"


def series_scope(key: str) -> str:
    """The changelog scope of one timeseries."""
    return f"series:{key}"


def docs_scope() -> str:
    """The changelog scope of a document (text) engine's corpus."""
    return "docs"


def leaf_read_scope(kind: str, params: dict[str, Any]) -> str | None:
    """The scope an IR leaf read depends on (``None`` = whole engine).

    This is the read-side counterpart of the write-side scope constructors
    above: a pinned ``scan`` of one table only revalidates against that
    table's counter, a ``ts_range`` of one series against that series.
    Reads whose footprint cannot be named (prefix summaries, graph
    traversals) conservatively depend on the engine-level counter.
    """
    if kind in ("scan", "index_seek"):
        table = params.get("table")
        return table_scope(str(table)) if table else None
    if kind in ("kv_get", "kv_range"):
        return kv_scope()
    if kind in ("ts_range", "window_aggregate"):
        series = params.get("series")
        return series_scope(str(series)) if series else None
    if kind in ("text_search", "keyword_features"):
        return docs_scope()
    return None


class PageEntry:
    """An entry standing for every row of a sealed heap ``page``, in order,
    each at ``weight``: what a delete that matched the page whole logs.
    Equal only to itself, so a Z-set may key a page's rows by it."""

    __slots__ = ("page", "weight")

    def __init__(self, page: Any, weight: int) -> None:
        self.page, self.weight = page, weight


class PageParts(tuple):
    """Entries among which are :class:`PageEntry` ones: what a writer logging
    one passes, so that no other batch has to be searched for them."""


@dataclass(frozen=True)
class DeltaBatch:
    """One mutation of engine state, as a weighted (Z-set) record batch.

    ``parts`` is empty for *gap* batches — mutations the engine could not
    describe record-by-record (DDL, bulk rebuilds, engines without typed
    deltas).  Consumers positioned before a gap affecting their scope must
    resync from the base data.
    """

    seq: int
    scope: str | None
    #: The entries in scan order: ``(record, weight)`` pairs, and
    #: :class:`PageEntry` ones if it is a :class:`PageParts`.
    parts: tuple[tuple[Any, int], ...] = ()
    gap: bool = False
    #: Logical operation that produced this batch — ``(name, args)`` — used
    #: by the durability subsystem to replay the mutation through the
    #: engine's own API.  ``None`` for batches no mutator claims (engines
    #: without durable replay); recovery treats those as untyped version
    #: bumps only.
    op: tuple[str, Any] | None = None
    #: How many ``(record, weight)`` pairs ``parts`` stands for.
    rows: int = 0

    @property
    def entries(self) -> tuple[tuple[Any, int], ...]:
        """Every ``(record, weight)`` pair in order, page entries expanded."""
        if type(self.parts) is not PageParts:
            return self.parts
        return tuple(pair for part in self.parts for pair in (
            [(row, part.weight) for row in part.page.rows]
            if type(part) is PageEntry else (part,)))


#: Listener signature: called synchronously after a batch is appended.
Listener = Callable[[DeltaBatch], None]


class ChangeLog:
    """A bounded, scoped, subscribable log of one engine's delta batches.

    A batch is retained only while some registered reader's position is
    behind it.  Retention is further capped both by batch count
    (``capacity``) and by total retained entry rows (``max_rows``) — a
    stalled reader, or a bulk load logging one huge batch, must not pin a
    table-sized entry list in memory; it ages out (possibly immediately),
    and consumers behind the trim resync from the base.
    """

    def __init__(self, capacity: int = 4096, *,
                 max_rows: int = 262_144) -> None:
        if capacity < 1:
            raise ValueError("changelog capacity must be at least 1")
        if max_rows < 1:
            raise ValueError("changelog max_rows must be at least 1")
        self.capacity = capacity
        self.max_rows = max_rows
        self._lock = threading.RLock()
        #: Retained batches, oldest first; a deque so steady-state eviction
        #: (one batch out per batch in, on every engine write) stays O(1).
        self._batches: deque[DeltaBatch] = deque()
        self._retained_rows = 0
        self._next_seq = 1
        #: Sequence number of the oldest batch still retained, or the next
        #: seq when the log is empty.  Cursors older than this must resync.
        self._oldest_retained = 1
        #: Weak references to the registered readers -> the seq each has
        #: read through.  A collected reader's callback only flags the
        #: table stale (it may run mid-read); the next append prunes it.
        self._readers: dict[weakref.ref, int] = {}
        self._stale = False
        #: The lowest registered position, ``None`` with no reader.
        self._floor: int | None = None
        self._listeners: list[Listener] = []
        #: Durability sink: called under the log lock for every appended
        #: batch, so WAL order equals sequence order (see
        #: :mod:`repro.durability.manager`).
        self._wal_sink: Listener | None = None

    # -- writing ------------------------------------------------------------------------

    def append(self, scope: str | None, entries: Sequence[tuple[Any, int]],
               *, notify: bool = True,
               op: tuple[str, Any] | None = None) -> DeltaBatch:
        """Record one typed mutation batch (and, by default, notify).

        ``notify=False`` lets a caller holding its own write lock append
        atomically with the mutation and deliver the notification after
        releasing it (see :meth:`notify_batch`).  ``op`` tags the batch with
        the mutator call that produced it, for durable replay.
        """
        return self._push(scope, entries if type(entries) is PageParts else tuple(entries),
                          gap=False, notify=notify, op=op)

    def mark_gap(self, scope: str | None = UNSCOPED, *, notify: bool = True,
                 op: tuple[str, Any] | None = None) -> DeltaBatch:
        """Record an undescribed mutation of ``scope`` (``None`` = everything)."""
        return self._push(scope, (), gap=True, notify=notify, op=op)

    def notify_batch(self, batch: DeltaBatch) -> None:
        """Deliver a deferred notification for an already-appended batch."""
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(batch)

    def _push(self, scope: str | None, entries: tuple, *, gap: bool,
              notify: bool, op: tuple[str, Any] | None = None) -> DeltaBatch:
        rows = sum(len(part.page.rows) if type(part) is PageEntry else 1 for part in entries) \
            if type(entries) is PageParts else len(entries)
        with self._lock:
            batch = DeltaBatch(seq=self._next_seq, scope=scope, parts=entries,
                               gap=gap, op=op, rows=rows)
            self._next_seq += 1
            if self._stale:
                self._refloor()
            if self._floor is None and not self._batches:
                # No reader: the batch reaches the WAL sink and listeners only.
                self._oldest_retained = self._next_seq
            else:
                self._batches.append(batch)
                self._retained_rows += rows
                self._trim()
            if self._wal_sink is not None:
                self._wal_sink(batch)
        # Listeners run outside the log lock (and callers are expected to
        # have released their engine locks): an eager view refresh triggered
        # here may fan work out to threads that read the same engine.
        if notify:
            self.notify_batch(batch)
        return batch

    def _forget(self, _: weakref.ref) -> None:
        self._stale = True

    def _refloor(self) -> None:
        if self._stale:
            self._stale = False
            self._readers = {ref: seq for ref, seq in self._readers.items()
                             if ref() is not None}
        self._floor = min(self._readers.values(), default=None)

    def _trim(self) -> None:
        """Drop every batch no reader is behind, then enforce the caps."""
        batches = self._batches
        floor = self._next_seq - 1 if self._floor is None else self._floor
        while batches and (batches[0].seq <= floor
                           or len(batches) > self.capacity
                           or self._retained_rows > self.max_rows):
            self._retained_rows -= batches.popleft().rows
        self._oldest_retained = batches[0].seq if batches else self._next_seq

    # -- readers ------------------------------------------------------------------------

    def register(self, reader: Any, seq: int | None = None) -> int:
        """Keep the batches after ``seq`` (default: the head) for ``reader``.

        Registering again moves the reader, releasing what only it held.
        ``reader`` is held weakly: once collected, it holds nothing.
        Returns ``seq``, so a reader registering at the head learns the
        head atomically with its hold.
        """
        with self._lock:
            if seq is None:
                seq = self._next_seq - 1
            self._readers[weakref.ref(reader, self._forget)] = seq
            self._refloor()
            self._trim()
            return seq

    def release(self, reader: Any) -> None:
        """Unregister ``reader``; the batches only it held are dropped."""
        with self._lock:
            self._readers.pop(weakref.ref(reader), None)
            self._refloor()
            self._trim()

    # -- reading ------------------------------------------------------------------------

    @property
    def latest_seq(self) -> int:
        """Sequence number of the newest batch (0 when nothing was logged)."""
        with self._lock:
            return self._next_seq - 1

    def read_since(self, cursor: int, scope: str | None = None
                   ) -> tuple[list[DeltaBatch], bool]:
        """Batches with ``seq > cursor`` affecting ``scope``, plus completeness.

        ``scope=None`` reads every scope.  The second element is ``False``
        when the cursor fell behind the retained window or a *gap* batch
        affecting the scope appeared after the cursor — the consumer's state
        can no longer be maintained from deltas and must be resynced.
        """
        with self._lock:
            batches, complete, _ = self._read_locked(cursor, scope)
            return batches, complete

    def pull(self, cursor: int, scope: str | None = None
             ) -> tuple[list[DeltaBatch], bool, int]:
        """:meth:`read_since` plus the head seq the read covered, atomically.

        A scope-filtered consumer must advance its cursor to the returned
        head even when no batch matched: a complete read provably missed
        nothing up to the head, and leaving the cursor behind would let
        heavy writes to *other* scopes trim the log past it — forcing full
        resyncs of a scope that received zero writes.
        """
        with self._lock:
            return self._read_locked(cursor, scope)

    def _read_locked(self, cursor: int, scope: str | None
                     ) -> tuple[list[DeltaBatch], bool, int]:
        head = self._next_seq - 1
        if cursor >= head:
            # Caught up — the common case for every staleness probe on the
            # write hot path; must not walk the retained window.
            return [], True, head
        if cursor < self._oldest_retained - 1:
            return [], False, head
        out: list[DeltaBatch] = []
        # Seqs are contiguous (appends +1, evictions only from the left),
        # so the first batch past the cursor sits at a known offset.
        start = cursor + 1 - self._oldest_retained
        for batch in itertools.islice(self._batches, start, None):
            affects = (scope is None or batch.scope is None
                       or batch.scope == scope)
            if not affects:
                continue
            if batch.gap:
                return [], False, head
            out.append(batch)
        return out, True, head

    # -- introspection ------------------------------------------------------------------

    def retention_stats(self) -> dict[str, int]:
        """Current log depth, for ``system.describe()`` and gauge scrapes.

        ``lag_window`` is how many sequence numbers a consumer may fall
        behind before it must resync — the retained batch count, which is
        also what a freshly attached replica would have to replay.
        """
        with self._lock:
            return {
                "retained_batches": len(self._batches),
                "retained_rows": self._retained_rows,
                "latest_seq": self._next_seq - 1,
                "oldest_retained_seq": self._oldest_retained,
                "lag_window": len(self._batches),
                "readers": sum(ref() is not None for ref in self._readers),
                "capacity": self.capacity,
                "max_rows": self.max_rows,
            }

    # -- durability ---------------------------------------------------------------------

    def attach_wal(self, sink: Listener) -> None:
        """Install the durability sink (at most one; called under the lock)."""
        with self._lock:
            self._wal_sink = sink

    def detach_wal(self) -> None:
        """Remove the durability sink."""
        with self._lock:
            self._wal_sink = None

    # -- subscriptions ------------------------------------------------------------------

    def subscribe(self, listener: Listener) -> None:
        """Register a synchronous per-batch listener (idempotent)."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def unsubscribe(self, listener: Listener) -> None:
        """Remove a listener registered with :meth:`subscribe`."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)
