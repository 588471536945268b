"""Common abstractions for the polystore's data-processing engines.

Every substrate engine (relational, key/value, timeseries, graph, array,
text, ML) implements :class:`Engine`.  The middleware only depends on this
interface: an engine declares its data model and concurrency contract (which
operator kinds run on it is the business of its adapter and of
:mod:`repro.ir.kinds`).  An engine keeps no record of its calls: what an
operator cost is the executor's
:class:`~repro.middleware.executor.report.TaskRecord`, and those records feed
:class:`~repro.middleware.feedback.stats.RuntimeStats`, which placement reads.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Sequence

from repro.stores.changelog import ChangeLog


class DataModel(enum.Enum):
    """Native data model exposed by an engine."""

    RELATIONAL = "relational"
    KEY_VALUE = "key_value"
    TIMESERIES = "timeseries"
    GRAPH = "graph"
    ARRAY = "array"
    DOCUMENT = "document"
    TENSOR = "tensor"


class Engine(abc.ABC):
    """Abstract base class for every data-processing engine in the polystore."""

    #: Native data model; subclasses override.
    data_model: DataModel = DataModel.RELATIONAL

    def __init__(self, name: str) -> None:
        self.name = name
        self._data_version = 0
        #: Mutations not attributed to any scope (invalidate everything).
        self._unscoped_version = 0
        #: Per-scope mutation counters (table/namespace/series granularity).
        self._scope_versions: dict[str, int] = {}
        #: Typed delta batches describing every mutation (see
        #: :mod:`repro.stores.changelog`); materialized views consume these.
        self.changelog = ChangeLog()
        #: Durability hook for mutations that bypass the changelog (index
        #: DDL): set by the durability manager, called by
        #: :meth:`emit_durability_meta`.
        self._durability_meta: Any = None

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on every mutation of engine state.

        This is the aggregated, engine-wide counter: any write anywhere in
        the engine changes it, so consumers that cannot name their read
        footprint stay correct.  Scope-aware consumers validate against
        :meth:`data_version_for` instead.
        """
        return self._data_version

    def data_version_for(self, scope: str | None) -> int:
        """Mutation counter for one scope (table/namespace/series).

        Changes when ``scope`` itself is written *or* when an unscoped
        mutation lands (an unscoped write may have touched anything).
        ``scope=None`` is the engine-wide counter.
        """
        if scope is None:
            return self._data_version
        return self._unscoped_version + self._scope_versions.get(scope, 0)

    def known_scopes(self) -> set[str]:
        """Every scope this engine has recorded a mutation for."""
        return set(self._scope_versions)

    def mark_data_changed(self, scope: str | None = None,
                          entries: Sequence[tuple[Any, int]] | None = None,
                          *, notify: bool = True,
                          op: tuple[str, Any] | None = None):
        """Record that engine state changed (called by every mutator).

        ``scope`` names the table/namespace/series the mutation touched
        (``None`` conservatively invalidates every scope).  ``entries`` is
        the mutation as Z-set ``(record, weight)`` pairs; when omitted the
        changelog records a *gap* and delta consumers of the scope resync.
        ``notify=False`` defers listener delivery to the caller (who must
        call ``changelog.notify_batch`` on the returned batch after
        releasing its locks).  ``op`` names the mutator call that produced
        the change, for durable replay.  Returns the appended
        :class:`~repro.stores.changelog.DeltaBatch`.
        """
        self._data_version += 1
        if scope is None:
            self._unscoped_version += 1
        else:
            self._scope_versions[scope] = self._scope_versions.get(scope, 0) + 1
        if entries is None:
            return self.changelog.mark_gap(scope, notify=notify, op=op)
        return self.changelog.append(scope, entries, notify=notify, op=op)

    def emit_durability_meta(self, op: tuple[str, Any]) -> None:
        """Report a mutation that bypasses the changelog (e.g. index DDL).

        A no-op unless a durability manager is attached; the WAL records it
        as a *meta* record so recovery can replay the call.
        """
        if self._durability_meta is not None:
            self._durability_meta(op)

    def describe(self) -> dict[str, Any]:
        """A small metadata dictionary used by the catalog and the EIDE config."""
        return {
            "name": self.name,
            "type": type(self).__name__,
            "data_model": self.data_model.value,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
