"""Admission control: bounded execution slots, bounded queues, stride fairness.

The controller front-ends the server's session pool.  ``slots`` mirrors the
pool size: an admitted request immediately occupies one execution slot; when
all slots are busy the request is *queued* per tenant, and when its tenant
queue (or the global bound) is full it is *rejected* with ``OVERLOADED`` —
overload is always an explicit, retryable signal, never silent unbounded
queueing.

Dequeue order across tenants is `stride scheduling
<https://doi.org/10.5555/1267638.1267639>`_: each tenant carries a *pass*
value advanced by ``STRIDE / weight`` per dispatched request, and the
non-empty tenant with the smallest pass runs next.  A weight-4 tenant
therefore drains four requests for every one of a weight-1 tenant under
contention, while an idle tenant's pass is re-synced on arrival so it
cannot hoard credit.  The ``retry_after_s`` hint on rejection is derived
from an EWMA of observed service times and the queue backlog.

All state here is intentionally *not* locked: every method must be called
from the server's event-loop thread only.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any

from repro.exceptions import ConfigurationError

#: Stride numerator; pass values advance by ``STRIDE / weight`` per dispatch.
STRIDE = 1 << 20

#: EWMA smoothing factor for the observed service time.
_EWMA_ALPHA = 0.2

#: Fallback service-time estimate before any request completes.
_DEFAULT_SERVICE_S = 0.05


class AdmissionController:
    """Slot/queue bookkeeping for one server.  Event-loop thread only."""

    def __init__(self, *, slots: int, max_queue: int,
                 max_queue_per_tenant: int) -> None:
        if slots < 1:
            raise ConfigurationError("admission slots must be positive")
        if max_queue < 0 or max_queue_per_tenant < 0:
            raise ConfigurationError("admission queue bounds must be >= 0")
        self.slots = slots
        self.max_queue = max_queue
        self.max_queue_per_tenant = max_queue_per_tenant
        self._busy = 0
        self._queued = 0
        # Tenant -> FIFO of queued items; ordered dict keeps iteration stable.
        self._queues: "OrderedDict[str, deque[Any]]" = OrderedDict()
        self._pass: dict[str, float] = {}
        self._global_pass = 0.0
        self._service_ewma_s = _DEFAULT_SERVICE_S
        #: Program name -> EWMA of that program's own service time.
        self.program_service_s: dict[str, float] = {}
        self.admitted_total = 0
        self.queued_total = 0
        self.rejected_total = 0

    # -- admission -----------------------------------------------------------------------

    def try_admit(self, tenant: str, item: Any, *,
                  weight: float = 1.0) -> tuple[str, float]:
        """Admit, queue, or reject one request.

        Returns ``("run", 0.0)`` when an execution slot was taken,
        ``("queued", 0.0)`` when the request joined its tenant queue, or
        ``("reject", retry_after_s)`` when both the slots and the bounded
        queues are full.
        """
        if self._busy < self.slots and self._queued == 0:
            self._busy += 1
            self._charge(tenant, weight)
            self.admitted_total += 1
            return "run", 0.0
        queue = self._queues.get(tenant)
        depth = len(queue) if queue is not None else 0
        if self._queued >= self.max_queue or depth >= self.max_queue_per_tenant:
            self.rejected_total += 1
            return "reject", self.retry_after_hint()
        if queue is None:
            queue = deque()
            self._queues[tenant] = queue
            # Re-sync an idle tenant's pass so it cannot spend banked credit
            # accumulated while it had nothing queued.
            self._pass[tenant] = max(self._pass.get(tenant, 0.0),
                                     self._global_pass)
        queue.append(item)
        self._queued += 1
        self.queued_total += 1
        return "queued", 0.0

    def on_release(self, weights: dict[str, float] | Any = None) -> Any | None:
        """Free one execution slot; dispatch the next queued item if any.

        ``weights`` maps tenant -> stride weight (a callable ``tenant ->
        weight`` also works).  Returns the dequeued item now holding the
        freed slot, or ``None`` when nothing was queued.
        """
        if self._busy <= 0:
            raise RuntimeError("on_release called with no busy slot")
        if self._queued == 0:
            self._busy -= 1
            return None
        tenant = min(self._queues, key=lambda t: self._pass.get(t, 0.0))
        queue = self._queues[tenant]
        item = queue.popleft()
        if not queue:
            del self._queues[tenant]
            self._pass.pop(tenant, None)
        self._queued -= 1
        weight = 1.0
        if callable(weights):
            weight = weights(tenant)
        elif weights:
            weight = weights.get(tenant, 1.0)
        self._charge(tenant, weight)
        self.admitted_total += 1
        return item

    def _charge(self, tenant: str, weight: float) -> None:
        advanced = self._pass.get(tenant, self._global_pass) + STRIDE / weight
        self._global_pass = max(self._global_pass, advanced)
        # A pass entry only matters while the tenant has queued work (it is
        # what on_release's min-pass pick reads); storing it for queue-less
        # tenants would grow without bound with tenant-id cardinality, and
        # the arrival re-sync to >= _global_pass supersedes it anyway.
        if tenant in self._queues:
            self._pass[tenant] = advanced

    # -- cancellation / shutdown ---------------------------------------------------------

    def remove(self, tenant: str, item: Any) -> bool:
        """Remove one still-queued item (client cancel); False if absent."""
        queue = self._queues.get(tenant)
        if queue is None:
            return False
        try:
            queue.remove(item)
        except ValueError:
            return False
        self._queued -= 1
        if not queue:
            del self._queues[tenant]
            self._pass.pop(tenant, None)
        return True

    def drain(self) -> list[Any]:
        """Remove and return every queued item (shutdown path)."""
        items: list[Any] = []
        for queue in self._queues.values():
            items.extend(queue)
        self._queues.clear()
        self._pass.clear()
        self._queued = 0
        return items

    # -- feedback / introspection --------------------------------------------------------

    def observe_service_time(self, seconds: float, program: str | None = None) -> None:
        """Fold one service time into the EWMA, and into ``program``'s own."""
        if seconds >= 0:
            self._service_ewma_s += _EWMA_ALPHA * (seconds
                                                   - self._service_ewma_s)
            if program is not None:
                ewma = self.program_service_s.setdefault(program, seconds)
                self.program_service_s[program] = ewma + _EWMA_ALPHA * (seconds - ewma)

    def retry_after_hint(self) -> float:
        """How long a rejected client should wait before retrying.

        The backlog ahead of a new arrival is every queued request plus the
        busy slots, serviced ``slots`` at a time at the EWMA rate.
        """
        backlog = self._queued + self._busy
        return max(0.001, backlog * self._service_ewma_s / self.slots)

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return self._queued

    def queue_depths(self) -> dict[str, int]:
        return {tenant: len(queue) for tenant, queue in self._queues.items()}

    def snapshot(self) -> dict[str, Any]:
        return {
            "slots": self.slots,
            "max_queue": self.max_queue,
            "busy": self._busy,
            "queued": self._queued,
            "queues": self.queue_depths(),
            "admitted_total": self.admitted_total,
            "queued_total": self.queued_total,
            "rejected_total": self.rejected_total,
            "service_ewma_s": round(self._service_ewma_s, 6),
        }
