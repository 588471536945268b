"""The serving tier: one asyncio front-end over a bounded session pool.

:class:`PolystoreServer` multiplexes many client connections onto
``pool_size`` worker sessions.  Clients execute *registered* programs by
name (prepared-statement style: the server owns plan caching, clients send
parameters), over either a TCP transport speaking the length-prefixed JSON
protocol of :mod:`repro.serve.protocol` or an in-process transport
(:meth:`PolystoreServer.connect`) that passes the same dictionaries without
bytes.

Threading model — three kinds of threads, one owner per piece of state:

* the **event-loop thread** owns every coordination structure (admission
  queues, coalescing groups, the in-flight registry, the free slots).
  TCP frames are cut in the transport callback; other requests, cancels
  and completions are funneled here via ``call_soon_threadsafe``, so none
  of it needs locks.  The loop *runs* an admitted request itself when its
  program's observed service time is below ``sys.getswitchinterval()`` and
  a free slot has prepared it: a worker running Python yields the GIL to
  the loop only once per switch interval anyway;
* **worker threads** (exactly ``pool_size``) run every other request on
  the slot the loop chose and post the outcome back; a held slot is one
  busy admission slot, so admission saturation *is* session-pool saturation;
* **client threads** only enqueue messages onto the loop and wait on
  per-request futures.

Overload is always explicit: a request beyond the bounded queues is
rejected with a retryable ``OVERLOADED`` error and a ``retry_after_s``
hint — the server never queues unboundedly and never blocks a client
silently.  Cancellation (client ``cancel`` op, queued-deadline expiry, or
disconnect) is cooperative end-to-end: a queued request is unlinked before
it ever runs, a running one has its :class:`CancellationToken` tripped and
stops at the executor's next checkpoint.
"""

from __future__ import annotations

import asyncio
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.cancellation import CancellationToken
from repro.exceptions import CancelledError, ConfigurationError, DeadlineExceededError
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.coalesce import Coalescer, coalesce_key
from repro.serve.protocol import (
    encode_frame,
    error_response,
    ok_response,
    serialize_outputs,
)
from repro.serve.quotas import QuotaManager

#: How often the loop sweeps queued/waiting requests for expired deadlines.
_SWEEP_INTERVAL_S = 0.025


@dataclass(frozen=True)
class ServeConfig:
    """Front-end configuration (``system.serve(...)`` keywords override it)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker sessions = execution slots = admission-control capacity.
    pool_size: int = 4
    #: Total queued requests across tenants before rejecting OVERLOADED.
    max_queue: int = 64
    #: Queued requests any single tenant may hold.
    max_queue_per_tenant: int = 32
    #: Deadline applied to requests that do not send their own.
    default_deadline_s: float | None = None
    #: Tenant attributed to requests that do not send one.
    default_tenant: str = "default"

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ConfigurationError("serve pool_size must be positive")
        if self.max_queue < 0 or self.max_queue_per_tenant < 0:
            raise ConfigurationError("serve queue bounds must be >= 0")


@dataclass(frozen=True)
class RegisteredProgram:
    """One name a client may execute, bound to its compile-time choices."""

    name: str
    program: Any
    mode: str
    options: Any
    #: Whether identical concurrent requests may share one execution.
    #: Register write programs with ``coalesce=False``.
    coalesce: bool
    #: The parameter names a request may bind.
    params: frozenset


class _Request:
    """One in-flight execute request (loop-owned coordination record)."""

    __slots__ = ("id", "tenant", "name", "params", "token", "deliver",
                 "enqueued_at", "started_at", "state", "group", "key",
                 "tracker")

    def __init__(self, request_id: Any, tenant: str, name: str,
                 params: dict[str, Any], token: CancellationToken,
                 deliver: Any, enqueued_at: float,
                 tracker: set | None) -> None:
        self.id = request_id
        self.tenant = tenant
        self.name = name
        self.params = params
        self.token = token
        self.deliver = deliver
        self.enqueued_at = enqueued_at
        self.started_at = enqueued_at
        self.state = "new"  # queued | running | follower
        self.group = None
        self.key: str | None = None
        self.tracker = tracker


class _SessionSlot:
    """One pooled session plus its prepared-program cache."""

    __slots__ = ("session", "prepared")

    def __init__(self, session: Any) -> None:
        self.session = session
        self.prepared: dict[str, Any] = {}


class _Connection(asyncio.Protocol):
    """One TCP client: frames are cut from the bytes as they arrive."""

    def __init__(self, server: "PolystoreServer") -> None:
        self._server = server
        self._buffer = bytearray()
        self._tracker: set[tuple[str, Any]] = set()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._server._connections.add(transport)

    def data_received(self, data: bytes) -> None:
        buffer, head = self._buffer, protocol.FRAME_PREFIX_BYTES
        buffer += data
        while len(buffer) >= head and not self._transport.is_closing():
            try:
                end = head + protocol.frame_length(buffer[:head])
                if len(buffer) < end:
                    return
                message = protocol.decode_body(buffer[head:end])
            except protocol.ProtocolError as exc:
                self._deliver(error_response(None, protocol.BAD_REQUEST, str(exc)))
                self._transport.close()
                return
            del buffer[:end]
            self._server._handle_message(message, self._deliver, self._tracker)

    def _deliver(self, response: dict[str, Any]) -> None:
        try:  # a closed transport drops the write; only framing can raise
            self._transport.write(encode_frame(response))
        except protocol.ProtocolError:
            pass  # a response over MAX_FRAME_BYTES has no frame to go in

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self._transport)
        # A dropped connection cancels whatever it still had in flight.
        for key in list(self._tracker):
            self._server._cancel_inflight(key, reason="client disconnected")


def _malformed(registered: RegisteredProgram, params: Any,
               deadline_s: Any) -> str | None:
    """Why an execute request is a ``BAD_REQUEST``, or ``None``."""
    if not isinstance(params, dict):
        return "params must be an object"
    unknown = sorted(set(params) - registered.params, key=str)
    if unknown:
        return f"unknown parameter(s) {unknown}; declared: {sorted(registered.params)}"
    if deadline_s is not None and (isinstance(deadline_s, bool) or not (
            isinstance(deadline_s, (int, float)) and deadline_s >= 0)):
        return f"deadline_s must be a number >= 0, got {deadline_s!r}"
    return None


class PolystoreServer:
    """Async serving front-end over one Polystore++ deployment."""

    def __init__(self, system: Any, config: ServeConfig | None = None) -> None:
        self._system = system
        self._config = config if config is not None else ServeConfig()
        self._obs = system.obs
        self._log = system.obs.logger("serve")
        self._programs: dict[str, RegisteredProgram] = {}
        self._quotas = QuotaManager()
        self._admission = AdmissionController(
            slots=self._config.pool_size,
            max_queue=self._config.max_queue,
            max_queue_per_tenant=self._config.max_queue_per_tenant)
        self._coalescer = Coalescer()
        self._inflight: dict[tuple[str, Any], _Request] = {}
        self._gauge_tenants: set[str] = set()
        self._gauge_stale: set[str] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Transport] = set()
        self._sweeper: "asyncio.Task | None" = None
        self._address: tuple[str, int] | None = None
        self._slots: list[_SessionSlot] = []
        self._free: list[_SessionSlot] = []  # loop-owned: slots not running
        self._workers: ThreadPoolExecutor | None = None
        self._running = False
        self._shutting_down = False
        self._loop_stopping = False

    # -- registration --------------------------------------------------------------------

    def register(self, name: str, program: Any, *, mode: str = "polystore++",
                 options: Any = None, coalesce: bool = True
                 ) -> RegisteredProgram:
        """Expose ``program`` to clients under ``name``.

        Every request re-reads the live engines (``reuse_scans=False``): a
        serving read must observe concurrent writes, so pinned-scan replay
        is deliberately not used here.
        """
        registered = RegisteredProgram(
            name=name, program=program, mode=mode, options=options,
            coalesce=coalesce, params=frozenset(program.declared_params()))
        self._programs[name] = registered
        return registered

    def set_tenant(self, tenant: str, *, rate: float | None = None,
                   burst: float | None = None,
                   weight: float | None = None) -> None:
        """Configure one tenant's quota rate/burst and scheduling weight."""
        self._quotas.set_policy(tenant, rate=rate, burst=burst, weight=weight)

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> "PolystoreServer":
        """Spin up the loop thread, session pool and TCP listener."""
        if self._running:
            raise ConfigurationError("server already started")
        self._running = True
        self._slots = [_SessionSlot(self._system.session(name=f"serve-{index}"))
                       for index in range(self._config.pool_size)]
        self._free = list(self._slots)
        self._workers = ThreadPoolExecutor(
            max_workers=self._config.pool_size,
            thread_name_prefix="polystore-serve")
        ready = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._run_loop, args=(ready,), name="polystore-serve-loop",
            daemon=True)
        self._loop_thread.start()
        ready.wait()
        future = asyncio.run_coroutine_threadsafe(self._start_tcp(),
                                                  self._loop)
        self._address = future.result(timeout=10)
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.call_soon(ready.set)
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _start_tcp(self) -> tuple[str, int]:
        loop = asyncio.get_running_loop()
        self._tcp_server = await loop.create_server(
            lambda: _Connection(self), self._config.host, self._config.port)
        self._sweeper = loop.create_task(self._sweep_deadlines())
        host, port = self._tcp_server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def running(self) -> bool:
        """Whether the server is started and has not completed a stop()."""
        return self._running

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` of the TCP listener."""
        if self._address is None:
            raise ConfigurationError("server is not started")
        return self._address

    def stop(self) -> None:
        """Graceful shutdown: reject queued work, drain running requests."""
        if not self._running:
            return
        asyncio.run_coroutine_threadsafe(self._begin_shutdown(),
                                         self._loop).result()
        self._workers.shutdown(wait=True)
        # From here until the loop closes, call_soon_threadsafe would accept
        # callbacks the loop will never run; _submit checks this flag.
        self._loop_stopping = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=10)
        for slot in self._slots:
            slot.session.close()
        self._running = False
        self._log.info("server_stop")

    async def _begin_shutdown(self) -> None:
        self._shutting_down = True
        self._log.info("server_drain", inflight=len(self._inflight))
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._tcp_server is not None:
            self._tcp_server.close()
        for request in self._admission.drain():
            self._finish_rejected(request, protocol.SHUTTING_DOWN,
                                  "server is shutting down",
                                  reason="shutdown")
        # Running requests deliver through this loop first; then a client
        # still connected reads EOF instead of waiting on a dead loop.
        while self._admission.busy:
            await asyncio.sleep(_SWEEP_INTERVAL_S)
        for transport in list(self._connections):
            transport.close()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()

    def __enter__(self) -> "PolystoreServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- transports ----------------------------------------------------------------------

    def connect(self):
        """An in-process client speaking the message protocol sans bytes."""
        from repro.serve.client import InProcessClient

        return InProcessClient(self)

    def _submit(self, message: dict[str, Any], deliver: Any) -> None:
        """Thread-safe entry point used by the in-process transport."""
        # The loop callback and the stop-race fallback below can both try to
        # respond; the client's future must be resolved exactly once.
        once = threading.Lock()
        done = [False]

        def deliver_once(response: dict[str, Any]) -> None:
            with once:
                if done[0]:
                    return
                done[0] = True
            deliver(response)

        def refuse() -> None:
            deliver_once(error_response(message.get("id"),
                                        protocol.SHUTTING_DOWN,
                                        "server is stopped"))

        if self._loop is None or self._loop_stopping:
            refuse()
            return
        try:
            self._loop.call_soon_threadsafe(self._handle_message, message,
                                            deliver_once, None)
        except RuntimeError:
            # The loop is closed: the server was stopped after this client
            # grabbed its handle.  Same contract as a drained queue entry.
            refuse()
            return
        if self._loop_stopping:
            # stop() raced us between the check above and the post: the loop
            # may halt without ever running the callback.  Refuse directly so
            # the client cannot hang; deliver_once drops the duplicate if the
            # callback did run.
            refuse()

    # -- message handling (event-loop thread only) ---------------------------------------

    def _handle_message(self, message: dict[str, Any], deliver: Any,
                        tracker: set | None) -> None:
        request_id = message.get("id")
        try:
            op = message.get("op")
            if op == "execute":
                self._handle_execute(message, deliver, tracker)
            elif op == "cancel":
                self._handle_cancel(message, deliver)
            elif op == "metrics":
                deliver(ok_response(request_id,
                                    metrics=self._system.export_prometheus()))
            elif op == "programs":
                deliver(ok_response(request_id, programs=sorted(self._programs)))
            elif op == "stats":
                deliver(ok_response(request_id, stats=self._stats_locked()))
            elif op == "ping":
                deliver(ok_response(request_id, pong=True))
            elif op == "health":
                # Load-balancer probe: component checks + SLO burn rates.
                # Safe on the loop thread — this server's stats resolve
                # directly (no cross-thread hop) inside system.health().
                deliver(ok_response(request_id, health=self._system.health()))
            else:
                deliver(error_response(request_id, protocol.BAD_REQUEST,
                                       f"unknown op {op!r}"))
        except DeadlineExceededError as exc:
            deliver(error_response(request_id, protocol.DEADLINE_EXCEEDED,
                                   str(exc)))
        except CancelledError as exc:
            deliver(error_response(request_id, protocol.CANCELLED, str(exc)))
        except Exception as exc:  # never leave a client waiting forever
            deliver(error_response(request_id, protocol.INTERNAL,
                                   f"{type(exc).__name__}: {exc}"))

    def _handle_execute(self, message: dict[str, Any], deliver: Any,
                        tracker: set | None) -> None:
        request_id = message.get("id")
        tenant = str(message.get("tenant") or self._config.default_tenant)
        name = message.get("program")
        registered = self._programs.get(name) if isinstance(name, str) else None
        if registered is None:
            deliver(error_response(
                request_id, protocol.UNKNOWN_PROGRAM,
                f"no program registered as {name!r}"))
            return
        params = message.get("params") or {}
        deadline_s = message.get("deadline_s", self._config.default_deadline_s)
        problem = _malformed(registered, params, deadline_s)
        if problem is not None:
            deliver(error_response(request_id, protocol.BAD_REQUEST, problem))
            return
        if self._shutting_down:
            self._obs.serve_rejects_total.inc(tenant=tenant, reason="shutdown")
            self._log.warning("admission_reject", tenant=tenant,
                              program=name, reason="shutdown")
            deliver(error_response(request_id, protocol.SHUTTING_DOWN,
                                   "server is shutting down"))
            return
        retry_after = self._quotas.try_acquire(tenant)
        if retry_after > 0:
            self._obs.serve_rejects_total.inc(tenant=tenant, reason="quota")
            self._log.warning("admission_reject", tenant=tenant,
                              program=name, reason="quota",
                              retry_after_s=retry_after)
            deliver(error_response(request_id, protocol.QUOTA_EXCEEDED,
                                   f"tenant {tenant!r} is over its rate",
                                   retry_after_s=retry_after))
            return
        token = CancellationToken(deadline_s=deadline_s)
        request = _Request(request_id, tenant, name, params, token, deliver,
                           time.monotonic(), tracker)
        inflight_key = (tenant, request_id)
        # A cheap run may finish inline before the next frame is read:
        # nothing could attach to it, so it takes no coalescing key.
        observed_s = self._admission.program_service_s.get(name, float("inf"))
        cheap = observed_s < sys.getswitchinterval()

        if registered.coalesce and not cheap:
            request.key = coalesce_key(tenant, name, registered.mode, params)
        if request.key is not None:
            group = self._coalescer.lookup(request.key)
            if group is not None:
                request.state = "follower"
                request.group = group
                self._coalescer.attach(group, request_id, request)
                self._track(inflight_key, request)
                return

        decision, hint = self._admission.try_admit(
            tenant, request, weight=self._quotas.weight(tenant))
        if decision == "reject":
            self._obs.serve_rejects_total.inc(tenant=tenant,
                                              reason="overloaded")
            self._log.warning("admission_reject", tenant=tenant,
                              program=name, reason="overloaded",
                              retry_after_s=hint)
            deliver(error_response(
                request_id, protocol.OVERLOADED,
                "admission queues are full", retry_after_s=hint))
            return
        self._track(inflight_key, request)
        if request.key is not None:
            request.group = self._coalescer.create(request.key, request_id)
        if decision == "run":
            self._dispatch(request, inline=cheap)
        else:
            request.state = "queued"
            self._gauge_tenants.add(tenant)
            self._log.info("admission_queue", tenant=tenant, program=name)

    def _track(self, key: tuple[str, Any], request: _Request) -> None:
        self._inflight[key] = request
        if request.tracker is not None:
            request.tracker.add(key)

    def _untrack(self, request: _Request) -> None:
        key = (request.tenant, request.id)
        self._inflight.pop(key, None)
        if request.tracker is not None:
            request.tracker.discard(key)

    def _handle_cancel(self, message: dict[str, Any], deliver: Any) -> None:
        request_id = message.get("id")
        tenant = str(message.get("tenant") or self._config.default_tenant)
        target = message.get("target")
        found = self._cancel_inflight((tenant, target),
                                      reason="cancelled by client")
        deliver(ok_response(request_id, found=found))

    def _cancel_inflight(self, key: tuple[str, Any], *, reason: str) -> bool:
        request = self._inflight.get(key)
        if request is None:
            return False
        if request.state == "queued":
            if self._admission.remove(request.tenant, request):
                if request.group is not None:
                    # The group dies with its queued leader: followers get
                    # the same cancellation (they can simply retry).
                    self._coalescer.pop(request.group.key)
                    for follower in list(request.group.waiters.values()):
                        self._finish_cancelled(follower, reason)
                self._finish_cancelled(request, reason)
                return True
            return False  # raced a dispatch; caller may retry as running
        if request.state == "follower":
            self._coalescer.detach(request.group, request.id)
            self._finish_cancelled(request, reason)
            return True
        # Running: trip the token; the executor stops at its next checkpoint
        # and the completion path delivers the CANCELLED response.
        request.token.cancel(reason)
        return True

    def _finish_cancelled(self, request: _Request, reason: str) -> None:
        self._untrack(request)
        self._obs.serve_requests_total.inc(tenant=request.tenant,
                                           outcome="cancelled")
        request.deliver(error_response(request.id, protocol.CANCELLED, reason))

    def _finish_rejected(self, request: _Request, code: str, message: str, *,
                         reason: str) -> None:
        """Fail one queued *leader* — and with it its whole coalescing group.

        Never call this for a follower: the group's execution keeps running,
        so the other waiters must stay attached for its completion.
        """
        self._untrack(request)
        if request.group is not None:
            self._coalescer.pop(request.group.key)
            for follower in list(request.group.waiters.values()):
                self._untrack(follower)
                self._obs.serve_rejects_total.inc(tenant=follower.tenant,
                                                  reason=reason)
                follower.deliver(error_response(follower.id, code, message))
        self._obs.serve_rejects_total.inc(tenant=request.tenant, reason=reason)
        request.deliver(error_response(request.id, code, message))

    # -- dispatch and completion ---------------------------------------------------------

    def _dispatch(self, request: _Request, *, inline: bool = False) -> None:
        now = time.monotonic()
        if request.state == "queued":
            self._obs.serve_queue_wait_seconds.observe(
                now - request.enqueued_at, tenant=request.tenant)
        request.state = "running"
        request.started_at = now
        registered = self._programs[request.name]
        # A slot that has prepared the program, else the least-prepared one.
        slot = max(self._free, key=lambda s: (request.name in s.prepared, -len(s.prepared)))
        self._free.remove(slot)
        if inline and request.name in slot.prepared:
            self._on_complete(request, slot, self._run_on_slot(slot, registered, request))
        else:
            self._workers.submit(self._run_request, request, slot, registered)

    def _run_request(self, request: _Request, slot: _SessionSlot,
                     registered: RegisteredProgram) -> None:
        """Worker thread: run the prepared program on the loop's slot."""
        outcome = self._run_on_slot(slot, registered, request)
        self._loop.call_soon_threadsafe(self._on_complete, request, slot, outcome)

    def _run_on_slot(self, slot: _SessionSlot, registered: RegisteredProgram,
                     request: _Request) -> tuple[str, Any, str]:
        try:
            request.token.check()  # cancelled while queued-to-worker
            with self._obs.tracer.request(
                    f"serve:{request.name}", tenant=request.tenant,
                    program=request.name) as span:
                prepared = slot.prepared.get(request.name)
                if prepared is None:
                    prepared = slot.session.prepare(
                        registered.program, mode=registered.mode,
                        options=registered.options)
                    slot.prepared[request.name] = prepared
                result = prepared.run(reuse_scans=False,
                                      cancellation=request.token,
                                      **request.params)
                if span is not None:
                    span.set(operators=len(result.report.records))
        except DeadlineExceededError as exc:
            return "deadline", None, str(exc)
        except CancelledError as exc:
            return "cancelled", None, str(exc)
        except Exception as exc:
            return "error", None, f"{type(exc).__name__}: {exc}"
        payload = {
            "outputs": serialize_outputs(result.outputs),
            "mode": result.mode,
            "charged_time_s": result.total_time_s,
        }
        return "ok", payload, ""

    def _on_complete(self, request: _Request, slot: _SessionSlot,
                     outcome: tuple[str, Any, str]) -> None:
        kind, payload, message = outcome
        now = time.monotonic()
        self._admission.observe_service_time(now - request.started_at, request.name)
        self._free.append(slot)
        self._deliver_outcome(request, kind, payload, message, now,
                              coalesced=False)
        if request.group is not None:
            self._coalescer.pop(request.group.key)
            for follower in list(request.group.waiters.values()):
                self._deliver_outcome(follower, kind, payload, message, now,
                                      coalesced=True)
        self._release_slot()

    def _deliver_outcome(self, request: _Request, kind: str, payload: Any,
                         message: str, now: float, *,
                         coalesced: bool) -> None:
        self._untrack(request)
        outcome = "coalesced" if (coalesced and kind == "ok") else kind
        self._obs.serve_requests_total.inc(tenant=request.tenant,
                                           outcome=outcome)
        self._obs.serve_request_seconds.observe(now - request.enqueued_at,
                                                tenant=request.tenant)
        if coalesced and kind == "ok":
            self._obs.serve_coalesced_total.inc(tenant=request.tenant)
        if kind == "ok":
            request.deliver(ok_response(request.id, coalesced=coalesced,
                                        **payload))
        elif kind == "deadline":
            request.deliver(error_response(
                request.id, protocol.DEADLINE_EXCEEDED, message))
        elif kind == "cancelled":
            request.deliver(error_response(
                request.id, protocol.CANCELLED, message))
        else:
            request.deliver(error_response(
                request.id, protocol.INTERNAL, message))

    def _release_slot(self) -> None:
        while True:
            request = self._admission.on_release(self._quotas.weight)
            if request is None:
                return
            if request.token.aborted():
                # Expired (or cancel raced the sweep) while queued: the slot
                # stays held, loop to hand it to the next live request.
                if request.token.cancelled:
                    self._finish_cancelled(request, "cancelled while queued")
                else:
                    self._finish_rejected(
                        request, protocol.DEADLINE_EXCEEDED,
                        "deadline expired while queued", reason="deadline")
                continue
            self._dispatch(request)
            return

    async def _sweep_deadlines(self) -> None:
        """Expire queued/waiting requests whose deadline passed pre-run."""
        while not self._shutting_down:
            await asyncio.sleep(_SWEEP_INTERVAL_S)
            for request in list(self._inflight.values()):
                if not request.token.aborted():
                    continue
                if request.state == "queued":
                    if self._admission.remove(request.tenant, request):
                        self._finish_rejected(
                            request, protocol.DEADLINE_EXCEEDED,
                            "deadline expired while queued",
                            reason="deadline")
                elif request.state == "follower":
                    # Only this waiter expires: detach it and leave the group
                    # (leader and other followers) running.  _finish_rejected
                    # would fail the whole group and then double-deliver when
                    # the still-running leader completes.
                    self._coalescer.detach(request.group, request.id)
                    self._untrack(request)
                    self._obs.serve_rejects_total.inc(tenant=request.tenant,
                                                      reason="deadline")
                    request.deliver(error_response(
                        request.id, protocol.DEADLINE_EXCEEDED,
                        "deadline expired while coalesced"))

    # -- introspection -------------------------------------------------------------------

    def _stats_locked(self) -> dict[str, Any]:
        """Live server state; event-loop thread only."""
        return {
            "admission": self._admission.snapshot(),
            "quotas": self._quotas.describe(),
            "coalesced_groups": self._coalescer.depth(),
            "coalesced_attached_total": self._coalescer.attached_total,
            "inflight": len(self._inflight),
            "programs": sorted(self._programs),
            "address": list(self._address) if self._address else None,
        }

    def stats(self) -> dict[str, Any]:
        """Thread-safe server state snapshot (admission, quotas, groups)."""
        return self._call_on_loop(self._stats_locked)

    def _call_on_loop(self, fn: Any) -> Any:
        if self._loop is None or not self._loop.is_running():
            return fn()
        if threading.get_ident() == getattr(self._loop_thread, "ident", None):
            return fn()
        done: "queue.Queue[Any]" = queue.Queue(maxsize=1)
        self._loop.call_soon_threadsafe(lambda: done.put(fn()))
        return done.get(timeout=10)

    def refresh_gauges(self) -> None:
        """Sample queue depths and busy slots into the serve gauges.

        Called by ``PolystorePlusPlus.refresh_gauges`` before every metrics
        export, from whichever thread scrapes.
        """
        if not self._obs.enabled:
            return
        snapshot = self._call_on_loop(self._gauge_payload)
        for tenant, depth in snapshot["queues"].items():
            self._obs.serve_queue_depth.set(depth, tenant=tenant)
        for tenant in snapshot["stale"]:
            self._obs.serve_queue_depth.remove(tenant=tenant)
        self._obs.serve_sessions_busy.set(snapshot["busy"])

    def _gauge_payload(self) -> dict[str, Any]:
        depths = self._admission.queue_depths()
        live = set(depths)
        # A tenant whose queue drained must scrape as zero once, not vanish
        # mid-series; after that zero sample its series is dropped so gauge
        # label cardinality stays bounded (tenant ids are client-supplied).
        queues = {tenant: depths.get(tenant, 0)
                  for tenant in self._gauge_tenants | live}
        stale = sorted(self._gauge_stale - set(queues))
        self._gauge_stale = {tenant for tenant in queues
                             if tenant not in live}
        self._gauge_tenants = live
        return {"queues": queues, "busy": self._admission.busy,
                "stale": stale}
