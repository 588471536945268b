"""Serving tier end-to-end: execution parity, coalescing, quotas, cancel."""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time

import pytest

from repro import DataflowProgram, SystemConfig, col
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide import Param
from repro.exceptions import CancelledError, DeadlineExceededError
from repro.obs import ancestors, parse_prometheus_text
from repro.serve import protocol
from repro.serve.client import ServeError, TcpClient
from repro.stores import RelationalEngine

ROWS = [(1, 72, 0.9), (2, 35, 0.4), (3, 85, 0.7), (4, 51, 0.2), (5, 64, 0.6)]


def _system(**config_overrides):
    engine = RelationalEngine("servedb")
    schema = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                         ("score", DataType.FLOAT))
    engine.load_table("patients", Table(schema, ROWS))
    config = SystemConfig(obs_enabled=True, obs_trace_sample_rate=1.0,
                          **config_overrides)
    return build_cpu_polystore([engine], config=config)


def _scan_program(system, name="patients_over"):
    expr = (system.dataset("servedb").table("patients")
            .filter(col("age") > Param("min_age", default=0)))
    program = DataflowProgram(name)
    program.output("result", expr)
    return program


def _gated_program(system, udf, name="gated"):
    """A program whose UDF the test controls; the trailing filter gives the
    executor a post-UDF cancellation checkpoint."""
    expr = (system.dataset("servedb").table("patients")
            .apply(udf).filter(col("age") >= 0))
    program = DataflowProgram(name)
    program.output("result", expr)
    return program


def _rows(response, output="result"):
    return sorted(response["outputs"][output]["rows"])


class TestExecuteBasics:
    def test_execute_matches_direct_session(self):
        system = _system()
        with system.serve(pool_size=2) as server:
            server.register("patients_over", _scan_program(system))
            client = server.connect()
            served = client.execute("patients_over", {"min_age": 50},
                                    timeout=30)
        direct = system.session(name="direct").prepare(
            _scan_program(system, name="direct")).run(min_age=50)
        expected = sorted([pid, age, score] for pid, age, score in ROWS
                          if age > 50)
        assert _rows(served) == expected
        assert sorted(
            list(r.values()) for r in direct.output("result").to_dicts()
        ) == expected
        assert served["coalesced"] is False
        assert served["mode"] == "polystore++"

    def test_default_params_apply(self):
        system = _system()
        with system.serve() as server:
            server.register("patients_over", _scan_program(system))
            response = server.connect().execute("patients_over", timeout=30)
        assert len(response["outputs"]["result"]["rows"]) == len(ROWS)

    def test_unknown_program_is_terminal(self):
        system = _system()
        with system.serve() as server:
            with pytest.raises(ServeError) as excinfo:
                server.connect().execute("nope", timeout=30)
        assert excinfo.value.code == protocol.UNKNOWN_PROGRAM
        assert excinfo.value.retryable is False

    def test_malformed_messages_get_bad_request(self):
        system = _system()
        with system.serve() as server:
            server.register("patients_over", _scan_program(system))
            client = server.connect()
            bad_op = client.request({"op": "frobnicate", "id": 1}, timeout=30)
            assert bad_op["error"]["code"] == protocol.BAD_REQUEST
            bad_params = client.request(
                {"op": "execute", "id": 2, "program": "patients_over",
                 "params": [1, 2]}, timeout=30)
            assert bad_params["error"]["code"] == protocol.BAD_REQUEST
            for deadline in ("soon", -1, [1], True):
                bad_deadline = client.request(
                    {"op": "execute", "id": 3, "program": "patients_over",
                     "deadline_s": deadline}, timeout=30)
                assert bad_deadline["error"]["code"] == protocol.BAD_REQUEST, (
                    deadline)
            undeclared = client.request(
                {"op": "execute", "id": 4, "program": "patients_over",
                 "params": {"max_age": 3}}, timeout=30)
            assert undeclared["error"]["code"] == protocol.BAD_REQUEST
            assert "max_age" in undeclared["error"]["message"]
            # Rejected before admission: nothing ran, nothing was charged.
            assert client.stats(timeout=30)["admission"]["admitted_total"] == 0

    def test_programs_and_ping_and_stats(self):
        system = _system()
        with system.serve() as server:
            server.register("patients_over", _scan_program(system))
            client = server.connect()
            assert client.ping(timeout=30) is True
            assert client.programs(timeout=30) == ["patients_over"]
            stats = client.stats(timeout=30)
            assert stats["admission"]["slots"] == system.config.serve_pool_size


class TestCoalescing:
    def test_identical_concurrent_reads_share_one_execution(self):
        system = _system()
        gate = threading.Event()
        started = threading.Event()
        calls = []

        def udf(table):
            calls.append(1)
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf))
            client = server.connect()
            leader = client.submit_execute("gated")
            assert started.wait(timeout=30)
            follower = client.submit_execute("gated")
            # The follower attaches to the in-flight group without needing a
            # second slot (the pool has exactly one, and the leader holds it).
            deadline = time.monotonic() + 30
            while server.stats()["coalesced_attached_total"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            gate.set()
            leader_response = leader.result(timeout=30)
            follower_response = follower.result(timeout=30)
        assert len(calls) == 1
        assert leader_response["ok"] and follower_response["ok"]
        assert leader_response["coalesced"] is False
        assert follower_response["coalesced"] is True
        assert _rows(leader_response) == _rows(follower_response)
        assert system.obs.registry.value(
            "polystore_serve_coalesced_total", tenant="default") == 1

    def test_different_params_do_not_coalesce(self):
        system = _system()
        with system.serve(pool_size=2) as server:
            server.register("patients_over", _scan_program(system))
            client = server.connect()
            a = client.execute("patients_over", {"min_age": 50}, timeout=30)
            b = client.execute("patients_over", {"min_age": 80}, timeout=30)
        assert len(_rows(a)) == 4
        assert len(_rows(b)) == 1

    def test_different_tenants_do_not_coalesce(self):
        # The tenant is part of the coalescing key: sharing across tenants
        # would let one tenant's cancel fail another's request and leak its
        # traffic pattern via coalesced responses.
        system = _system()
        gate = threading.Event()
        started = threading.Event()
        calls = []

        def udf(table):
            calls.append(1)
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf))
            client = server.connect()
            first = client.submit_execute("gated", tenant="a")
            assert started.wait(timeout=30)
            second = client.submit_execute("gated", tenant="b")
            deadline = time.monotonic() + 30
            # b queues for its own slot rather than attaching to a's group.
            while server.stats()["admission"]["queued"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert server.stats()["coalesced_attached_total"] == 0
            gate.set()
            assert first.result(timeout=30)["ok"]
            assert second.result(timeout=30)["ok"]
        assert len(calls) == 2


class TestQuotas:
    def test_over_rate_tenant_is_rejected_with_retry_hint(self):
        system = _system()
        with system.serve() as server:
            server.register("patients_over", _scan_program(system))
            server.set_tenant("free", rate=0.5, burst=1.0)
            client = server.connect()
            client.execute("patients_over", tenant="free", timeout=30)
            with pytest.raises(ServeError) as excinfo:
                client.execute("patients_over", tenant="free", timeout=30)
            # Unlimited tenants are unaffected.
            client.execute("patients_over", tenant="pro", timeout=30)
        assert excinfo.value.code == protocol.QUOTA_EXCEEDED
        assert excinfo.value.retryable is True
        assert excinfo.value.retry_after_s > 0
        assert system.obs.registry.value(
            "polystore_serve_rejects_total", tenant="free",
            reason="quota") == 1


class TestCancellation:
    def test_cancel_queued_request_never_runs(self):
        system = _system()
        gate = threading.Event()
        started = threading.Event()
        calls = []

        def udf(table):
            calls.append(1)
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf),
                            coalesce=False)
            client = server.connect()
            leader = client.submit_execute("gated")
            assert started.wait(timeout=30)
            queued = client.submit_execute("gated", request_id="victim")
            deadline = time.monotonic() + 30
            while server.stats()["admission"]["queued"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert client.cancel("victim", timeout=30) is True
            cancelled = queued.result(timeout=30)
            gate.set()
            assert leader.result(timeout=30)["ok"]
        assert cancelled["ok"] is False
        assert cancelled["error"]["code"] == protocol.CANCELLED
        assert len(calls) == 1  # the victim never reached a worker

    def test_cancel_running_request_stops_at_next_checkpoint(self):
        system = _system()
        gate = threading.Event()
        started = threading.Event()

        def udf(table):
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf),
                            coalesce=False)
            client = server.connect()
            running = client.submit_execute("gated", request_id="target")
            assert started.wait(timeout=30)
            assert client.cancel("target", timeout=30) is True
            gate.set()  # the UDF returns; the next checkpoint observes cancel
            response = running.result(timeout=30)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.CANCELLED
        assert system.obs.registry.value(
            "polystore_serve_requests_total", tenant="default",
            outcome="cancelled") == 1

    def test_cancel_unknown_request_reports_not_found(self):
        system = _system()
        with system.serve() as server:
            assert server.connect().cancel("ghost", timeout=30) is False

    def test_deadline_expires_while_queued(self):
        system = _system()
        gate = threading.Event()
        started = threading.Event()

        def udf(table):
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf),
                            coalesce=False)
            client = server.connect()
            leader = client.submit_execute("gated")
            assert started.wait(timeout=30)
            doomed = client.submit_execute("gated", deadline_s=0.05)
            response = doomed.result(timeout=30)
            gate.set()
            assert leader.result(timeout=30)["ok"]
        assert response["error"]["code"] == protocol.DEADLINE_EXCEEDED
        assert system.obs.registry.value(
            "polystore_serve_rejects_total", tenant="default",
            reason="deadline") == 1

    def test_follower_deadline_expiry_leaves_the_group_running(self):
        # An expired follower must detach alone: the leader (and the slot it
        # holds) keeps running, completes normally, and must not try to
        # deliver a second response to the already-expired follower.
        system = _system()
        gate = threading.Event()
        started = threading.Event()

        def udf(table):
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf))
            client = server.connect()
            leader = client.submit_execute("gated")
            assert started.wait(timeout=30)
            follower = client.submit_execute("gated", deadline_s=0.05)
            expired = follower.result(timeout=30)
            assert expired["ok"] is False
            assert expired["error"]["code"] == protocol.DEADLINE_EXCEEDED
            gate.set()
            assert leader.result(timeout=30)["ok"]
            # The execution slot was released, not leaked: a fresh request
            # still gets dispatched and completes.
            assert client.execute("gated", timeout=30)["ok"]
            assert server.stats()["inflight"] == 0
        assert system.obs.registry.value(
            "polystore_serve_rejects_total", tenant="default",
            reason="deadline") == 1

    def test_deadline_expires_while_running(self):
        system = _system()

        def udf(table):
            time.sleep(0.2)
            return table

        with system.serve() as server:
            server.register("slow", _gated_program(system, udf, name="slow"),
                            coalesce=False)
            with pytest.raises(ServeError) as excinfo:
                server.connect().execute("slow", deadline_s=0.05, timeout=30)
        assert excinfo.value.code == protocol.DEADLINE_EXCEEDED
        assert excinfo.value.retryable is False


LOOP_THREAD = "polystore-serve-loop"
WORKER_PREFIX = "polystore-serve_"


def _recording_program(system, threads, name):
    """A cheap program whose UDF records the thread each run executes on."""

    def udf(table):
        threads.append(threading.current_thread().name)
        return table

    return _gated_program(system, udf, name=name)


def _run_until_inline(client, name, threads, limit=200):
    """Execute ``name`` until a run lands on the loop thread."""
    for _ in range(limit):
        assert client.execute(name, timeout=30)["ok"]
        if threads[-1] == LOOP_THREAD:
            return
    raise AssertionError(f"{name} never ran inline: {threads[-5:]}")


class TestDispatchChoice:
    def test_first_request_on_a_worker_then_cheap_runs_inline(self):
        system = _system()
        threads = []
        with system.serve(pool_size=2) as server:
            server.register("cheap", _recording_program(system, threads,
                                                        "cheap"))
            client = server.connect()
            _run_until_inline(client, "cheap", threads)
        assert threads[0].startswith(WORKER_PREFIX)
        assert threads[-1] == LOOP_THREAD

    def test_slow_program_stays_on_workers_and_is_cancellable(self):
        system = _system()
        threads = []
        gate = threading.Event()
        started = threading.Event()
        gated = [False]

        def udf(table):
            threads.append(threading.current_thread().name)
            if gated[0]:
                started.set()
                assert gate.wait(timeout=30)
            else:
                time.sleep(2 * sys.getswitchinterval())
            return table

        with system.serve(pool_size=1) as server:
            server.register("slow", _gated_program(system, udf, name="slow"),
                            coalesce=False)
            client = server.connect()
            for _ in range(4):
                assert client.execute("slow", timeout=30)["ok"]
            gated[0] = True
            running = client.submit_execute("slow", request_id="target")
            assert started.wait(timeout=30)
            # Answered while the run is mid-UDF: the loop is not running it.
            assert client.cancel("target", timeout=5) is True
            gate.set()
            response = running.result(timeout=30)
        assert len(threads) == 5
        assert all(name.startswith(WORKER_PREFIX) for name in threads)
        assert response["error"]["code"] == protocol.CANCELLED

    def test_cheap_program_answers_inline_while_a_worker_is_held(self):
        system = _system()
        threads = []
        gate = threading.Event()
        started = threading.Event()

        def hold(table):
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=2) as server:
            server.register("cheap", _recording_program(system, threads,
                                                        "cheap"))
            server.register("gated", _gated_program(system, hold),
                            coalesce=False)
            client = server.connect()
            _run_until_inline(client, "cheap", threads)
            held = client.submit_execute("gated")
            assert started.wait(timeout=30)
            begun = time.monotonic()
            assert client.execute("cheap", timeout=1)["ok"]
            assert time.monotonic() - begun < 1.0
            assert threads[-1] == LOOP_THREAD
            gate.set()
            assert held.result(timeout=30)["ok"]

    def test_a_slot_that_has_not_prepared_the_program_is_not_used_inline(self):
        system = _system()
        threads = []
        with system.serve(pool_size=2) as server:
            server.register("cheap", _recording_program(system, threads,
                                                        "cheap"))
            client = server.connect()
            _run_until_inline(client, "cheap", threads)
            # Every free slot forgets the program: the next run must prepare
            # it, so it goes to a worker although the program is cheap.
            server._call_on_loop(lambda: [slot.prepared.clear()
                                          for slot in server._slots])
            assert client.execute("cheap", timeout=30)["ok"]
            assert threads[-1].startswith(WORKER_PREFIX)
            _run_until_inline(client, "cheap", threads)

    def test_inline_and_worker_runs_interleave_without_losing_slots(self):
        # More client threads than cores, cheap reads (inline once warm)
        # beside a slow program (always on workers): every answer is right,
        # and every slot returns to the free list exactly once.
        system = _system()
        threads = []

        def slow(table):
            time.sleep(2 * sys.getswitchinterval())
            return table

        with system.serve(pool_size=2, max_queue=256,
                          max_queue_per_tenant=256) as server:
            server.register("cheap", _scan_program(system, name="cheap"))
            server.register("slow", _gated_program(system, slow, name="slow"),
                            coalesce=False)
            server.register("where", _recording_program(system, threads,
                                                        "where"))
            client = server.connect()
            _run_until_inline(client, "where", threads)
            errors = []

            def fire(worker):
                for i in range(25):
                    min_age = (worker * 25 + i) % 90
                    try:
                        if i % 5 == 4:
                            assert client.execute("slow", timeout=30)["ok"]
                        else:
                            response = client.execute(
                                "cheap", {"min_age": min_age}, timeout=30)
                            assert _rows(response) == sorted(
                                [pid, age, score] for pid, age, score in ROWS
                                if age > min_age)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

            fleet = [threading.Thread(target=fire, args=(w,))
                     for w in range(8)]
            for thread in fleet:
                thread.start()
            for thread in fleet:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in fleet)
            assert errors == []
            state = server._call_on_loop(lambda: (
                [id(slot) for slot in server._free], server.stats()))
            assert sorted(state[0]) == sorted(id(s) for s in server._slots)
            assert state[1]["inflight"] == 0
            assert state[1]["admission"]["busy"] == 0
            _run_until_inline(client, "where", threads)


class TestObservability:
    def test_metrics_scrape_has_serve_families(self):
        system = _system()
        with system.serve() as server:
            server.register("patients_over", _scan_program(system))
            client = server.connect()
            client.execute("patients_over", {"min_age": 50}, timeout=30)
            scrape = client.metrics(timeout=30)
        parsed = parse_prometheus_text(scrape)
        requests = parsed["polystore_serve_requests_total"]["samples"]
        [ok_sample] = [s for s in requests
                       if s["labels"] == {"tenant": "default",
                                          "outcome": "ok"}]
        assert ok_sample["value"] == 1
        assert parsed["polystore_serve_sessions_busy"]["type"] == "gauge"
        assert "polystore_serve_queue_depth" in parsed

    def test_request_spans_join_the_trace_taxonomy(self):
        system = _system()
        with system.serve() as server:
            server.register("patients_over", _scan_program(system))
            server.connect().execute("patients_over", timeout=30)
        spans = system.obs.tracer.spans()
        serve_spans = [s for s in spans if s.name == "serve:patients_over"]
        assert len(serve_spans) == 1
        inner = [s for s in spans if s.name == "request:patients_over"]
        assert inner, "session request span missing under the serve span"
        lineage = [a.name for a in ancestors(inner[0], spans)]
        assert "serve:patients_over" in lineage
        assert serve_spans[0].attrs["tenant"] == "default"


class TestTcpTransport:
    def test_tcp_round_trip_and_parity(self):
        system = _system()
        with system.serve(pool_size=2) as server:
            server.register("patients_over", _scan_program(system))
            host, port = server.address
            with TcpClient(host, port) as tcp:
                assert tcp.ping(timeout=30)
                over_tcp = tcp.execute("patients_over", {"min_age": 50},
                                       timeout=30)
                in_process = server.connect().execute(
                    "patients_over", {"min_age": 50}, timeout=30)
                assert _rows(over_tcp) == _rows(in_process)
                scrape = tcp.metrics(timeout=30)
        assert "polystore_serve_requests_total" in scrape

    def test_timeout_mid_frame_keeps_the_stream_aligned(self):
        # A response that times out after its length prefix (or part of its
        # body) arrived must not desynchronize the stream: the partial frame
        # stays buffered and the next read resumes it.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        client = TcpClient(host, port)
        server_sock, _ = listener.accept()
        outcome: dict[str, object] = {}

        def call(key, message, timeout):
            try:
                outcome[key] = client.request(message, timeout)
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                outcome[key] = exc

        try:
            first = threading.Thread(
                target=call, args=("first", {"op": "ping", "id": "p1"}, 0.3))
            first.start()
            assert protocol.read_frame_sync(server_sock)["id"] == "p1"
            response = protocol.encode_frame(
                protocol.ok_response("p1", pong=True))
            server_sock.sendall(response[:6])  # prefix + 2 body bytes
            first.join(timeout=10)
            assert not first.is_alive()
            assert isinstance(outcome["first"], TimeoutError)

            server_sock.sendall(response[6:])  # the late remainder
            second = threading.Thread(
                target=call, args=("second", {"op": "ping", "id": "p2"}, 10))
            second.start()
            assert protocol.read_frame_sync(server_sock)["id"] == "p2"
            server_sock.sendall(protocol.encode_frame(
                protocol.ok_response("p2", pong=True)))
            second.join(timeout=10)
            assert not second.is_alive()
            assert outcome["second"]["id"] == "p2"
            # The late first response was reassembled as one frame and
            # parked under its own id, not misread as a length prefix.
            assert client._pending == {"p1": protocol.ok_response(
                "p1", pong=True)}
        finally:
            client.close()
            server_sock.close()
            listener.close()

    def test_disconnect_cancels_outstanding_work(self):
        system = _system()
        gate = threading.Event()
        started = threading.Event()

        def udf(table):
            started.set()
            assert gate.wait(timeout=30)
            return table

        with system.serve(pool_size=1) as server:
            server.register("gated", _gated_program(system, udf),
                            coalesce=False)
            host, port = server.address
            tcp = TcpClient(host, port)
            tcp._sock.sendall(protocol.encode_frame(
                {"op": "execute", "id": "orphan", "program": "gated"}))
            assert started.wait(timeout=30)
            tcp.close()  # drop the connection with the request running
            gate.set()
            deadline = time.monotonic() + 30
            while server.stats()["inflight"] > 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        # The tracked request was cancelled (or completed into the void)
        # rather than leaking in the in-flight registry; which of the two
        # depends on whether the disconnect or the gate release lands first.
        assert system.obs.registry.value(
            "polystore_serve_requests_total", tenant="default",
            outcome="cancelled") in (None, 1)


class TestFrameParser:
    """Frames are cut from whatever byte runs the transport hands over."""

    @staticmethod
    def _raw_socket(server):
        sock = socket.create_connection(server.address, timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def test_frame_sent_one_byte_at_a_time(self):
        system = _system()
        with system.serve() as server, self._raw_socket(server) as sock:
            for byte in protocol.encode_frame({"op": "ping", "id": "drip"}):
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            assert protocol.read_frame_sync(sock) == protocol.ok_response(
                "drip", pong=True)

    def test_two_frames_in_one_send(self):
        system = _system()
        with system.serve() as server, self._raw_socket(server) as sock:
            sock.sendall(protocol.encode_frame({"op": "ping", "id": "a"})
                         + protocol.encode_frame({"op": "ping", "id": "b"}))
            assert protocol.read_frame_sync(sock)["id"] == "a"
            assert protocol.read_frame_sync(sock)["id"] == "b"

    @pytest.mark.parametrize("payload", [
        struct.pack(">I", protocol.MAX_FRAME_BYTES + 1),
        struct.pack(">I", 8) + b"not json",
    ], ids=["oversized_prefix", "non_json_body"])
    def test_bad_frame_answers_bad_request_and_closes(self, payload):
        system = _system()
        with system.serve() as server, self._raw_socket(server) as sock:
            sock.sendall(payload)
            response = protocol.read_frame_sync(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.BAD_REQUEST
            assert protocol.read_frame_sync(sock) is None  # closed


class TestShutdown:
    def test_stop_closes_open_tcp_connections(self):
        system = _system()
        server = system.serve()
        with TcpClient(*server.address) as tcp:
            assert tcp.ping(timeout=30)
            server.stop()
            begun = time.monotonic()
            with pytest.raises(protocol.ProtocolError):
                tcp.ping(timeout=5)
            assert time.monotonic() - begun < 1.0

    def test_stop_delivers_running_tcp_work_before_closing(self):
        system = _system()
        gate = threading.Event()
        started = threading.Event()

        def udf(table):
            started.set()
            assert gate.wait(timeout=30)
            return table

        server = system.serve(pool_size=1)
        server.register("gated", _gated_program(system, udf), coalesce=False)
        with TcpClient(*server.address) as tcp:
            tcp._sock.sendall(protocol.encode_frame(
                {"op": "execute", "id": "last", "program": "gated"}))
            assert started.wait(timeout=30)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            gate.set()
            assert tcp._await("last", 30)["ok"] is True
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            with pytest.raises(protocol.ProtocolError):
                tcp.ping(timeout=5)

    def test_stop_is_idempotent_and_sessions_close(self):
        system = _system()
        server = system.serve()
        server.register("patients_over", _scan_program(system))
        server.connect().execute("patients_over", timeout=30)
        server.stop()
        server.stop()  # second stop is a no-op

    def test_submit_during_stop_window_unblocks_client(self):
        # Between stop() posting loop.stop() and the loop actually closing,
        # call_soon_threadsafe accepts callbacks that will never run.  A
        # submit landing in that window must still resolve the client's
        # future (with the retryable SHUTTING_DOWN contract), not hang.
        system = _system()
        server = system.serve()
        server.register("patients_over", _scan_program(system))
        client = server.connect()
        server._loop_stopping = True  # simulate the stop window
        with pytest.raises(ServeError) as exc_info:
            client.execute("patients_over", timeout=5)
        assert exc_info.value.code == protocol.SHUTTING_DOWN
        assert exc_info.value.retryable
        server._loop_stopping = False
        server.stop()

    def test_execute_after_stop_rejects_cleanly(self):
        # A client that kept its handle across stop() gets the same
        # retryable SHUTTING_DOWN contract as a drained queue entry,
        # not a raw event-loop RuntimeError.
        system = _system()
        server = system.serve()
        server.register("patients_over", _scan_program(system))
        client = server.connect()
        server.stop()
        with pytest.raises(ServeError) as exc_info:
            client.execute("patients_over", timeout=30)
        assert exc_info.value.code == "SHUTTING_DOWN"
        assert exc_info.value.retryable


class TestCancellationErrorMapping:
    """Cancellation signals escaping an op handler must keep their meaning.

    Regression for the analyzer's cancellation-safety rule: the dispatch
    ``except Exception`` used to fold CancelledError/DeadlineExceededError
    into INTERNAL, so clients retried work that was deliberately shed.
    """

    def test_cancelled_error_in_op_maps_to_cancelled_code(self):
        system = _system()

        def shed() -> str:
            raise CancelledError("scrape shed under load")

        system.export_prometheus = shed
        with system.serve() as server:
            with pytest.raises(ServeError) as excinfo:
                server.connect().metrics(timeout=30)
        assert excinfo.value.code == protocol.CANCELLED

    def test_deadline_error_in_op_maps_to_deadline_code(self):
        system = _system()

        def expired() -> str:
            raise DeadlineExceededError("budget spent before scrape")

        system.export_prometheus = expired
        with system.serve() as server:
            with pytest.raises(ServeError) as excinfo:
                server.connect().metrics(timeout=30)
        assert excinfo.value.code == protocol.DEADLINE_EXCEEDED
