"""Sampling profiler: collapse, exports, span attribution, slowlog attach."""

from __future__ import annotations

import sys
import threading
import time

from repro import DataflowProgram, SystemConfig
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.obs import Profile, SamplingProfiler
from repro.obs.profile import collapse_frame
from repro.obs.trace import Tracer
from repro.stores import RelationalEngine


class TestProfileAggregate:
    def test_collapse_frame_is_root_first_module_dot_function(self):
        def inner():
            return collapse_frame(sys._getframe())

        def outer():
            return inner()

        stack = outer()
        frames = stack.split(";")
        # Leaf last; this test module's helpers are the two innermost frames.
        assert frames[-1] == "test_profile.inner"
        assert frames[-2] == "test_profile.outer"

    def test_hottest_frame_is_the_most_sampled_leaf(self):
        profile = Profile(period_s=0.01)
        profile.add("a.main;b.scan", 3)
        profile.add("a.main;c.udf", 10)
        profile.add("a.main", 1)
        assert profile.sample_count == 14
        assert profile.hottest_frame() == "c.udf"

    def test_collapsed_text_is_flamegraph_input(self):
        profile = Profile(period_s=0.01)
        profile.add("a.main;b.scan", 2)
        profile.add("a.main", 1)
        assert profile.collapsed() == "a.main 1\na.main;b.scan 2\n"
        assert Profile().collapsed() == ""

    def test_speedscope_document_shape(self):
        profile = Profile(period_s=0.5)
        profile.add("a.main;b.scan", 2)
        profile.add("a.main;c.udf", 1)
        document = profile.speedscope(name="req")
        assert document["$schema"].startswith("https://www.speedscope.app")
        frames = [f["name"] for f in document["shared"]["frames"]]
        assert set(frames) == {"a.main", "b.scan", "c.udf"}
        [prof] = document["profiles"]
        assert prof["type"] == "sampled" and prof["name"] == "req"
        # Each sample is a list of frame indices; weights carry the period.
        for sample, weight in zip(prof["samples"], prof["weights"]):
            assert all(0 <= index < len(frames) for index in sample)
            assert weight > 0
        assert prof["endValue"] == sum(prof["weights"]) == 1.5

    def test_merge_and_to_dict(self):
        one, two = Profile(period_s=0.1), Profile(period_s=0.1)
        one.add("a.x"), two.add("a.x"), two.add("a.y")
        one.merge(two)
        summary = one.to_dict()
        assert summary["samples"] == 3
        assert summary["hottest_frame"] == "a.x"
        assert "a.y 1" in summary["collapsed"]


class TestCrossThreadAttribution:
    def test_pool_worker_stack_attributes_to_dispatching_request_span(self):
        """A worker thread that serves a request opens its own request span,
        as serve workers do; its sampled stacks must be attributed to that
        request's trace, even though the span lives in the worker's
        thread-local and the sampler runs on another thread."""
        tracer = Tracer(enabled=True, sample_rate=1.0)
        profiler = SamplingProfiler(tracer, hz=100.0)
        ready = threading.Event()
        release = threading.Event()
        trace_ids = []

        def worker_hotspot():
            ready.set()
            release.wait(timeout=10)

        def worker():
            with tracer.request("bench:attribution") as span:
                trace_ids.append(span.trace_id)
                worker_hotspot()

        thread = threading.Thread(target=worker, name="pool-worker")
        thread.start()
        try:
            assert ready.wait(timeout=10)
            # Deterministic: sample while the worker is parked inside
            # worker_hotspot — no background thread, no timing races.
            recorded = profiler.sample_once()
            assert recorded >= 1
        finally:
            release.set()
            thread.join(timeout=10)

        trace_profile = profiler.profile(trace_ids[0])
        # The worker parks in Event.wait (pure Python, so it stacks above
        # the hotspot); the hotspot frame must appear in the
        # request-attributed stack all the same.
        assert any("test_profile.worker_hotspot" in stack
                   for stack in trace_profile.counts), (
            sorted(trace_profile.counts))

    def test_detached_threads_only_count_toward_the_global_profile(self):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        profiler = SamplingProfiler(tracer, hz=100.0)
        profiler.sample_once()  # no span anywhere: global only
        assert profiler.profile().sample_count >= 1
        assert profiler.describe()["traces_retained"] == 0

    def test_take_trace_pops_the_aggregate(self):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        profiler = SamplingProfiler(tracer, hz=100.0)
        with tracer.request("bench:take") as span:
            profiler.sample_once()
            taken = profiler.take_trace(span.trace_id)
            assert taken is not None and taken.sample_count >= 1
            assert profiler.take_trace(span.trace_id) is None
        assert profiler.take_trace(None) is None

    def test_per_trace_lru_is_bounded(self):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        profiler = SamplingProfiler(tracer, hz=100.0, max_traces=4)
        for _ in range(10):
            with tracer.request("bench:lru"):
                profiler.sample_once()
        assert profiler.describe()["traces_retained"] <= 4

    def test_start_stop_lifecycle(self):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        profiler = SamplingProfiler(tracer, hz=250.0)
        profiler.start()
        profiler.start()  # idempotent
        assert profiler.running
        deadline = time.monotonic() + 5.0
        while (profiler.profile().sample_count == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        profiler.stop()
        assert not profiler.running
        assert profiler.profile().sample_count >= 1


def _udf_system(slow_ms: float, *, profile: bool):
    engine = RelationalEngine("ordersdb")
    schema = make_schema(("order_id", DataType.INT),
                         ("amount", DataType.FLOAT))
    engine.load_table("orders", Table(
        schema, [(i, float(i % 7)) for i in range(50)]))
    config = SystemConfig(obs_enabled=True, obs_trace_sample_rate=1.0,
                          obs_slow_query_ms=slow_ms,
                          obs_profile_enabled=profile, obs_profile_hz=250.0)
    return build_accelerated_polystore([engine], config=config)


def _udf_program(system, udf) -> DataflowProgram:
    orders = (system.dataset("ordersdb").table("orders")
              .apply(udf).named("slow_step"))
    program = DataflowProgram("orders_scan")
    program.output("out", orders)
    return program


def slow_udf_crawl(table):
    """Named module-level UDF so its frame label is stable in assertions."""
    time.sleep(0.08)
    return table


class TestSlowlogProfileAttachment:
    def test_slow_udf_capture_carries_profile_with_udf_as_hottest_frame(self):
        system = _udf_system(slow_ms=20.0, profile=True)
        try:
            prepared = system.session(name="t").prepare(
                _udf_program(system, slow_udf_crawl), mode="polystore++")
            prepared.run()
        finally:
            system.obs.profiler.stop()

        [entry] = system.obs.slow_log.entries()
        profile = entry["profile"]
        assert profile is not None
        assert profile["samples"] >= 1
        assert profile["collapsed"].strip()
        # 80ms asleep in the UDF vs sub-ms everywhere else: the UDF frame
        # must dominate the request's wall-clock samples.
        assert profile["hottest_frame"] == "test_profile.slow_udf_crawl"
        assert system.obs.registry.value(
            "polystore_profile_samples_total") >= profile["samples"]

    def test_profiler_disabled_by_default_leaves_profile_unattached(self):
        system = _udf_system(slow_ms=20.0, profile=False)
        assert not system.obs.profiler.running
        prepared = system.session(name="t").prepare(
            _udf_program(system, slow_udf_crawl), mode="polystore++")
        prepared.run()
        [entry] = system.obs.slow_log.entries()
        assert entry["profile"] is None

    def test_export_profile_formats(self):
        system = _udf_system(slow_ms=20.0, profile=True)
        try:
            prepared = system.session(name="t").prepare(
                _udf_program(system, slow_udf_crawl), mode="polystore++")
            prepared.run()
        finally:
            system.obs.profiler.stop()
        collapsed = system.export_profile()
        assert collapsed and all(" " in line
                                 for line in collapsed.strip().splitlines())
        document = system.export_profile(fmt="speedscope")
        assert document["profiles"][0]["samples"]
