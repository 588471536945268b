"""Trace spans: executor nesting and sampling semantics."""

from __future__ import annotations

import pytest

from repro import DataflowProgram, SystemConfig
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.obs import ancestors, span_tree
from repro.obs.trace import Tracer
from repro.stores import RelationalEngine


def _orders_table(rows: int = 60) -> Table:
    schema = make_schema(("order_id", DataType.INT),
                         ("customer", DataType.STRING),
                         ("amount", DataType.FLOAT))
    return Table(schema, [(i, f"c{i % 5}", float(i % 11)) for i in range(rows)])


def _observed_system(engine, **config_overrides):
    config_overrides.setdefault("obs_trace_sample_rate", 1.0)
    config = SystemConfig(obs_enabled=True, **config_overrides)
    return build_accelerated_polystore([engine], config=config)


def _aggregate_program(system, engine_name: str) -> DataflowProgram:
    totals = (system.dataset(engine_name).table("orders")
              .aggregate(["customer"], total=("sum", "amount"),
                         n_orders=("count", None))
              .named("totals"))
    program = DataflowProgram("orders_by_customer")
    program.output("totals", totals)
    return program


class TestExecutorNesting:
    def test_span_tree_matches_stage_structure(self):
        engine = RelationalEngine("ordersdb")
        engine.load_table("orders", _orders_table())
        system = _observed_system(engine)
        program = _aggregate_program(system, "ordersdb")

        session = system.session(name="t")
        prepared = session.prepare(program, mode="polystore++")
        result = prepared.run()
        assert len(result.output("totals")) == 5

        spans = system.obs.tracer.spans()
        children = span_tree(spans)
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name.split(":")[0], []).append(span)

        # One executor-run span, parented under the request span.
        [execute] = by_name["execute"]
        request_names = [s.name for s in by_name["request"]]
        assert any(name.startswith("request:") for name in request_names)
        assert next(ancestors(execute, spans)).name.startswith("request:")

        # Every stage span is a direct child of the run span, numbered in
        # the order the scheduler ran them.
        stages = sorted(by_name["stage"], key=lambda s: s.attrs["stage"])
        assert [s.attrs["stage"] for s in stages] == list(range(len(stages)))
        for stage in stages:
            assert stage.parent_id == execute.span_id

        # Every operator span hangs off the stage span whose index it ran
        # in.
        ops = by_name["op"]
        assert len(ops) == len(result.report.records)
        stage_by_id = {s.span_id: s for s in stages}
        for op in ops:
            parent = stage_by_id[op.parent_id]
            assert parent.attrs["stage"] == op.attrs["stage"]
            assert op.attrs["rows_out"] >= 0

        # The tree is connected: every non-root span's parent is buffered.
        roots = [s for s in children.get(None, [])]
        assert roots and all(s.parent_id is None for s in roots)


class TestSampling:
    def test_sampled_out_request_counts_but_records_no_spans(self):
        engine = RelationalEngine("ordersdb")
        engine.load_table("orders", _orders_table())
        system = _observed_system(engine, obs_trace_sample_rate=0.0)
        program = _aggregate_program(system, "ordersdb")

        prepared = system.session(name="t").prepare(program, mode="polystore++")
        for _ in range(3):
            prepared.run()

        obs = system.obs
        assert len(obs.tracer.spans()) == 0
        assert obs.tracer.requests_sampled == 0
        assert obs.tracer.requests_seen >= 3
        assert obs.registry.value("polystore_requests_total",
                                  mode="polystore++") == 3
        assert obs.registry.value("polystore_operators_total",
                                  kind="scan") >= 1

    def test_a_request_nested_in_an_unsampled_one_is_not_sampled_again(self):
        class Draws:
            values = [0.9, 0.1]

            def random(self):
                return self.values.pop(0)

        tracer = Tracer(sample_rate=0.5, rng=Draws())
        with pytest.raises(RuntimeError):
            with tracer.request("serve:p"):
                with tracer.request("request:p"):
                    with tracer.span("execute", "executor"):
                        raise RuntimeError("boom")
        assert tracer.spans() == []
        assert (tracer.requests_seen, tracer.requests_sampled) == (1, 0)
        # The mark left with the request that set it, though its body raised.
        with tracer.request("request:q"):
            pass
        assert [span.name for span in tracer.spans()] == ["request:q"]
        assert (tracer.requests_seen, tracer.requests_sampled) == (2, 1)

    def test_nested_request_joins_the_active_trace(self):
        engine = RelationalEngine("ordersdb")
        engine.load_table("orders", _orders_table())
        system = _observed_system(engine)
        program = _aggregate_program(system, "ordersdb")

        system.execute(program, mode="polystore++")
        spans = system.obs.tracer.spans()
        requests = [s for s in spans if s.name.startswith("request:")]
        # One-shot execute opens a request scope and the inner prepared run
        # joins it: exactly one root request, everything else nested.
        roots = [s for s in requests if s.parent_id is None]
        assert len(roots) == 1
        assert all(s.trace_id == roots[0].trace_id for s in spans)


class TestPartitionedReadNesting:
    def test_a_partitioned_read_span_nests_under_its_request(self):
        engine = RelationalEngine("cluster", partitions=3)
        engine.load_table("orders", _orders_table(90), shard_key="order_id")
        system = _observed_system(engine)
        program = _aggregate_program(system, "cluster")

        prepared = system.session(name="t").prepare(program, mode="polystore++")
        prepared.run()

        spans = system.obs.tracer.spans()
        # One read of the one heap: one scan span, under its request.
        [scan] = [s for s in spans if s.name.startswith("op:") and s.attrs["kind"] == "scan"]
        chain = [p.name for p in ancestors(scan, spans)]
        assert chain[-1].startswith("request:"), chain
        assert not any(s.name.startswith("shard:") for s in spans)
