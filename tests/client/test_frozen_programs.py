"""Frozen programs: a prepared run reads its identity once and binds only the
operators that hold a Param."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import DataflowProgram, Dataset, Param, col, dataset
from repro.client import PreparedProgram
from repro.accelerators import FPGA
from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.eide import dataflow
from repro.eide.expressions import find_params
from repro.exceptions import CompilationError
from repro.stores import RelationalEngine

_SCHEMA = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                      ("ward", DataType.STRING))


@pytest.fixture
def system():
    engine = RelationalEngine("clinic")
    engine.load_table("patients", Table(_SCHEMA, [
        (pid, 20 + pid % 60, f"w{pid % 4}") for pid in range(200)]))
    return build_cpu_polystore([engine])


def _point_read() -> tuple[DataflowProgram, Dataset]:
    """A point read keyed by ``pid`` (default 7) beside a Param-free output."""
    read = (dataset("clinic").table("patients", ["pid", "age", "ward"])
            .filter(col("pid") == Param("pid", 7)))
    program = DataflowProgram("point")
    program.output("row", read)
    program.output("wards", dataset("clinic").table("patients")
                   .aggregate(["ward"], n=("count", None)))
    return program, read


def _pids(result) -> list[int]:
    return [row["pid"] for row in result.output("row").to_dicts()]


def _nested_program() -> DataflowProgram:
    """Params with nested lists, tuples, specs, predicates and a Param."""
    base = dataset("clinic").table("patients", ["pid", "age", "ward"])
    program = DataflowProgram("nested")
    program.output("ranked", base.filter((col("age") > 30) & (col("ward") != "w1"))
                   .project("pid", "age").top_k("age", 5))
    program.output("per_ward", base.aggregate(
        ["ward"], [("max", "age", "oldest")], n=("count", None)).sort("ward"))
    program.output("model", base.train(label_column="ward", model_name="m",
                                       hidden_dims=(8, 4), engine="ml"))
    program.output("kv", dataset("kv").kv(["a", "b"]))
    program.output("walk", dataset("graph").graph().match("person", [("knows", "x")]))
    program.output("seek", dataset("clinic").index_seek(
        "patients", "pid", Param("pid", 3)))
    return program


class TestFreezeContract:
    def test_writing_to_a_frozen_node_raises(self, system):
        program, _ = _point_read()
        system.session().prepare(program)
        for _, root in program.output_items():
            for node in root.walk():
                with pytest.raises(TypeError):
                    node.params["table"] = "other"
                with pytest.raises(TypeError):
                    del node.params[next(iter(node.params))]
                for name in ("kind", "params", "inputs", "engine", "label"):
                    with pytest.raises(CompilationError):
                        setattr(node, name, getattr(node, name))
                    with pytest.raises(CompilationError):
                        delattr(node, name)
                with pytest.raises(CompilationError):
                    node.anything_new = 1
                with pytest.raises(CompilationError):
                    Dataset(node).named("renamed")

    def test_nested_values_are_frozen_too(self):
        program = _nested_program().freeze()
        roots = dict(program.output_items())
        project = roots["ranked"].inputs[0]
        assert project.kind == "project"
        assert project.params["columns"] == ("pid", "age")
        assert roots["walk"].params["steps"] == (("knows", "x"),)
        with pytest.raises(AttributeError):
            project.params["columns"].append("ward")

    def test_editing_the_pre_freeze_handle_reaches_no_prepared_run(self, system):
        program, read = _point_read()
        prepared = system.session().prepare(program)
        fingerprint = prepared.fingerprint
        assert _pids(prepared.run()) == [7]
        read.node.params["predicate"] = \
            dataset("clinic").table("patients").filter(col("pid") == 9).node.params[
                "predicate"]
        read.node.inputs[0].params["table"] = "nowhere"
        read.named("renamed")
        assert _pids(prepared.run()) == [7]
        assert _pids(prepared.run(pid=11)) == [11]
        assert program.fingerprint() == fingerprint
        assert prepared.fingerprint == fingerprint

    @pytest.mark.parametrize("build", [lambda: _point_read()[0], _nested_program])
    def test_a_frozen_program_and_its_unfrozen_twin_fingerprint_alike(self, build):
        unfrozen, frozen = build(), build().freeze()
        assert frozen.frozen and not unfrozen.frozen
        assert frozen.fingerprint() == unfrozen.fingerprint()
        assert frozen.declared_params() == unfrozen.declared_params()

    def test_freezing_twice_keeps_the_first_copies(self):
        program = _nested_program().freeze()
        roots = program.output_items()
        assert program.freeze() is program
        assert program.output_items() == roots

    def test_shared_subtrees_stay_shared(self):
        base = dataset("clinic").table("patients")
        program = DataflowProgram("shared")
        program.output("young", base.filter(col("age") < 30))
        program.output("old", base.filter(col("age") > 70))
        (_, young), (_, old) = program.freeze().output_items()
        assert young.inputs[0] is old.inputs[0]
        assert young.inputs[0] is not base.node

    def test_a_frozen_run_never_rehashes_the_program(self, system, monkeypatch):
        calls = []
        original = dataflow.fingerprint_outputs

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dataflow, "fingerprint_outputs", spy)
        session = system.session()
        frozen = session.prepare(_point_read()[0])
        calls.clear()
        for i in range(100):
            assert _pids(frozen.run(pid=i)) == [i]
        assert calls == []

        editable = session.prepare(_point_read()[0], freeze=False)
        for i in range(10):
            before = len(calls)
            assert _pids(editable.run(pid=i)) == [i]
            assert len(calls) - before >= 1


class TestBinding:
    def test_runs_leave_every_cached_param_in_place(self, system):
        prepared = system.session().prepare(_point_read()[0])
        entry = prepared._entry
        graph = entry.compilation.graph
        held = {node.op_id: find_params(node.params) for node in graph.nodes()}
        assert entry.param_ops
        assert all(held[op_id] for op_id in entry.param_ops)
        assert _pids(prepared.run(pid=7)) == [7]
        assert _pids(prepared.run(pid=9)) == [9]
        assert _pids(prepared.run()) == [7]
        assert prepared._entry is entry
        assert {node.op_id: find_params(node.params)
                for node in graph.nodes()} == held

    def test_a_bound_graph_shares_every_operator_without_a_param(self, system):
        prepared = system.session().prepare(_point_read()[0])
        entry = prepared._entry
        graph = entry.compilation.graph
        bound = PreparedProgram._bound_graph(entry, {"pid": 3})
        assert bound is not graph
        assert bound.outputs == graph.outputs
        assert [node.op_id for node in bound.nodes()] == \
            [node.op_id for node in graph.nodes()]
        shared = 0
        for node in graph.nodes():
            twin = bound.node(node.op_id)
            if node.op_id in entry.param_ops:
                assert twin is not node
                assert find_params(twin.params) == {}
            else:
                assert twin is node
                shared += 1
        assert shared > 0

    def test_concurrent_bindings_each_get_their_own_rows(self, system):
        prepared = system.session().prepare(_point_read()[0])
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def worker(pid: int) -> None:
            try:
                barrier.wait()
                for _ in range(25):
                    assert _pids(prepared.run(pid=pid)) == [pid]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(40 + i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_a_plan_aged_into_a_new_one_still_binds(self):
        schema = make_schema(("event_id", DataType.INT), ("value", DataType.FLOAT))
        engine = RelationalEngine("eventsdb")
        engine.load_table("events", Table(schema, [
            (i, float(i * 31 % 1009)) for i in range(300)]))
        system = build_accelerated_polystore([engine], devices=[FPGA])
        ranked = (dataset("eventsdb").table("events")
                  .filter(col("value") >= Param("low", 0.0))
                  .sort("value", descending=True))
        program = DataflowProgram("ranked-events")
        program.output("ranked", ranked)
        prepared = system.session(name="aging").prepare(program)
        prepared.run(reuse_scans=False)
        engine.insert("events", [(i, float(i * 31 % 1009))
                                 for i in range(300, 30_300)])
        prepared.run(reuse_scans=False)  # records the drift
        assert prepared.run(reuse_scans=False).report.reoptimized
        assert prepared.reoptimizations == 1
        assert prepared._entry.param_ops
        values = [row["value"] for row
                  in prepared.run(low=1000.0).output("ranked").to_dicts()]
        assert values and min(values) >= 1000.0
        assert values == sorted(values, reverse=True)
        assert len(prepared.run().output("ranked")) == 30_300
