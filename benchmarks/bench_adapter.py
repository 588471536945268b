"""E5 — adapter offload: IR-to-native rule transformation cost (§III-A-4).

The adapter's transformation of an IR fragment into engine-native calls is a
fixed rule set; the paper suggests encoding it in hardware to free host
cycles.  The benchmark measures host-side transformation cost as plan size
grows, and the modelled benefit of running the same rule data-flow on a CGRA.
"""

from __future__ import annotations

import pytest

from repro.accelerators import CGRA, Accelerator, KernelSpec
from repro.catalog import Catalog
from repro.compiler import Compiler
from repro.eide import DataflowProgram, dataset
from repro.middleware.adapters import RelationalAdapter
from repro.stores.relational import RelationalEngine
from repro.datamodel import DataType, Table, make_schema

PLAN_WIDTHS = [5, 25, 100]


@pytest.fixture(scope="module")
def engine() -> RelationalEngine:
    schema = make_schema(("k", DataType.INT), ("v", DataType.FLOAT))
    engine = RelationalEngine("adapter-db")
    engine.load_table("facts", Table(schema, [(i, float(i)) for i in range(2_000)]))
    return engine


def wide_program(width: int) -> DataflowProgram:
    """A program with ``width`` independent SQL fragments (a wide IR)."""
    program = DataflowProgram(f"wide-{width}")
    for index in range(width):
        program.output(f"q{index}", dataset("adapter-db").sql(
            f"SELECT k, v FROM facts WHERE k > {index} ORDER BY v LIMIT 10"))
    return program


@pytest.mark.parametrize("width", PLAN_WIDTHS)
def test_host_ir_transformation(benchmark, engine, width):
    """Frontend + passes transformation cost on the host as plans grow."""
    catalog = Catalog()
    catalog.register_engine(engine)
    compiler = Compiler(catalog)
    program = wide_program(width)

    result = benchmark(lambda: compiler.compile(program))
    benchmark.extra_info["experiment"] = "E5"
    benchmark.extra_info["fragments"] = width
    benchmark.extra_info["ir_nodes"] = len(result.graph)


@pytest.mark.parametrize("width", PLAN_WIDTHS)
def test_adapter_execution_cost(benchmark, engine, width):
    """Adapter-side execution of one lowered fragment, repeated ``width`` times."""
    catalog = Catalog()
    catalog.register_engine(engine)
    compiler = Compiler(catalog)
    graph = compiler.compile(wide_program(width)).graph
    adapter = RelationalAdapter(engine)
    scans = graph.nodes_of_kind("scan")

    def run():
        return [adapter.execute(node, []) for node in scans]

    results = benchmark(run)
    benchmark.extra_info["experiment"] = "E5"
    benchmark.extra_info["scans"] = len(results)


@pytest.mark.parametrize("rules", [100, 1_000, 10_000])
def test_cgra_rule_dataflow_estimate(benchmark, rules):
    """Modelled cost of evaluating the adapter's rule data-flow on a CGRA."""
    cgra = Accelerator(CGRA)
    spec = KernelSpec(name="map", bytes_in=rules * 32, bytes_out=rules * 32,
                      flops=rules * 4, elements=rules, pipelineable=True)
    report = benchmark(lambda: cgra.estimate(spec))
    benchmark.extra_info["experiment"] = "E5"
    benchmark.extra_info["rules"] = rules
    benchmark.extra_info["modelled_total_s"] = report.total_s
