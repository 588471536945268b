"""E10 — L1 optimization ablation: effect of each compiler pass on plan size (§IV-B).

Expected shape: every pass shrinks (or leaves unchanged) the plan's IR node
count and the estimated bytes it moves; all passes together shrink them the
most, chiefly the bytes crossing engine boundaries.  Two programs: the MIMIC
Figure-2 program, and a filter + group-aggregate whose fusion folds the
aggregate into the scan's page walk, so its scan moves partials, not rows.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_compiler_passes.py -q
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, col, dataset
from repro.catalog import Catalog
from repro.compiler import Compiler, CompilerOptions
from repro.workloads import build_mimic_program

VARIANTS = {
    "none": CompilerOptions.none(),
    "pushdown_only": CompilerOptions(pushdown=True, fusion=False, cse=False,
                                     join_reorder=False, dce=False,
                                     accelerator_placement=False),
    "fusion_only": CompilerOptions(pushdown=False, fusion=True, cse=False,
                                   join_reorder=False, dce=False,
                                   accelerator_placement=False),
    "cse_only": CompilerOptions(pushdown=False, fusion=False, cse=True,
                                join_reorder=False, dce=False,
                                accelerator_placement=False),
    "all": CompilerOptions(accelerator_placement=False),
}


def _stays_by_diagnosis() -> DataflowProgram:
    program = DataflowProgram("stays-by-diagnosis")
    program.output("stays", dataset("clinical-db").table("admissions")
                   .filter(col("age") >= 60)
                   .aggregate(["diagnosis"], n=("count", None),
                              long_stays=("sum", "long_stay"),
                              procedures=("avg", "num_procedures")))
    return program


PROGRAMS = {
    "mimic": lambda: build_mimic_program(min_age=60, epochs=1),
    "filter_aggregate": _stays_by_diagnosis,
}


@pytest.fixture(scope="module")
def catalog(mimic_system) -> Catalog:
    return mimic_system["system"].catalog


@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_pass_ablation(benchmark, catalog, variant, program):
    """Compile one program under one pass configuration."""
    compiler = Compiler(catalog, options=VARIANTS[variant])
    built = PROGRAMS[program]()

    result = benchmark(lambda: compiler.compile(built))
    benchmark.extra_info["experiment"] = "E10"
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["program"] = program
    benchmark.extra_info["ir_nodes"] = len(result.graph)
    benchmark.extra_info["estimated_bytes"] = result.estimated_bytes_after


@pytest.mark.parametrize("program", list(PROGRAMS))
def test_all_passes_not_worse_than_none(catalog, program):
    """The headline ablation check: the fully optimized plan is never larger."""
    unoptimized = Compiler(catalog, options=VARIANTS["none"]).compile(PROGRAMS[program]())
    optimized = Compiler(catalog, options=VARIANTS["all"]).compile(PROGRAMS[program]())
    assert len(optimized.graph) <= len(unoptimized.graph)
    assert optimized.estimated_bytes_after <= unoptimized.estimated_bytes_after


@pytest.mark.parametrize("variant", ["fusion_only", "all"])
def test_fusion_moves_fewer_bytes_under_an_aggregate(catalog, variant):
    """The scan that aggregates in its page walk is estimated at the
    aggregate's rows, so the plan moves fewer bytes than the unfused one."""
    program = _stays_by_diagnosis()
    unoptimized = Compiler(catalog, options=VARIANTS["none"]).compile(program)
    fused = Compiler(catalog, options=VARIANTS[variant]).compile(program)
    assert fused.pass_counts["aggregate_into_scan"] == 1
    assert fused.estimated_bytes_after < unoptimized.estimated_bytes_after
