"""E10 — L1 optimization ablation: effect of each compiler pass on plan size (§IV-B).

Expected shape: every pass shrinks (or leaves unchanged) the plan's IR node
count and the estimated bytes it moves; all passes together shrink them the
most, chiefly the bytes crossing engine boundaries.
"""

from __future__ import annotations

import pytest

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


@pytest.fixture(scope="module")
def catalog(mimic_system) -> Catalog:
    return mimic_system["system"].catalog


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_pass_ablation(benchmark, catalog, variant):
    """Compile the MIMIC program (age-filtered) under one pass configuration."""
    program = build_mimic_program(min_age=60, epochs=1)
    compiler = Compiler(catalog, options=VARIANTS[variant])

    result = benchmark(lambda: compiler.compile(program))
    benchmark.extra_info["experiment"] = "E10"
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["ir_nodes"] = len(result.graph)
    benchmark.extra_info["estimated_bytes"] = result.estimated_bytes_after


def test_all_passes_not_worse_than_none(catalog):
    """The headline ablation check: the fully optimized plan is never larger."""
    program = build_mimic_program(min_age=60, epochs=1)
    unoptimized = Compiler(catalog, options=VARIANTS["none"]).compile(program)
    optimized = Compiler(catalog, options=VARIANTS["all"]).compile(program)
    assert len(optimized.graph) <= len(unoptimized.graph)
    assert optimized.estimated_bytes_after <= unoptimized.estimated_bytes_after
