"""E7 — end-to-end MIMIC heterogeneous workload across execution modes (Figure 2).

Expected shape: Polystore++ (accelerated) <= CPU polystore <= one-size-fits-all
in charged execution time, with the paper's proposal winning through
accelerated migration and operator offload.
"""

from __future__ import annotations

import gc

import pytest

from benchmarks._emit import report_info
from repro.workloads import build_mimic_program

MODES = ["one_size_fits_all", "cpu_polystore", "polystore++"]


@pytest.mark.parametrize("mode", MODES)
def test_mimic_program_by_mode(benchmark, mimic_system, mode):
    """Compile and execute the ICU-stay program under each execution mode."""
    system = mimic_system["system"]
    program = build_mimic_program(epochs=2)

    result = benchmark.pedantic(lambda: system.execute(program, mode=mode),
                                iterations=1, rounds=3)
    model = result.output("stay_model")
    benchmark.extra_info["experiment"] = "E7"
    benchmark.extra_info.update(report_info(result))
    benchmark.extra_info["accuracy"] = model["metrics"]["accuracy"]
    assert model["rows"] == mimic_system["dataset"].num_patients
    assert model["metrics"]["accuracy"] > 0.6


def test_mode_ordering(mimic_system):
    """The headline E7 comparison (not timed; charged costs compared directly)."""
    system = mimic_system["system"]
    program = build_mimic_program(epochs=2)
    # Host-run operators are charged their measured wall time and each run
    # is ~20 ms: a full collection (~40 ms over pytest's heap) landing inside
    # one of the three would decide the comparison, so none may start here.
    gc.collect()
    gc.disable()
    try:
        results = system.compare_modes(program)
    finally:
        gc.enable()
    charged = {mode: r.total_time_s for mode, r in results.items()}
    assert charged["polystore++"] <= charged["cpu_polystore"] * 1.25
    assert charged["cpu_polystore"] <= charged["one_size_fits_all"] * 1.25
