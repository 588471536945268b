"""Clinical analysis on a synthetic MIMIC-III-like dataset (paper Figure 2).

Reproduces the paper's motivating application: predict whether a patient will
stay in hospital for more than five days, joining admissions (relational),
bedside vitals (timeseries) and clinical notes (text), then training a neural
network — and compares the three execution modes.

The program is the paper's mixed-language form: its relational read is SQL
text (``dataset("clinical-db").sql("SELECT ...")``) composed with stream,
text and ML operators (quickstart and the recommendation pipeline compose
typed expressions instead).

Run with:  python examples/mimic_clinical_analysis.py
"""

from __future__ import annotations

from repro.core import build_accelerated_polystore
from repro.eide import compile_natural_language
from repro.stores import GraphEngine, MLEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.workloads import build_mimic_program, generate_mimic, load_mimic

NUM_PATIENTS = 600


def main() -> None:
    print(f"Generating a synthetic MIMIC-like dataset with {NUM_PATIENTS} patients...")
    dataset = generate_mimic(NUM_PATIENTS, points_per_patient=24, seed=42)

    relational = RelationalEngine("clinical-db")
    timeseries = TimeseriesEngine("monitors")
    text = TextEngine("notes-db")
    graph = GraphEngine("wards")
    ml = MLEngine("dnn-engine")
    load_mimic(dataset, relational=relational, timeseries=timeseries, text=text, graph=graph)

    system = build_accelerated_polystore([relational, timeseries, text, graph, ml])

    # The same query, phrased in natural language (paper §IV-A-e).
    nl_program = compile_natural_language(
        "Will patients have a long stay at the hospital (> 5 days) when they exit the ICU?",
        relational_engine="clinical-db", timeseries_engine="monitors",
        text_engine="notes-db", ml_engine="dnn-engine")
    print("\nNatural-language frontend produced this heterogeneous program:")
    print(nl_program.describe())

    program = build_mimic_program(epochs=4)
    print("\nExecuting the ICU-stay program under all three modes...\n")
    print(f"{'mode':<22}{'charged (ms)':>14}{'pipelined (ms)':>16}"
          f"{'migrated (KiB)':>16}{'accuracy':>10}")
    for mode in ("one_size_fits_all", "cpu_polystore", "polystore++"):
        result = system.execute(program, mode=mode)
        model = result.output("stay_model")
        print(f"{mode:<22}{result.total_time_s * 1e3:>14.2f}"
              f"{result.pipelined_time_s * 1e3:>16.2f}"
              f"{result.report.migration_bytes / 1024:>16.1f}"
              f"{model['metrics']['accuracy']:>10.3f}")

    # The ward-transfer graph adds a path-based feature outside the ML pipeline.
    path, hops = system.engine("wards").shortest_path("emergency", "recovery")
    print(f"\nTypical ward path emergency -> recovery: {' -> '.join(path)} ({hops:.0f} hops)")


if __name__ == "__main__":
    main()
