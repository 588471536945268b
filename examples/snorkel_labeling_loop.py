"""Snorkel-style weak-supervision pipeline with SQL in the training loop (Figure 3).

The imperative loop issues one ``load_data`` SQL query per mini-batch, exactly
as the paper's Figure 3 shows; the declarative version expresses the same
pipeline as a heterogeneous program so the Polystore++ compiler can
deduplicate the scan and offload the data access.  The example also runs the
accelerated migration comparison the pipeline's data movement relies on.

Run with:  python examples/snorkel_labeling_loop.py
"""

from __future__ import annotations

import time

from repro.accelerators import MIGRATION_ASIC, Accelerator
from repro.core import build_accelerated_polystore
from repro.middleware.migration import DataMigrator
from repro.stores import MLEngine, RelationalEngine
from repro.workloads import (
    build_snorkel_program,
    generate_documents,
    load_documents,
    run_labeling_pipeline,
)

NUM_DOCUMENTS = 3_000


def main() -> None:
    print(f"Generating {NUM_DOCUMENTS} unlabeled documents in the RDBMS...")
    documents = generate_documents(NUM_DOCUMENTS, seed=13)
    relational = RelationalEngine("corpus-db")
    load_documents(documents, relational)

    print("\n1. Imperative loop (one SQL query per mini-batch, as in Figure 3):")
    start = time.perf_counter()
    loop_result = run_labeling_pipeline(relational, epochs=3, batch_size=256)
    elapsed = time.perf_counter() - start
    print(f"   SQL queries issued : {loop_result.sql_queries_issued}")
    print(f"   rows loaded        : {loop_result.rows_loaded}")
    print(f"   accuracy vs truth  : {loop_result.accuracy_vs_true:.3f}")
    print(f"   wall time          : {elapsed:.2f} s")

    print("\n2. The same pipeline as a declarative heterogeneous program:")
    system = build_accelerated_polystore([relational, MLEngine("label-ml")])
    result = system.execute(build_snorkel_program(epochs=3), mode="polystore++")
    model = result.output("label_model")
    print(f"   IR operators       : {len(result.report.records)}")
    print(f"   charged time       : {result.total_time_s * 1e3:.2f} ms")
    print(f"   model accuracy     : {model['metrics']['accuracy']:.3f}")

    print("\n3. Migration-path comparison for the training table (Pipegen claim):")
    table = relational.scan("documents")
    migrator = DataMigrator(serializer_accelerator=Accelerator(MIGRATION_ASIC))
    for strategy, report in migrator.compare_strategies(table).items():
        print(f"   {strategy:<12} total {report.total_s * 1e3:8.3f} ms   "
              f"transform {report.transformation_s * 1e3:8.3f} ms   "
              f"payload {report.payload_bytes / 1024:8.1f} KiB")


if __name__ == "__main__":
    main()
