"""E12 — the paper's §III walk-through: Admission ⋈ Patients across two databases.

The Admission table lives in DB1 and the Patients table in DB2; DB2's
projection is migrated to DB1, which joins it and sorts on the admission date.
Polystore++ accelerates both the sort (FPGA bitonic network) and the
migration (offloaded serialization + RDMA), pipelining them to cut latency.
"""

from __future__ import annotations

import pytest

from benchmarks._emit import report_info
from repro.accelerators import FPGA, MIGRATION_ASIC, Accelerator
from repro.core import PolystorePlusPlus
from repro.datamodel import DataType, Table, make_schema
from repro.eide import DataflowProgram, dataset
from repro.stores import RelationalEngine
from repro.workloads.generator import rng_for

SIZES = [1_000, 10_000]


def build_two_database_deployment(rows: int) -> PolystorePlusPlus:
    """DB1 holds admissions, DB2 holds patients; both registered in one polystore."""
    rng = rng_for(rows)
    admissions_schema = make_schema(("pid", DataType.INT), ("admit_date", DataType.FLOAT),
                                    ("ward", DataType.STRING))
    patients_schema = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                                  ("gender", DataType.STRING))
    db1 = RelationalEngine("db1")
    db2 = RelationalEngine("db2")
    db1.load_table("admissions", Table(admissions_schema, [
        (int(rng.integers(1, rows // 2 + 1)), float(rng.uniform(0, 1e6)),
         "icu" if rng.random() < 0.3 else "general")
        for _ in range(rows)
    ]))
    db2.load_table("patients", Table(patients_schema, [
        (pid, int(rng.integers(18, 95)), "F" if rng.random() < 0.5 else "M")
        for pid in range(1, rows // 2 + 1)
    ]))
    system = PolystorePlusPlus()
    system.register_engine(db1)
    system.register_engine(db2)
    system.register_accelerator(Accelerator(FPGA))
    system.register_accelerator(Accelerator(MIGRATION_ASIC), use_for_migration=True)
    return system


def cross_db_program() -> DataflowProgram:
    """Project both tables on pid, join across databases, sort by admission date."""
    admissions = dataset("db1").sql("SELECT pid, admit_date, ward FROM admissions")
    patients = dataset("db2").sql("SELECT pid, age, gender FROM patients")
    history = admissions.join(patients, on="pid", engine="db1")
    program = DataflowProgram("admission-history")
    program.output("sorted_history", history.apply(
        lambda table: table.sort(["admit_date"]), engine="db1"))
    return program


@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("mode", ["cpu_polystore", "polystore++"])
def test_cross_db_sort_merge_query(benchmark, rows, mode):
    """The cross-database query under CPU-only and accelerated execution."""
    system = build_two_database_deployment(rows)
    program = cross_db_program()

    result = benchmark.pedantic(lambda: system.execute(program, mode=mode),
                                iterations=1, rounds=3)
    history = result.output("sorted_history")
    dates = history.column("admit_date")
    assert dates == sorted(dates)
    benchmark.extra_info["experiment"] = "E12"
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info.update(report_info(result))
    benchmark.extra_info["result_rows"] = len(history)
