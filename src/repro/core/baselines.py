"""Standalone baseline implementations used by the end-to-end experiments.

The paper's introduction contrasts three ways of running a heterogeneous
analytic application; this module provides helpers that build a Polystore++
deployment for each so benchmarks can compare like with like:

* :func:`build_cpu_polystore` — engines only, no accelerators.
* :func:`build_accelerated_polystore` — engines plus a default accelerator
  fleet (FPGA, GPU, TPU, migration ASIC).
* :func:`one_size_fits_all_latency` — an analytic estimate of the
  copy-everything-into-one-store approach: every non-relational dataset is
  first migrated (CSV) into the relational engine, then the whole program
  runs there; the estimate combines measured migration costs with the
  operator-kind table's per-row costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerators.asic import MigrationASIC, TPUAccelerator
from repro.accelerators.fpga import FPGAAccelerator
from repro.accelerators.gpu import GPUAccelerator
from repro.core.system import PolystorePlusPlus, SystemConfig
from repro.datamodel.table import Table
from repro.ir.kinds import KINDS
from repro.middleware.migration import DataMigrator, SimulatedNetwork
from repro.stores.base import Engine

#: Fixed per-program overhead of the single store's processing estimate.
ONE_STORE_FIXED_OVERHEAD_S = 5e-5


def build_cpu_polystore(engines: list[Engine], *,
                        config: SystemConfig | None = None) -> PolystorePlusPlus:
    """A polystore deployment with no accelerators (the CPU baseline)."""
    system = PolystorePlusPlus(config)
    for engine in engines:
        system.register_engine(engine)
    return system


def build_accelerated_polystore(engines: list[Engine], *,
                                config: SystemConfig | None = None,
                                include_fpga: bool = True,
                                include_gpu: bool = True,
                                include_tpu: bool = True,
                                include_migration_asic: bool = True
                                ) -> PolystorePlusPlus:
    """A Polystore++ deployment with the default simulated accelerator fleet."""
    system = PolystorePlusPlus(config)
    for engine in engines:
        system.register_engine(engine)
    if include_fpga:
        system.register_accelerator(FPGAAccelerator())
    if include_gpu:
        system.register_accelerator(GPUAccelerator())
    if include_tpu:
        system.register_accelerator(TPUAccelerator())
    if include_migration_asic:
        system.register_accelerator(MigrationASIC(), use_for_migration=True)
    return system


@dataclass
class OneSizeFitsAllEstimate:
    """Cost estimate for the copy-everything-to-one-store strawman."""

    migration_time_s: float
    migrated_bytes: int
    processing_time_s: float

    @property
    def total_time_s(self) -> float:
        """Migration plus single-engine processing time."""
        return self.migration_time_s + self.processing_time_s


def one_size_fits_all_latency(datasets: list[Table], *, processing_rows: int,
                              network: SimulatedNetwork | None = None
                              ) -> OneSizeFitsAllEstimate:
    """Estimate the one-size-fits-all latency for a workload.

    Every dataset is CSV-migrated into the single store (measured), then the
    program's operators run there over ``processing_rows`` rows (estimated
    with the kinds' per-row costs, no native-engine advantages).
    """
    migrator = DataMigrator(network if network is not None else SimulatedNetwork())
    migration_time = 0.0
    migrated_bytes = 0
    for table in datasets:
        _, report = migrator.migrate(table, strategy="csv")
        migration_time += report.total_s
        migrated_bytes += report.payload_bytes
    # On a single engine the cross-model operators degrade to generic scans,
    # joins and aggregations over the unioned data.
    per_row = (KINDS["scan"].row_cost + KINDS["join"].row_cost
               + KINDS["aggregate"].row_cost + KINDS["train"].row_cost)
    processing = ONE_STORE_FIXED_OVERHEAD_S + per_row * max(1, processing_rows)
    return OneSizeFitsAllEstimate(
        migration_time_s=migration_time,
        migrated_bytes=migrated_bytes,
        processing_time_s=processing,
    )
