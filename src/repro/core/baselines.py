"""Deployment builders used by the end-to-end experiments.

The paper's introduction contrasts ways of running a heterogeneous analytic
application; this module builds the two Polystore++ deployments benchmarks
compare like with like:

* :func:`build_cpu_polystore` — engines only, no accelerators.
* :func:`build_accelerated_polystore` — engines plus a default accelerator
  fleet (FPGA, GPU, TPU, migration ASIC).
"""

from __future__ import annotations

from repro.accelerators.asic import MigrationASIC, TPUAccelerator
from repro.accelerators.fpga import FPGAAccelerator
from repro.accelerators.gpu import GPUAccelerator
from repro.core.system import PolystorePlusPlus, SystemConfig
from repro.stores.base import Engine


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
