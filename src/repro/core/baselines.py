"""Deployment builders used by the end-to-end experiments.

The paper's introduction contrasts ways of running a heterogeneous analytic
application; this module builds the two Polystore++ deployments benchmarks
compare like with like:

* :func:`build_cpu_polystore` — engines only, no accelerators.
* :func:`build_accelerated_polystore` — engines plus simulated devices, by
  default the fleet (FPGA, GPU, TPU, migration ASIC).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.accelerators.base import FLEET, Accelerator, DeploymentMode, DeviceProfile
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
                                devices: Sequence[DeviceProfile] = FLEET
                                ) -> PolystorePlusPlus:
    """A Polystore++ deployment with one simulated device per row of ``devices``.

    A serializer attached bump-in-the-wire sits on the migration path and
    serves every accelerated migration; without one, the first device with a
    ``serialize`` kernel does.
    """
    system = PolystorePlusPlus(config)
    for engine in engines:
        system.register_engine(engine)
    for profile in devices:
        system.register_accelerator(
            Accelerator(profile),
            use_for_migration=(profile.mode is DeploymentMode.BUMP_IN_THE_WIRE
                               and "serialize" in profile.kernels))
    return system
