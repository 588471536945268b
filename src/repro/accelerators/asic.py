"""Simulated fixed-function accelerators (ASIC / TPU-class).

ASICs in the paper are fixed-function devices with pre-configured operators
that "achieve extremely high performance and efficiency for these operators"
(§II-B).  Two devices are modelled:

* :class:`TPUAccelerator` — a systolic-array matrix engine (GEMM/GEMV only),
  standalone deployment like Google's TPU or Microsoft Brainwave.
* :class:`MigrationASIC` — a bump-in-the-wire serialization/compression
  engine for the data-migration path (§III-A-3).
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator, DeploymentMode, DeviceProfile, KernelSpec

#: Default profile loosely modelled on a first-generation inference TPU.
DEFAULT_TPU_PROFILE = DeviceProfile(
    name="tpu0",
    peak_gflops=45_000.0,
    memory_bandwidth_gbs=600.0,
    transfer_bandwidth_gbs=10.0,
    dispatch_overhead_s=50e-6,
    power_w=75.0,
    idle_power_w=15.0,
    reconfiguration_s=0.0,
)

DEFAULT_MIGRATION_ASIC_PROFILE = DeviceProfile(
    name="migration-asic0",
    peak_gflops=100.0,
    memory_bandwidth_gbs=50.0,
    transfer_bandwidth_gbs=25.0,
    dispatch_overhead_s=10e-6,
    power_w=8.0,
    idle_power_w=2.0,
    reconfiguration_s=0.0,
)


class TPUAccelerator(Accelerator):
    """A systolic matrix engine supporting only GEMM and GEMV."""

    kernels = frozenset({"gemm", "gemv"})

    def __init__(self, profile: DeviceProfile = DEFAULT_TPU_PROFILE,
                 mode: DeploymentMode = DeploymentMode.STANDALONE, *,
                 systolic_dim: int = 256) -> None:
        super().__init__(profile, mode)
        self.systolic_dim = systolic_dim

    def _compute_time(self, spec: KernelSpec) -> float:
        base = super()._compute_time(spec)
        if spec.elements and spec.elements < self.systolic_dim * self.systolic_dim:
            # Matrices smaller than the systolic array waste most of the grid.
            fill = max(0.02, spec.elements / float(self.systolic_dim * self.systolic_dim))
            return base / fill
        return base


class MigrationASIC(Accelerator):
    """A bump-in-the-wire serialization engine for cross-engine data movement."""

    kernels = frozenset({"serialize", "deserialize"})

    def __init__(self, profile: DeviceProfile = DEFAULT_MIGRATION_ASIC_PROFILE,
                 mode: DeploymentMode = DeploymentMode.BUMP_IN_THE_WIRE) -> None:
        super().__init__(profile, mode)
