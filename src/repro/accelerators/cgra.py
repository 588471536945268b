"""Simulated CGRA (coarse-grained reconfigurable array) accelerator.

The paper cites Plasticine-style CGRAs as reconfigurable like FPGAs but with
much shorter reconfiguration times because they are built from coarse
processing elements (§II-B).  The simulator offers the parallel-pattern
kernels (filter, sort, gemm) with a fast-reconfiguration profile and a
pattern-level utilization model.
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator, DeploymentMode, DeviceProfile, KernelSpec

#: Default profile loosely modelled on a Plasticine-class CGRA.
DEFAULT_CGRA_PROFILE = DeviceProfile(
    name="cgra0",
    peak_gflops=3_000.0,
    memory_bandwidth_gbs=480.0,
    transfer_bandwidth_gbs=16.0,
    dispatch_overhead_s=30e-6,
    power_w=45.0,
    idle_power_w=8.0,
    reconfiguration_s=50e-6,       # orders of magnitude faster than FPGA synthesis
)


class CGRAAccelerator(Accelerator):
    """A CGRA executing parallel patterns: filter, sort and dense products."""

    kernels = frozenset({"filter", "sort", "gemm"})

    def __init__(self, profile: DeviceProfile = DEFAULT_CGRA_PROFILE,
                 mode: DeploymentMode = DeploymentMode.COPROCESSOR, *,
                 pattern_units: int = 64) -> None:
        super().__init__(profile, mode)
        self.pattern_units = pattern_units

    def _compute_time(self, spec: KernelSpec) -> float:
        base = super()._compute_time(spec)
        if spec.elements and spec.elements < self.pattern_units:
            # Fewer elements than pattern units leaves the fabric mostly idle.
            return base * (self.pattern_units / max(1, spec.elements)) * 0.25
        return base
