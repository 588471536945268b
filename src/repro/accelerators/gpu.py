"""Simulated GPU accelerator.

GPUs in the paper accelerate wide-SIMD workloads — GEMM/GEMV for ML, and
scan-style database kernels (§II-B).  The compute model is the device's
Roofline with an efficiency factor for small launches (real GPUs are badly
under-utilized below a few thousand threads).
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator, DeploymentMode, DeviceProfile, KernelSpec

#: Default profile loosely modelled on a mid-range data-center GPU.
DEFAULT_GPU_PROFILE = DeviceProfile(
    name="gpu0",
    peak_gflops=14_000.0,
    memory_bandwidth_gbs=900.0,
    transfer_bandwidth_gbs=16.0,
    dispatch_overhead_s=20e-6,
    power_w=250.0,
    idle_power_w=30.0,
    reconfiguration_s=0.0,
)


class GPUAccelerator(Accelerator):
    """A GPU with GEMM/GEMV and database scan+filter kernels."""

    kernels = frozenset({"gemm", "gemv", "scan_filter"})

    def __init__(self, profile: DeviceProfile = DEFAULT_GPU_PROFILE,
                 mode: DeploymentMode = DeploymentMode.COPROCESSOR, *,
                 min_efficient_elements: int = 1 << 14) -> None:
        super().__init__(profile, mode)
        self.min_efficient_elements = min_efficient_elements

    def _compute_time(self, spec: KernelSpec) -> float:
        base = super()._compute_time(spec)
        if spec.elements and spec.elements < self.min_efficient_elements:
            # Small launches cannot fill the device; derate proportionally.
            utilization = max(0.05, spec.elements / self.min_efficient_elements)
            return base / utilization
        return base
