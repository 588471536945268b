"""Simulated FPGA accelerator.

The paper highlights FPGAs for pipeline-parallel operators: bitonic sort
(§III-A-1), streaming scan/filter/project close to the data (§III-A-2), and
serialization for data migration (§III-A-3).  The simulator charges time for
those kernels from a pipeline model — a compare-exchange network processes
one stage per clock once the pipeline is full — on top of the generic
transfer/overhead accounting in :class:`~repro.accelerators.base.Accelerator`.
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator, DeploymentMode, DeviceProfile, KernelSpec

#: Default profile loosely modelled on a mid-range PCIe FPGA card.
DEFAULT_FPGA_PROFILE = DeviceProfile(
    name="fpga0",
    peak_gflops=400.0,
    memory_bandwidth_gbs=34.0,
    transfer_bandwidth_gbs=12.0,
    dispatch_overhead_s=150e-6,
    power_w=25.0,
    idle_power_w=10.0,
    reconfiguration_s=2.0,          # partial reconfiguration, not full synthesis
    area_luts=1_200_000,
)


class FPGAAccelerator(Accelerator):
    """An FPGA card with sort, filter, project, window and serialize kernels."""

    kernels = frozenset({"bitonic_sort", "filter", "project", "window_aggregate",
                         "serialize"})

    def __init__(self, profile: DeviceProfile = DEFAULT_FPGA_PROFILE,
                 mode: DeploymentMode = DeploymentMode.COPROCESSOR, *,
                 clock_mhz: float = 250.0, pipeline_width: int = 256) -> None:
        super().__init__(profile, mode)
        self.clock_mhz = clock_mhz
        self.pipeline_width = pipeline_width

    def _compute_time(self, spec: KernelSpec) -> float:
        """Pipeline-model compute time.

        ``spec.flops`` carries the number of elementary operations
        (compare-exchanges, predicate evaluations, byte conversions); the
        pipeline retires ``pipeline_width`` of them per clock once full.
        """
        if spec.flops <= 0:
            return 0.0
        cycles = spec.flops / self.pipeline_width + self._pipeline_depth(spec)
        return cycles / (self.clock_mhz * 1e6)

    def _pipeline_depth(self, spec: KernelSpec) -> float:
        # A deep sorting network has log^2(n) stages; streaming kernels ~ 10.
        if spec.name == "bitonic_sort" and spec.elements > 1:
            n = spec.elements
            stages = 0
            size = 1
            while size < n:
                size *= 2
                stages += 1
            return float(stages * stages)
        return 10.0
