"""What a simulated accelerator is: a cost model.

The paper deploys accelerators *standalone*, as *coprocessors* and
*bump-in-the-wire* (§I), and names the device classes FPGA, GPU, CGRA and
ASIC/TPU (§II-B).  With no such hardware here, a device computes nothing: it
is one :class:`Accelerator` built from a :class:`DeviceProfile` row — the
kernels it offers, how it is attached and the numbers its compute rule
reads.  Every operator runs on its engine; one placed on a device is
*charged* ``estimate(spec).total_s``.  The default rows are one table
(:data:`FPGA`, :data:`GPU`, :data:`CGRA`, :data:`TPU`,
:data:`MIGRATION_ASIC`).  Which kernel serves which operator kind, and how
work becomes a spec, is another,
:data:`repro.accelerators.kernels.DEFAULT_MAPPINGS`, read by the planner with
estimated work and by executor and migrator with observed work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.accelerators.roofline import roofline_time_s
from repro.exceptions import AcceleratorError


class DeploymentMode(enum.Enum):
    """How an accelerator is attached to the system (paper §I)."""

    STANDALONE = "standalone"
    COPROCESSOR = "coprocessor"
    BUMP_IN_THE_WIRE = "bump_in_the_wire"


@dataclass(frozen=True)
class DeviceProfile:
    """One device: what it offers, how it is attached and what it costs.

    A row selects one of two compute rules.  A nonzero ``clock_mhz`` selects
    the pipeline rule: ``flops / pipeline_width`` cycles plus the pipeline's
    depth (``log² n`` stages for a bitonic sort of ``n`` elements, else 10).
    Otherwise the kernel takes its roofline time, and a launch over fewer
    than ``fill_elements`` elements, which under-fills the device, is
    divided by its fill ``elements / fill_elements`` (at least
    ``fill_floor``) or, with a nonzero ``fill_derate``, multiplied by
    ``fill_elements / elements × fill_derate``.

    Attributes:
        name: Device name (e.g. ``"fpga0"``); the catalog's key.
        kernels: Names of the kernels the device offers.
        mode: How the device is attached.
        peak_gflops: Peak compute throughput.
        memory_bandwidth_gbs: On-device memory bandwidth.
        transfer_bandwidth_gbs: Host-to-device link bandwidth (PCIe, network).
        dispatch_overhead_s: Fixed per-offload software/driver overhead.
        power_w: Active power draw, used for the energy objective.
        reconfiguration_s: Time to reconfigure before a *different* kernel can
            run (seconds for FPGA partial reconfiguration, micro/milliseconds
            for CGRA, zero for fixed-function ASICs and GPUs).
    """

    name: str
    kernels: frozenset[str]
    mode: DeploymentMode
    peak_gflops: float
    memory_bandwidth_gbs: float
    transfer_bandwidth_gbs: float
    dispatch_overhead_s: float
    power_w: float
    reconfiguration_s: float = 0.0
    clock_mhz: float = 0.0
    pipeline_width: int = 0
    fill_elements: int = 0
    fill_floor: float = 0.0
    fill_derate: float = 0.0

    def __post_init__(self) -> None:
        if min(self.peak_gflops, self.memory_bandwidth_gbs,
               self.transfer_bandwidth_gbs) <= 0:
            raise AcceleratorError(
                f"device {self.name!r}: peak and bandwidths must be positive")


#: The default devices, loosely modelled on a mid-range PCIe FPGA card
#: (sort, filter, project, window and serialize pipelines, §III-A), a
#: mid-range data-center GPU (wide SIMD: dense products and scans), a
#: Plasticine-class CGRA (parallel patterns, reconfigured in microseconds), a
#: first-generation inference TPU (a 256×256 systolic array, standalone) and
#: a bump-in-the-wire serialization ASIC for the migration path (§III-A-3).
FPGA = DeviceProfile(
    "fpga0", frozenset({"bitonic_sort", "filter", "project", "window_aggregate",
                        "serialize"}), DeploymentMode.COPROCESSOR,
    peak_gflops=400.0, memory_bandwidth_gbs=34.0, transfer_bandwidth_gbs=12.0,
    dispatch_overhead_s=150e-6, power_w=25.0, reconfiguration_s=2.0,
    clock_mhz=250.0, pipeline_width=256)
GPU = DeviceProfile(
    "gpu0", frozenset({"gemm", "gemv", "scan_filter"}), DeploymentMode.COPROCESSOR,
    peak_gflops=14_000.0, memory_bandwidth_gbs=900.0, transfer_bandwidth_gbs=16.0,
    dispatch_overhead_s=20e-6, power_w=250.0, fill_elements=1 << 14, fill_floor=0.05)
CGRA = DeviceProfile(
    "cgra0", frozenset({"filter", "sort", "gemm"}), DeploymentMode.COPROCESSOR,
    peak_gflops=3_000.0, memory_bandwidth_gbs=480.0, transfer_bandwidth_gbs=16.0,
    dispatch_overhead_s=30e-6, power_w=45.0, reconfiguration_s=50e-6,
    fill_elements=64, fill_derate=0.25)
TPU = DeviceProfile(
    "tpu0", frozenset({"gemm", "gemv"}), DeploymentMode.STANDALONE,
    peak_gflops=45_000.0, memory_bandwidth_gbs=600.0, transfer_bandwidth_gbs=10.0,
    dispatch_overhead_s=50e-6, power_w=75.0, fill_elements=256 * 256, fill_floor=0.02)
MIGRATION_ASIC = DeviceProfile(
    "migration-asic0", frozenset({"serialize", "deserialize"}),
    DeploymentMode.BUMP_IN_THE_WIRE,
    peak_gflops=100.0, memory_bandwidth_gbs=50.0, transfer_bandwidth_gbs=25.0,
    dispatch_overhead_s=10e-6, power_w=8.0)

#: The fleet an accelerated deployment attaches by default.
FLEET = (FPGA, GPU, TPU, MIGRATION_ASIC)


@dataclass(frozen=True)
class KernelSpec:
    """Work description for one offload request.

    Attributes:
        name: Kernel name (``"bitonic_sort"``, ``"gemm"``, ``"filter"``...).
        bytes_in: Bytes shipped to the device.
        bytes_out: Bytes shipped back.
        flops: Floating-point (or compare-exchange) operations in the kernel.
        elements: Number of logical elements processed (rows, points, ...).
        pipelineable: Whether transfer and compute can overlap (streaming
            kernels in bump-in-the-wire mode).
    """

    name: str
    bytes_in: int
    bytes_out: int = 0
    flops: int = 0
    elements: int = 0
    pipelineable: bool = False


@dataclass
class OffloadReport:
    """Simulated cost breakdown of one offload."""

    device: str
    kernel: str
    transfer_s: float
    compute_s: float
    overhead_s: float
    reconfiguration_s: float
    total_s: float
    bytes_moved: int
    pipelined: bool


class Accelerator:
    """A simulated device: a :class:`DeviceProfile` row and the kernel it holds.

    It implements no operator; it prices the kernels its row offers.
    """

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile
        self._configured_kernel: str | None = None

    def supports(self, kernel: str) -> bool:
        """Whether this device offers ``kernel``."""
        return kernel in self.profile.kernels

    def estimate(self, spec: KernelSpec) -> OffloadReport:
        """Simulated cost of running ``spec`` on this device next.

        Pricing leaves the device as it was: only :meth:`charge` loads a kernel.
        """
        profile = self.profile
        bytes_moved = spec.bytes_in + spec.bytes_out
        transfer_s = bytes_moved / (profile.transfer_bandwidth_gbs * 1e9) \
            if bytes_moved else 0.0
        compute_s = self._compute_time(spec)
        reconfiguration_s = 0.0
        if self._configured_kernel is not None and self._configured_kernel != spec.name:
            reconfiguration_s = profile.reconfiguration_s
        # Streaming kernels on the wire overlap transfer with compute.
        pipelined = spec.pipelineable and profile.mode is DeploymentMode.BUMP_IN_THE_WIRE
        busy = max(transfer_s, compute_s) if pipelined else transfer_s + compute_s
        return OffloadReport(
            device=profile.name,
            kernel=spec.name,
            transfer_s=transfer_s,
            compute_s=compute_s,
            overhead_s=profile.dispatch_overhead_s,
            reconfiguration_s=reconfiguration_s,
            total_s=profile.dispatch_overhead_s + reconfiguration_s + busy,
            bytes_moved=bytes_moved,
            pipelined=pipelined,
        )

    def charge(self, spec: KernelSpec) -> OffloadReport:
        """Run ``spec`` on this device: its :meth:`estimate`, after which the
        device holds ``spec``'s kernel."""
        report = self.estimate(spec)
        self._configured_kernel = spec.name
        return report

    def _compute_time(self, spec: KernelSpec) -> float:
        """Device compute time for a kernel, by the row's rule."""
        profile = self.profile
        if profile.clock_mhz:
            if spec.flops <= 0:
                return 0.0
            depth = 10.0  # a streaming kernel's pipeline
            if spec.name == "bitonic_sort" and spec.elements > 1:
                # A sorting network of n elements is log^2(n) stages deep.
                depth = float((spec.elements - 1).bit_length() ** 2)
            cycles = spec.flops / profile.pipeline_width + depth
            return cycles / (profile.clock_mhz * 1e6)
        base = roofline_time_s(float(spec.flops), float(spec.bytes_in + spec.bytes_out),
                               profile.peak_gflops, profile.memory_bandwidth_gbs)
        elements, fill = spec.elements, profile.fill_elements
        if not elements or elements >= fill:
            return base
        if profile.fill_derate:
            return base * (fill / max(1, elements)) * profile.fill_derate
        return base / max(profile.fill_floor, elements / fill)

    def describe(self) -> dict[str, Any]:
        """Metadata used by the EIDE configuration and the catalog."""
        return {
            "name": self.profile.name,
            "mode": self.profile.mode.value,
            "peak_gflops": self.profile.peak_gflops,
            "transfer_bandwidth_gbs": self.profile.transfer_bandwidth_gbs,
            "power_w": self.profile.power_w,
            "kernels": sorted(self.profile.kernels),
        }

    def __repr__(self) -> str:
        return f"Accelerator({self.profile.name!r}, mode={self.profile.mode.value})"


@dataclass(frozen=True)
class HostCPU:
    """Reference host core the offload decisions compare against."""

    peak_gflops: float = 8.0
    memory_bandwidth_gbs: float = 25.0
    power_w: float = 95.0

    def execution_time_s(self, flops: float, bytes_moved: float) -> float:
        """Host execution time of a kernel on one core."""
        return roofline_time_s(flops, bytes_moved, self.peak_gflops,
                               self.memory_bandwidth_gbs)

    def energy_j(self, execution_time_s: float) -> float:
        """Energy of running the host flat-out for ``execution_time_s``."""
        return self.power_w * execution_time_s
