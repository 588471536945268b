"""What a simulated accelerator is: a cost model.

The paper deploys accelerators *standalone*, as *coprocessors* and
*bump-in-the-wire* (§I).  With no FPGA/GPU/CGRA here, a device computes
nothing: it is a :class:`DeviceProfile`, a ``_compute_time`` model over a
:class:`KernelSpec` and the kernel names it offers.  Every operator runs on
its engine; one placed on a device is *charged* ``estimate(spec).total_s``.
Which kernel serves which operator kind, and how work becomes a spec, is one
table, :data:`repro.accelerators.kernels.DEFAULT_MAPPINGS`, read by the
planner with estimated work and by executor and migrator with observed work.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any

from repro.accelerators.logca import LogCAModel, LogCAParameters
from repro.accelerators.roofline import RooflineModel


class DeploymentMode(enum.Enum):
    """How an accelerator is attached to the system (paper §I)."""

    STANDALONE = "standalone"
    COPROCESSOR = "coprocessor"
    BUMP_IN_THE_WIRE = "bump_in_the_wire"


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of an accelerator device.

    Attributes:
        name: Device name (e.g. ``"fpga0"``).
        peak_gflops: Peak compute throughput.
        memory_bandwidth_gbs: On-device memory bandwidth.
        transfer_bandwidth_gbs: Host-to-device link bandwidth (PCIe, network).
        dispatch_overhead_s: Fixed per-offload software/driver overhead.
        power_w: Active power draw, used for the energy objective.
        idle_power_w: Idle power draw.
        reconfiguration_s: Time to reconfigure before a *different* kernel can
            run (hours-scale for FPGA synthesis, micro/milliseconds for CGRA,
            zero for fixed-function ASICs and GPUs).
        area_luts: FPGA-style area budget (lookup tables); ``None`` when the
            device has no meaningful area constraint.
    """

    name: str
    peak_gflops: float
    memory_bandwidth_gbs: float
    transfer_bandwidth_gbs: float
    dispatch_overhead_s: float
    power_w: float
    idle_power_w: float = 0.0
    reconfiguration_s: float = 0.0
    area_luts: int | None = None

    def roofline(self) -> RooflineModel:
        """Roofline ceiling implied by this profile."""
        return RooflineModel(self.peak_gflops, self.memory_bandwidth_gbs)


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
    energy_j: float
    bytes_moved: int
    pipelined: bool
    details: dict[str, Any] = field(default_factory=dict)


class Accelerator(abc.ABC):
    """Base class for simulated hardware accelerators.

    A subclass names the kernels it offers in ``kernels`` and may specialize
    :meth:`_compute_time`; it implements no operator.
    """

    #: Names of the kernels this device offers.
    kernels: frozenset[str] = frozenset()

    def __init__(self, profile: DeviceProfile, mode: DeploymentMode) -> None:
        self.profile = profile
        self.mode = mode
        self._configured_kernel: str | None = None

    def supports(self, kernel: str) -> bool:
        """Whether this device offers ``kernel``."""
        return kernel in self.kernels

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
        if spec.pipelineable and self.mode is DeploymentMode.BUMP_IN_THE_WIRE:
            # Streaming kernels overlap transfer with compute.
            busy = max(transfer_s, compute_s)
        else:
            busy = transfer_s + compute_s
        total = profile.dispatch_overhead_s + reconfiguration_s + busy
        energy = profile.power_w * busy + profile.idle_power_w * (
            profile.dispatch_overhead_s + reconfiguration_s
        )
        return OffloadReport(
            device=profile.name,
            kernel=spec.name,
            transfer_s=transfer_s,
            compute_s=compute_s,
            overhead_s=profile.dispatch_overhead_s,
            reconfiguration_s=reconfiguration_s,
            total_s=total,
            energy_j=energy,
            bytes_moved=bytes_moved,
            pipelined=spec.pipelineable and self.mode is DeploymentMode.BUMP_IN_THE_WIRE,
        )

    def charge(self, spec: KernelSpec) -> OffloadReport:
        """Run ``spec`` on this device: its :meth:`estimate`, after which the
        device holds ``spec``'s kernel."""
        report = self.estimate(spec)
        self._configured_kernel = spec.name
        return report

    def _compute_time(self, spec: KernelSpec) -> float:
        """Device compute time for a kernel; subclasses may specialize."""
        roofline = self.profile.roofline()
        return roofline.execution_time_s(float(spec.flops), float(spec.bytes_in + spec.bytes_out))

    # -- LogCA view ------------------------------------------------------------------------

    def logca_model(self, *, host_compute_index_s_per_byte: float,
                    peak_acceleration: float | None = None,
                    beta: float = 1.0) -> LogCAModel:
        """Build a LogCA model of this device for one kernel class.

        ``peak_acceleration`` defaults to the ratio of this device's peak
        compute throughput to a nominal 1-core host (used by the offload
        planner when it has no measured calibration).
        """
        if peak_acceleration is None:
            nominal_host_gflops = 8.0
            peak_acceleration = max(1.0, self.profile.peak_gflops / nominal_host_gflops)
        return LogCAModel(LogCAParameters(
            latency_per_byte_s=1.0 / (self.profile.transfer_bandwidth_gbs * 1e9),
            overhead_s=self.profile.dispatch_overhead_s,
            compute_index_s_per_byte=host_compute_index_s_per_byte,
            peak_acceleration=peak_acceleration,
            beta=beta,
        ))

    def describe(self) -> dict[str, Any]:
        """Metadata used by the EIDE configuration and the catalog."""
        return {
            "name": self.profile.name,
            "type": type(self).__name__,
            "mode": self.mode.value,
            "peak_gflops": self.profile.peak_gflops,
            "transfer_bandwidth_gbs": self.profile.transfer_bandwidth_gbs,
            "power_w": self.profile.power_w,
            "kernels": sorted(self.kernels),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.profile.name!r}, mode={self.mode.value})"


@dataclass(frozen=True)
class HostCPU:
    """Reference host processor the offload decisions compare against."""

    name: str = "host-cpu"
    cores: int = 8
    peak_gflops_per_core: float = 8.0
    memory_bandwidth_gbs: float = 25.0
    power_w: float = 95.0

    def roofline(self, *, cores: int | None = None) -> RooflineModel:
        """Roofline of ``cores`` host cores (defaults to all of them)."""
        used = self.cores if cores is None else max(1, min(cores, self.cores))
        return RooflineModel(self.peak_gflops_per_core * used, self.memory_bandwidth_gbs)

    def execution_time_s(self, flops: float, bytes_moved: float, *,
                         cores: int = 1) -> float:
        """Host execution time of a kernel on ``cores`` cores."""
        return self.roofline(cores=cores).execution_time_s(flops, bytes_moved)

    def energy_j(self, execution_time_s: float) -> float:
        """Energy of running the host flat-out for ``execution_time_s``."""
        return self.power_w * execution_time_s
