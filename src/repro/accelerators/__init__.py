"""Simulated hardware accelerators, analytical models and offload planning."""

from repro.accelerators.base import (
    CGRA,
    FLEET,
    FPGA,
    GPU,
    MIGRATION_ASIC,
    TPU,
    Accelerator,
    DeploymentMode,
    DeviceProfile,
    HostCPU,
    KernelSpec,
    OffloadReport,
)
from repro.accelerators.kernels import KernelMapping, KernelRegistry, WorkEstimate
from repro.accelerators.logca import LogCAModel, LogCAParameters
from repro.accelerators.roofline import roofline_time_s
from repro.accelerators.simulator import Objective, OffloadPlanner, PlacementDecision

__all__ = [
    "Accelerator",
    "DeploymentMode",
    "DeviceProfile",
    "HostCPU",
    "KernelSpec",
    "OffloadReport",
    "FPGA",
    "GPU",
    "CGRA",
    "TPU",
    "MIGRATION_ASIC",
    "FLEET",
    "LogCAModel",
    "LogCAParameters",
    "roofline_time_s",
    "KernelRegistry",
    "KernelMapping",
    "WorkEstimate",
    "OffloadPlanner",
    "PlacementDecision",
    "Objective",
]
