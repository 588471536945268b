"""Core Polystore++ system: facade, execution modes and baselines."""

from repro.core.baselines import (
    build_accelerated_polystore,
    build_cpu_polystore,
)
from repro.core.system import (
    EXECUTION_MODES,
    ExecutionResult,
    ModePlan,
    PolystorePlusPlus,
    SystemConfig,
)

__all__ = [
    "PolystorePlusPlus",
    "SystemConfig",
    "ExecutionResult",
    "ModePlan",
    "EXECUTION_MODES",
    "build_cpu_polystore",
    "build_accelerated_polystore",
]
