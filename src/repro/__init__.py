"""Polystore++ reproduction: an accelerated polystore system for heterogeneous workloads.

The public API is intentionally small; most users need only:

* :class:`repro.PolystorePlusPlus` — build a deployment, register engines and
  accelerators, execute heterogeneous programs.
* :class:`repro.DataflowProgram` over :func:`repro.dataset` reads — describe
  a workload spanning SQL, streams, graphs, text and ML.
* The engines in :mod:`repro.stores` and the simulated accelerators in
  :mod:`repro.accelerators` for lower-level use.
"""

from repro.cancellation import CancellationToken
from repro.catalog import Catalog
from repro.client import PreparedProgram, Session
from repro.cluster import HashPartitioner
from repro.core import (
    EXECUTION_MODES,
    ExecutionResult,
    PolystorePlusPlus,
    SystemConfig,
    build_accelerated_polystore,
    build_cpu_polystore,
)
from repro.eide import (
    DataflowProgram,
    Dataset,
    Param,
    col,
    compile_natural_language,
    dataset,
    lit,
    view_dataset,
)
from repro.views import MaintenancePolicy, MaterializedView

__version__ = "1.2.0"

__all__ = [
    "PolystorePlusPlus",
    "SystemConfig",
    "ExecutionResult",
    "EXECUTION_MODES",
    "Session",
    "PreparedProgram",
    "CancellationToken",
    "Param",
    "DataflowProgram",
    "Dataset",
    "dataset",
    "view_dataset",
    "MaterializedView",
    "MaintenancePolicy",
    "col",
    "lit",
    "compile_natural_language",
    "Catalog",
    "build_cpu_polystore",
    "build_accelerated_polystore",
    "HashPartitioner",
    "__version__",
]
