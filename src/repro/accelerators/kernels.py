"""Kernel table: which operator kinds run as which device kernels, at what cost.

The compiler's placement pass and the middleware's offload planner consult
this table to answer the paper's challenge (d) in §IV-A: *what functions
should be accelerated*.  :data:`DEFAULT_MAPPINGS` maps an abstract operator
kind (the IR vocabulary) to the device kernels that can serve it, each with
the one function that turns a :class:`WorkEstimate` into the
:class:`~repro.accelerators.base.KernelSpec` a device prices.  The planner
fills the estimate from cardinality annotations; the executor and the data
migrator, which run the operator on its engine first, fill it with what they
observed (:func:`kernel_mapping` picks the same kernel for them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.accelerators.base import Accelerator, KernelSpec, OffloadReport
from repro.exceptions import AcceleratorError

_ROW_BYTES = 64


@dataclass(frozen=True)
class WorkEstimate:
    """Operator work statistics, engine-agnostic.

    Attributes:
        rows: Input rows/elements processed.
        row_bytes: Serialized bytes per row.
        selectivity: Fraction of rows surviving (filters, joins).
        flops_per_row: Elementary operations per row.
        matrix_dims: For GEMM-like operators: ``(m, k, n)``.
        bytes_in: Observed bytes shipped to the device; ``None`` = derive
            from ``rows`` and ``row_bytes``.
        bytes_out: Observed bytes shipped back; ``None`` = derive from
            ``bytes_in`` and ``selectivity``.
        flops: Observed elementary operations (an engine's own counter);
            ``None`` = the kernel's model of ``rows`` or ``matrix_dims``.
    """

    rows: int = 0
    row_bytes: int = _ROW_BYTES
    selectivity: float = 1.0
    flops_per_row: float = 1.0
    matrix_dims: tuple[int, int, int] | None = None
    bytes_in: int | None = None
    bytes_out: int | None = None
    flops: int | None = None


@dataclass(frozen=True)
class KernelMapping:
    """One (operator kind -> device kernel) mapping."""

    operator: str
    kernel: str
    estimator: Callable[[str, WorkEstimate], KernelSpec]

    def spec(self, work: WorkEstimate) -> KernelSpec:
        """The work ``kernel`` does for ``work``."""
        return self.estimator(self.kernel, work)


def _stream(kernel: str, work: WorkEstimate, flops: int,
            row_bytes: int | None = None) -> KernelSpec:
    """A streaming kernel over ``work.rows`` rows doing ``flops`` operations."""
    bytes_in = work.bytes_in if work.bytes_in is not None \
        else work.rows * (row_bytes or work.row_bytes)
    bytes_out = work.bytes_out if work.bytes_out is not None \
        else int(bytes_in * min(1.0, work.selectivity))
    return KernelSpec(kernel, bytes_in, bytes_out,
                      flops if work.flops is None else work.flops, work.rows,
                      pipelineable=True)


def _sort_spec(kernel: str, work: WorkEstimate) -> KernelSpec:
    # A bitonic network: log^2 n stages of n/2 compare-exchanges.
    n = max(2, work.rows)
    return _stream(kernel, work, int(n / 2 * math.log2(n) ** 2))


def _per_row_spec(kernel: str, work: WorkEstimate) -> KernelSpec:
    return _stream(kernel, work, work.rows)


def _window_spec(kernel: str, work: WorkEstimate) -> KernelSpec:
    return _stream(kernel, work, work.rows * 2, row_bytes=16)


def _serialize_spec(kernel: str, work: WorkEstimate) -> KernelSpec:
    return _stream(kernel, work, work.rows * max(1, work.row_bytes // 8))


def _counted(kernel: str, work: WorkEstimate) -> KernelSpec:
    """Matrix work the engine that ran it counted; its bytes cover operands and results."""
    return KernelSpec(kernel, work.bytes_in or 0, 0, work.flops, max(1, work.flops // 2))


def _dims(kernel: str, work: WorkEstimate) -> tuple[int, int, int]:
    if work.matrix_dims is None:
        raise AcceleratorError(f"{kernel} work estimate requires matrix_dims")
    return work.matrix_dims


def _gemm_spec(kernel: str, work: WorkEstimate) -> KernelSpec:
    if work.flops is not None:
        return _counted(kernel, work)
    m, k, n = _dims(kernel, work)
    return KernelSpec(kernel, (m * k + k * n) * 8, m * n * 8, 2 * m * k * n, m * n)


def _gemv_spec(kernel: str, work: WorkEstimate) -> KernelSpec:
    if work.flops is not None:
        return _counted(kernel, work)
    m, k, _ = _dims(kernel, work)
    return KernelSpec(kernel, (m * k + k) * 8, m * 8, 2 * m * k, m)


#: Abstract operator kind -> candidate device kernels (tried in order).
DEFAULT_MAPPINGS: dict[str, list[KernelMapping]] = {
    "sort": [
        KernelMapping("sort", "bitonic_sort", _sort_spec),
        KernelMapping("sort", "sort", _sort_spec),
    ],
    "filter": [
        KernelMapping("filter", "filter", _per_row_spec),
        KernelMapping("filter", "scan_filter", _per_row_spec),
    ],
    "project": [KernelMapping("project", "project", _per_row_spec)],
    "window_aggregate": [KernelMapping("window_aggregate", "window_aggregate", _window_spec)],
    "gemm": [KernelMapping("gemm", "gemm", _gemm_spec)],
    "gemv": [KernelMapping("gemv", "gemv", _gemv_spec)],
    "train": [KernelMapping("train", "gemm", _gemm_spec)],
    "predict": [KernelMapping("predict", "gemv", _gemv_spec)],
    "serialize": [KernelMapping("serialize", "serialize", _serialize_spec)],
    "deserialize": [KernelMapping("deserialize", "deserialize", _serialize_spec)],
}


def kernel_mapping(device: Accelerator, operator: str | None) -> KernelMapping:
    """The mapping ``device`` serves ``operator`` through.

    Raises :class:`AcceleratorError` when the device offers no kernel for it.
    """
    for mapping in DEFAULT_MAPPINGS.get(operator, ()):
        if device.supports(mapping.kernel):
            return mapping
    raise AcceleratorError(
        f"device {device.profile.name!r} has no kernel for {operator!r}; "
        f"available: {sorted(device.profile.kernels)}"
    )


def offload_cost(device: Accelerator, operator: str, work: WorkEstimate) -> OffloadReport:
    """What ``device`` charges for running ``operator`` over ``work``."""
    return device.charge(kernel_mapping(device, operator).spec(work))


class KernelRegistry:
    """Lookup from operator kinds to device kernels across a fleet of accelerators."""

    def __init__(self, accelerators: list[Accelerator],
                 mappings: dict[str, list[KernelMapping]] | None = None) -> None:
        self.accelerators = list(accelerators)
        self.mappings = dict(mappings if mappings is not None else DEFAULT_MAPPINGS)

    def accelerable_operators(self) -> list[str]:
        """Operator kinds that at least one attached device can run."""
        return sorted(
            operator for operator in self.mappings
            if self.candidates(operator)
        )

    def candidates(self, operator: str) -> list[tuple[Accelerator, KernelMapping]]:
        """Devices (with their kernel mapping) able to run ``operator``."""
        out: list[tuple[Accelerator, KernelMapping]] = []
        for mapping in self.mappings.get(operator, []):
            for accelerator in self.accelerators:
                if accelerator.supports(mapping.kernel):
                    out.append((accelerator, mapping))
        return out
