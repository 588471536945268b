"""Simulated FPGA accelerator.

The paper highlights FPGAs for pipeline-parallel operators: bitonic sort
(§III-A-1), streaming scan/filter/project close to the data (§III-A-2), and
serialization for data migration (§III-A-3).  The simulator charges time for
those kernels from a pipeline model — a compare-exchange network processes
one stage per clock once the pipeline is full — on top of the generic
transfer/overhead accounting in :class:`~repro.accelerators.base.Accelerator`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.accelerators.base import Accelerator, DeploymentMode, DeviceProfile, KernelSpec
from repro.stores.relational.operators import bitonic_sort

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

_ROW_BYTES = 64        # nominal serialized row width used for cost accounting
_VALUE_BYTES = 8


class FPGAAccelerator(Accelerator):
    """An FPGA card with sort, filter, project, window and serialize kernels."""

    def __init__(self, profile: DeviceProfile = DEFAULT_FPGA_PROFILE,
                 mode: DeploymentMode = DeploymentMode.COPROCESSOR, *,
                 clock_mhz: float = 250.0, pipeline_width: int = 256) -> None:
        super().__init__(profile, mode)
        self.clock_mhz = clock_mhz
        self.pipeline_width = pipeline_width
        self.register_kernel("bitonic_sort", self._kernel_bitonic_sort)
        self.register_kernel("filter", self._kernel_filter)
        self.register_kernel("project", self._kernel_project)
        self.register_kernel("window_aggregate", self._kernel_window_aggregate)
        self.register_kernel("serialize", self._kernel_serialize)

    # -- cost model ------------------------------------------------------------------

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

    # -- kernels -------------------------------------------------------------------------

    def _kernel_bitonic_sort(self, values: Sequence[Any], *,
                             key: Callable[[Any], Any] | None = None,
                             descending: bool = False) -> tuple[list[Any], KernelSpec]:
        """Sort values with the bitonic network (functionally exact)."""
        result, stats = bitonic_sort(values, key=key, descending=descending)
        spec = KernelSpec(
            name="bitonic_sort",
            bytes_in=len(values) * _ROW_BYTES,
            bytes_out=len(values) * _ROW_BYTES,
            flops=stats.comparisons,
            elements=len(values),
            pipelineable=True,
        )
        return result, spec

    def _kernel_filter(self, rows: Sequence[tuple],
                       predicate: Callable[[tuple], bool]
                       ) -> tuple[list[tuple], KernelSpec]:
        """Streaming filter: evaluate a predicate per row, emit survivors."""
        kept = [row for row in rows if predicate(row)]
        spec = KernelSpec(
            name="filter",
            bytes_in=len(rows) * _ROW_BYTES,
            bytes_out=len(kept) * _ROW_BYTES,
            flops=len(rows),
            elements=len(rows),
            pipelineable=True,
        )
        return kept, spec

    def _kernel_project(self, rows: Sequence[tuple], positions: Sequence[int]
                        ) -> tuple[list[tuple], KernelSpec]:
        """Streaming projection: strip unused columns before they reach the host."""
        projected = [tuple(row[i] for i in positions) for row in rows]
        input_width = max(1, len(rows[0])) * _VALUE_BYTES if rows else _ROW_BYTES
        output_width = max(1, len(positions)) * _VALUE_BYTES
        spec = KernelSpec(
            name="project",
            bytes_in=len(rows) * input_width,
            bytes_out=len(projected) * output_width,
            flops=len(rows) * max(1, len(positions)),
            elements=len(rows),
            pipelineable=True,
        )
        return projected, spec

    def _kernel_window_aggregate(self, points: Sequence[tuple[float, float]],
                                 window_s: float, aggregation: str = "mean"
                                 ) -> tuple[list[tuple[float, float]], KernelSpec]:
        """Streaming tumbling-window aggregation over (timestamp, value) pairs."""
        from repro.stores.timeseries.window import tumbling_window

        results = tumbling_window(points, window_s, aggregation)
        output = [(r.window_start, r.value) for r in results]
        spec = KernelSpec(
            name="window_aggregate",
            bytes_in=len(points) * 2 * _VALUE_BYTES,
            bytes_out=len(output) * 2 * _VALUE_BYTES,
            flops=len(points) * 2,
            elements=len(points),
            pipelineable=True,
        )
        return output, spec

    def _kernel_serialize(self, table: Any) -> tuple[bytes, KernelSpec]:
        """Binary serialization offload used by the accelerated migration path."""
        from repro.datamodel.serialization import BinarySerializer

        payload, report = BinarySerializer().serialize(table)
        spec = KernelSpec(
            name="serialize",
            bytes_in=table.estimated_bytes(),
            bytes_out=len(payload),
            flops=report.value_conversions,
            elements=report.rows,
            pipelineable=True,
        )
        return payload, spec
