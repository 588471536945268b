"""Offload planning: host-vs-accelerator decisions.

Implements the decision procedure the paper's optimizer needs: given an
operator's work estimate, compare the host CPU's predicted time against each
candidate accelerator's predicted time (transfer + overhead + device compute)
and pick the cheapest placement under the selected objective (latency,
energy, or a weighted combination).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.accelerators.base import Accelerator, HostCPU
from repro.accelerators.kernels import KernelRegistry, WorkEstimate
from repro.exceptions import AcceleratorError


class Objective(enum.Enum):
    """Optimization objective for placement decisions."""

    LATENCY = "latency"
    ENERGY = "energy"
    ENERGY_DELAY_PRODUCT = "edp"


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of one host-vs-accelerator comparison.

    Attributes:
        operator: The operator kind that was considered.
        target: ``"host"`` or the chosen device name.
        host_time_s: Predicted host execution time.
        accelerator_time_s: Predicted accelerated time (``None`` when no
            device can run the operator).
        speedup: Host time over chosen-target time (1.0 for host placement).
        host_energy_j: Predicted host energy.
        accelerator_energy_j: Predicted accelerated energy.
        kernel: Device kernel chosen (``None`` for host).
        host_time_source: ``"model"`` when the host time came from the
            roofline model, ``"observed"`` when runtime feedback supplied a
            measured host time.
    """

    operator: str
    target: str
    host_time_s: float
    accelerator_time_s: float | None
    speedup: float
    host_energy_j: float
    accelerator_energy_j: float | None
    kernel: str | None = None
    host_time_source: str = "model"

    @property
    def offloaded(self) -> bool:
        """Whether the operator was placed on an accelerator."""
        return self.target != "host"


class OffloadPlanner:
    """Chooses a placement for each operator given a device fleet."""

    def __init__(self, registry: KernelRegistry, *,
                 objective: Objective = Objective.LATENCY) -> None:
        self.registry = registry
        self.host = HostCPU()
        self.objective = objective
        self.decisions: list[PlacementDecision] = []

    # -- host model --------------------------------------------------------------------

    def host_estimate(self, work: WorkEstimate, operator: str) -> tuple[float, float]:
        """Predicted (time, energy) of running ``operator`` on the host."""
        flops, bytes_moved = _host_work(work, operator)
        time_s = self.host.execution_time_s(flops, bytes_moved)
        return time_s, self.host.energy_j(time_s)

    # -- decision ----------------------------------------------------------------------

    def decide(self, operator: str, work: WorkEstimate, *,
               observed_host_time_s: float | None = None) -> PlacementDecision:
        """Pick host or the accelerator that scores best for ``operator``.

        Every device able to run ``operator`` is scored under the objective;
        the best of them is placed only if it also beats the host.

        ``observed_host_time_s`` — a measured host execution time fed back
        from earlier runs — replaces the roofline host model when given; the
        model is a lower bound for tight kernels and can dramatically
        under-estimate the real per-row cost of an engine's operator path.
        """
        host_time, host_energy = self.host_estimate(work, operator)
        host_source = "model"
        if observed_host_time_s is not None and observed_host_time_s > 0.0:
            host_time = observed_host_time_s
            host_energy = self.host.energy_j(host_time)
            host_source = "observed"
        best = None
        for accelerator, mapping in self.registry.candidates(operator):
            spec = mapping.spec(work)
            accel_time = accelerator.estimate(spec).total_s
            accel_energy = accelerator.profile.power_w * accel_time
            score = self._score(accel_time, accel_energy)
            if best is None or score < best[0]:
                best = (score, accelerator, spec.name, accel_time, accel_energy)
        if best is None:
            decision = PlacementDecision(operator, "host", host_time, None, 1.0,
                                         host_energy, None,
                                         host_time_source=host_source)
        else:
            accel_score, accelerator, kernel, accel_time, accel_energy = best
            if accel_score < self._score(host_time, host_energy):
                decision = PlacementDecision(
                    operator=operator,
                    target=accelerator.profile.name,
                    host_time_s=host_time,
                    accelerator_time_s=accel_time,
                    speedup=host_time / accel_time if accel_time > 0 else float("inf"),
                    host_energy_j=host_energy,
                    accelerator_energy_j=accel_energy,
                    kernel=kernel,
                    host_time_source=host_source,
                )
            else:
                decision = PlacementDecision(operator, "host", host_time, accel_time, 1.0,
                                             host_energy, accel_energy, kernel=None,
                                             host_time_source=host_source)
        self.decisions.append(decision)
        return decision

    def accelerator_named(self, name: str) -> Accelerator:
        """Look up an attached accelerator by device name."""
        for accelerator in self.registry.accelerators:
            if accelerator.profile.name == name:
                return accelerator
        raise AcceleratorError(f"no accelerator named {name!r}")

    def _score(self, time_s: float, energy_j: float) -> float:
        if self.objective is Objective.LATENCY:
            return time_s
        if self.objective is Objective.ENERGY:
            return energy_j
        return time_s * energy_j

    def summary(self) -> dict[str, int]:
        """Counts of offloaded vs host placements made so far."""
        offloaded = sum(1 for d in self.decisions if d.offloaded)
        return {"offloaded": offloaded, "host": len(self.decisions) - offloaded}


def _host_work(work: WorkEstimate, operator: str) -> tuple[float, float]:
    """Approximate host flops and bytes for an operator's work estimate."""
    if work.matrix_dims is not None:
        m, k, n = work.matrix_dims
        flops = 2.0 * m * k * n
        bytes_moved = float((m * k + k * n + m * n) * 8)
        return flops, bytes_moved
    bytes_moved = float(work.rows * work.row_bytes)
    if operator == "sort":
        import math

        n = max(2, work.rows)
        # Comparison sorts on a host cost ~ n log n with a noticeable constant
        # for row materialization; 8 "flops" per comparison is the calibration
        # used across the cost models.
        flops = 8.0 * n * math.log2(n)
    else:
        flops = work.flops_per_row * max(1, work.rows)
    return flops, bytes_moved
