"""The LogCA analytical performance model for hardware accelerators.

The paper (§II-B) points to LogCA [Altaf & Wood, ISCA'17] as the model for
deciding whether offloading a kernel to an accelerator pays off.  LogCA
describes an accelerated kernel with five parameters:

* ``L`` — interface latency per byte moved to/from the accelerator,
* ``o`` — fixed overhead of dispatching one offload (driver, setup),
* ``g`` — granularity, the number of bytes offloaded (the variable),
* ``C`` — computational index: host time per byte of the kernel,
* ``A`` — peak acceleration: how much faster the accelerator computes the
  kernel than the host once data is resident.

With ``beta`` capturing how compute scales with granularity (``time ∝ g**beta``),
host time is ``C * g**beta`` and accelerated time is
``o + L * g + C * g**beta / A``.  The quantity an offload decision needs
is the break-even granularity ``g1`` (speedup = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import AcceleratorError


@dataclass(frozen=True)
class LogCAParameters:
    """Parameters of one accelerated kernel under the LogCA model.

    Attributes:
        latency_per_byte_s: ``L`` — seconds per byte crossing the interface.
        overhead_s: ``o`` — fixed dispatch overhead in seconds.
        compute_index_s_per_byte: ``C`` — host seconds per byte of work.
        peak_acceleration: ``A`` — accelerator speedup over the host at
            infinite granularity (ignoring transfer).
        beta: Exponent relating granularity to compute time (1.0 for linear
            kernels such as scans; ~1.1-1.5 for super-linear kernels such
            as sorting or GEMM over the offloaded bytes).
    """

    latency_per_byte_s: float
    overhead_s: float
    compute_index_s_per_byte: float
    peak_acceleration: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_per_byte_s < 0 or self.overhead_s < 0:
            raise AcceleratorError("latency and overhead must be non-negative")
        if self.compute_index_s_per_byte <= 0:
            raise AcceleratorError("compute index must be positive")
        if self.peak_acceleration <= 0:
            raise AcceleratorError("peak acceleration must be positive")
        if self.beta <= 0:
            raise AcceleratorError("beta must be positive")


class LogCAModel:
    """Evaluates host time, accelerator time and speedup at a granularity."""

    def __init__(self, parameters: LogCAParameters) -> None:
        self.parameters = parameters

    # -- timing -------------------------------------------------------------------

    def host_time(self, granularity_bytes: float) -> float:
        """Time to run the kernel on the host CPU for ``granularity_bytes``."""
        self._check_granularity(granularity_bytes)
        p = self.parameters
        return p.compute_index_s_per_byte * granularity_bytes ** p.beta

    def accelerator_time(self, granularity_bytes: float) -> float:
        """Time to offload and run the kernel on the accelerator."""
        self._check_granularity(granularity_bytes)
        p = self.parameters
        compute = p.compute_index_s_per_byte * granularity_bytes ** p.beta / p.peak_acceleration
        return p.overhead_s + p.latency_per_byte_s * granularity_bytes + compute

    def speedup(self, granularity_bytes: float) -> float:
        """Host time divided by accelerated time at ``granularity_bytes``."""
        accel = self.accelerator_time(granularity_bytes)
        if accel <= 0:
            return float("inf")
        return self.host_time(granularity_bytes) / accel

    # -- characteristic granularity -------------------------------------------------

    def break_even_granularity(self, *, upper_bytes: float = 1e12) -> float | None:
        """``g1``: smallest granularity where speedup reaches 1.

        Returns ``None`` when offload never breaks even below ``upper_bytes``
        (for example when ``L`` exceeds the achievable compute saving).
        """
        lo, hi = 1.0, upper_bytes
        if self.speedup(hi) < 1.0:
            return None
        if self.speedup(lo) >= 1.0:
            return lo
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if self.speedup(mid) >= 1.0:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.0001:
                break
        return hi

    # -- helpers --------------------------------------------------------------------------

    @staticmethod
    def _check_granularity(granularity_bytes: float) -> None:
        if granularity_bytes <= 0:
            raise AcceleratorError("granularity must be positive")
