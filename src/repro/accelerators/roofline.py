"""Roofline time: the compute model the devices and the host share.

The paper (§IV-B-4) notes the Roofline model as the standard way to bound
attainable performance on fixed hardware: a kernel of arithmetic intensity
``I`` (flops per byte moved) runs at ``min(peak, bandwidth × I)``.
"""

from __future__ import annotations

from repro.exceptions import AcceleratorError


def roofline_time_s(flops: float, bytes_moved: float, peak_gflops: float,
                    memory_bandwidth_gbs: float) -> float:
    """Time to execute ``flops`` of work moving ``bytes_moved`` bytes.

    The kernel runs at whichever of the two ceilings binds it.
    """
    if flops < 0 or bytes_moved < 0:
        raise AcceleratorError("flops and bytes must be non-negative")
    if flops == 0 and bytes_moved == 0:
        return 0.0
    if bytes_moved == 0:
        return flops / (peak_gflops * 1e9)
    if flops == 0:
        return bytes_moved / (memory_bandwidth_gbs * 1e9)
    intensity = flops / bytes_moved
    return flops / (min(peak_gflops, memory_bandwidth_gbs * intensity) * 1e9)
