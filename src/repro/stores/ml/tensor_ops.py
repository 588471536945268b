"""Tensor primitives for the ML engine.

The paper notes that deep-learning workloads lower to GEMV/GEMM operations
(§III-A-1).  All linear algebra in the ML engine routes through
:class:`TensorOps` so that a single counter records the floating-point work,
which the GPU/TPU accelerator simulators translate into offloaded time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataModelError


@dataclass
class OpCounter:
    """Floating-point operation and byte counters, cumulative since the last
    :meth:`reset`."""

    flops: int = 0
    bytes_moved: int = 0
    gemm_calls: int = 0

    def add(self, flops: int, bytes_moved: int) -> None:
        """Record one operation."""
        self.flops += flops
        self.bytes_moved += bytes_moved

    def reset(self) -> None:
        """Zero every counter."""
        self.flops = 0
        self.bytes_moved = 0
        self.gemm_calls = 0


class TensorOps:
    """Thin numpy wrapper that counts GEMM/GEMV/element-wise work."""

    def __init__(self) -> None:
        self.counter = OpCounter()

    # -- dense linear algebra ----------------------------------------------------

    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix-matrix product ``a @ b``."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2:
            raise DataModelError("gemm expects 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise DataModelError(f"gemm shape mismatch: {a.shape} x {b.shape}")
        result = a @ b
        flops = 2 * a.shape[0] * a.shape[1] * b.shape[1]
        self.counter.gemm_calls += 1
        self.counter.add(flops, a.nbytes + b.nbytes + result.nbytes)
        return result

    def gemv(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``a @ x``."""
        a = np.asarray(a, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or x.ndim != 1:
            raise DataModelError("gemv expects a matrix and a vector")
        if a.shape[1] != x.shape[0]:
            raise DataModelError(f"gemv shape mismatch: {a.shape} x {x.shape}")
        result = a @ x
        flops = 2 * a.shape[0] * a.shape[1]
        self.counter.add(flops, a.nbytes + x.nbytes + result.nbytes)
        return result

    # -- element-wise -----------------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise (broadcasting) addition."""
        result = np.asarray(a) + np.asarray(b)
        self.counter.add(int(result.size), result.nbytes)
        return result

    def relu(self, a: np.ndarray) -> np.ndarray:
        """Rectified linear unit."""
        result = np.maximum(np.asarray(a), 0.0)
        self.counter.add(int(result.size), result.nbytes)
        return result

    def relu_grad(self, a: np.ndarray) -> np.ndarray:
        """Derivative of ReLU evaluated at the pre-activation ``a``."""
        result = (np.asarray(a) > 0.0).astype(np.float64)
        self.counter.add(int(result.size), result.nbytes)
        return result

    def sigmoid(self, a: np.ndarray) -> np.ndarray:
        """Numerically stable logistic sigmoid."""
        a = np.clip(np.asarray(a, dtype=np.float64), -60.0, 60.0)
        result = np.where(a >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(a) / (1.0 + np.exp(a)))
        self.counter.add(4 * int(result.size), result.nbytes)
        return result

    def softmax(self, a: np.ndarray) -> np.ndarray:
        """Row-wise softmax."""
        a = np.asarray(a, dtype=np.float64)
        shifted = a - a.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        result = exp / exp.sum(axis=-1, keepdims=True)
        self.counter.add(5 * int(result.size), result.nbytes)
        return result
