"""E2 — GEMM/GEMV offload to GPU/TPU for DNN training and inference (§III-A-1).

Expected shape: small batches stay on the host (transfer + launch overhead
dominates); large GEMMs offload with speedups approaching the device's peak
advantage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import (
    GPU,
    TPU,
    Accelerator,
    KernelRegistry,
    OffloadPlanner,
    WorkEstimate,
)
from repro.accelerators.kernels import offload_cost
from repro.stores.ml import MLPClassifier

BATCHES = [32, 256, 2048]
MATRIX_SIZES = [64, 256, 1024]


@pytest.mark.parametrize("batch", BATCHES)
def test_cpu_mlp_training_step(benchmark, batch):
    """Host mini-batch SGD steps at several batch sizes."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, 32))
    y = (x[:, 0] > 0).astype(float)
    model = MLPClassifier(32, (64,), seed=0)
    benchmark(lambda: model.fit(x, y, epochs=1, batch_size=batch, shuffle=False))
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["batch"] = batch
    benchmark.extra_info["flops"] = model.ops.counter.flops


@pytest.mark.parametrize("size", MATRIX_SIZES)
def test_gemm_offload_decision(benchmark, size):
    """Placement decision for a square GEMM of the given size."""
    planner = OffloadPlanner(KernelRegistry([Accelerator(GPU), Accelerator(TPU)]))
    decision = benchmark(lambda: planner.decide(
        "gemm", WorkEstimate(matrix_dims=(size, size, size))))
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["matrix"] = size
    benchmark.extra_info["target"] = decision.target
    benchmark.extra_info["speedup"] = decision.speedup
    if size >= 1024:
        assert decision.offloaded


@pytest.mark.parametrize("size", MATRIX_SIZES)
def test_gpu_gemm_charge(benchmark, size):
    """The host product a GPU-placed GEMM runs, and what the GPU charges for it."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(size, size))
    b = rng.normal(size=(size, size))
    report = offload_cost(Accelerator(GPU), "gemm",
                          WorkEstimate(matrix_dims=(size, size, size)))
    result = benchmark(lambda: a @ b)
    assert result.shape == (size, size)
    assert report.kernel == "gemm" and report.bytes_moved == 3 * size * size * 8
    benchmark.extra_info["experiment"] = "E2"
    benchmark.extra_info["simulated_time_s"] = report.total_s
