"""Tests for the LogCA and Roofline analytical models."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import (
    GPU,
    HostCPU,
    LogCAModel,
    LogCAParameters,
    roofline_time_s,
)
from repro.exceptions import AcceleratorError


def make_model(**overrides) -> LogCAModel:
    parameters = {
        "latency_per_byte_s": 1e-9,
        "overhead_s": 1e-4,
        "compute_index_s_per_byte": 5e-8,
        "peak_acceleration": 20.0,
        "beta": 1.0,
    }
    parameters.update(overrides)
    return LogCAModel(LogCAParameters(**parameters))


class TestLogCA:
    def test_small_granularity_not_beneficial(self):
        model = make_model()
        assert model.speedup(64) < 1.0

    def test_large_granularity_beneficial(self):
        model = make_model()
        assert model.speedup(10_000_000) > 1.0

    def test_break_even_separates_regimes(self):
        model = make_model()
        g1 = model.break_even_granularity()
        assert g1 is not None
        assert model.speedup(g1 * 0.5) < 1.0 < model.speedup(g1 * 2.0)

    def test_never_breaks_even_when_latency_dominates(self):
        model = make_model(latency_per_byte_s=1e-6, peak_acceleration=2.0)
        assert model.break_even_granularity(upper_bytes=1e9) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(AcceleratorError):
            LogCAParameters(-1e-9, 0.0, 1e-8, 10.0)
        with pytest.raises(AcceleratorError):
            LogCAParameters(1e-9, 0.0, 1e-8, 0.0)

    def test_zero_granularity_rejected(self):
        with pytest.raises(AcceleratorError):
            make_model().speedup(0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e2, 1e9))
    def test_property_speedup_monotone_for_linear_kernels(self, granularity):
        """For beta=1 the speedup never decreases with granularity."""
        model = make_model()
        assert model.speedup(granularity * 2) >= model.speedup(granularity) - 1e-9


class TestRoofline:
    def test_execution_time_uses_binding_ceiling(self):
        # Low intensity: bandwidth bound -> time = bytes / bandwidth.
        assert roofline_time_s(1e9, 1e9, 1000.0, 100.0) == pytest.approx(1e9 / (100.0 * 1e9))
        # High intensity: compute bound -> time = flops / peak.
        assert roofline_time_s(1e12, 1e6, 1000.0, 100.0) == \
            pytest.approx(1e12 / (1000.0 * 1e9))

    def test_degenerate_cases(self):
        assert roofline_time_s(0, 0, 1000.0, 100.0) == 0.0
        assert roofline_time_s(0, 1e6, 1000.0, 100.0) > 0.0
        assert roofline_time_s(1e6, 0, 1000.0, 100.0) > 0.0
        with pytest.raises(AcceleratorError):
            roofline_time_s(-1.0, 0, 1000.0, 100.0)

    @pytest.mark.parametrize("field", ["peak_gflops", "memory_bandwidth_gbs",
                                       "transfer_bandwidth_gbs"])
    def test_a_profile_refuses_a_non_positive_peak_or_bandwidth(self, field):
        with pytest.raises(AcceleratorError, match="must be positive"):
            replace(GPU, **{field: 0.0})

    def test_the_host_is_one_core_on_the_roofline(self):
        host = HostCPU()
        assert host.execution_time_s(1e9, 1e6) == roofline_time_s(1e9, 1e6, 8.0, 25.0)
        # At 100 flop/byte the GPU's ceiling is far above the host core's.
        assert roofline_time_s(1e11, 1e9, GPU.peak_gflops, GPU.memory_bandwidth_gbs) < \
            host.execution_time_s(1e11, 1e9) / 100
