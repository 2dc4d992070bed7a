"""Resampling, smoothing, and roughness measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumascore import curveprep
from lumascore.curveprep import (
    ROUGHNESS_SCALE,
    resample,
    residual_rms,
    round_half_up,
    smooth,
    smooth_values,
)

from _synth import curve, unit_noise


class TestRoundHalfUp:
    @pytest.mark.parametrize("x,expected", [
        (0.5, 1), (1.5, 2), (-0.5, 0), (-1.5, -1), (2.4999, 2), (-2.5001, -3), (7.0, 7)])
    def test_halves_round_up(self, x, expected):
        assert round_half_up(x) == expected and type(round_half_up(x)) is int

    # a product past the largest float is inf; x + 0.5 itself never overflows
    @pytest.mark.parametrize("x", [1e308 * 10.0, -1e308 * 10.0, math.nan])
    def test_overflow_gives_inf(self, x):
        assert round_half_up(x) == math.inf


def interp_oracle(values, rate_in, t):
    """Direct evaluation of the piecewise-linear function through the samples."""
    x = t * rate_in
    if x <= 0:
        return values[0]
    if x >= len(values) - 1:
        return values[-1]
    i = int(math.floor(x))
    frac = x - i
    return values[i] * (1.0 - frac) + values[i + 1] * frac


class TestResample:
    def test_same_rate_is_identity(self):
        vals = [0.1, 0.7, 0.3, 0.9, 0.2]
        out = resample(curve(vals, rate=24.0), 24.0)
        assert list(out.values) == vals
        assert out.sample_rate == 24.0

    def test_two_samples_doubled_rate(self):
        out = resample(curve([0.0, 1.0], rate=1.0), 2.0)
        assert list(out.values) == [0.0, 0.5, 1.0]

    def test_ramp_24_to_50_matches_interpolation_oracle(self):
        vals = [u for u in unit_noise(99, 48)]
        src = curve(vals, rate=24.0)
        out = resample(src, 50.0)
        for k, v in enumerate(out.values):
            expected = interp_oracle(vals, 24.0, k / 50.0)
            assert abs(v - expected) < 1e-12

    def test_output_spans_source_interval(self):
        out = resample(curve([0.0] * 48, rate=24.0), 50.0)
        # (48-1)/24 s of signal → floor(47/24*50)+1 = 98 samples
        assert len(out.values) == 98

    def test_values_stay_in_unit_interval(self):
        vals = list(unit_noise(4, 30))
        out = resample(curve(vals, rate=24.0), 50.0)
        assert np.all(out.values >= 0.0)
        assert np.all(out.values <= 1.0)

    def test_single_sample_curve(self):
        out = resample(curve([0.4], rate=24.0), 50.0)
        assert list(out.values) == [0.4]
        assert out.sample_rate == 50.0

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="resample rate must be positive"):
            resample(curve([0.1, 0.2]), 0.0)

    def test_cap_admits_exactly_max_samples(self, monkeypatch):
        monkeypatch.setattr(curveprep, "MAX_CURVE_SAMPLES", 10)
        assert len(resample(curve([0.1, 0.2], rate=1.0), 9.0).values) == 10
        with pytest.raises(ValueError, match="^resampling at 10 Hz gives more than 10 samples$"):
            resample(curve([0.1, 0.2], rate=1.0), 10.0)

    # two samples 1e9 s apart would be 5e10 samples (373 GiB) at 50 Hz; at
    # 5e-324 Hz the count overflows to inf before it can be made an integer
    @pytest.mark.parametrize("rate_in", [1e-9, 5e-324])
    def test_output_past_the_cap_rejected(self, rate_in):
        with pytest.raises(ValueError, match="gives more than 16777216 samples"):
            resample(curve([0.5, 0.5], rate=rate_in), 50.0)

    @given(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=40
        ),
        st.sampled_from([12.0, 24.0, 25.0, 30.0, 50.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_resample_at_same_rate_is_idempotent(self, vals, rate):
        once = resample(curve(vals, rate=rate), rate)
        twice = resample(once, rate)
        assert once.values.tobytes() == twice.values.tobytes()
        assert list(once.values) == vals


class TestSmooth:
    def test_window_zero_is_identity(self):
        vals = [0.3, 0.9, 0.1]
        out = smooth(curve(vals), 0.0)
        assert list(out.values) == vals

    def test_constant_curve_unchanged(self):
        out = smooth(curve([0.6] * 10), 0.25)
        assert list(out.values) == [0.6] * 10

    def test_impulse_three_sample_window(self):
        # w = 3 at 1 Hz with a 3 s window
        out = smooth(curve([0.0, 0.0, 1.0, 0.0, 0.0], rate=1.0), 3.0)
        expected = [0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]
        assert list(out.values) == pytest.approx(expected, abs=1e-15)

    def test_even_window_forced_odd(self):
        # 4 samples would be even; the window must cover 5 samples instead
        out = smooth_values(
            np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1.0, 4.0
        )
        assert out[2] == pytest.approx(0.2, abs=1e-15)

    def test_edges_shrink_symmetrically(self):
        vals = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        out = smooth_values(vals, 1.0, 5.0)
        # at index 1 the symmetric reach is 1 sample either side
        assert out[0] == 1.0
        assert out[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert out[2] == pytest.approx(0.4, abs=1e-15)

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=60),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_preserved_up_to_edge_effects(self, vals, half):
        n = len(vals)
        w = 2 * half + 1
        out = smooth_values(np.array(vals), 1.0, float(w))
        tolerance = (w / n) + 1e-9
        assert abs(float(out.mean()) - float(np.mean(vals))) <= tolerance


def smoothed_rms(values, window_s=0.25, rate=50.0):
    values = np.asarray(values, dtype=np.float64)
    return residual_rms(values, smooth_values(values, rate, window_s))


class TestRoughness:
    def test_constant_curve_is_smooth(self):
        assert smoothed_rms([0.5] * 100) == 0.0

    def test_clean_ramp_is_nearly_smooth(self):
        assert smoothed_rms(np.linspace(0.0, 1.0, 250)) < 0.1 * ROUGHNESS_SCALE

    def test_noisy_ramp_is_granular(self):
        ramp = np.linspace(0.2, 0.8, 500)
        noise = (np.array(unit_noise(8, 500)) - 0.5) * 0.2  # amplitude ±0.1
        vals = np.clip(ramp + noise, 0.0, 1.0)
        assert smoothed_rms(vals) >= 0.9 * ROUGHNESS_SCALE

    def test_matches_residual_rms_oracle(self):
        vals = np.array(unit_noise(12, 200))
        smoothed = smooth_values(vals, 50.0, 0.25)
        resid = vals - smoothed
        expected = math.sqrt(math.fsum(r * r for r in resid) / len(resid))
        assert residual_rms(vals, smoothed) == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_constant_offset(self):
        base = np.array(unit_noise(3, 150)) * 0.4
        lifted = base + 0.3
        assert smoothed_rms(base) == pytest.approx(smoothed_rms(lifted), abs=1e-9)

    def test_residual_rms_on_slices(self):
        # the whole mean square is the length-weighted mean of the parts'
        vals = np.array(unit_noise(21, 300))
        smoothed = smooth_values(vals, 50.0, 0.25)
        whole = residual_rms(vals, smoothed)
        head = residual_rms(vals[:100], smoothed[:100])
        rest = residual_rms(vals[100:], smoothed[100:])
        assert whole ** 2 == pytest.approx((100 * head ** 2 + 200 * rest ** 2) / 300,
                                           rel=1e-12)
