"""Resampling, smoothing and residual RMS of brightness curves."""

from __future__ import annotations

import math

import numpy as np

from .photometry import MAX_CURVE_SAMPLES, BrightnessCurve

ROUGHNESS_SCALE = 0.05


def round_half_up(x: float) -> int | float:
    """The integer nearest ``x``, halves up; inf when ``x + 0.5`` is not finite."""
    return math.floor(x + 0.5) if math.isfinite(x + 0.5) else math.inf


def resample(curve: BrightnessCurve, rate: float) -> BrightnessCurve:
    """Linearly resample onto a grid at ``rate`` spanning the same interval.

    Resampling to the curve's own rate reproduces its values exactly.
    """
    if rate <= 0:
        raise ValueError("resample rate must be positive")
    y = curve.values
    n = len(y)
    if n == 1:
        return BrightnessCurve(curve.channel, rate, curve.t0, y.copy())
    # floor(last) + 1 samples span [0, (n-1)/rate_in]; the epsilon keeps rational
    # rate ratios from losing the endpoint to rounding, and `<` also rejects inf
    last = (n - 1) * rate / curve.sample_rate + 1e-9
    if not last < MAX_CURVE_SAMPLES:
        raise ValueError("resampling at %.6g Hz gives more than %d samples"
                         % (rate, MAX_CURVE_SAMPLES))
    m = int(math.floor(last)) + 1
    # a step past n only ever meets m == 1; capping it keeps 0 * step finite
    pos = np.arange(m, dtype=np.float64) * min(curve.sample_rate / rate, n)
    pos = np.clip(pos, 0.0, float(n - 1))
    base = np.minimum(pos.astype(np.int64), n - 2)
    frac = pos - base
    out = y[base] * (1.0 - frac) + y[base + 1] * frac
    np.clip(out, min(0.0, y.min()), max(1.0, y.max()), out=out)
    return BrightnessCurve(curve.channel, rate, curve.t0, out)


def smooth_values(values: np.ndarray, rate: float, window_s: float) -> np.ndarray:
    """Centered moving average; the window shrinks symmetrically at the edges."""
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    w = max(1, round_half_up(window_s * rate))
    if w % 2 == 0:
        w += 1
    if w == 1 or n == 0:
        return y.copy()
    if np.ptp(y) == 0.0:
        # averaging invariance must hold exactly; the running sum below
        # would round a constant by an ulp
        return y.copy()
    half = w // 2
    csum = np.concatenate(([0.0], np.cumsum(y)))
    idx = np.arange(n)
    reach = np.minimum(half, np.minimum(idx, n - 1 - idx))
    lo = idx - reach
    hi = idx + reach + 1
    return (csum[hi] - csum[lo]) / (hi - lo)


def smooth(curve: BrightnessCurve, window_s: float) -> BrightnessCurve:
    return BrightnessCurve(
        curve.channel, curve.sample_rate, curve.t0,
        smooth_values(curve.values, curve.sample_rate, window_s),
    )


def residual_rms(values: np.ndarray, smoothed: np.ndarray) -> float:
    """Root mean square of the residual of values against their smooth reference."""
    resid = np.asarray(values, dtype=np.float64) - np.asarray(smoothed, dtype=np.float64)
    return math.sqrt(float(np.mean(resid * resid)))
