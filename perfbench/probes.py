"""Layer probes for the traced run: photometry throughput per pixel format
and how segmentation and the staircase fit scale with input length."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from lumascore.config import parse_config
from lumascore.curveprep import resample, smooth
from lumascore.gestures import fit_staircase
from lumascore.ingest import Frame, PixelFormat
from lumascore.photometry import (
    BrightnessCurve,
    CurveChannel,
    frame_channel_mean,
    frame_contrast,
    frame_luma_mean,
)
from lumascore.segmentation import SegmentationParams, segment

from workloads import CURVE_FPS, curve_long_values

WIDTH, HEIGHT = 640, 480
FRAMES = 8
BATCHES = 5
STAIRCASE_LENGTHS = (1500, 3000, 6000)
ANALYSIS = parse_config({}).analysis


def photometry_mpix_per_s(seed: int, frames: int = FRAMES,
                          batches: int = BATCHES) -> dict[str, float]:
    """Median over batches of one ``frame_*`` call per seeded 640x480 frame."""
    rng = np.random.default_rng(seed)
    pixels = WIDTH * HEIGHT

    def seeded(fmt: PixelFormat, size: int) -> list[Frame]:
        return [Frame(i, WIDTH, HEIGHT, fmt, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
                for i in range(frames)]

    gray = seeded(PixelFormat.GRAY8, pixels)
    yuv = seeded(PixelFormat.Y4M_420, pixels + 2 * (pixels // 4))
    rgb = seeded(PixelFormat.RGB24, 3 * pixels)
    probes = {
        "gray8": (frame_luma_mean, gray),
        "y4m_420": (frame_luma_mean, yuv),
        "rgb24_luma": (frame_luma_mean, rgb),
        "rgb24_channel": (lambda f: frame_channel_mean(f, CurveChannel.RED), rgb),
        "contrast_rms": (lambda f: frame_contrast(f, "rms"), rgb),
        "contrast_spread": (lambda f: frame_contrast(f, "spread"), rgb),
    }
    out = {}
    for name, (measure, batch) in probes.items():
        times = []
        for _ in range(batches):
            started = time.perf_counter()
            for frame in batch:
                measure(frame)
            times.append(time.perf_counter() - started)
        out["photometry.mpix_per_s." + name] = frames * pixels / 1e6 / statistics.median(times)
    return out


def loglog_slope(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _best_time(call, repeats: int = 2) -> float:
    """Fastest of ``repeats`` calls; other load on the machine only adds time."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return min(times)


def segment_scaling(values: np.ndarray) -> list[tuple[int, float]]:
    """``segment()`` on a quarter, a half and all of a 24 fps curve, resampled
    and smoothed as the analysis does it."""
    rate = ANALYSIS.rate_hz
    raw = resample(BrightnessCurve(CurveChannel.LUMA, CURVE_FPS, 0.0, values), rate)
    smoothed = smooth(raw, ANALYSIS.smooth_window_s).values
    params = SegmentationParams(ANALYSIS.min_segment_s, ANALYSIS.penalty_beta)
    points = []
    for share in (4, 2, 1):
        n = len(smoothed) // share
        part = BrightnessCurve(CurveChannel.LUMA, rate, 0.0, smoothed[:n])
        points.append((n, _best_time(lambda: segment(part, params))))
    return points


def staircase_scaling(seed: int, lengths=STAIRCASE_LENGTHS) -> list[tuple[int, float]]:
    """``fit_staircase`` on seeded noisy rising staircases of each length."""
    rng = np.random.default_rng(seed)
    points = []
    for n in lengths:
        levels = np.repeat(np.linspace(0.2, 0.8, 5), -(-n // 5))[:n]
        samples = levels + rng.normal(0.0, 0.01, n)
        points.append((n, _best_time(lambda: fit_staircase(samples, ANALYSIS.rate_hz))))
    return points


def run(seed: int, curve: np.ndarray | None = None, lengths=STAIRCASE_LENGTHS,
        frames: int = FRAMES, batches: int = BATCHES) -> dict:
    """Every probe, as per-layer metrics plus the scaling points behind them.

    ``curve`` defaults to the seed's curve_long curve."""
    seg = segment_scaling(curve_long_values(seed)[0] if curve is None else curve)
    stair = staircase_scaling(seed, lengths)
    metrics = photometry_mpix_per_s(seed, frames, batches)
    metrics["segmentation.scaling_exponent"] = loglog_slope(*zip(*seg))
    metrics["gestures.staircase_scaling_exponent"] = loglog_slope(*zip(*stair))
    return {"metrics": metrics,
            "points": {"segmentation.segment_s": seg, "gestures.fit_staircase_s": stair}}
