"""Changepoint segmentation by bottom-up merging of line-fit blocks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .photometry import BrightnessCurve

NOISE_FLOOR = 1e-4
# scales the median absolute first difference of a Gaussian signal to sigma
_MAD_SCALE = 0.6745 * math.sqrt(2.0)


class CurveTooShort(ValueError):
    pass


class UnsortedBoundaries(ValueError):
    pass


class BoundaryOutOfRange(ValueError):
    pass


class SegmentBelowMinimum(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    start_idx: int
    end_idx: int

    def __post_init__(self) -> None:
        if not 0 <= self.start_idx < self.end_idx:
            raise ValueError("segment bounds must satisfy 0 <= start < end")


@dataclass
class SegmentationParams:
    min_segment_s: float = 0.5
    penalty_beta: float = 4.0


def estimate_noise(curve: BrightnessCurve) -> float:
    """Noise scale from the median absolute first difference."""
    y = curve.values
    if len(y) < 3:
        raise CurveTooShort("noise estimation needs at least 3 samples")
    return float(np.median(np.abs(np.diff(y)))) / _MAD_SCALE


class _LineCost:
    """O(1) SSE of the least-squares line over any index range, via prefix sums."""

    def __init__(self, y: np.ndarray):
        n = len(y)
        x = np.arange(n, dtype=np.float64)
        self._sx = np.concatenate(([0.0], np.cumsum(x)))
        self._sxx = np.concatenate(([0.0], np.cumsum(x * x)))
        self._sy = np.concatenate(([0.0], np.cumsum(y)))
        self._syy = np.concatenate(([0.0], np.cumsum(y * y)))
        self._sxy = np.concatenate(([0.0], np.cumsum(x * y)))

    def sse(self, a: int, b: int) -> float:
        n = b - a
        sx = self._sx[b] - self._sx[a]
        sy = self._sy[b] - self._sy[a]
        vxx = (self._sxx[b] - self._sxx[a]) - sx * sx / n
        vyy = (self._syy[b] - self._syy[a]) - sy * sy / n
        vxy = (self._sxy[b] - self._sxy[a]) - sx * sy / n
        if vxx <= 0.0:
            return max(0.0, vyy)
        return max(0.0, vyy - vxy * vxy / vxx)


def segment(curve: BrightnessCurve, params: SegmentationParams | None = None) -> list[Segment]:
    """Partition a curve into line-like pieces.

    Blocks of ``min_segment`` length are greedily merged while the cheapest
    merge costs no more than ``penalty_beta * max(sigma, 1e-4)^2 * ln(n)``.
    Ties go to the leftmost pair, which keeps the result order-deterministic.
    """
    if params is None:
        params = SegmentationParams()
    y = curve.values
    n = len(y)
    block = int(math.ceil(params.min_segment_s * curve.sample_rate - 1e-9))
    block = max(block, 2)
    if n < 2 * block:
        raise CurveTooShort(
            "curve has %d samples, need at least %d for segmentation" % (n, 2 * block)
        )
    sigma = estimate_noise(curve)
    lam = params.penalty_beta * max(sigma, NOISE_FLOOR) ** 2 * math.log(n)
    cost = _LineCost(y)
    # the final block absorbs the remainder so no piece is undersized
    bounds = [i * block for i in range(n // block)] + [n]
    sse = [cost.sse(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    while len(bounds) > 2:
        best_delta = math.inf
        best_i = -1
        for i in range(len(bounds) - 2):
            merged = cost.sse(bounds[i], bounds[i + 2])
            delta = merged - sse[i] - sse[i + 1]
            if delta < best_delta:
                best_delta = delta
                best_i = i
        if best_delta > lam:
            break
        sse[best_i] = cost.sse(bounds[best_i], bounds[best_i + 2])
        del sse[best_i + 1]
        del bounds[best_i + 1]
    return [Segment(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def apply_manual_boundaries(curve: BrightnessCurve, times_s: list[float]) -> list[Segment]:
    """Cut the curve at the given times instead of detecting changepoints."""
    n = len(curve.values)
    if n < 2:
        raise CurveTooShort("curve has %d samples, need at least 2" % n)
    duration = n / curve.sample_rate
    previous = 0.0
    cuts = []
    for t in times_s:
        if cuts and t <= previous:
            raise UnsortedBoundaries("boundary %g s is not strictly increasing" % t)
        if not 0.0 < t < duration:
            raise BoundaryOutOfRange(
                "boundary %g s outside (0, %g)" % (t, duration)
            )
        cuts.append(int(math.floor(t * curve.sample_rate + 0.5)))
        previous = t
    edges = [0] + cuts + [n]
    segments = []
    for a, b in zip(edges, edges[1:]):
        if b - a < 2:
            raise SegmentBelowMinimum(
                "segment [%d, %d) is shorter than 2 samples" % (a, b)
            )
        segments.append(Segment(a, b))
    return segments
