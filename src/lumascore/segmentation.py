"""Changepoint segmentation by bottom-up merging of line-fit blocks."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .curveprep import round_half_up
from .photometry import BrightnessCurve

NOISE_FLOOR = 1e-4
# scales the median absolute first difference of a Gaussian signal to sigma
_MAD_SCALE = 0.6745 * math.sqrt(2.0)


@dataclass(frozen=True)
class Segment:
    start_idx: int
    end_idx: int

    def __post_init__(self) -> None:
        if not 0 <= self.start_idx < self.end_idx:
            raise ValueError("segment bounds must satisfy 0 <= start < end")


@dataclass
class SegmentationParams:
    """Segmentation settings, each with the range a config may set."""

    min_segment_s: float = field(default=0.5, metadata={"range": "(0, inf)"})
    penalty_beta: float = field(default=4.0, metadata={"range": "(0, inf)"})


def estimate_noise(curve: BrightnessCurve) -> float:
    """Noise scale from the median absolute first difference.

    The median is read off ``np.sort``: the middle value, or for an even count
    ``(a + b) / 2`` of the middle pair, which is bit-identical to
    ``np.median``.  ``np.median`` is avoided because its NaN check imports
    ``numpy.ma`` (~15 ms on first use), which nothing else here needs.
    """
    y = curve.values
    if len(y) < 3:
        raise ValueError("noise estimation needs at least 3 samples")
    diffs = np.sort(np.abs(np.diff(y)))
    half = len(diffs) // 2
    if len(diffs) % 2:
        median = diffs[half]
    else:
        median = (diffs[half - 1] + diffs[half]) / 2
    return float(median) / _MAD_SCALE


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

    The candidate merges sit in a heap keyed on ``(delta, block)``, with the
    live blocks linked to their neighbours, so K blocks take O(K log K): a
    merge only re-prices the two pairs it touches.  Each block carries a
    stamp bumped when it grows or is absorbed, and a popped pair whose stamps
    have moved is stale and skipped.
    """
    if params is None:
        params = SegmentationParams()
    y = curve.values
    n = len(y)
    # a float until checked: a huge min_segment_s rounds up to infinity
    block = max(float(np.ceil(params.min_segment_s * curve.sample_rate - 1e-9)), 2.0)
    if n < 2 * block:
        raise ValueError("curve has %d samples, need at least %.6g for segmentation"
                         % (n, 2 * block))
    block = int(block)
    sigma = estimate_noise(curve)
    lam = params.penalty_beta * max(sigma, NOISE_FLOOR) ** 2 * math.log(n)
    cost = _LineCost(y)
    # the final block absorbs the remainder so no piece is undersized
    bounds = [i * block for i in range(n // block)] + [n]
    k = len(bounds) - 1
    # live block i spans [bounds[i], bounds[nxt[i]]); block k is the sentinel
    nxt = list(range(1, k + 1))
    prv = list(range(-1, k - 1))
    sse = [cost.sse(bounds[i], bounds[i + 1]) for i in range(k)]
    stamp = [0] * k
    heap: list[tuple[float, int, int, int]] = []

    def push(i: int) -> None:
        j = nxt[i]
        delta = cost.sse(bounds[i], bounds[nxt[j]]) - sse[i] - sse[j]
        # block numbers rise with block starts, so equal deltas pop leftmost
        heapq.heappush(heap, (delta, i, stamp[i], stamp[j]))

    for i in range(k - 1):
        push(i)
    while heap:
        delta, i, stamp_i, stamp_j = heapq.heappop(heap)
        if stamp[i] != stamp_i:
            continue
        j = nxt[i]
        if stamp[j] != stamp_j:
            continue
        if delta > lam:
            break
        nxt[i] = nxt[j]
        sse[i] = cost.sse(bounds[i], bounds[nxt[i]])
        stamp[i] += 1
        stamp[j] += 1
        if nxt[i] < k:
            prv[nxt[i]] = i
            push(i)
        if prv[i] >= 0:
            push(prv[i])
    segments = []
    i = 0
    while i < k:
        segments.append(Segment(bounds[i], bounds[nxt[i]]))
        i = nxt[i]
    return segments


def apply_manual_boundaries(curve: BrightnessCurve, times_s: list[float],
                            error: type = ValueError) -> list[Segment]:
    """Cut the curve at the given times, the config's ``manual_boundaries_s``,
    instead of detecting changepoints.  Only the curve tells whether a
    boundary lies inside the film and leaves every piece at least 2 samples
    long; one that does not raises ``error`` naming its entry."""
    n = len(curve.values)
    if n < 2:
        raise ValueError("curve has %d samples, need at least 2" % n)
    duration = n / curve.sample_rate
    for i, t in enumerate(times_s):
        if not 0.0 < t < duration:
            raise error("config: manual_boundaries_s[%d] must lie inside the film: boundary %g s "
                        "outside (0, %g)" % (i, t, duration))
    edges = [0] + [round_half_up(t * curve.sample_rate) for t in times_s] + [n]
    pieces = list(zip(edges, edges[1:]))
    for i, (a, b) in enumerate(pieces):
        if b - a < 2:
            # the entry that ends the piece, or starts the last one
            raise error("config: manual_boundaries_s[%d] must leave pieces of 2 samples: segment "
                        "[%d, %d) is shorter than 2 samples" % (min(i, len(times_s) - 1), a, b))
    return [Segment(a, b) for a, b in pieces]
