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


# a block's (n, s, Σd, Σd², Σt·d) with d = y - s, where the shift s is the
# block's first value and t counts from the block's start
_Sums = tuple[int, float, float, float, float]


def _line_sse(sums: _Sums) -> float:
    """SSE of the least-squares line through a block of ``n >= 2`` samples,
    from its sums.

    The index variance ``n(n²-1)/12`` is exact in integers, and every sum is
    local to the block, so the cost does not depend on where the block lies.
    The values enter shifted by one of their own, so ``Σd² - (Σd)²/n`` cancels
    to a few ulps of the block's spread, not of its level.
    """
    n, _, sd, sdd, std = sums
    vxy = std - (n - 1) / 2 * sd
    # vyy - vxy²/vxx, with vxx = n(n²-1)/12 divided once
    return max(0.0, sdd - sd * sd / n - vxy * vxy / (n * (n * n - 1) / 12))


def _block_sums(y: np.ndarray, bounds: list[int]) -> list[_Sums]:
    """The sums of each block ``[bounds[i], bounds[i + 1])`` of ``y``, where
    ``bounds`` starts at 0 and ends at ``len(y)``."""
    starts = bounds[:-1]
    lengths = np.diff(bounds)
    t = np.arange(len(y)) - np.repeat(starts, lengths)
    d = y - np.repeat(y[starts], lengths)
    return list(zip(lengths.tolist(), y[starts].tolist(),
                    *(np.add.reduceat(v, starts).tolist() for v in (d, d * d, t * d))))


def _joined(left: _Sums, right: _Sums) -> _Sums:
    """The sums of two adjacent blocks as one, shifted by the left block's
    first value: the right block's d rises by ``h``, the gap between the two
    shifts, and its t by the left block's length ``n``."""
    (n, s, sd, sdd, std), (m, r, rd, rdd, rtd) = left, right
    h = r - s
    return (n + m, s, sd + rd + m * h, sdd + rdd + (2 * rd + m * h) * h,
            std + rtd + n * rd + (m * (m - 1) // 2 + n * m) * h)


def segment(curve: BrightnessCurve, params: SegmentationParams | None = None) -> list[Segment]:
    """Partition a curve into line-like pieces.

    Blocks of ``min_segment`` length are greedily merged while the cheapest
    merge costs no more than ``penalty_beta * max(sigma, 1e-4)^2 * ln(n)``.
    Ties go to the leftmost pair, which keeps the result order-deterministic.

    Each live block carries its own sums ``(n, s, Σd, Σd², Σt·d)``, with t
    counted from its start and d = y - s taken from its first value s, rather
    than prefix sums over the whole curve: a merge adds two blocks' sums, and
    a block costs the same wherever it lies in the film.  The candidate
    merges sit in a heap keyed on ``(delta, block)``, with the live blocks
    linked to their neighbours, so K blocks take O(K log K): a merge only
    re-prices the two pairs it touches.  Each block carries a stamp bumped
    when it grows or is absorbed, and a popped pair whose stamps have moved
    is stale and skipped.
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
    # the final block absorbs the remainder so no piece is undersized
    bounds = [i * block for i in range(n // block)] + [n]
    k = len(bounds) - 1
    stats = _block_sums(y, bounds)
    # live block i spans [bounds[i], bounds[nxt[i]]); block k is the sentinel
    nxt = list(range(1, k + 1))
    prv = list(range(-1, k - 1))
    sse = [_line_sse(sums) for sums in stats]
    stamp = [0] * k
    heap: list[tuple[float, int, int, int]] = []

    def push(i: int) -> None:
        j = nxt[i]
        delta = _line_sse(_joined(stats[i], stats[j])) - sse[i] - sse[j]
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
        stats[i] = _joined(stats[i], stats[j])
        sse[i] = _line_sse(stats[i])
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
