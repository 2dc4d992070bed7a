"""Per-frame brightness measurements and curve extraction.

All measurements land in [0, 1].  RGB sources use the Rec.601 luma weights;
Y4M luma planes are limited-range and get rescaled from [16, 235], with
out-of-range codes clamped.

Means come from exact integer sums of the 8-bit planes.  Contrast is taken
over per-pixel luma held as exact integer keys (``luma = key / scale``):
``299 R + 587 G + 114 B`` over 255000 for RGB24, the code over 255 for
GRAY8, and the clamped ``Y - 16`` over 219 for Y4M.  ``rms`` is the
population standard deviation from exact integer moments, and ``spread``
the nearest-rank 95th minus 5th percentile of the sorted keys.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .ingest import Frame, PixelFormat, StreamInfo


class ChannelUnavailable(ValueError):
    pass


class EmptyStream(ValueError):
    pass


class CurveChannel(Enum):
    LUMA = "luma"
    RED = "red"
    GREEN = "green"
    BLUE = "blue"
    CONTRAST_RMS = "contrast_rms"
    CONTRAST_SPREAD = "contrast_spread"


# fixed column order used by the CSV writer
CHANNEL_ORDER = (
    CurveChannel.LUMA,
    CurveChannel.RED,
    CurveChannel.GREEN,
    CurveChannel.BLUE,
    CurveChannel.CONTRAST_RMS,
    CurveChannel.CONTRAST_SPREAD,
)

_LUMA_RED = 0.299
_LUMA_GREEN = 0.587


def _weighted_luma(red, green, blue):
    # blue + 0.299 (red - blue) + 0.587 (green - blue) equals the usual
    # weighted sum but is exact for equal channels, so a white frame is
    # exactly 1 and a gray frame exactly its code over 255
    return blue + _LUMA_RED * (red - blue) + _LUMA_GREEN * (green - blue)

_RGB_INDEX = {
    CurveChannel.RED: 0,
    CurveChannel.GREEN: 1,
    CurveChannel.BLUE: 2,
}


@dataclass
class BrightnessCurve:
    channel: CurveChannel
    sample_rate: float
    t0: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("curve sample rate must be positive")
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def duration(self) -> float:
        return len(self.values) / self.sample_rate


@dataclass
class CurveSet:
    source: StreamInfo
    curves: dict[CurveChannel, BrightnessCurve] = field(default_factory=dict)

    def __getitem__(self, channel: CurveChannel) -> BrightnessCurve:
        return self.curves[channel]


def _plane_sum(frame: Frame, index: int) -> int:
    """Exact sum of one RGB24 colour plane.  Integer sums stay exact (at most
    255 * pixels, far below 2**53), and one strided pass per plane is an
    order of magnitude faster than a 2-D reduction."""
    data = np.frombuffer(frame.data, dtype=np.uint8)
    return int(data[index:3 * frame.width * frame.height:3].sum(dtype=np.int64))


def _rgb_sums(frame: Frame) -> tuple[int, int, int]:
    return _plane_sum(frame, 0), _plane_sum(frame, 1), _plane_sum(frame, 2)


def _rgb_mean(sums: tuple[int, int, int], pixels: int, channel: CurveChannel) -> float:
    """Luma or one colour mean of an RGB24 frame from its plane sums; the
    mean commutes with the channel weighting."""
    if channel is CurveChannel.LUMA:
        return _weighted_luma(*sums) / (255.0 * pixels)
    return sums[_RGB_INDEX[channel]] / (255.0 * pixels)


def frame_luma_mean(frame: Frame) -> float:
    pixels = frame.width * frame.height
    if frame.pixel_format is PixelFormat.RGB24:
        return _rgb_mean(_rgb_sums(frame), pixels, CurveChannel.LUMA)
    # 8-bit Y planes: one integer sum gives the correctly rounded mean
    # without building a float plane; a Y4M colour plane is limited-range,
    # so its codes are clamped to [16, 235] first
    y = np.frombuffer(frame.data, dtype=np.uint8)[:pixels]
    if frame.pixel_format is PixelFormat.GRAY8:
        return _code_sum(y) / (255.0 * pixels)
    return (_code_sum(np.clip(y, 16, 235)) - 16 * pixels) / (219.0 * pixels)


def _code_sum(codes: np.ndarray) -> int:
    """Exact sum of 8-bit codes.  A 32-bit accumulator is about twice as fast
    as a 64-bit one and cannot wrap while 255 * len(codes) < 2**32."""
    wide = 255 * len(codes) >= 2 ** 32
    return int(codes.sum(dtype=np.uint64 if wide else np.uint32))


def frame_channel_mean(frame: Frame, channel: CurveChannel) -> float:
    if channel not in _RGB_INDEX:
        raise ChannelUnavailable("channel %s is not an RGB plane" % channel.value)
    if frame.pixel_format is not PixelFormat.RGB24:
        raise ChannelUnavailable(
            "channel %s requires RGB24 input, got %s"
            % (channel.value, frame.pixel_format.value)
        )
    pixels = frame.width * frame.height
    return _plane_sum(frame, _RGB_INDEX[channel]) / (255.0 * pixels)


def _contrast_keys(frame: Frame) -> tuple[np.ndarray, int]:
    """Per-pixel luma as exact integer keys and the key of white (the scale),
    so that ``luma = key / scale``."""
    pixels = frame.width * frame.height
    arr = np.frombuffer(frame.data, dtype=np.uint8)
    if frame.pixel_format is PixelFormat.RGB24:
        # Rec.601 weights times 1000; a key is at most 255000, so int32 holds
        # it, and integer ufuncs on the colour columns build it exactly
        red, green, blue = (arr[i:3 * pixels:3].astype(np.int32) for i in range(3))
        red *= 299
        green *= 587
        blue *= 114
        red += green
        red += blue
        return red, 255000
    y = arr[:pixels]
    if frame.pixel_format is PixelFormat.GRAY8:
        return y, 255
    # limited-range Y4M luma: codes clamp to [16, 235], then 16 is black
    keys = np.clip(y, 16, 235)
    keys -= 16
    return keys, 219


def _square_sum(keys: np.ndarray, bound: int) -> int:
    """Exact sum of squares of keys in [0, bound].  An int64 sum of at most
    (2**63 - 1) // bound**2 squares cannot wrap, so the keys are squared in
    chunks that long and Python ints add the chunk sums."""
    step = (2 ** 63 - 1) // (bound * bound)
    total = 0
    for start in range(0, len(keys), step):
        chunk = keys[start:start + step].astype(np.int64)
        total += int(np.square(chunk, out=chunk).sum())
    return total


def _contrast(keys: np.ndarray, scale: int, method: str) -> float:
    n = len(keys)
    if method == "rms":
        # population standard deviation from exact moments: n**2 var equals
        # the integer n sum(k**2) - sum(k)**2, which is 0 exactly when all
        # keys are equal and positive otherwise
        total = int(keys.sum(dtype=np.int64))
        return math.sqrt(n * _square_sum(keys, scale) - total * total) / (n * scale)
    if method == "spread":
        # NumPy radix-sorts 8-bit keys only for a stable sort; its default
        # sort is an order of magnitude slower on them
        ordered = np.sort(keys, kind="stable" if keys.itemsize == 1 else "quicksort")
        hi = (95 * n + 99) // 100  # nearest-rank, 1-based
        lo = (5 * n + 99) // 100
        return (int(ordered[hi - 1]) - int(ordered[lo - 1])) / scale
    raise ValueError("unknown contrast method %r" % method)


def frame_contrast(frame: Frame, method: str = "rms") -> float:
    """Contrast of the frame's per-pixel luma: ``rms`` is the population
    standard deviation, ``spread`` the nearest-rank 95th minus 5th
    percentile."""
    return _contrast(*_contrast_keys(frame), method)


_CONTRAST_METHODS = {
    CurveChannel.CONTRAST_RMS: "rms",
    CurveChannel.CONTRAST_SPREAD: "spread",
}


def _measure(frame: Frame, channels: tuple[CurveChannel, ...]) -> tuple[float, ...]:
    """One sample per channel.  The RGB plane sums and the contrast keys are
    each built at most once per frame and shared by the channels using them."""
    rgb = frame.pixel_format is PixelFormat.RGB24
    sums = keys = None
    out = []
    for channel in channels:
        if channel in _CONTRAST_METHODS:
            if keys is None:
                keys = _contrast_keys(frame)
            out.append(_contrast(*keys, _CONTRAST_METHODS[channel]))
        elif rgb:
            if sums is None:
                sums = _rgb_sums(frame)
            out.append(_rgb_mean(sums, frame.width * frame.height, channel))
        elif channel is CurveChannel.LUMA:
            out.append(frame_luma_mean(frame))
        else:
            out.append(frame_channel_mean(frame, channel))
    return tuple(out)


def extract_curves(
    source,
    channels: Iterable[CurveChannel] = (CurveChannel.LUMA,),
    workers: int = 1,
) -> CurveSet:
    """Reduce a frame source to one sample per frame for each channel.

    Frames may be measured on ``workers`` threads, but results are collected
    strictly in frame order so the output is independent of the thread count.
    """
    wanted = tuple(dict.fromkeys(channels))
    if not wanted:
        raise ValueError("no channels requested")
    info: StreamInfo = source.info
    rows: list[tuple[float, ...]] = []
    if workers <= 1:
        for frame in source:
            rows.append(_measure(frame, wanted))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending: deque = deque()
            for frame in source:
                pending.append(pool.submit(_measure, frame, wanted))
                if len(pending) >= 2 * workers:
                    rows.append(pending.popleft().result())
            while pending:
                rows.append(pending.popleft().result())
    if not rows:
        raise EmptyStream("no frames in input stream")
    table = np.array(rows, dtype=np.float64)
    rate = info.fps
    curves = {
        channel: BrightnessCurve(channel, rate, 0.0, table[:, i].copy())
        for i, channel in enumerate(wanted)
    }
    return CurveSet(info, curves)
