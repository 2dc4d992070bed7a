"""Per-frame brightness measurements and curve extraction.

All measurements land in [0, 1].  RGB sources use the Rec.601 luma weights;
Y4M luma planes are limited-range and get rescaled from [16, 235], with
out-of-range codes clamped.
"""

from __future__ import annotations

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


def _luma_plane(frame: Frame) -> np.ndarray:
    """Per-pixel luma in [0, 1] as a flat float64 array."""
    arr = np.frombuffer(frame.data, dtype=np.uint8)
    pixels = frame.width * frame.height
    if frame.pixel_format is PixelFormat.RGB24:
        rgb = arr[:3 * pixels].reshape(pixels, 3).astype(np.float64)
        return _weighted_luma(rgb[:, 0], rgb[:, 1], rgb[:, 2]) / 255.0
    if frame.pixel_format is PixelFormat.GRAY8:
        return arr[:pixels].astype(np.float64) / 255.0
    # Y4M planar layouts: the Y plane comes first, chroma is ignored
    y = arr[:pixels].astype(np.float64)
    return np.clip((y - 16.0) / 219.0, 0.0, 1.0)


def frame_luma_mean(frame: Frame) -> float:
    if frame.pixel_format is PixelFormat.RGB24:
        # mean commutes with the channel weighting; integer channel sums
        # stay exact (max 255 * pixels, far below 2**53) and one strided
        # pass per channel is an order of magnitude faster than a 2-D mean
        arr = np.frombuffer(frame.data, dtype=np.uint8)
        pixels = frame.width * frame.height
        data = arr[:3 * pixels]
        red = int(data[0::3].sum(dtype=np.int64))
        green = int(data[1::3].sum(dtype=np.int64))
        blue = int(data[2::3].sum(dtype=np.int64))
        return _weighted_luma(red, green, blue) / (255.0 * pixels)
    # 8-bit Y planes: one integer sum gives the correctly rounded mean
    # without building a float plane; a Y4M colour plane is limited-range,
    # so its codes are clamped to [16, 235] first
    pixels = frame.width * frame.height
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
    arr = np.frombuffer(frame.data, dtype=np.uint8)
    pixels = frame.width * frame.height
    plane = arr[_RGB_INDEX[channel]:3 * pixels:3]
    return float(plane.sum(dtype=np.int64)) / (255.0 * pixels)


def frame_contrast(frame: Frame, method: str = "rms") -> float:
    luma = _luma_plane(frame)
    if method == "rms":
        # population standard deviation; exactly 0 for a flat field (the mean
        # of n equal floats can round, which would leak a ~1e-17 residue)
        if np.ptp(luma) == 0.0:
            return 0.0
        return float(luma.std())
    if method == "spread":
        ordered = np.sort(luma)
        n = len(ordered)
        hi = (95 * n + 99) // 100  # nearest-rank, 1-based
        lo = (5 * n + 99) // 100
        return float(ordered[hi - 1] - ordered[lo - 1])
    raise ValueError("unknown contrast method %r" % method)


def _measure(frame: Frame, channels: tuple[CurveChannel, ...]) -> tuple[float, ...]:
    out = []
    for channel in channels:
        if channel is CurveChannel.LUMA:
            out.append(frame_luma_mean(frame))
        elif channel in _RGB_INDEX:
            out.append(frame_channel_mean(frame, channel))
        elif channel is CurveChannel.CONTRAST_RMS:
            out.append(frame_contrast(frame, "rms"))
        else:
            out.append(frame_contrast(frame, "spread"))
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
