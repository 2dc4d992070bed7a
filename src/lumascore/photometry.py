"""Per-frame brightness measurements and curve extraction.

All measurements land in [0, 1].  Luma has one definition: per-pixel exact
integer keys over the key of white (``luma = key / scale``), which are
``299 R + 587 G + 114 B`` (the Rec.601 weights times 1000) over 255000 for
RGB24, the code over 255 for GRAY8, and for the limited-range Y4M luma plane
the code clamped to [16, 235], minus 16, over 219.  RGB24 keys come from a
float32 product of the codes with the weights, which is exact, because every
partial sum is an integer below 2**24.

Each frame's key sum is taken once and serves both the mean and ``rms``:
for RGB24 from the three exact colour plane sums, ``299 ΣR + 587 ΣG + 114
ΣB``, and for the 8-bit formats from the keys.  A frame's mean luma is that
sum over ``scale * n``, one correctly rounded division.  ``rms`` contrast is
the population standard deviation from the exact key sum and square sum
(a second pass over a 640x480 frame's keys for the sum took 0.14-0.21 ms),
and ``spread`` the nearest-rank 95th minus 5th percentile of the keys.  The
two ranks are selected in place in int32 keys (two single-rank partitions,
~0.2 ms per 640x480 frame against ~1.6 ms for a full sort); 8-bit keys are
widened to an int32 copy first, because selection in the 8-bit keys
themselves took ~3.6 ms.  Times are from a 2-vCPU Xeon with NumPy 2.4.

``extract_curves`` gives its thread loop, which sees a source only through
``claims()``, opaque claims in stream order, and ``load(claim)``, one row of
codes per frame of the claim.  The plane sums of every frame of a run are
one NumPy reduction, so the interpreter work and lock hand-offs are paid
per run, not per frame: on film90 2 MiB runs cut the extraction's CPU time
by a quarter at two threads.  1 MiB runs gained less and larger ones raised
the peak RSS (see ``ingest._RUN_BYTES``).  Reads and NumPy sums release the
interpreter lock, so one thread can read while another sums.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .ingest import (
    Frame,
    FrameSource,
    MediaFormatError,
    PixelFormat,
    StreamInfo,
    frame_codes,
)


# the declaration order is the column order of the curve CSV
class CurveChannel(Enum):
    LUMA = "luma"
    RED = "red"
    GREEN = "green"
    BLUE = "blue"
    CONTRAST_RMS = "contrast_rms"
    CONTRAST_SPREAD = "contrast_spread"


# Rec.601 luma weights times 1000, which make an RGB24 pixel's luma key
LUMA_WEIGHTS = (299, 587, 114)

# the key of white of each pixel format, so that luma = key / white
_WHITE = {
    PixelFormat.RGB24: 255 * sum(LUMA_WEIGHTS),
    PixelFormat.GRAY8: 255,
    PixelFormat.Y4M_444: 219,
    PixelFormat.Y4M_420: 219,
}

_RGB_INDEX = {
    CurveChannel.RED: 0,
    CurveChannel.GREEN: 1,
    CurveChannel.BLUE: 2,
}


# the most samples of a curve the program builds, checked before allocating
MAX_CURVE_SAMPLES = 2 ** 24


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


# the column-sum kernel lays codes out in rows of LANE_ROW bytes (a multiple
# of 3, so RGB24 lanes stay aligned) and sums at most LANE_BLOCK rows at a
# time into uint16 columns, which cannot wrap: 257 * 255 = 65535
LANE_ROW = 3 * 1024
LANE_BLOCK = 257


def _lane_sums(codes: np.ndarray, lanes: int) -> list[list[int]]:
    """Exact sums of the interleaved lanes of 8-bit codes, one row of
    ``lanes`` sums per row of ``codes`` (a frame): lane ``l`` of a frame
    sums ``frame[l::lanes]``.  Summing whole rows of every frame at once into
    uint16 columns, one ``(frames, rows, LANE_ROW)`` reduction per block, is
    ~1.5x the speed of a flat uint32 sum.  Each block's column totals fold
    into the lanes in uint64, and the part row at the end of each frame
    takes strided uint64 sums."""
    frames = len(codes)
    rows = codes.shape[1] // LANE_ROW
    table = codes[:, :rows * LANE_ROW].reshape(frames, rows, LANE_ROW)
    tail = codes[:, rows * LANE_ROW:]
    totals = np.stack([tail[:, lane::lanes].sum(axis=1, dtype=np.uint64)
                       for lane in range(lanes)], axis=1)
    for start in range(0, rows, LANE_BLOCK):
        columns = table[:, start:start + LANE_BLOCK].sum(axis=1, dtype=np.uint16)
        totals += columns.reshape(frames, -1, lanes).sum(axis=1, dtype=np.uint64)
    return totals.tolist()


# RGB24 keys are built this many pixels at a time, which keeps the float32
# copy of the codes in cache (384 KB)
_KEY_BLOCK = 2 ** 15
_WEIGHTS32 = np.array(LUMA_WEIGHTS, dtype=np.float32)


def _luma_keys(codes: np.ndarray, pixels: int,
               pixel_format: PixelFormat) -> tuple[np.ndarray, int]:
    """Per-pixel luma of each frame (row) of ``codes`` as exact integer keys,
    one row per frame, and the key of white (the scale), so that ``luma =
    key / scale``."""
    if pixel_format is PixelFormat.RGB24:
        # a float32 product of each block of pixels with the weights: every
        # product and partial sum is an integer of at most 255000 < 2**24, so
        # float32 holds it exactly in any summation order.  Per 640x480
        # frame this took ~0.37 ms (~0.65 ms with OpenBLAS's AVX2 kernel)
        # against ~0.73 ms for int32 ufuncs on the three strided colour
        # columns; whole-frame products took ~0.51 ms and 5 MB more peak RSS
        # at two threads.  The keys are stored as int32, because float32 keys
        # partition ~3x slower
        frames = len(codes)
        keys = np.empty((frames, pixels), dtype=np.int32)
        for start in range(0, pixels, _KEY_BLOCK):
            stop = min(pixels, start + _KEY_BLOCK)
            block = codes[:, 3 * start:3 * stop].reshape(frames, stop - start, 3)
            keys[:, start:stop] = block.astype(np.float32) @ _WEIGHTS32
    elif pixel_format is PixelFormat.GRAY8:
        keys = codes[:, :pixels]
    else:
        # limited-range Y4M luma: codes clamp to [16, 235], then 16 is black
        keys = np.clip(codes[:, :pixels], 16, 235)
        keys -= 16
    return keys, _WHITE[pixel_format]


def _square_sum(keys: np.ndarray, bound: int) -> int:
    """Exact sum of squares of keys in [0, bound].  An int64 sum of at most
    (2**63 - 1) // bound**2 squares cannot wrap, so each chunk that long is
    summed in int64, without a copy of its keys, and Python ints add the
    chunk sums."""
    step = (2 ** 63 - 1) // (bound * bound)
    total = 0
    for start in range(0, len(keys), step):
        chunk = keys[start:start + step]
        total += int(np.einsum("i,i", chunk, chunk, dtype=np.int64))
    return total


def _rms(keys: np.ndarray, scale: int, total: int) -> float:
    """Population standard deviation of the integer luma ``keys`` (see
    :func:`_luma_keys`), whose exact sum is ``total``.  n**2 var equals the
    integer n sum(k**2) - total**2, which is 0 exactly when all keys are equal
    and positive otherwise; the order of the keys does not matter to it."""
    n = len(keys)
    return math.sqrt(n * _square_sum(keys, scale) - total * total) / (n * scale)


def _spread(keys: np.ndarray, scale: int) -> float:
    """Nearest-rank 95th minus 5th percentile of the integer luma ``keys``
    over ``scale``.  int32 keys are reordered in place; 8-bit keys are
    widened to an int32 copy first and left as they are."""
    n = len(keys)
    hi = (95 * n + 99) // 100  # nearest-rank, 1-based
    lo = (5 * n + 99) // 100
    # 8-bit keys are selected in an int32 copy: ~0.3 ms on a 640x480 plane
    # of noise against ~3.6 ms in the 8-bit keys themselves
    keys = keys.astype(np.int32, copy=False)
    # two single-rank selections in place (~0.2 ms against a ~1.6 ms sort;
    # one call with both ranks took ~5.8 ms).  The high rank is read before
    # the second selection moves it; the low rank is the (lo)th smallest of
    # the hi smallest keys
    keys.partition(hi - 1)
    top = int(keys[hi - 1])
    keys[:hi].partition(lo - 1)
    return (top - int(keys[lo - 1])) / scale


def _check_channels(channels: Iterable[CurveChannel], pixel_format: PixelFormat) -> None:
    """Refuse a colour plane channel of a format without colour planes."""
    for channel in channels:
        if channel in _RGB_INDEX and pixel_format is not PixelFormat.RGB24:
            raise ValueError("channel %s requires RGB24 input, got %s"
                             % (channel.value, pixel_format.value))


def _measure(codes: np.ndarray, pixels: int, pixel_format: PixelFormat,
             channels: tuple[CurveChannel, ...]) -> list[tuple[float, ...]]:
    """One row per frame (row) of ``codes``, one sample per channel, which
    ``_check_channels`` has passed for ``pixel_format``; every per-frame
    measurement goes through here.  The RGB plane sums, the luma keys and
    each frame's key sum are built on first use, once for all the frames,
    and shared by the channels using them: one key sum per frame serves both
    the mean luma and ``rms``.  Each mean is one exact integer division per
    frame; contrast is taken frame by frame."""

    @functools.cache
    def keys() -> tuple[np.ndarray, int]:
        return _luma_keys(codes, pixels, pixel_format)

    @functools.cache
    def planes() -> list[list[int]]:
        return _lane_sums(codes[:, :3 * pixels], 3)

    @functools.cache
    def key_sums() -> list[int]:
        if pixel_format is PixelFormat.RGB24:
            return [sum(w * s for w, s in zip(LUMA_WEIGHTS, frame)) for frame in planes()]
        return [frame[0] for frame in _lane_sums(keys()[0], 1)]

    columns = []
    for channel in channels:
        if channel in _RGB_INDEX:
            lane = _RGB_INDEX[channel]
            columns.append([frame[lane] / (255 * pixels) for frame in planes()])
        elif channel is CurveChannel.LUMA:
            white = _WHITE[pixel_format] * pixels
            columns.append([total / white for total in key_sums()])
        elif channel is CurveChannel.CONTRAST_RMS:
            rows, scale = keys()
            columns.append([_rms(row, scale, total) for row, total in zip(rows, key_sums())])
        else:
            rows, scale = keys()
            columns.append([_spread(row, scale) for row in rows])
    return list(zip(*columns))


def _measure_frame(frame: Frame, channels: tuple[CurveChannel, ...]) -> tuple[float, ...]:
    """``_measure`` of one frame."""
    return _measure(frame_codes(frame), frame.width * frame.height, frame.pixel_format,
                    channels)[0]


def frame_luma_mean(frame: Frame) -> float:
    return _measure_frame(frame, (CurveChannel.LUMA,))[0]


_CONTRAST_METHODS = {
    "rms": CurveChannel.CONTRAST_RMS,
    "spread": CurveChannel.CONTRAST_SPREAD,
}


def frame_contrast(frame: Frame, method: str = "rms") -> float:
    """Contrast of the frame's per-pixel luma: ``rms`` is the population
    standard deviation, ``spread`` the nearest-rank 95th minus 5th
    percentile."""
    if method not in _CONTRAST_METHODS:
        raise ValueError("unknown contrast method %r" % method)
    return _measure_frame(frame, (_CONTRAST_METHODS[method],))[0]


def frame_channel_mean(frame: Frame, channel: CurveChannel) -> float:
    if channel not in _RGB_INDEX:
        raise ValueError("channel %s is not an RGB plane" % channel.value)
    _check_channels((channel,), frame.pixel_format)
    return _measure_frame(frame, (channel,))[0]


def _thread_count() -> int:
    """One measuring thread per core this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without the call, such as macOS
        return os.cpu_count() or 1


def extract_curves(
    source: FrameSource,
    channels: Iterable[CurveChannel] = (CurveChannel.LUMA,),
) -> CurveSet:
    """Reduce a frame source to one sample per frame for each channel.

    The channels are checked against the stream's pixel format first.  Then
    the calling thread measures frames beside ``_thread_count() - 1`` helper
    threads, one thread per core and no helper at one core.  Under one lock
    a thread claims the next frames in stream order; outside it the thread
    has the source load the claim, one row of codes per frame, and measures
    the rows at once, so reads and sums of several claims overlap.  Rows are
    stored by claim, so the output does not depend on the thread count.
    Once a claim or load fails no thread claims again, and the error raised
    is that of the earliest claim, the one a serial loop would raise.  The
    claims are closed when every thread is done, whether or not the call
    failed or was interrupted.
    """
    wanted = tuple(dict.fromkeys(channels))
    if not wanted:
        raise ValueError("no channels requested")
    info: StreamInfo = source.info
    _check_channels(wanted, info.pixel_format)
    pixels = info.width * info.height
    lock = threading.Lock()
    stop = threading.Event()
    # one slot per claim, in claim order: the claim until its rows are
    # measured, then the rows, or the exception its claim or load raised
    results: list = []

    def work(claims: Iterator) -> None:
        while True:
            with lock:
                if stop.is_set():
                    return
                index = len(results)
                try:
                    claim = next(claims, None)
                except BaseException as exc:
                    # stored under the lock, so no thread claims after this one
                    results.append(exc)
                    stop.set()
                    return
                if claim is None:
                    return
                results.append(claim)
            try:
                results[index] = _measure(source.load(claim), pixels, info.pixel_format, wanted)
            except BaseException as exc:
                results[index] = exc
                stop.set()
                return

    with closing(source.claims()) as claims:
        helpers = [threading.Thread(target=work, args=(claims,))
                   for _ in range(_thread_count() - 1)]
        try:
            # no helper claims before every one is started, so no interrupt
            # that a frame's load brings about can end a start() early
            with lock:
                for helper in helpers:
                    helper.start()
            work(claims)
        finally:
            # an interrupt leaves no thread claiming, and the claims close
            # only after every started helper is done
            stop.set()
            for helper in filter(threading.Thread.is_alive, helpers):
                helper.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    if not results:
        raise MediaFormatError("no frames in input stream")
    table = np.array([row for rows in results for row in rows], dtype=np.float64)
    curves = {
        channel: BrightnessCurve(channel, info.fps, 0.0, table[:, i].copy())
        for i, channel in enumerate(wanted)
    }
    return CurveSet(info, curves)
