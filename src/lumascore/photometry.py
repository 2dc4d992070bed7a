"""Per-frame brightness measurements and curve extraction.

All measurements land in [0, 1].  Luma has one definition: per-pixel exact
integer keys over the key of white (``luma = key / scale``), which are
``299 R + 587 G + 114 B`` (the Rec.601 weights times 1000) over 255000 for
RGB24, the code over 255 for GRAY8, and for the limited-range Y4M luma plane
the code clamped to [16, 235], minus 16, over 219.

A frame's mean luma is the exact sum of its keys over ``scale * n``, one
correctly rounded division; for RGB24 the key sum is taken from the three
exact colour plane sums, ``299 ΣR + 587 ΣG + 114 ΣB``.  ``rms`` contrast is
the population standard deviation from exact integer moments of the keys,
and ``spread`` the nearest-rank 95th minus 5th percentile of the keys.  The
two ranks of the int32 RGB24 keys are selected in place (two single-rank
partitions, ~0.2 ms per 640x480 frame against ~1.6 ms for a full sort);
8-bit keys are radix-sorted instead, because selection on them was ~5x
slower than NumPy's stable sort (5.7 ms against 1.0 ms).  Times are from a
2-vCPU Xeon with NumPy 2.4.

``extract_curves`` measures frames on one thread per core the process may
use.  The threads take runs of frames in stream order and store each run's
rows by claim, so the curves do not depend on the thread count.  A regular
Y4M file is claimed in runs of up to 2 MiB, read by offset after the claim
into the thread's reused buffer, and the plane sums of every frame of a run
are one NumPy reduction, so the interpreter work and lock hand-offs are paid
per run, not per frame: on film90 this cut the extraction's CPU time by a
quarter at two threads.  1 MiB runs gained less and larger ones raised the
peak RSS (see ``ingest._RUN_BYTES``).  Reads and NumPy sums release the
interpreter lock, so one thread can read while another sums.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .ingest import (
    Frame,
    FrameAt,
    FrameSource,
    MediaFormatError,
    PixelFormat,
    RunBuffer,
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


# Rec.601 luma weights times 1000, which make an RGB24 pixel's luma key; the
# key of white is 255 times their sum
LUMA_WEIGHTS = (299, 587, 114)
_RGB_SCALE = 255 * sum(LUMA_WEIGHTS)

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


def _luma_keys(codes: np.ndarray, pixels: int,
               pixel_format: PixelFormat) -> tuple[np.ndarray, int]:
    """Per-pixel luma of each frame (row) of ``codes`` as exact integer keys,
    one row per frame, and the key of white (the scale), so that ``luma =
    key / scale``."""
    if pixel_format is PixelFormat.RGB24:
        # a key is at most 255000, so int32 holds it, and integer ufuncs on
        # the colour columns build it exactly
        planes = [codes[:, i:3 * pixels:3].astype(np.int32) for i in range(3)]
        for plane, weight in zip(planes, LUMA_WEIGHTS):
            plane *= weight
        keys, green, blue = planes
        keys += green
        keys += blue
        return keys, _RGB_SCALE
    y = codes[:, :pixels]
    if pixel_format is PixelFormat.GRAY8:
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
    """Contrast of the integer luma ``keys`` (see :func:`_luma_keys`).
    ``spread`` reorders wide keys in place; ``rms`` reads only their exact
    sums, so the order does not matter to it."""
    n = len(keys)
    if method == "rms":
        # population standard deviation from exact moments: n**2 var equals
        # the integer n sum(k**2) - sum(k)**2, which is 0 exactly when all
        # keys are equal and positive otherwise
        total = int(keys.sum(dtype=np.int64))
        return math.sqrt(n * _square_sum(keys, scale) - total * total) / (n * scale)
    if method == "spread":
        hi = (95 * n + 99) // 100  # nearest-rank, 1-based
        lo = (5 * n + 99) // 100
        if keys.itemsize == 1:
            # NumPy radix-sorts 8-bit keys only for a stable sort (~1.0 ms on
            # a 640x480 plane); two selections on them took ~5.7 ms
            ordered = np.sort(keys, kind="stable")
            return (int(ordered[hi - 1]) - int(ordered[lo - 1])) / scale
        # wide keys: two single-rank selections in place (~0.2 ms against a
        # ~1.6 ms sort; one call with both ranks took ~5.8 ms).  The high
        # rank is read before the second selection moves it; the low rank
        # is the (lo)th smallest of the hi smallest keys
        keys.partition(hi - 1)
        top = int(keys[hi - 1])
        keys[:hi].partition(lo - 1)
        return (top - int(keys[lo - 1])) / scale
    raise ValueError("unknown contrast method %r" % method)


def frame_contrast(frame: Frame, method: str = "rms") -> float:
    """Contrast of the frame's per-pixel luma: ``rms`` is the population
    standard deviation, ``spread`` the nearest-rank 95th minus 5th
    percentile."""
    keys, scale = _luma_keys(frame_codes(frame), frame.width * frame.height,
                             frame.pixel_format)
    return _contrast(keys[0], scale, method)


_CONTRAST_METHODS = {
    CurveChannel.CONTRAST_RMS: "rms",
    CurveChannel.CONTRAST_SPREAD: "spread",
}


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
    mean goes through here.  The RGB plane sums and the luma keys are each
    built at most once for all the frames and shared by the channels using
    them.  Each mean is one exact integer division per frame; contrast is
    taken frame by frame."""
    rgb = pixel_format is PixelFormat.RGB24
    sums = keys = None
    columns = []
    for channel in channels:
        if channel in _CONTRAST_METHODS:
            keys = keys or _luma_keys(codes, pixels, pixel_format)
            method = _CONTRAST_METHODS[channel]
            columns.append([_contrast(row, keys[1], method) for row in keys[0]])
        elif rgb:
            sums = sums or _lane_sums(codes[:, :3 * pixels], 3)
            if channel is CurveChannel.LUMA:
                columns.append([sum(w * s for w, s in zip(LUMA_WEIGHTS, frame))
                                / (_RGB_SCALE * pixels) for frame in sums])
            else:
                lane = _RGB_INDEX[channel]
                columns.append([frame[lane] / (255 * pixels) for frame in sums])
        else:
            keys = keys or _luma_keys(codes, pixels, pixel_format)
            white = keys[1] * pixels
            columns.append([frame[0] / white for frame in _lane_sums(keys[0], 1)])
    return list(zip(*columns))


def _measure_frame(frame: Frame, channels: tuple[CurveChannel, ...]) -> tuple[float, ...]:
    """``_measure`` of one frame."""
    return _measure(frame_codes(frame), frame.width * frame.height, frame.pixel_format,
                    channels)[0]


def frame_luma_mean(frame: Frame) -> float:
    return _measure_frame(frame, (CurveChannel.LUMA,))[0]


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
    one thread per core measures frames: under one lock a thread claims the
    next run of frames in stream order, and outside it the thread loads the
    run, one row of codes per frame, into its own reused buffer and measures
    the rows at once (see ``FrameSource``), so reads and sums of several
    runs overlap.  A regular Y4M file is claimed in runs of up to
    ``_RUN_BYTES`` (2 MiB) read by offset, which take the per-frame
    interpreter work and lock hand-offs off the many short frames of a film;
    any other source one whole frame at a time, as it iterates, loaded as a
    view of the frame's bytes.  Rows are stored by claim, so the output does
    not depend on the thread count.  Once a claim or load fails no thread
    claims again, and the error raised is that of the earliest claim, the
    one a serial loop would raise.  The claims are closed when the threads
    are done, whether or not they failed.
    """
    wanted = tuple(dict.fromkeys(channels))
    if not wanted:
        raise ValueError("no channels requested")
    info: StreamInfo = source.info
    _check_channels(wanted, info.pixel_format)
    pixels = info.width * info.height
    lock = threading.Lock()
    stop = threading.Event()
    claimed = 0
    runs: dict[int, list[tuple[float, ...]]] = {}
    failures: dict[int, BaseException] = {}

    def work(claims: Iterator[Frame | FrameAt]) -> None:
        nonlocal claimed
        buffer = RunBuffer()
        while True:
            with lock:
                if stop.is_set():
                    return
                index = claimed
                try:
                    claim = next(claims, None)
                except BaseException as exc:
                    # set under the lock, so no thread claims after this one
                    failures[index] = exc
                    stop.set()
                    raise
                if claim is None:
                    return
                claimed += 1
            try:
                runs[index] = _measure(source.load(claim, buffer), pixels,
                                       info.pixel_format, wanted)
            except BaseException as exc:
                failures[index] = exc
                stop.set()
                raise

    threads = _thread_count()
    with closing(source.claims()) as claims, ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, claims) for _ in range(threads)]
        try:
            wait(futures)
        finally:
            # an interrupted wait leaves no thread claiming
            stop.set()
    if failures:
        raise failures[min(failures)]
    for future in futures:
        future.result()
    if not runs:
        raise MediaFormatError("no frames in input stream")
    table = np.array([row for index in range(len(runs)) for row in runs[index]],
                     dtype=np.float64)
    rate = info.fps
    curves = {
        channel: BrightnessCurve(channel, rate, 0.0, table[:, i].copy())
        for i, channel in enumerate(wanted)
    }
    return CurveSet(info, curves)
