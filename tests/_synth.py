"""Builders for synthetic media streams and seeded noise, FIFOs fed by a
thread, and a deadline, used across tests."""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
from pathlib import Path

import numpy as np

from lumascore.composition import SplitMix64
from lumascore.photometry import BrightnessCurve, CurveChannel


def build_y4m(
    width: int,
    height: int,
    frames: list[bytes],
    fps: tuple[int, int] = (24, 1),
    colorspace: bytes | None = b"C420",
    frame_params: bytes = b"",
) -> bytes:
    header = b"YUV4MPEG2 W%d H%d F%d:%d Ip A1:1" % (width, height, fps[0], fps[1])
    if colorspace is not None:
        header += b" " + colorspace
    out = [header + b"\n"]
    for data in frames:
        out.append(b"FRAME" + frame_params + b"\n")
        out.append(data)
    return b"".join(out)


def y4m_frame_420(width: int, height: int, y_value: int, chroma: int = 128) -> bytes:
    chroma_size = 2 * math.ceil(width / 2) * math.ceil(height / 2)
    return bytes([y_value]) * (width * height) + bytes([chroma]) * chroma_size


def y4m_frame_444(width: int, height: int, y_value: int, chroma: int = 128) -> bytes:
    return bytes([y_value]) * (width * height) + bytes([chroma]) * (2 * width * height)


def build_ppm(
    width: int,
    height: int,
    raster: bytes,
    magic: bytes = b"P6",
    maxval: int = 255,
    comment: bytes | None = None,
) -> bytes:
    header = [magic, b"\n"]
    if comment is not None:
        header.append(b"# " + comment + b"\n")
    header.append(b"%d %d\n%d\n" % (width, height, maxval))
    return b"".join(header) + raster


def rgb_frame(width: int, height: int, rgb: tuple[int, int, int]) -> bytes:
    return bytes(rgb) * (width * height)


def unit_noise(seed: int, n: int) -> np.ndarray:
    """Uniform draws in [0, 1) from the project generator."""
    rng = SplitMix64(seed)
    return np.array([rng.next_unit() for _ in range(n)])


def gaussian_noise(seed: int, n: int, sigma: float = 1.0) -> np.ndarray:
    """Box-Muller transform over the project generator."""
    rng = SplitMix64(seed)
    out = np.empty(n)
    for i in range(0, n, 2):
        u1 = max(rng.next_unit(), 2.0 ** -64)
        u2 = rng.next_unit()
        radius = math.sqrt(-2.0 * math.log(u1))
        out[i] = radius * math.cos(2.0 * math.pi * u2)
        if i + 1 < n:
            out[i + 1] = radius * math.sin(2.0 * math.pi * u2)
    return out * sigma


def curve(values, rate: float = 50.0, channel: CurveChannel = CurveChannel.LUMA) -> BrightnessCurve:
    return BrightnessCurve(channel, rate, 0.0, np.asarray(values, dtype=np.float64))


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block if it runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError("no exit within %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def feeding(fifo: Path, payload: bytes):
    """A thread writing ``payload`` into the FIFO at ``fifo`` during the
    block, joined on leaving it; if no reader opened the FIFO, its read end
    is opened so that the writer goes on."""
    def feed() -> None:
        try:
            with open(fifo, "wb") as handle:
                handle.write(payload)
        except BrokenPipeError:  # a reader that closed early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield writer
    finally:
        writer.join(timeout=5.0)
        if writer.is_alive():
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=5.0)
    assert not writer.is_alive()
