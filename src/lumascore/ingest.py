"""Decoder-free frame sources.

Three container flavours are understood, none of which needs an external
codec: YUV4MPEG2 streams, binary PPM/PGM images (single files or numbered
sequences), and headerless RGB24 dumps described by a JSON sidecar, which
`schema`'s walker reads as it reads the config and the report.
"""

from __future__ import annotations

import math
import mmap
import os
import stat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .schema import load_json, parse_record


class MediaFormatError(ValueError):
    """Malformed or unsupported media input."""


class PixelFormat(Enum):
    RGB24 = "rgb24"
    GRAY8 = "gray8"
    Y4M_444 = "y4m_444"
    Y4M_420 = "y4m_420"


@dataclass(frozen=True)
class StreamInfo:
    width: int
    height: int
    fps_num: int
    fps_den: int
    pixel_format: PixelFormat

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise MediaFormatError("stream dimensions must be positive")
        if self.fps_num < 1 or self.fps_den < 1:
            raise MediaFormatError("frame rate must be positive")
        # a rate hundreds of digits long would overflow a float or round to 0
        if abs(math.log10(self.fps_num) - math.log10(self.fps_den)) > 300:
            raise MediaFormatError("frame rate must lie between 1e-300 and 1e300")

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den

    @property
    def bytes_per_frame(self) -> int:
        w, h = self.width, self.height
        if self.pixel_format in (PixelFormat.RGB24, PixelFormat.Y4M_444):
            return 3 * w * h
        if self.pixel_format is PixelFormat.GRAY8:
            return w * h
        # 4:2:0 chroma planes are ceil-divided so odd sizes round up
        return w * h + 2 * math.ceil(w / 2) * math.ceil(h / 2)


@dataclass(frozen=True)
class Frame:
    index: int
    width: int
    height: int
    pixel_format: PixelFormat
    data: bytes


def frame_codes(frame: Frame) -> np.ndarray:
    """The frame's bytes as a run of one frame: one row of uint8 codes."""
    return np.frombuffer(frame.data, dtype=np.uint8)[np.newaxis]


class FrameAt(NamedTuple):
    """A claimed run of ``count`` frames not read yet, from frame ``index``
    of the stream on, whose data start ``offset``, ``offset + stride``, ...
    bytes into the regular file open as ``fd``."""

    index: int
    fd: int
    offset: int
    stride: int
    count: int


class RunBuffer:
    """Memory that one thread reuses to load runs of frames into.

    It is an anonymous ``mmap``, outside malloc's heap: glibc raises its
    mmap threshold to the size of any mapped block it frees, so a 2 MiB
    ``bytearray`` freed after extraction moved later arrays onto the heap,
    which kept ~1.5 MB more resident through film90's analysis."""

    def __init__(self) -> None:
        self._map: mmap.mmap | None = None

    def get(self, size: int) -> mmap.mmap:
        """At least ``size`` writable bytes.  A larger request maps new
        memory, so views of the old memory stay valid."""
        if self._map is None or len(self._map) < size:
            self._map = mmap.mmap(-1, size)
        return self._map


_Y4M_COLORSPACES = {
    b"C420": PixelFormat.Y4M_420,
    b"C420jpeg": PixelFormat.Y4M_420,
    b"C420mpeg2": PixelFormat.Y4M_420,
    b"C444": PixelFormat.Y4M_444,
    b"Cmono": PixelFormat.GRAY8,
}


def parse_y4m_header(data: bytes) -> StreamInfo:
    """Parse the stream header line of a YUV4MPEG2 file.

    ``data`` may be the whole stream; only the first line is examined.
    """
    line = data.split(b"\n", 1)[0]
    if not line.startswith(b"YUV4MPEG2"):
        raise MediaFormatError("y4m: missing YUV4MPEG2 signature")
    width = height = None
    fps_num = fps_den = None
    colorspace = b"C420"
    for token in line.split(b" ")[1:]:
        if token == b"":
            continue
        tag, rest = token[:1], token[1:]
        if tag == b"W":
            width = _int_token(rest, "W")
        elif tag == b"H":
            height = _int_token(rest, "H")
        elif tag == b"F":
            num, sep, den = rest.partition(b":")
            if not sep:
                raise MediaFormatError("y4m: malformed F token")
            fps_num = _int_token(num, "F")
            fps_den = _int_token(den, "F")
        elif tag == b"C":
            colorspace = token
        # interlacing, aspect and X extensions carry nothing we use
    for tag, value in (("W", width), ("H", height), ("F", fps_num)):
        if value is None:
            raise MediaFormatError("y4m: missing required token %s" % tag)
    if colorspace not in _Y4M_COLORSPACES:
        raise MediaFormatError(
            "y4m: unsupported colorspace %s" % colorspace.decode("ascii", "replace")
        )
    return StreamInfo(width, height, fps_num, fps_den, _Y4M_COLORSPACES[colorspace])


def _int_token(raw: bytes, tag: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise MediaFormatError("y4m: malformed %s token" % tag) from None


_READ_CHUNK = 1 << 20


def _read_chunked(handle: BinaryIO, count: int) -> bytes:
    """Up to ``count`` bytes, read ``_READ_CHUNK`` at a time until EOF.

    A header can claim a frame far larger than memory; reading it in bounded
    chunks makes memory grow only with the bytes that arrive, for a regular
    file and a pipe alike."""
    parts = []
    while count > 0:
        part = handle.read(min(count, _READ_CHUNK))
        if not part:
            break
        parts.append(part)
        count -= len(part)
    return b"".join(parts)


def _check_whole(info: StreamInfo, index: int, got: int, container: str) -> None:
    """Raise unless ``got``, the bytes of frame ``index`` that arrived or
    that the file holds, is the whole frame."""
    if got < info.bytes_per_frame:
        raise MediaFormatError("%s: frame %d truncated (%d of %d bytes)"
                               % (container, index, got, info.bytes_per_frame))


def _frame(info: StreamInfo, index: int, data: bytes, container: str) -> Frame:
    """Frame ``index`` of ``data``, which must hold the whole frame."""
    _check_whole(info, index, len(data), container)
    return Frame(index, info.width, info.height, info.pixel_format, data)


# the most bytes one claim of a Y4M file spans; a frame larger than this is
# claimed alone.  Extracting film90 (640x480 GRAY8) on two threads of a
# 2-vCPU Xeon took, as medians of six runs, 0.40 s of CPU time in runs of one
# frame, 0.32 s in 1 MiB runs, 0.30 s in 2 MiB runs (six frames) and 0.27 s
# in 4 MiB runs; but 4 MiB runs raised the extraction's peak RSS from 35.6 to
# 39.9 MB, above the ~36.4 MB at which the rest of the pipeline peaks
_RUN_BYTES = 2 << 20


class FrameSource:
    """Frames described by ``info``, in stream order.  As a context manager
    a source closes what it opened.

    A source implements ``__iter__``, a generator of one ``Frame`` per
    frame, each with its own bytes, read in stream order.  Threads share a
    source by taking frames in two steps.  ``claims()`` is a generator of
    claims in stream order, each of one or more consecutive frames; it is
    advanced by one thread at a time, and closing it closes what it opened.
    ``load(claim, buffer)`` returns the claim's frames as a 2-D ``uint8``
    array, one row of codes per frame, and may run on many threads at once,
    each thread with its own ``RunBuffer``.  The claims raise the stream's
    errors in frame order.

    The claims default to the iteration: each is a whole ``Frame``, which
    ``load`` returns without reading, as one row that is a view of its
    bytes.  Only a regular Y4M file claims a ``FrameAt``: a run of frames
    whose markers all have one length, so the frames lie evenly spaced,
    spanning at most ``_RUN_BYTES`` unless it is one frame.  The claim
    reads only the frames' ``FRAME`` markers and checks that the file holds
    each whole frame, so a header claiming a frame larger than the file
    fails before a buffer of that size exists.  ``load`` reads the run by
    offset into ``buffer`` and returns a view of it, rows ``stride`` bytes
    apart, which holds the run until the buffer's next load."""

    info: StreamInfo
    # the container named in a truncated frame's message
    _container = ""

    def __iter__(self) -> Iterator[Frame]:
        raise NotImplementedError

    def claims(self) -> Iterator[Frame | FrameAt]:
        return iter(self)

    def load(self, claim: Frame | FrameAt, buffer: RunBuffer) -> np.ndarray:
        if isinstance(claim, Frame):
            return frame_codes(claim)
        bpf = self.info.bytes_per_frame
        span = (claim.count - 1) * claim.stride + bpf
        data = buffer.get(span)
        got = 0
        with memoryview(data) as view:
            # one read returns at most ~2 GiB on Linux; 0 bytes is the end of
            # a file that shrank after the claim checked its size
            while got < span and (count := os.preadv(claim.fd, [view[got:span]],
                                                     claim.offset + got)):
                got += count
        # the frames before the first one the read did not finish are whole
        whole = (got + claim.stride - bpf) // claim.stride
        if whole < claim.count:
            _check_whole(self.info, claim.index + whole, max(0, got - whole * claim.stride),
                         self._container)
        return np.ndarray((claim.count, bpf), np.uint8, data, strides=(claim.stride, 1))

    def close(self) -> None:
        pass

    def __enter__(self) -> "FrameSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# the most bytes a Y4M header or frame marker line may hold, newline
# included; a run-on line is refused here rather than read whole
_LINE_BYTES = 64 << 10
# the Y4M file's read buffer.  A regular file's claims seek past each frame,
# which empties the buffer, and ``readline`` the next marker, mostly
# "FRAME\n", which fills it again: walking film90's 2,160 markers took a
# median 13.7 ms with 128 B and 17.0 ms with the default 8 KiB on a 2-vCPU
# Xeon.  Reads of frame data, far larger, go around the buffer
_Y4M_BUFFER = 128


class Y4MReader(FrameSource):
    """Frame source over a YUV4MPEG2 file or FIFO."""

    _container = "y4m"

    def __init__(self, path: str | Path):
        self._file: BinaryIO = open(path, "rb", buffering=_Y4M_BUFFER)
        try:
            header = self._file.readline(_LINE_BYTES)
            if len(header) == _LINE_BYTES and not header.endswith(b"\n"):
                raise MediaFormatError("y4m: header line has no newline in its first %d bytes"
                                       % _LINE_BYTES)
            self.info = parse_y4m_header(header)
        except BaseException:
            self.close()
            raise

    def __iter__(self) -> Iterator[Frame]:
        bpf = self.info.bytes_per_frame
        index = 0
        while _frame_marker(self._file.readline(_LINE_BYTES)):
            yield _frame(self.info, index, _read_chunked(self._file, bpf), self._container)
            index += 1

    def claims(self) -> Iterator[Frame | FrameAt]:
        """A FIFO's frames as it iterates.  A regular file's runs of frames
        (see ``FrameSource``): the claims walk the markers with iteration's
        ``readline``, seeking past each frame instead of reading it."""
        fd = self._file.fileno()
        status = os.fstat(fd)
        if not stat.S_ISREG(status.st_mode):
            yield from self
            return
        bpf = self.info.bytes_per_frame
        pos = self._file.tell()
        index = 0
        run = None
        try:
            while _frame_marker(marker := self._file.readline(_LINE_BYTES)):
                offset = pos + len(marker)
                _check_whole(self.info, index, status.st_size - offset, self._container)
                stride = len(marker) + bpf
                if (run is not None and stride == run.stride
                        and run.count * stride + bpf <= _RUN_BYTES):
                    run = run._replace(count=run.count + 1)
                else:
                    if run is not None:
                        yield run
                    run = FrameAt(index, fd, offset, stride, 1)
                # seek's result, not tell(), which costs an lseek
                pos = self._file.seek(offset + bpf)
                index += 1
        except MediaFormatError:
            # the frames before the bad one come first, as they would one by one
            if run is not None:
                yield run
            raise
        if run is not None:
            yield run

    def close(self) -> None:
        self._file.close()


def _frame_marker(marker: bytes) -> bool:
    """Check a line read where a frame marker should start; False at the end
    of the stream."""
    if marker == b"":
        return False
    if not marker.endswith(b"\n"):
        raise MediaFormatError("y4m: unterminated frame marker")
    if marker != b"FRAME\n" and not marker.startswith(b"FRAME "):
        raise MediaFormatError("y4m: expected FRAME marker, got %r" % marker[:16])
    return True


def read_ppm(data: bytes, index: int = 0) -> Frame:
    """Decode one binary PPM (P6) or PGM (P5) image, maxval 255 only."""
    if len(data) < 2:
        raise MediaFormatError("ppm: file too short for magic")
    magic = data[:2]
    if magic == b"P6":
        pixel_format = PixelFormat.RGB24
        channels = 3
    elif magic == b"P5":
        pixel_format = PixelFormat.GRAY8
        channels = 1
    else:
        raise MediaFormatError("ppm: unsupported magic %r" % magic)
    pos = 2
    fields = []
    while len(fields) < 3:
        value, pos = _next_ppm_int(data, pos)
        fields.append(value)
    width, height, maxval = fields
    if maxval != 255:
        raise MediaFormatError("ppm: maxval %d not supported" % maxval)
    if width < 1 or height < 1:
        raise MediaFormatError("ppm: non-positive dimensions")
    # exactly one whitespace byte separates the header from the raster
    pos += 1
    expected = width * height * channels
    raster = data[pos:pos + expected]
    if len(raster) < expected:
        raise MediaFormatError(
            "ppm: raster truncated (%d of %d bytes)" % (len(raster), expected)
        )
    return Frame(index, width, height, pixel_format, raster)


def _next_ppm_int(data: bytes, pos: int) -> tuple[int, int]:
    """Read the next header integer, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        byte = data[pos]
        if byte in b"#":
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        elif byte in b" \t\r\n":
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] in b"0123456789":
        pos += 1
    # no image needs a ten-digit field, and int() refuses 4300+ digits
    if not 0 < pos - start < 10:
        raise MediaFormatError("ppm: malformed header near byte %d" % pos)
    return int(data[start:pos]), pos


_SEQUENCE_FPS = (24, 1)


class ImageSequenceReader(FrameSource):
    """Frame source over PPM/PGM files taken in lexicographic filename order.

    Image files carry no timing, so the stream is reported at 24 fps.
    """

    def __init__(self, paths: list[Path]):
        if not paths:
            raise MediaFormatError("image sequence: no input files")
        self._paths = sorted(paths, key=lambda p: p.name)
        first = read_ppm(self._paths[0].read_bytes())
        self.info = StreamInfo(first.width, first.height, *_SEQUENCE_FPS, first.pixel_format)

    def __iter__(self) -> Iterator[Frame]:
        for index, path in enumerate(self._paths):
            frame = read_ppm(path.read_bytes(), index)
            if (frame.width, frame.height) != (self.info.width, self.info.height):
                raise MediaFormatError(
                    "image sequence: %s changes frame size" % path.name
                )
            if frame.pixel_format is not self.info.pixel_format:
                raise MediaFormatError(
                    "image sequence: %s changes pixel format" % path.name
                )
            yield frame


@dataclass
class _Sidecar:
    width: int = field(metadata={"range": "[1, inf)"})
    height: int = field(metadata={"range": "[1, inf)"})
    fps_num: int = field(metadata={"range": "[1, inf)"})
    fps_den: int = field(metadata={"range": "[1, inf)"})


def read_sidecar(path: Path) -> StreamInfo:
    """Load the JSON descriptor sitting next to a raw RGB24 dump."""
    root = "sidecar %s" % path
    sidecar = parse_record(_Sidecar, load_json(path, root, MediaFormatError), root,
                           MediaFormatError)
    return StreamInfo(**vars(sidecar), pixel_format=PixelFormat.RGB24)


class RawRgbReader(FrameSource):
    """Frame source over a file or pipe of RGB24 frames described by a sidecar."""

    _container = "raw rgb24"

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self.info = read_sidecar(Path(str(self._path) + ".json"))

    def __iter__(self) -> Iterator[Frame]:
        bpf = self.info.bytes_per_frame
        with open(self._path, "rb") as handle:
            index = 0
            while data := _read_chunked(handle, bpf):
                yield _frame(self.info, index, data, self._container)
                index += 1


def open_source(path: str | Path) -> FrameSource:
    """Pick a frame source for ``path`` by extension or directory layout."""
    path = Path(path)
    if path.is_dir():
        files = [p for p in path.iterdir() if p.suffix.lower() in (".ppm", ".pgm")]
        return ImageSequenceReader(files)
    suffix = path.suffix.lower()
    if suffix == ".y4m":
        return Y4MReader(path)
    if suffix in (".ppm", ".pgm"):
        return ImageSequenceReader([path])
    if not path.exists():
        raise MediaFormatError("input %s: no such file" % path)
    return RawRgbReader(path)
