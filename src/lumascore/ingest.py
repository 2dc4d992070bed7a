"""Decoder-free frame sources.

Three container flavours are understood, none of which needs an external
codec: YUV4MPEG2 streams, binary PPM/PGM images (single files or numbered
sequences), and headerless RGB24 dumps described by a JSON sidecar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterator


class MediaFormatError(ValueError):
    """Malformed or unsupported media input."""


class MissingSignature(MediaFormatError):
    pass


class MissingRequiredToken(MediaFormatError):
    pass


class UnsupportedColorspace(MediaFormatError):
    pass


class BadFrameMarker(MediaFormatError):
    pass


class TruncatedFrame(MediaFormatError):
    pass


class UnsupportedMagic(MediaFormatError):
    pass


class UnsupportedMaxval(MediaFormatError):
    pass


class TruncatedPixelData(MediaFormatError):
    pass


class SidecarError(MediaFormatError):
    pass


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
    frame_count: int | None = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise MediaFormatError("stream dimensions must be positive")
        if self.fps_num < 1 or self.fps_den < 1:
            raise MediaFormatError("frame rate must be positive")

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den

    @property
    def bytes_per_frame(self) -> int:
        w, h = self.width, self.height
        if self.pixel_format is PixelFormat.RGB24:
            return 3 * w * h
        if self.pixel_format is PixelFormat.GRAY8:
            return w * h
        if self.pixel_format is PixelFormat.Y4M_444:
            return 3 * w * h
        # 4:2:0 chroma planes are ceil-divided so odd sizes round up
        return w * h + 2 * math.ceil(w / 2) * math.ceil(h / 2)


@dataclass(frozen=True)
class Frame:
    index: int
    width: int
    height: int
    pixel_format: PixelFormat
    data: bytes


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
        raise MissingSignature("y4m: missing YUV4MPEG2 signature")
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
                raise MissingRequiredToken("y4m: malformed F token")
            fps_num = _int_token(num, "F")
            fps_den = _int_token(den, "F")
        elif tag == b"C":
            colorspace = token
        # interlacing, aspect and X extensions carry nothing we use
    if width is None:
        raise MissingRequiredToken("y4m: missing required token W")
    if height is None:
        raise MissingRequiredToken("y4m: missing required token H")
    if fps_num is None:
        raise MissingRequiredToken("y4m: missing required token F")
    if colorspace not in _Y4M_COLORSPACES:
        raise UnsupportedColorspace(
            "y4m: unsupported colorspace %s" % colorspace.decode("ascii", "replace")
        )
    return StreamInfo(width, height, fps_num, fps_den, _Y4M_COLORSPACES[colorspace])


def _int_token(raw: bytes, tag: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise MissingRequiredToken("y4m: malformed %s token" % tag) from None


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


class Y4MReader:
    """Sequential frame iterator over a YUV4MPEG2 stream."""

    def __init__(self, source: str | Path | BinaryIO):
        if isinstance(source, (str, Path)):
            self._file: BinaryIO = open(source, "rb")
            self._owns_file = True
        else:
            self._file = source
            self._owns_file = False
        try:
            self.info = parse_y4m_header(self._file.readline())
        except BaseException:
            self.close()
            raise

    def __iter__(self) -> Iterator[Frame]:
        bpf = self.info.bytes_per_frame
        index = 0
        while True:
            marker = self._file.readline()
            if marker == b"":
                return
            if not marker.endswith(b"\n"):
                raise BadFrameMarker("y4m: unterminated frame marker")
            if marker != b"FRAME\n" and not marker.startswith(b"FRAME "):
                raise BadFrameMarker("y4m: expected FRAME marker, got %r" % marker[:16])
            data = _read_chunked(self._file, bpf)
            if len(data) < bpf:
                raise TruncatedFrame(
                    "y4m: frame %d truncated (%d of %d bytes)" % (index, len(data), bpf)
                )
            yield Frame(index, self.info.width, self.info.height,
                        self.info.pixel_format, data)
            index += 1

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "Y4MReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ppm(data: bytes, index: int = 0) -> Frame:
    """Decode one binary PPM (P6) or PGM (P5) image, maxval 255 only."""
    if len(data) < 2:
        raise UnsupportedMagic("ppm: file too short for magic")
    magic = data[:2]
    if magic == b"P6":
        pixel_format = PixelFormat.RGB24
        channels = 3
    elif magic == b"P5":
        pixel_format = PixelFormat.GRAY8
        channels = 1
    else:
        raise UnsupportedMagic("ppm: unsupported magic %r" % magic)
    pos = 2
    fields = []
    while len(fields) < 3:
        value, pos = _next_ppm_int(data, pos)
        fields.append(value)
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedMaxval("ppm: maxval %d not supported" % maxval)
    if width < 1 or height < 1:
        raise MediaFormatError("ppm: non-positive dimensions")
    # exactly one whitespace byte separates the header from the raster
    pos += 1
    expected = width * height * channels
    raster = data[pos:pos + expected]
    if len(raster) < expected:
        raise TruncatedPixelData(
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
    if pos == start:
        raise MediaFormatError("ppm: malformed header near byte %d" % pos)
    return int(data[start:pos]), pos


_DEFAULT_SEQUENCE_FPS = (24, 1)


class ImageSequenceReader:
    """Frame source over PPM/PGM files taken in lexicographic filename order.

    Image files carry no timing, so the stream is reported at 24 fps.
    """

    def __init__(self, paths: list[Path], fps: tuple[int, int] = _DEFAULT_SEQUENCE_FPS):
        if not paths:
            raise MediaFormatError("image sequence: no input files")
        self._paths = sorted(paths, key=lambda p: p.name)
        first = read_ppm(self._paths[0].read_bytes())
        self.info = StreamInfo(first.width, first.height, fps[0], fps[1],
                               first.pixel_format, frame_count=len(self._paths))

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

    def close(self) -> None:
        pass

    def __enter__(self) -> "ImageSequenceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_SIDECAR_KEYS = {"width", "height", "fps_num", "fps_den"}


def read_sidecar(path: Path) -> StreamInfo:
    """Load the JSON descriptor sitting next to a raw RGB24 dump."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise SidecarError("sidecar %s: %s" % (path, exc)) from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SidecarError("sidecar %s: invalid JSON (%s)" % (path, exc)) from exc
    if not isinstance(doc, dict) or set(doc) != _SIDECAR_KEYS:
        raise SidecarError(
            "sidecar %s: keys must be exactly width, height, fps_num, fps_den" % path
        )
    values = {}
    for key in sorted(_SIDECAR_KEYS):
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SidecarError("sidecar %s: %s must be a positive integer" % (path, key))
        values[key] = value
    return StreamInfo(values["width"], values["height"], values["fps_num"],
                      values["fps_den"], PixelFormat.RGB24)


class RawRgbReader:
    """Frame source over a file of concatenated RGB24 frames plus sidecar."""

    def __init__(self, path: str | Path, info: StreamInfo | None = None):
        self._path = Path(path)
        if info is None:
            info = read_sidecar(Path(str(self._path) + ".json"))
        bpf = info.bytes_per_frame
        size = self._path.stat().st_size
        self.info = StreamInfo(info.width, info.height, info.fps_num, info.fps_den,
                               PixelFormat.RGB24, frame_count=size // bpf)
        self._trailing = size % bpf

    def __iter__(self) -> Iterator[Frame]:
        bpf = self.info.bytes_per_frame
        with open(self._path, "rb") as handle:
            index = 0
            while True:
                # the trailing part frame is read as what the file holds: a
                # sidecar can claim a frame far larger than memory
                data = handle.read(bpf if index < self.info.frame_count else self._trailing)
                if data == b"" and self._trailing == 0:
                    return
                if len(data) < bpf:
                    raise TruncatedFrame(
                        "raw rgb24: frame %d truncated (%d of %d bytes)"
                        % (index, len(data), bpf)
                    )
                yield Frame(index, self.info.width, self.info.height,
                            PixelFormat.RGB24, data)
                index += 1

    def close(self) -> None:
        pass

    def __enter__(self) -> "RawRgbReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_source(path: str | Path):
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
