"""Container parsing: Y4M streams, PPM/PGM images, raw RGB dumps."""

from __future__ import annotations

import io
import json
import math
import os
import re
import tempfile
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lumascore.ingest import (
    _LINE_BYTES,
    _Y4M_BUFFER,
    ImageSequenceReader,
    MediaFormatError,
    PixelFormat,
    RawRgbReader,
    RunBuffer,
    StreamInfo,
    Y4MReader,
    open_source,
    parse_y4m_header,
    read_ppm,
    read_sidecar,
)
from lumascore.photometry import CurveChannel, _measure_frame, extract_curves
from lumascore.pipeline import extract_stage
from _synth import (
    build_ppm,
    build_y4m,
    feeding,
    rgb_frame,
    y4m_frame_420,
    y4m_frame_444,
)


def y4m_frames(stream: bytes) -> list:
    """Every frame of the Y4M ``stream``, read back from a temporary file."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "film.y4m"
        path.write_bytes(stream)
        with Y4MReader(path) as reader:
            return list(reader)


def test_y4m_header_with_all_tokens() -> None:
    info = parse_y4m_header(b"YUV4MPEG2 W640 H480 F24:1 Ip A1:1 C444\n")
    assert info.width == 640
    assert info.height == 480
    assert (info.fps_num, info.fps_den) == (24, 1)
    assert info.pixel_format is PixelFormat.Y4M_444


def test_y4m_header_defaults_to_420() -> None:
    info = parse_y4m_header(b"YUV4MPEG2 W2 H2 F30000:1001\n")
    assert (info.fps_num, info.fps_den) == (30000, 1001)
    assert info.pixel_format is PixelFormat.Y4M_420


def test_y4m_header_missing_signature() -> None:
    with pytest.raises(MediaFormatError, match="missing YUV4MPEG2 signature"):
        parse_y4m_header(b"YUV4MPEG W2 H2 F24:1\n")


def test_y4m_header_missing_framerate() -> None:
    with pytest.raises(MediaFormatError, match="missing required token F"):
        parse_y4m_header(b"YUV4MPEG2 W2 H2\n")


def test_y4m_header_rejects_unknown_colorspace() -> None:
    with pytest.raises(MediaFormatError, match="unsupported colorspace C410"):
        parse_y4m_header(b"YUV4MPEG2 W2 H2 F24:1 C410\n")


def test_y4m_mono_maps_to_gray8() -> None:
    info = parse_y4m_header(b"YUV4MPEG2 W4 H3 F24:1 Cmono\n")
    assert info.pixel_format is PixelFormat.GRAY8
    assert info.bytes_per_frame == 12


@pytest.mark.parametrize(
    "width,height,fmt,expected",
    [
        (2, 2, PixelFormat.Y4M_420, 2 * 2 + 2 * 1 * 1),
        (3, 3, PixelFormat.Y4M_420, 3 * 3 + 2 * 2 * 2),
        (640, 480, PixelFormat.Y4M_420, 640 * 480 + 2 * 320 * 240),
        (5, 4, PixelFormat.Y4M_444, 3 * 5 * 4),
        (5, 4, PixelFormat.RGB24, 3 * 5 * 4),
        (5, 4, PixelFormat.GRAY8, 5 * 4),
    ],
)
def test_bytes_per_frame(width: int, height: int, fmt: PixelFormat, expected: int) -> None:
    # chroma planes of 4:2:0 round odd dimensions upward
    info = StreamInfo(width, height, 24, 1, fmt)
    assert info.bytes_per_frame == expected


def test_y4m_frames_in_order_with_parameters() -> None:
    frames = [y4m_frame_420(2, 2, v) for v in (10, 200, 90)]
    stream = build_y4m(2, 2, frames, frame_params=b" Xtest")
    seen = y4m_frames(stream)
    assert [f.index for f in seen] == [0, 1, 2]
    assert [f.data[0] for f in seen] == [10, 200, 90]


# a rate hundreds of digits long once overflowed a float in a traceback
@pytest.mark.parametrize("fps", [b"F1" + b"0" * 400 + b":1", b"F1:1" + b"0" * 400])
def test_y4m_frame_rate_outside_the_float_range_rejected(fps) -> None:
    with pytest.raises(MediaFormatError, match="frame rate must lie between 1e-300 and 1e300"):
        parse_y4m_header(b"YUV4MPEG2 W2 H2 " + fps + b"\n")


def test_y4m_truncated_frame() -> None:
    stream = build_y4m(2, 2, [y4m_frame_420(2, 2, 50)[:-1]])
    with pytest.raises(MediaFormatError, match="y4m: frame 0 truncated"):
        y4m_frames(stream)


def test_y4m_frame_larger_than_file_is_truncated(tmp_path) -> None:
    # the claimed frame is ~10 PB; the reader must not try to allocate it
    path = tmp_path / "huge.y4m"
    path.write_bytes(b"YUV4MPEG2 W99999999 H99999999 F24:1 C420\nFRAME\n" + bytes(64))
    with Y4MReader(path) as reader:
        with pytest.raises(MediaFormatError, match="frame 0 truncated \\(64 of"):
            list(reader)


def test_y4m_pipe_frame_larger_than_stream_is_truncated(tmp_path) -> None:
    # a FIFO has no size to check, so the claimed ~10 PB frame must be read
    # in bounded chunks until EOF instead of being allocated up front
    fifo = tmp_path / "huge.y4m"
    os.mkfifo(fifo)
    with feeding(fifo, b"YUV4MPEG2 W99999999 H99999999 F24:1 C420\nFRAME\n" + bytes(64)):
        with Y4MReader(fifo) as reader:
            with pytest.raises(MediaFormatError, match="frame 0 truncated \\(64 of"):
                list(reader)


def test_y4m_pipe_frames_span_read_chunks(tmp_path) -> None:
    # 1024x1024 4:2:0 frames are 1.5 MiB, more than one read chunk each
    frames = [y4m_frame_420(1024, 1024, 60 + k, chroma=k) for k in range(2)]
    fifo = tmp_path / "film.y4m"
    os.mkfifo(fifo)
    with feeding(fifo, build_y4m(1024, 1024, frames)), Y4MReader(fifo) as reader:
        assert [frame.data for frame in reader] == frames


@pytest.mark.parametrize("kept", (-3, 0, 2))
def test_y4m_file_that_shrinks_after_the_claim_is_truncated(tmp_path, run_bytes, kept) -> None:
    # the claims checked the file's size; loading the second run finds its
    # second frame cut short, or its marker (-3), which the claim already read
    frames = [y4m_frame_420(2, 2, v) for v in (10, 200, 90, 40)]
    path = tmp_path / "film.y4m"
    path.write_bytes(build_y4m(2, 2, frames))
    run_bytes(2 * 12)  # two 6-byte frames, each after a 6-byte marker
    with Y4MReader(path) as reader:
        claims = reader.claims()
        first, second = next(claims), next(claims)
        assert (first.index, first.count, second.index, second.count) == (0, 2, 2, 2)
        os.truncate(path, second.offset + second.stride + kept)
        buffer = RunBuffer()
        assert [bytes(row) for row in reader.load(first, buffer)] == frames[:2]
        with pytest.raises(MediaFormatError) as err:
            reader.load(second, buffer)
        claims.close()
    assert str(err.value) == "y4m: frame 3 truncated (%d of 6 bytes)" % max(0, kept)


def test_y4m_rejected_header_closes_file(tmp_path, monkeypatch) -> None:
    import lumascore.ingest as ingest

    opened = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(ingest, "open", recording_open, raising=False)
    path = tmp_path / "bad.y4m"
    path.write_bytes(b"YUV4MPEG2 W2 H2 C420\nFRAME\n" + y4m_frame_420(2, 2, 50))
    with pytest.raises(MediaFormatError, match="missing required token F"):
        Y4MReader(path)
    assert len(opened) == 1 and opened[0].closed


def test_y4m_bad_frame_marker() -> None:
    good = y4m_frame_420(2, 2, 50)
    stream = b"YUV4MPEG2 W2 H2 F24:1 C420\nFRAME\n" + good + b"FRAMX\n" + good
    with pytest.raises(MediaFormatError, match="expected FRAME marker"):
        y4m_frames(stream)


MARKERS = (b"FRAME\n", b"FRAME Ip\n", b"FRAME XCOLORRANGE=FULL\n")
MARKER_CHANNELS = (CurveChannel.LUMA, CurveChannel.CONTRAST_RMS)


def _noise_y4m(markers) -> bytes:
    """A 9x7 4:2:0 Y4M with one frame after each marker, each frame a
    different byte pattern."""
    header = build_y4m(9, 7, [])
    info = parse_y4m_header(header)
    data = [bytes((31 * i + 17 * j) % 256 for j in range(info.bytes_per_frame))
            for i in range(len(markers))]
    return header + b"".join(m + d for m, d in zip(markers, data))


@pytest.mark.parametrize("count", (1, 2, 8))
def test_y4m_markers_of_any_length_read_as_plain_ones(tmp_path, thread_count, count) -> None:
    # the claim walks each marker to its newline, so frames start wherever
    # the marker ends
    plain = tmp_path / "plain.y4m"
    plain.write_bytes(_noise_y4m([b"FRAME\n"] * 30))
    mixed = tmp_path / "mixed.y4m"
    mixed.write_bytes(_noise_y4m([MARKERS[i % 3] for i in range(30)]))
    thread_count(count)
    assert (extract_stage(mixed, MARKER_CHANNELS)
            == extract_stage(plain, MARKER_CHANNELS))


@pytest.mark.parametrize("count", (1, 2, 8))
@pytest.mark.parametrize("bad", (b"FRAMX\n", b"FRAMES Ip\n", b"FRAME Ip"),
                         ids=("misspelt", "run on", "unterminated"))
def test_y4m_bad_marker_at_frame_k_raises_as_the_serial_loop(tmp_path, thread_count,
                                                             count, bad) -> None:
    # frame 11's marker is bad; an unterminated one can only end the file
    markers = [MARKERS[i % 3] for i in range(11)]
    if bad.endswith(b"\n"):
        stream = _noise_y4m(markers + [bad] + [b"FRAME\n"] * 3)
    else:
        stream = _noise_y4m(markers) + bad
    path = tmp_path / "bad.y4m"
    path.write_bytes(stream)
    with Y4MReader(path) as source, pytest.raises(MediaFormatError) as serial:
        [_measure_frame(frame, MARKER_CHANNELS) for frame in source]
    thread_count(count)
    with pytest.raises(MediaFormatError) as threaded:
        extract_stage(path, MARKER_CHANNELS)
    assert str(threaded.value) == str(serial.value)
    assert "marker" in str(serial.value)


# 9x7 4:2:0 frames are 103 bytes, 109 apart after plain markers; runs of at
# most this many bytes hold four such frames
FOUR_FRAMES = 3 * 109 + 103


def serial_rows(path, channels) -> np.ndarray:
    with Y4MReader(path) as source:
        return np.array([_measure_frame(frame, channels) for frame in source])


def claimed_runs(path) -> list:
    with Y4MReader(path) as source:
        return [(claim.index, claim.count) for claim in source.claims()]


@pytest.mark.parametrize("count", (1, 2, 8))
def test_y4m_marker_of_another_length_ends_a_run(tmp_path, thread_count, run_bytes,
                                                 count) -> None:
    plain, odd = b"FRAME\n", b"FRAME Ixx\n"
    path = tmp_path / "mixed.y4m"
    path.write_bytes(_noise_y4m([plain] * 5 + [odd] + [plain] * 8 + [odd] * 2 + [plain] * 3))
    run_bytes(FOUR_FRAMES)
    assert claimed_runs(path) == [(0, 4), (4, 1), (5, 1), (6, 4), (10, 4), (14, 2), (16, 3)]
    thread_count(count)
    with Y4MReader(path) as source:
        curves = extract_curves(source, MARKER_CHANNELS)
    serial = serial_rows(path, MARKER_CHANNELS)
    for i, channel in enumerate(MARKER_CHANNELS):
        assert curves[channel].values.tobytes() == serial[:, i].tobytes()


@pytest.mark.parametrize("count", (1, 2, 8))
@pytest.mark.parametrize("kept", (0, 50))
def test_y4m_file_cut_inside_a_run_is_truncated_at_its_frame(tmp_path, thread_count,
                                                             run_bytes, count, kept) -> None:
    # frame 13, the second of its run, is cut; the claims find it by the
    # file's size, after yielding the runs before it
    stream = _noise_y4m([b"FRAME\n"] * 20)
    end = len(build_y4m(9, 7, [])) + 13 * 109 + 6 + kept
    path = tmp_path / "cut.y4m"
    path.write_bytes(stream[:end])
    run_bytes(FOUR_FRAMES)
    message = re.escape("y4m: frame 13 truncated (%d of 103 bytes)" % kept)
    seen = []
    with Y4MReader(path) as source, pytest.raises(MediaFormatError, match=message):
        for frame in source:
            seen.append(frame.index)
    assert seen == list(range(13))
    thread_count(count)
    with pytest.raises(MediaFormatError, match=message):
        extract_stage(path, MARKER_CHANNELS)


@pytest.mark.parametrize("count", (1, 2, 8))
def test_y4m_bad_marker_after_a_run_raises_as_the_serial_loop(tmp_path, thread_count,
                                                              run_bytes, count) -> None:
    path = tmp_path / "bad.y4m"
    path.write_bytes(_noise_y4m([b"FRAME\n"] * 11 + [b"FRAMX\n"] + [b"FRAME\n"] * 3))
    run_bytes(FOUR_FRAMES)
    seen = []
    with Y4MReader(path) as source, pytest.raises(MediaFormatError) as serial:
        for claim in source.claims():
            seen.append((claim.index, claim.count))
    assert seen == [(0, 4), (4, 4), (8, 3)]
    thread_count(count)
    with pytest.raises(MediaFormatError) as threaded:
        extract_stage(path, MARKER_CHANNELS)
    assert str(threaded.value) == str(serial.value)
    with pytest.raises(MediaFormatError, match="expected FRAME marker"):
        serial_rows(path, MARKER_CHANNELS)


def iterated_frames(path) -> tuple:
    """The (index, bytes) of each frame of iterating the Y4M file at
    ``path``, and the message of the error that ended it, if one did."""
    frames = []
    with Y4MReader(path) as source:
        try:
            for frame in source:
                frames.append((frame.index, frame.data))
        except MediaFormatError as exc:
            return frames, str(exc)
    return frames, None


def claimed_frames(path) -> tuple:
    """As ``iterated_frames``, with the frames read as extraction reads
    them: each claim loaded into one reused buffer."""
    frames = []
    with Y4MReader(path) as source, closing(source.claims()) as claims:
        buffer = RunBuffer()
        try:
            for claim in claims:
                rows = source.load(claim, buffer)
                frames.extend((claim.index + k, bytes(row)) for k, row in enumerate(rows))
        except MediaFormatError as exc:
            return frames, str(exc)
    return frames, None


def pad_line(start: bytes, size: int) -> bytes:
    """A line of ``size`` bytes, newline included, that starts ``start``."""
    return start + b"x" * (size - len(start) - 1) + b"\n"


def long_markers(size: int) -> list:
    """30 markers, two in each three of them ``size`` bytes long."""
    return [pad_line(b"FRAME X", size) if i % 3 else b"FRAME\n" for i in range(30)]


PLAIN = _noise_y4m([b"FRAME\n"] * 30)
HUGE_FRAME = b"YUV4MPEG2 W99999999 H99999999 F24:1 C420\nFRAME\n" + bytes(64)
ITERATED_STREAMS = {
    "three marker lengths": (_noise_y4m([MARKERS[i % 3] for i in range(30)]), None),
    # markers whose newline is the last byte of the read buffer, or one
    # byte before or after it
    "markers of the buffer less 1": (_noise_y4m(long_markers(_Y4M_BUFFER - 1)), None),
    "markers of the buffer": (_noise_y4m(long_markers(_Y4M_BUFFER)), None),
    "markers of the buffer and 1": (_noise_y4m(long_markers(_Y4M_BUFFER + 1)), None),
    "marker of the cap": (_noise_y4m(long_markers(_LINE_BYTES)), None),
    "marker of the cap and 1": (_noise_y4m(long_markers(_LINE_BYTES + 1)[:2]),
                                "y4m: unterminated frame marker"),
    "cut inside a run": (_noise_y4m([b"FRAME\n"] * 20)[:len(build_y4m(9, 7, [])) + 13 * 109 + 56],
                         "y4m: frame 13 truncated (50 of 103 bytes)"),
    "bad marker after a run": (_noise_y4m([b"FRAME\n"] * 11 + [b"FRAMX\n"] + [b"FRAME\n"] * 3),
                               "y4m: expected FRAME marker, got b'FRAMX\\n'"),
    "unterminated marker": (_noise_y4m([b"FRAME\n"] * 6) + b"FRAME Ip",
                            "y4m: unterminated frame marker"),
    "~10 PB frame": (HUGE_FRAME, "y4m: frame 0 truncated (64 of %d bytes)"
                     % parse_y4m_header(HUGE_FRAME).bytes_per_frame),
}


@pytest.mark.parametrize("count", (1, 2, 8))
@pytest.mark.parametrize("stream, message", ITERATED_STREAMS.values(), ids=ITERATED_STREAMS)
def test_y4m_file_iterates_as_extraction_reads_it(tmp_path, run_bytes, thread_count, count,
                                                  stream, message) -> None:
    # iteration reads the file in stream order, extraction by offset in runs;
    # a film that reads whole holds the frames of one with plain markers
    path = tmp_path / "film.y4m"
    path.write_bytes(stream)
    run_bytes(FOUR_FRAMES)
    frames, error = iterated_frames(path)
    assert (frames, error) == claimed_frames(path)
    assert error == message
    thread_count(count)
    if message is None:
        plain = tmp_path / "plain.y4m"
        plain.write_bytes(PLAIN)
        assert frames == iterated_frames(plain)[0]
        assert extract_stage(path, MARKER_CHANNELS) == extract_stage(plain, MARKER_CHANNELS)
        return
    with pytest.raises(MediaFormatError) as err:
        extract_stage(path, MARKER_CHANNELS)
    assert str(err.value) == message


HEADER = b"YUV4MPEG2 W2 H2 F24:1 C420 X"
LONG_HEADER = "y4m: header line has no newline in its first %d bytes" % _LINE_BYTES


def test_y4m_header_line_of_the_cap_is_read(tmp_path) -> None:
    frame = y4m_frame_420(2, 2, 70)
    path = tmp_path / "long.y4m"
    path.write_bytes(pad_line(HEADER, _LINE_BYTES) + b"FRAME\n" + frame)
    assert iterated_frames(path) == ([(0, frame)], None)
    path.write_bytes(pad_line(HEADER, _LINE_BYTES + 1) + b"FRAME\n" + frame)
    with pytest.raises(MediaFormatError) as err:
        Y4MReader(path)
    assert str(err.value) == LONG_HEADER


def test_y4m_file_marker_without_newline_is_read_to_the_cap(tmp_path) -> None:
    # the claims read a run-on marker to the cap, and at most one buffer on
    header = build_y4m(2, 2, [])
    path = tmp_path / "run-on.y4m"
    path.write_bytes(header + b"FRAME " + b"x" * 16 * _LINE_BYTES)
    with Y4MReader(path) as source:
        with pytest.raises(MediaFormatError, match="y4m: unterminated frame marker"):
            list(source.claims())
        taken = source._file.raw.tell()
    assert len(header) + _LINE_BYTES <= taken <= len(header) + _LINE_BYTES + _Y4M_BUFFER


def unread_after(fifo: Path, payload: bytes, read) -> int:
    """The bytes of ``payload`` still in the FIFO at ``fifo`` after
    ``read()`` has taken what it reads of it.  A second read end, held open
    meanwhile, keeps the writer going when ``read`` closes its own, and then
    drains the rest."""
    spare = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with feeding(fifo, payload):
            read()
            os.set_blocking(spare, True)
            left = 0
            while chunk := os.read(spare, 1 << 16):
                left += len(chunk)
    finally:
        os.close(spare)
    return left


# more than a pipe holds, so the writer waits on what the reader takes
RUN_ON = b"x" * 16 * _LINE_BYTES


def test_y4m_pipe_header_without_newline_is_read_to_the_cap(tmp_path) -> None:
    fifo = tmp_path / "run-on.y4m"
    os.mkfifo(fifo)

    def read() -> None:
        with pytest.raises(MediaFormatError) as err:
            Y4MReader(fifo)
        assert str(err.value) == LONG_HEADER

    payload = HEADER + RUN_ON
    taken = len(payload) - unread_after(fifo, payload, read)
    assert _LINE_BYTES <= taken <= _LINE_BYTES + io.DEFAULT_BUFFER_SIZE


def test_y4m_pipe_marker_without_newline_is_read_to_the_cap(tmp_path) -> None:
    fifo = tmp_path / "run-on.y4m"
    os.mkfifo(fifo)
    first = build_y4m(2, 2, [y4m_frame_420(2, 2, 30)])

    def read() -> None:
        with Y4MReader(fifo) as source, pytest.raises(MediaFormatError,
                                                      match="y4m: unterminated frame marker"):
            list(source.claims())

    payload = first + b"FRAME " + RUN_ON
    taken = len(payload) - unread_after(fifo, payload, read) - len(first)
    assert _LINE_BYTES <= taken <= _LINE_BYTES + io.DEFAULT_BUFFER_SIZE


@given(
    width=st.integers(1, 8),
    height=st.integers(1, 8),
    count=st.integers(0, 5),
    colorspace=st.sampled_from([b"C420", b"C420jpeg", b"C420mpeg2", b"C444", b"Cmono"]),
)
def test_y4m_fuzz_frame_count(width: int, height: int, count: int, colorspace: bytes) -> None:
    info = parse_y4m_header(build_y4m(width, height, [], colorspace=colorspace))
    frames = [bytes([i % 256]) * info.bytes_per_frame for i in range(count)]
    stream = build_y4m(width, height, frames, colorspace=colorspace)
    seen = y4m_frames(stream)
    assert len(seen) == count
    assert all(len(f.data) == info.bytes_per_frame for f in seen)


def test_ppm_p6_basic() -> None:
    frame = read_ppm(build_ppm(2, 1, bytes([255, 0, 0, 0, 255, 0])))
    assert frame.pixel_format is PixelFormat.RGB24
    assert (frame.width, frame.height) == (2, 1)
    assert frame.data == bytes([255, 0, 0, 0, 255, 0])


def test_ppm_p5_with_comment() -> None:
    frame = read_ppm(build_ppm(2, 2, bytes([0, 64, 128, 255]), magic=b"P5",
                               comment=b"made by hand"))
    assert frame.pixel_format is PixelFormat.GRAY8
    assert frame.data == bytes([0, 64, 128, 255])


def test_ppm_rejects_wide_maxval() -> None:
    with pytest.raises(MediaFormatError, match="maxval 65535 not supported"):
        read_ppm(build_ppm(1, 1, bytes(6), maxval=65535))


def test_ppm_rejects_unknown_magic() -> None:
    with pytest.raises(MediaFormatError, match="unsupported magic"):
        read_ppm(b"P3\n1 1\n255\n1 2 3\n")


def test_ppm_header_field_of_ten_digits_rejected() -> None:
    assert read_ppm(b"P5 000000001 1 255\n\x07").width == 1
    # 5000 digits once escaped as int()'s plain ValueError
    for digits in (b"1" * 10, b"9" * 5000):
        with pytest.raises(MediaFormatError, match="ppm: malformed header near byte"):
            read_ppm(b"P5 " + digits + b" 1 255\n\x00")


def test_ppm_truncated_raster() -> None:
    with pytest.raises(MediaFormatError, match="raster truncated"):
        read_ppm(build_ppm(2, 2, bytes(11)))


def test_ppm_round_trips_raster_bytes() -> None:
    raster = bytes(range(3 * 4 * 2))
    rebuilt = read_ppm(build_ppm(4, 2, raster))
    # re-encoding from the parsed fields reproduces the original file
    again = build_ppm(rebuilt.width, rebuilt.height, rebuilt.data)
    assert again == build_ppm(4, 2, raster)


def test_sequence_lexicographic_order(tmp_path) -> None:
    names = ["b_0002.ppm", "a_0010.ppm", "a_0009.ppm"]
    for i, name in enumerate(names):
        (tmp_path / name).write_bytes(build_ppm(1, 1, bytes([i, i, i])))
    reader = ImageSequenceReader([tmp_path / n for n in names])
    order = [frame.data[0] for frame in reader]
    # a_0009 then a_0010 then b_0002
    assert order == [2, 1, 0]


def test_sequence_rejects_size_change(tmp_path) -> None:
    (tmp_path / "f0.ppm").write_bytes(build_ppm(1, 1, bytes(3)))
    (tmp_path / "f1.ppm").write_bytes(build_ppm(2, 1, bytes(6)))
    reader = ImageSequenceReader([tmp_path / "f0.ppm", tmp_path / "f1.ppm"])
    with pytest.raises(MediaFormatError):
        list(reader)


def test_raw_rgb_reader_and_sidecar(tmp_path) -> None:
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(rgb_frame(2, 2, (1, 2, 3)) + rgb_frame(2, 2, (4, 5, 6)))
    (tmp_path / "clip.rgb.json").write_text(
        json.dumps({"width": 2, "height": 2, "fps_num": 24, "fps_den": 1})
    )
    reader = RawRgbReader(raw)
    frames = list(reader)
    assert [f.index for f in frames] == [0, 1]
    assert frames[1].data[:3] == bytes([4, 5, 6])


def test_raw_rgb_trailing_bytes_are_a_truncated_frame(tmp_path) -> None:
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(rgb_frame(2, 2, (9, 9, 9)) + b"\x00\x01")
    (tmp_path / "clip.rgb.json").write_text(
        json.dumps({"width": 2, "height": 2, "fps_num": 24, "fps_den": 1})
    )
    reader = RawRgbReader(raw)
    with pytest.raises(MediaFormatError, match="raw rgb24: frame 1 truncated"):
        list(reader)


def test_raw_rgb_frame_larger_than_file_is_truncated(tmp_path) -> None:
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(bytes(8))
    (tmp_path / "clip.rgb.json").write_text(
        json.dumps({"width": 99999999, "height": 99999999, "fps_num": 24, "fps_den": 1})
    )
    reader = RawRgbReader(raw)
    with pytest.raises(MediaFormatError, match="frame 0 truncated \\(8 of"):
        list(reader)


def test_raw_rgb_from_a_pipe_yields_every_frame(tmp_path) -> None:
    # a pipe has no size to count frames from; each frame is read as it comes
    fifo = tmp_path / "f.rgb"
    os.mkfifo(fifo)
    (tmp_path / "f.rgb.json").write_text(
        json.dumps({"width": 4, "height": 2, "fps_num": 24, "fps_den": 1})
    )
    frames = [rgb_frame(4, 2, (v, v, v)) for v in range(10)]
    with feeding(fifo, b"".join(frames)):
        got = [frame.data for frame in RawRgbReader(fifo)]
    assert got == frames


SIDECAR = {"width": 2, "height": 2, "fps_num": 24, "fps_den": 1}


@pytest.mark.parametrize("doc, fault", [
    (dict(SIDECAR, codec="none"), "unknown key 'codec'"),
    ({"width": 2, "height": 2, "fps_num": 24}, "fps_den is required"),
    (dict(SIDECAR, width=0), "width must lie in [1, inf)"),
    (dict(SIDECAR, height=True), "height must be an integer"),
    (dict(SIDECAR, fps_num=2.5), "fps_num must be an integer"),
    ([2, 2, 24, 1], "top level must be an object"),
    # fields are checked in the order they are declared
    (dict(SIDECAR, fps_den=0, width="2"), "width must be an integer"),
], ids=["unknown key", "missing key", "zero", "boolean", "fraction", "list", "order"])
def test_sidecar_fault_gives_its_message(tmp_path, doc, fault) -> None:
    side = tmp_path / "clip.rgb.json"
    side.write_text(json.dumps(doc))
    with pytest.raises(MediaFormatError) as err:
        read_sidecar(side)
    assert str(err.value) == "sidecar %s: %s" % (side, fault)


def test_open_source_dispatch(tmp_path) -> None:
    y4m = tmp_path / "a.y4m"
    y4m.write_bytes(build_y4m(2, 2, [y4m_frame_420(2, 2, 128)]))
    with open_source(y4m) as reader:
        assert isinstance(reader, Y4MReader)

    single = tmp_path / "one.ppm"
    single.write_bytes(build_ppm(1, 1, bytes(3)))
    with open_source(single) as reader:
        assert isinstance(reader, ImageSequenceReader)

    seq_dir = tmp_path / "seq"
    seq_dir.mkdir()
    (seq_dir / "f0.pgm").write_bytes(build_ppm(1, 1, bytes(1), magic=b"P5"))
    with open_source(seq_dir) as reader:
        assert isinstance(reader, ImageSequenceReader)

    raw = tmp_path / "clip.rgb"
    raw.write_bytes(rgb_frame(1, 1, (0, 0, 0)))
    (tmp_path / "clip.rgb.json").write_text(
        json.dumps({"width": 1, "height": 1, "fps_num": 25, "fps_den": 1})
    )
    with open_source(raw) as reader:
        assert isinstance(reader, RawRgbReader)

    with pytest.raises(MediaFormatError):
        open_source(tmp_path / "missing.xyz")


def test_y4m_444_frame_shape() -> None:
    stream = build_y4m(3, 2, [y4m_frame_444(3, 2, 77)], colorspace=b"C444")
    frames = y4m_frames(stream)
    assert len(frames) == 1
    assert len(frames[0].data) == 3 * 3 * 2
    assert math.isclose(frames[0].data[0], 77)
