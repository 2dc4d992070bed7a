"""Container parsing: Y4M streams, PPM/PGM images, raw RGB dumps."""

from __future__ import annotations

import io
import json
import math
import os
import threading

import pytest
from hypothesis import given, strategies as st

from lumascore.ingest import (
    BadFrameMarker,
    ImageSequenceReader,
    MediaFormatError,
    MissingRequiredToken,
    MissingSignature,
    PixelFormat,
    RawRgbReader,
    SidecarError,
    StreamInfo,
    TruncatedFrame,
    TruncatedPixelData,
    UnsupportedColorspace,
    UnsupportedMagic,
    UnsupportedMaxval,
    Y4MReader,
    open_source,
    parse_y4m_header,
    read_ppm,
    read_sidecar,
)
from _synth import build_ppm, build_y4m, rgb_frame, y4m_frame_420, y4m_frame_444


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
    with pytest.raises(MissingSignature):
        parse_y4m_header(b"YUV4MPEG W2 H2 F24:1\n")


def test_y4m_header_missing_framerate() -> None:
    with pytest.raises(MissingRequiredToken):
        parse_y4m_header(b"YUV4MPEG2 W2 H2\n")


def test_y4m_header_rejects_unknown_colorspace() -> None:
    with pytest.raises(UnsupportedColorspace):
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
    reader = Y4MReader(io.BytesIO(stream))
    seen = list(reader)
    assert [f.index for f in seen] == [0, 1, 2]
    assert [f.data[0] for f in seen] == [10, 200, 90]


def test_y4m_truncated_frame() -> None:
    stream = build_y4m(2, 2, [y4m_frame_420(2, 2, 50)[:-1]])
    with pytest.raises(TruncatedFrame):
        list(Y4MReader(io.BytesIO(stream)))


def test_y4m_frame_larger_than_file_is_truncated(tmp_path) -> None:
    # the claimed frame is ~10 PB; the reader must not try to allocate it
    path = tmp_path / "huge.y4m"
    path.write_bytes(b"YUV4MPEG2 W99999999 H99999999 F24:1 C420\nFRAME\n" + bytes(64))
    with Y4MReader(path) as reader:
        with pytest.raises(TruncatedFrame, match="frame 0 truncated \\(64 of"):
            list(reader)


def _pipe_source(payload: bytes):
    """Read end of a pipe, opened as a file, and the thread writing ``payload``
    into it and then closing it."""
    read_fd, write_fd = os.pipe()

    def write() -> None:
        with os.fdopen(write_fd, "wb") as sink:
            sink.write(payload)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return os.fdopen(read_fd, "rb"), writer


def test_y4m_pipe_frame_larger_than_stream_is_truncated() -> None:
    # a pipe has no size to check, so the claimed ~10 PB frame must be read
    # in bounded chunks until EOF instead of being allocated up front
    source, writer = _pipe_source(
        b"YUV4MPEG2 W99999999 H99999999 F24:1 C420\nFRAME\n" + bytes(64))
    with source, Y4MReader(source) as reader:
        with pytest.raises(TruncatedFrame, match="frame 0 truncated \\(64 of"):
            list(reader)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_y4m_pipe_frames_span_read_chunks() -> None:
    # 1024x1024 4:2:0 frames are 1.5 MiB, more than one read chunk each
    frames = [y4m_frame_420(1024, 1024, 60 + k, chroma=k) for k in range(2)]
    stream = build_y4m(1024, 1024, frames)
    source, writer = _pipe_source(stream)
    with source, Y4MReader(source) as reader:
        assert [frame.data for frame in reader] == frames
    writer.join(timeout=10)
    assert not writer.is_alive()


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
    with pytest.raises(MissingRequiredToken):
        Y4MReader(path)
    assert len(opened) == 1 and opened[0].closed


def test_y4m_bad_frame_marker() -> None:
    good = y4m_frame_420(2, 2, 50)
    stream = b"YUV4MPEG2 W2 H2 F24:1 C420\nFRAME\n" + good + b"FRAMX\n" + good
    with pytest.raises(BadFrameMarker):
        list(Y4MReader(io.BytesIO(stream)))


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
    seen = list(Y4MReader(io.BytesIO(stream)))
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
    with pytest.raises(UnsupportedMaxval):
        read_ppm(build_ppm(1, 1, bytes(6), maxval=65535))


def test_ppm_rejects_unknown_magic() -> None:
    with pytest.raises(UnsupportedMagic):
        read_ppm(b"P3\n1 1\n255\n1 2 3\n")


def test_ppm_truncated_raster() -> None:
    with pytest.raises(TruncatedPixelData):
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
    assert reader.info.frame_count == 3


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
    assert reader.info.frame_count == 2
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
    assert reader.info.frame_count == 1
    with pytest.raises(TruncatedFrame):
        list(reader)


def test_raw_rgb_frame_larger_than_file_is_truncated(tmp_path) -> None:
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(bytes(8))
    (tmp_path / "clip.rgb.json").write_text(
        json.dumps({"width": 99999999, "height": 99999999, "fps_num": 24, "fps_den": 1})
    )
    reader = RawRgbReader(raw)
    assert reader.info.frame_count == 0
    with pytest.raises(TruncatedFrame, match="frame 0 truncated \\(8 of"):
        list(reader)


def test_sidecar_rejects_extra_keys(tmp_path) -> None:
    side = tmp_path / "clip.rgb.json"
    side.write_text(json.dumps(
        {"width": 2, "height": 2, "fps_num": 24, "fps_den": 1, "codec": "none"}
    ))
    with pytest.raises(SidecarError):
        read_sidecar(side)


def test_sidecar_rejects_missing_key(tmp_path) -> None:
    side = tmp_path / "clip.rgb.json"
    side.write_text(json.dumps({"width": 2, "height": 2, "fps_num": 24}))
    with pytest.raises(SidecarError):
        read_sidecar(side)


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
    frames = list(Y4MReader(io.BytesIO(stream)))
    assert len(frames) == 1
    assert len(frames[0].data) == 3 * 3 * 2
    assert math.isclose(frames[0].data[0], 77)
