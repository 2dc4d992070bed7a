"""Per-frame brightness measurements and curve extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumascore.ingest import Frame, PixelFormat, StreamInfo
from lumascore.photometry import (
    CHANNEL_ORDER,
    ChannelUnavailable,
    CurveChannel,
    EmptyStream,
    _contrast_keys,
    _square_sum,
    extract_curves,
    frame_channel_mean,
    frame_contrast,
    frame_luma_mean,
)

from _synth import unit_noise


def rgb_frame(pixels, index=0):
    """Build an RGB24 frame from a list of (r, g, b) byte triples."""
    data = bytes(c for px in pixels for c in px)
    return Frame(index, len(pixels), 1, PixelFormat.RGB24, data)


def gray_frame(values, index=0):
    return Frame(index, len(values), 1, PixelFormat.GRAY8, bytes(values))


def y4m_frame(y_values, index=0):
    """4:4:4 planar frame with a given Y plane and neutral chroma."""
    n = len(y_values)
    data = bytes(y_values) + bytes([128] * n) * 2
    return Frame(index, n, 1, PixelFormat.Y4M_444, data)


def luma_oracle(pixels):
    """Naive per-pixel reference: exact summation over weighted pixels."""
    terms = [(0.299 * r + 0.587 * g + 0.114 * b) / 255.0 for r, g, b in pixels]
    return math.fsum(terms) / len(terms)


def contrast_plane_oracle(frame, method):
    """The float-plane contrast that integer keys replaced: per-pixel float64
    luma, then its population std or the nearest-rank 95th minus 5th
    percentile of a full sort."""
    arr = np.frombuffer(frame.data, dtype=np.uint8)
    pixels = frame.width * frame.height
    if frame.pixel_format is PixelFormat.RGB24:
        rgb = arr[:3 * pixels].reshape(pixels, 3).astype(np.float64)
        red, green, blue = rgb[:, 0], rgb[:, 1], rgb[:, 2]
        luma = (blue + 0.299 * (red - blue) + 0.587 * (green - blue)) / 255.0
    elif frame.pixel_format is PixelFormat.GRAY8:
        luma = arr[:pixels].astype(np.float64) / 255.0
    else:
        luma = np.clip((arr[:pixels].astype(np.float64) - 16.0) / 219.0, 0.0, 1.0)
    if method == "rms":
        return 0.0 if np.ptp(luma) == 0.0 else float(luma.std())
    ordered = np.sort(luma)
    n = len(ordered)
    return float(ordered[(95 * n + 99) // 100 - 1] - ordered[(5 * n + 99) // 100 - 1])


def exact_keys(frame):
    """Per-pixel integer luma keys in Python ints, straight from the bytes."""
    pixels = frame.width * frame.height
    data = frame.data
    if frame.pixel_format is PixelFormat.RGB24:
        return [299 * data[3 * i] + 587 * data[3 * i + 1] + 114 * data[3 * i + 2]
                for i in range(pixels)]
    if frame.pixel_format is PixelFormat.GRAY8:
        return list(data[:pixels])
    return [min(235, max(16, code)) - 16 for code in data[:pixels]]


class ListSource:
    """Minimal frame source: a StreamInfo plus an in-memory frame list."""

    def __init__(self, info, frames):
        self.info = info
        self._frames = list(frames)

    def __iter__(self):
        return iter(self._frames)


def gray_source(frame_values, fps=(24, 1)):
    width = len(frame_values[0])
    info = StreamInfo(width, 1, fps[0], fps[1], PixelFormat.GRAY8)
    frames = [gray_frame(v, index=i) for i, v in enumerate(frame_values)]
    return ListSource(info, frames)


class TestFrameLumaMean:
    def test_all_black_rgb_is_zero(self):
        frame = rgb_frame([(0, 0, 0)] * 12)
        assert frame_luma_mean(frame) == 0.0

    def test_all_white_rgb_is_one(self):
        frame = rgb_frame([(255, 255, 255)] * 12)
        assert frame_luma_mean(frame) == 1.0

    def test_half_black_half_white_is_half(self):
        frame = rgb_frame([(0, 0, 0), (255, 255, 255)])
        assert frame_luma_mean(frame) == pytest.approx(0.5, abs=1e-12)

    def test_matches_per_pixel_oracle(self):
        noise = unit_noise(2024, 3 * 500)
        raw = [int(u * 256) % 256 for u in noise]
        pixels = [tuple(raw[3 * i:3 * i + 3]) for i in range(500)]
        frame = rgb_frame(pixels)
        assert frame_luma_mean(frame) == pytest.approx(
            luma_oracle(pixels), abs=1e-12
        )

    def test_gray_frame_is_mean_over_255(self):
        frame = gray_frame([128] * 9)
        assert frame_luma_mean(frame) == pytest.approx(128.0 / 255.0, abs=1e-15)

    def test_y4m_uses_limited_range_scale(self):
        # code 16 is black, 235 is white, out-of-range codes clamp
        frame = y4m_frame([16, 235, 0, 255, 126])
        expected = (0.0 + 1.0 + 0.0 + 1.0 + 110.0 / 219.0) / 5.0
        assert frame_luma_mean(frame) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_gray_mean_is_exact_code_sum_over_255n(self, codes):
        frame = gray_frame(codes)
        assert frame_luma_mean(frame) == sum(codes) / (255.0 * len(codes))

    @pytest.mark.parametrize("pixels", [2 ** 32 // 255, 2 ** 32 // 255 + 1])
    def test_white_gray_frame_sum_does_not_wrap(self, pixels):
        # 255 * pixels crosses 2**32 between the two sizes
        frame = Frame(0, pixels, 1, PixelFormat.GRAY8, bytes([255]) * pixels)
        assert frame_luma_mean(frame) == 1.0

    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from((PixelFormat.Y4M_420, PixelFormat.Y4M_444)),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_y4m_mean_is_exact_clamped_sum(self, width, height, pixel_format, data):
        # codes below 16 and above 235 clamp; the chroma planes never count
        n = width * height
        info = StreamInfo(width, height, 24, 1, pixel_format)
        y = data.draw(st.lists(
            st.one_of(st.integers(0, 15), st.integers(236, 255), st.integers(0, 255)),
            min_size=n, max_size=n,
        ))
        chroma = data.draw(st.binary(
            min_size=info.bytes_per_frame - n, max_size=info.bytes_per_frame - n,
        ))
        frame = Frame(0, width, height, pixel_format, bytes(y) + chroma)
        clamped = sum(min(235, max(16, code)) for code in y)
        assert frame_luma_mean(frame) == (clamped - 16 * n) / (219.0 * n)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
            ),
            min_size=1,
            max_size=64,
        ),
        st.lists(st.integers(0, 255), min_size=64, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_brightening_never_darkens(self, pixels, boosts):
        brighter = [
            tuple(min(255, c + boosts[(3 * i + k) % len(boosts)])
                  for k, c in enumerate(px))
            for i, px in enumerate(pixels)
        ]
        assert frame_luma_mean(rgb_frame(brighter)) >= frame_luma_mean(
            rgb_frame(pixels)
        )


class TestFrameChannelMean:
    def test_pure_red_frame_red_channel(self):
        frame = rgb_frame([(255, 0, 0)] * 6)
        assert frame_channel_mean(frame, CurveChannel.RED) == 1.0

    def test_pure_red_frame_green_channel(self):
        frame = rgb_frame([(255, 0, 0)] * 6)
        assert frame_channel_mean(frame, CurveChannel.GREEN) == 0.0

    def test_channel_means_are_independent(self):
        frame = rgb_frame([(10, 20, 30), (20, 40, 60)])
        assert frame_channel_mean(frame, CurveChannel.RED) == pytest.approx(
            15.0 / 255.0
        )
        assert frame_channel_mean(frame, CurveChannel.GREEN) == pytest.approx(
            30.0 / 255.0
        )
        assert frame_channel_mean(frame, CurveChannel.BLUE) == pytest.approx(
            45.0 / 255.0
        )

    def test_gray_frame_has_no_color_planes(self):
        with pytest.raises(ChannelUnavailable):
            frame_channel_mean(gray_frame([7, 7]), CurveChannel.BLUE)

    def test_luma_is_not_a_plane_channel(self):
        with pytest.raises(ChannelUnavailable):
            frame_channel_mean(rgb_frame([(1, 2, 3)]), CurveChannel.LUMA)


class TestFrameContrast:
    def test_uniform_frame_has_zero_rms(self):
        assert frame_contrast(gray_frame([77] * 20), "rms") == 0.0

    def test_half_black_half_white_rms_is_half(self):
        frame = rgb_frame([(0, 0, 0), (255, 255, 255)] * 8)
        assert frame_contrast(frame, "rms") == pytest.approx(0.5, abs=1e-9)

    def test_rms_matches_population_std_oracle(self):
        values = [int(u * 256) % 256 for u in unit_noise(77, 100)]
        frame = gray_frame(values)
        lumas = [v / 255.0 for v in values]
        mean = math.fsum(lumas) / len(lumas)
        var = math.fsum((x - mean) ** 2 for x in lumas) / len(lumas)
        assert frame_contrast(frame, "rms") == pytest.approx(
            math.sqrt(var), abs=1e-12
        )

    def test_spread_on_100_pixels_matches_nearest_rank_oracle(self):
        values = [int(u * 256) % 256 for u in unit_noise(5150, 100)]
        frame = gray_frame(values)
        ordered = sorted(v / 255.0 for v in values)
        hi = math.ceil(0.95 * len(ordered))  # 1-based nearest rank
        lo = math.ceil(0.05 * len(ordered))
        expected = ordered[hi - 1] - ordered[lo - 1]
        assert frame_contrast(frame, "spread") == pytest.approx(
            expected, abs=1e-15
        )

    def test_spread_small_frame_uses_ceiling_ranks(self):
        # n=7: rank ceil(6.65)=7 and ceil(0.35)=1, so spread = max - min
        values = [40, 10, 200, 90, 120, 250, 0]
        frame = gray_frame(values)
        assert frame_contrast(frame, "spread") == pytest.approx(
            250.0 / 255.0, abs=1e-15
        )

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_rms_is_zero_iff_constant(self, values):
        rms = frame_contrast(gray_frame(values), "rms")
        if len(set(values)) == 1:
            assert rms == 0.0
        else:
            assert rms > 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            frame_contrast(gray_frame([1]), "minmax")


# set before the comparison was run: ~45 ulp of 1.0, far above the few-ulp
# rounding differences between float-plane and integer-key arithmetic
ORACLE_ABS_TOL = 1e-14
ALL_FORMATS = (PixelFormat.RGB24, PixelFormat.GRAY8,
               PixelFormat.Y4M_420, PixelFormat.Y4M_444)


@st.composite
def frames(draw):
    """A small frame of any pixel format: random codes, one flat code, or two
    codes; Y4M codes often fall below 16 or above 235."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    fmt = draw(st.sampled_from(ALL_FORMATS))
    size = StreamInfo(width, height, 24, 1, fmt).bytes_per_frame
    codes = st.one_of(st.integers(0, 15), st.integers(236, 255), st.integers(0, 255))
    palette = draw(st.lists(codes, min_size=1, max_size=2))
    kind = draw(st.sampled_from(("random", "palette")))
    if kind == "random":
        data = draw(st.binary(min_size=size, max_size=size))
    else:
        data = bytes(draw(st.lists(st.sampled_from(palette), min_size=size, max_size=size)))
    return Frame(0, width, height, fmt, data)


class TestContrastAgainstFloatPlane:
    @given(frames())
    @settings(max_examples=300, deadline=None)
    def test_matches_float_plane_oracle(self, frame):
        for method in ("rms", "spread"):
            assert abs(frame_contrast(frame, method)
                       - contrast_plane_oracle(frame, method)) <= ORACLE_ABS_TOL

    @given(frames())
    @settings(max_examples=200, deadline=None)
    def test_rms_is_zero_exactly_when_all_keys_are_equal(self, frame):
        rms = frame_contrast(frame, "rms")
        if len(set(exact_keys(frame))) == 1:
            assert rms == 0.0
        else:
            assert rms > 0.0

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_full_size_noise_matches_oracle(self, fmt):
        rng = np.random.default_rng(2027)
        size = StreamInfo(640, 480, 24, 1, fmt).bytes_per_frame
        for _ in range(3):
            frame = Frame(0, 640, 480, fmt, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            for method in ("rms", "spread"):
                assert abs(frame_contrast(frame, method)
                           - contrast_plane_oracle(frame, method)) <= ORACLE_ABS_TOL

    @given(frames())
    @settings(max_examples=100, deadline=None)
    def test_keys_are_exact(self, frame):
        keys, scale = _contrast_keys(frame)
        assert [int(k) for k in keys] == exact_keys(frame)
        white = {PixelFormat.RGB24: 255000, PixelFormat.GRAY8: 255,
                 PixelFormat.Y4M_420: 219, PixelFormat.Y4M_444: 219}
        assert scale == white[frame.pixel_format]


class TestSquareSum:
    @given(st.lists(st.integers(0, 255000), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_chunked_sum_equals_unchunked(self, values):
        keys = np.array(values, dtype=np.int32)
        exact = sum(v * v for v in values)
        # a bound of 2**30 cuts the keys into chunks of 7 squares; the RGB
        # bound keeps them in one chunk
        assert _square_sum(keys, 2 ** 30) == exact
        assert _square_sum(keys, 255000) == exact
        assert int((keys.astype(np.int64) ** 2).sum()) == exact

    def test_chunks_keep_a_sum_that_would_wrap_int64(self):
        # each chunk holds 3 squares of the bound; ten of them overflow int64
        bound = math.isqrt((2 ** 63 - 1) // 3)
        assert (2 ** 63 - 1) // (bound * bound) == 3
        keys = np.full(10, bound, dtype=np.int64)
        assert _square_sum(keys, bound) == 10 * bound * bound
        assert 10 * bound * bound > 2 ** 63 - 1


class TestExtractCurves:
    def test_black_gray_white_luma_curve(self):
        source = gray_source([[0, 0], [128, 128], [255, 255]])
        curves = extract_curves(source, [CurveChannel.LUMA])
        luma = curves[CurveChannel.LUMA]
        assert luma.sample_rate == 24.0
        assert luma.t0 == 0.0
        assert list(luma.values) == pytest.approx(
            [0.0, 128.0 / 255.0, 1.0], abs=1e-12
        )

    def test_no_channels_rejected(self):
        source = gray_source([[1]])
        with pytest.raises(ValueError):
            extract_curves(source, [])

    def test_empty_stream_rejected(self):
        info = StreamInfo(2, 2, 24, 1, PixelFormat.GRAY8)
        with pytest.raises(EmptyStream):
            extract_curves(ListSource(info, []), [CurveChannel.LUMA])

    def test_ramp_video_gives_increasing_curve(self):
        frames = [[int(round(25.5 * i))] * 4 for i in range(10)]
        source = gray_source(frames)
        luma = extract_curves(source, [CurveChannel.LUMA])[CurveChannel.LUMA]
        diffs = np.diff(luma.values)
        assert np.all(diffs > 0)

    def test_fractional_fps_becomes_real_rate(self):
        source = gray_source([[0], [1]], fps=(30000, 1001))
        luma = extract_curves(source)[CurveChannel.LUMA]
        assert luma.sample_rate == pytest.approx(30000.0 / 1001.0)

    def test_duplicate_channels_collapse(self):
        source = gray_source([[10, 20]])
        curves = extract_curves(
            source, [CurveChannel.LUMA, CurveChannel.LUMA]
        )
        assert set(curves.curves) == {CurveChannel.LUMA}

    def test_thread_count_does_not_change_bytes(self):
        values = [int(u * 256) % 256 for u in unit_noise(31337, 600)]
        frames = [values[6 * i:6 * i + 6] for i in range(100)]
        wanted = [
            CurveChannel.LUMA,
            CurveChannel.CONTRAST_RMS,
            CurveChannel.CONTRAST_SPREAD,
        ]
        serial = extract_curves(gray_source(frames), wanted, workers=1)
        threaded = extract_curves(gray_source(frames), wanted, workers=4)
        for channel in wanted:
            assert (
                serial[channel].values.tobytes()
                == threaded[channel].values.tobytes()
            )

    def test_rgb_six_channels_thread_count_does_not_change_bytes(self):
        # every channel shares the per-frame plane sums and contrast keys
        rng = np.random.default_rng(4242)
        info = StreamInfo(16, 9, 24, 1, PixelFormat.RGB24)
        frames = [Frame(i, 16, 9, PixelFormat.RGB24,
                        rng.integers(0, 256, info.bytes_per_frame, dtype=np.uint8).tobytes())
                  for i in range(120)]
        serial = extract_curves(ListSource(info, frames), CHANNEL_ORDER, workers=1)
        threaded = extract_curves(ListSource(info, frames), CHANNEL_ORDER, workers=4)
        for channel in CHANNEL_ORDER:
            assert (serial[channel].values.tobytes()
                    == threaded[channel].values.tobytes())

    def test_rgb_shared_sums_equal_single_channel_calls(self):
        rng = np.random.default_rng(99)
        info = StreamInfo(7, 5, 24, 1, PixelFormat.RGB24)
        frames = [Frame(i, 7, 5, PixelFormat.RGB24,
                        rng.integers(0, 256, info.bytes_per_frame, dtype=np.uint8).tobytes())
                  for i in range(40)]
        curves = extract_curves(ListSource(info, frames), CHANNEL_ORDER)
        single = {
            CurveChannel.LUMA: frame_luma_mean,
            CurveChannel.CONTRAST_RMS: lambda f: frame_contrast(f, "rms"),
            CurveChannel.CONTRAST_SPREAD: lambda f: frame_contrast(f, "spread"),
        }
        for channel in CHANNEL_ORDER:
            measure = single.get(channel, lambda f, c=channel: frame_channel_mean(f, c))
            expected = np.array([measure(f) for f in frames])
            assert curves[channel].values.tobytes() == expected.tobytes()

    def test_hard_cuts_mark_the_only_nonzero_differences(self):
        # constant-brightness shots joined by hard cuts
        shots = [(40, 7), (200, 5), (90, 9), (250, 4)]
        frames = []
        for level, length in shots:
            frames.extend([[level] * 3] * length)
        luma = extract_curves(gray_source(frames))[CurveChannel.LUMA]
        diffs = np.diff(luma.values)
        cut_positions = {i for i, d in enumerate(diffs) if d != 0.0}
        boundaries = set(np.cumsum([length for _, length in shots])[:-1] - 1)
        assert cut_positions == boundaries
