"""Per-frame brightness measurements and curve extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumascore.ingest import Frame, PixelFormat, StreamInfo
from lumascore.photometry import (
    ChannelUnavailable,
    CurveChannel,
    EmptyStream,
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
