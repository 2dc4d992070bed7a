"""Per-frame brightness measurements and curve extraction."""

import contextlib
import itertools
import json
import math
import mmap
import os
import signal
import threading
import time
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumascore import ingest, photometry
from lumascore.ingest import (
    Frame,
    FrameSource,
    MediaFormatError,
    PixelFormat,
    RawRgbReader,
    StreamInfo,
    Y4MReader,
    frame_codes,
    open_source,
)
from lumascore.photometry import (
    BrightnessCurve,
    CurveChannel,
    CurveSet,
    _lane_sums,
    _luma_keys,
    _measure,
    _measure_frame,
    _spread,
    _square_sum,
    extract_curves,
    frame_channel_mean,
    frame_contrast,
    frame_luma_mean,
)
from lumascore.report import write_curves_csv

from _synth import build_ppm, build_y4m, feeding, unit_noise


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


def frame_keys(frame):
    """The luma keys of one frame and their scale."""
    keys, scale = _luma_keys(frame_codes(frame), frame.width * frame.height,
                             frame.pixel_format)
    return keys[0], scale


class ListSource(FrameSource):
    """Minimal frame source: a StreamInfo plus an in-memory frame list, each
    frame claimed whole."""

    def __init__(self, info, frames):
        self.info = info
        self._frames = list(frames)

    def __iter__(self):
        yield from self._frames


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
        with pytest.raises(ValueError, match="channel blue requires RGB24 input"):
            frame_channel_mean(gray_frame([7, 7]), CurveChannel.BLUE)

    def test_luma_is_not_a_plane_channel(self):
        with pytest.raises(ValueError, match="channel luma is not an RGB plane"):
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
        with pytest.raises(ValueError, match="^unknown contrast method 'minmax'$"):
            frame_contrast(gray_frame([1]), "minmax")


# set before the comparison was run: ~45 ulp of 1.0, far above the few-ulp
# rounding differences between float-plane and integer-key arithmetic
ORACLE_ABS_TOL = 1e-14
ALL_FORMATS = (PixelFormat.RGB24, PixelFormat.GRAY8,
               PixelFormat.Y4M_420, PixelFormat.Y4M_444)
# the key of white in each format, so that luma = key / WHITE
WHITE = {PixelFormat.RGB24: 255000, PixelFormat.GRAY8: 255,
         PixelFormat.Y4M_420: 219, PixelFormat.Y4M_444: 219}


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
        keys, scale = frame_keys(frame)
        assert [int(k) for k in keys] == exact_keys(frame)
        assert scale == WHITE[frame.pixel_format]

    def test_rgb_keys_are_exact_across_blocks(self):
        # a run of two 640x480 frames fills nine blocks of keys and part of a
        # tenth; the eight corner colours reach the largest key, 255000
        rng = np.random.default_rng(601)
        codes = rng.integers(0, 256, (2, 3 * 640 * 480), dtype=np.uint8)
        codes[0, :24] = [c for rgb in itertools.product((0, 255), repeat=3) for c in rgb]
        keys, _ = _luma_keys(codes, 640 * 480, PixelFormat.RGB24)
        wide = codes.astype(np.int64)
        assert keys.dtype == np.int32
        assert np.array_equal(keys, 299 * wide[:, 0::3] + 587 * wide[:, 1::3]
                              + 114 * wide[:, 2::3])


def exact_luma_mean(frame):
    """The correctly rounded mean of the exact keys over the key of white."""
    keys = exact_keys(frame)
    return float(Fraction(sum(keys), WHITE[frame.pixel_format] * len(keys)))


class TestOneLumaDefinition:
    """The mean luma is the mean of the same keys that contrast reads."""

    @given(frames())
    @settings(max_examples=120, deadline=None)
    def test_mean_is_the_exact_key_mean(self, frame):
        assert frame_luma_mean(frame) == exact_luma_mean(frame)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_frames_longer_than_a_lane_row(self, fmt):
        # 97 x 53 RGB24 pixels fill five 3072-byte lane rows and part of a sixth
        rng = np.random.default_rng(601)
        size = StreamInfo(97, 53, 24, 1, fmt).bytes_per_frame
        for _ in range(3):
            frame = Frame(0, 97, 53, fmt, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            assert frame_luma_mean(frame) == exact_luma_mean(frame)


def exact_rms(frame):
    """The population standard deviation of the exact keys over the key of
    white, from Python-int moments: n**2 var = n sum(k**2) - sum(k)**2."""
    keys = exact_keys(frame)
    n = len(keys)
    moment = n * sum(k * k for k in keys) - sum(keys) ** 2
    return math.sqrt(moment) / (n * WHITE[frame.pixel_format])


@st.composite
def runs(draw):
    """One to three frames of one format and size, measured as one run."""
    first = draw(frames())
    size = len(first.data)
    more = draw(st.lists(st.binary(min_size=size, max_size=size), max_size=2))
    return [first] + [Frame(i, first.width, first.height, first.pixel_format, data)
                      for i, data in enumerate(more, 1)]


def measure_run(frames, channels):
    """``_measure`` of the frames as one run, one dict of samples per frame."""
    first = frames[0]
    codes = np.concatenate([frame_codes(frame) for frame in frames])
    rows = _measure(codes, first.width * first.height, first.pixel_format, channels)
    return [dict(zip(channels, row)) for row in rows]


RMS, LUMA, SPREAD = (CurveChannel.CONTRAST_RMS, CurveChannel.LUMA,
                     CurveChannel.CONTRAST_SPREAD)
# rms alone, before and after the mean, and beside spread, which reorders
# wide keys in place before or after rms reads them
RMS_ORDERS = ((RMS,), (RMS, LUMA), (LUMA, RMS), (SPREAD, RMS), (RMS, SPREAD),
              (SPREAD, LUMA, RMS))


def flat_frame(fmt, width, height, code):
    size = StreamInfo(width, height, 24, 1, fmt).bytes_per_frame
    return Frame(0, width, height, fmt, bytes([code]) * size)


class TestOneKeySum:
    """Each frame's key sum is taken once and serves the mean and rms."""

    @staticmethod
    def check(frames, order):
        for frame, samples in zip(frames, measure_run(frames, order), strict=True):
            assert samples[RMS] == exact_rms(frame)
            if LUMA in samples:
                assert samples[LUMA] == exact_luma_mean(frame)

    @given(runs(), st.sampled_from(RMS_ORDERS))
    @settings(max_examples=300, deadline=None)
    def test_rms_is_the_exact_moment_std(self, frames, order):
        self.check(frames, order)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("order", RMS_ORDERS)
    def test_black_white_and_one_pixel_frames(self, fmt, order):
        edges = [flat_frame(fmt, 9, 7, 0), flat_frame(fmt, 9, 7, 255),
                 flat_frame(fmt, 1, 1, 0), flat_frame(fmt, 1, 1, 201)]
        for frame in edges:
            self.check([frame], order)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("order", RMS_ORDERS)
    def test_one_lane_sum_per_run(self, monkeypatch, fmt, order):
        # the RGB24 key sum comes from the plane sums, the 8-bit one from the
        # keys; either way the mean and rms share one reduction of the run
        lanes = []

        def recording(codes, count):
            lanes.append(count)
            return _lane_sums(codes, count)

        monkeypatch.setattr(photometry, "_lane_sums", recording)
        rng = np.random.default_rng(28)
        size = StreamInfo(64, 48, 24, 1, fmt).bytes_per_frame
        frames = [Frame(i, 64, 48, fmt, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
                  for i in range(3)]
        self.check(frames, order)
        assert lanes == [3 if fmt is PixelFormat.RGB24 else 1]


def nearest_rank_spread_oracle(keys, scale):
    """Nearest-rank 95th minus 5th percentile of a full sort of the keys."""
    ordered = sorted(int(k) for k in keys)
    n = len(ordered)
    hi = -(-95 * n // 100)  # ceil(0.95 n), 1-based
    lo = -(-5 * n // 100)
    return (ordered[hi - 1] - ordered[lo - 1]) / scale


@st.composite
def wide_keys(draw):
    """int32 RGB24-range or uint8 keys: sizes on both sides of the rank
    boundaries, random, heavily tied, all equal, sorted and reverse-sorted
    orders."""
    n = draw(st.one_of(st.sampled_from((1, 2, 19, 20, 21, 100, 101)),
                       st.integers(1, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dtype, top = draw(st.sampled_from(((np.int32, 255000), (np.uint8, 255))))
    kind = draw(st.sampled_from(("random", "ties", "equal")))
    if kind == "random":
        keys = rng.integers(0, top + 1, n)
    elif kind == "ties":
        keys = rng.choice(rng.integers(0, top + 1, draw(st.integers(2, 4))), n)
    else:
        keys = np.full(n, draw(st.integers(0, top)))
    order = draw(st.sampled_from(("as drawn", "sorted", "reversed")))
    if order != "as drawn":
        keys = np.sort(keys)
        if order == "reversed":
            keys = keys[::-1]
    return keys.astype(dtype)


class TestSpreadSelection:
    # a selection may happen to leave the neighbouring rank in place as well;
    # on these inputs NumPy 2.4's does not, so a selection one rank off shows
    @given(wide_keys())
    @example(np.arange(513, dtype=np.int32) * 7919 % 255001)
    @example(np.arange(3126, dtype=np.int32) * 7919 % 255001)
    @example(np.arange(4957, dtype=np.int32)[::-1])
    @settings(max_examples=400, deadline=None)
    def test_selected_ranks_equal_the_sorted_ranks(self, keys):
        expected = nearest_rank_spread_oracle(keys, 255000)
        work = keys.copy()
        assert _spread(work, 255000) == expected
        # the keys are only reordered, so rms still reads the same moments
        assert np.array_equal(np.sort(work), np.sort(keys))

    @pytest.mark.parametrize("fmt", (PixelFormat.GRAY8, PixelFormat.Y4M_420))
    def test_eight_bit_keys_are_left_in_place(self, fmt):
        rng = np.random.default_rng(8)
        size = StreamInfo(64, 48, 24, 1, fmt).bytes_per_frame
        frame = Frame(0, 64, 48, fmt, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        keys, scale = frame_keys(frame)
        before = keys.copy()
        assert _spread(keys, scale) == nearest_rank_spread_oracle(before, scale)
        assert np.array_equal(keys, before)


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
        # eight-bit keys, as 8-bit frames give them, in the same chunks of 7
        codes = (keys % 256).astype(np.uint8)
        assert _square_sum(codes, 2 ** 30) == sum((v % 256) ** 2 for v in values)

    def test_chunks_keep_a_sum_that_would_wrap_int64(self):
        # each chunk holds 3 squares of the bound; ten of them overflow int64
        bound = math.isqrt((2 ** 63 - 1) // 3)
        assert (2 ** 63 - 1) // (bound * bound) == 3
        keys = np.full(10, bound, dtype=np.int64)
        assert _square_sum(keys, bound) == 10 * bound * bound
        assert 10 * bound * bound > 2 ** 63 - 1


class TestLaneSums:
    # rows of 3072 codes; 257 white rows sum to 65535 per uint16 column,
    # and a block of 258 would wrap
    @pytest.mark.parametrize("pixels", [257 * 3072, 258 * 3072, 258 * 3072 + 1])
    def test_white_gray_frame_sums_exactly(self, pixels):
        codes = np.full(pixels, 255, dtype=np.uint8)
        assert _lane_sums(codes[np.newaxis], 1) == [[255 * pixels]]
        frame = Frame(0, pixels, 1, PixelFormat.GRAY8, codes.tobytes())
        assert frame_luma_mean(frame) == 1.0

    @pytest.mark.parametrize("size", [0, 1, 2, 3071, 3072, 3073, 5 * 3072 + 7])
    def test_tail_shorter_than_a_row(self, size):
        codes = np.frombuffer(bytes(range(251)) * (size // 251 + 1), dtype=np.uint8)[:size]
        assert _lane_sums(codes[np.newaxis], 1) == [[sum(codes.tolist())]]

    @given(st.integers(1, 3 * 3072), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rgb_lanes_equal_strided_plane_sums(self, pixels, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, 3 * pixels, dtype=np.uint8)
        expected = [int(data[lane::3].sum(dtype=np.int64)) for lane in range(3)]
        assert _lane_sums(data[np.newaxis], 3) == [expected]

    @given(st.integers(1, 6), st.integers(0, 3 * 3072 + 5), st.integers(0, 7),
           st.sampled_from([1, 3]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_run_rows_equal_one_frame_at_a_time(self, frames, size, gap, lanes, seed):
        # frames of a run lie ``gap`` marker bytes apart in one buffer
        size -= size % lanes
        stride = size + gap
        data = np.random.default_rng(seed).integers(0, 256, frames * stride, dtype=np.uint8)
        codes = np.ndarray((frames, size), np.uint8, data, strides=(stride, 1))
        expected = [_lane_sums(np.array(row)[np.newaxis], lanes)[0] for row in codes]
        assert _lane_sums(codes, lanes) == expected
        assert expected == [[int(row[lane::lanes].sum(dtype=np.int64)) for lane in range(lanes)]
                            for row in codes]

    @pytest.mark.parametrize("pixels", [1023, 1025, 640 * 480 + 1, 86 * 1024 + 3])
    def test_rgb_channel_means_use_lane_sums(self, pixels):
        data = np.random.default_rng(pixels).integers(0, 256, 3 * pixels, dtype=np.uint8)
        frame = Frame(0, pixels, 1, PixelFormat.RGB24, data.tobytes())
        for lane, channel in enumerate((CurveChannel.RED, CurveChannel.GREEN,
                                        CurveChannel.BLUE)):
            plane = int(data[lane::3].sum(dtype=np.int64))
            assert frame_channel_mean(frame, channel) == plane / (255.0 * pixels)


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
        with pytest.raises(MediaFormatError, match="no frames in input stream"):
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

    @pytest.mark.parametrize("count", (1, 2, 8))
    def test_thread_count_does_not_change_bytes(self, thread_count, count):
        values = [int(u * 256) % 256 for u in unit_noise(31337, 600)]
        frames = [values[6 * i:6 * i + 6] for i in range(100)]
        wanted = (
            CurveChannel.LUMA,
            CurveChannel.CONTRAST_RMS,
            CurveChannel.CONTRAST_SPREAD,
        )
        serial = np.array([_measure_frame(f, wanted) for f in gray_source(frames)])
        thread_count(count)
        threaded = extract_curves(gray_source(frames), wanted)
        for i, channel in enumerate(wanted):
            assert threaded[channel].values.tobytes() == serial[:, i].tobytes()

    @pytest.mark.parametrize("count", (1, 2, 8))
    def test_rgb_six_channels_thread_count_does_not_change_bytes(self, thread_count, count):
        # every channel shares the per-frame plane sums and contrast keys
        rng = np.random.default_rng(4242)
        info = StreamInfo(16, 9, 24, 1, PixelFormat.RGB24)
        frames = [Frame(i, 16, 9, PixelFormat.RGB24,
                        rng.integers(0, 256, info.bytes_per_frame, dtype=np.uint8).tobytes())
                  for i in range(120)]
        wanted = tuple(CurveChannel)
        serial = np.array([_measure_frame(f, wanted) for f in ListSource(info, frames)])
        thread_count(count)
        threaded = extract_curves(ListSource(info, frames), wanted)
        for i, channel in enumerate(wanted):
            assert threaded[channel].values.tobytes() == serial[:, i].tobytes()

    def test_rgb_shared_sums_equal_single_channel_calls(self):
        rng = np.random.default_rng(99)
        info = StreamInfo(7, 5, 24, 1, PixelFormat.RGB24)
        frames = [Frame(i, 7, 5, PixelFormat.RGB24,
                        rng.integers(0, 256, info.bytes_per_frame, dtype=np.uint8).tobytes())
                  for i in range(40)]
        curves = extract_curves(ListSource(info, frames), tuple(CurveChannel))
        single = {
            CurveChannel.LUMA: frame_luma_mean,
            CurveChannel.CONTRAST_RMS: lambda f: frame_contrast(f, "rms"),
            CurveChannel.CONTRAST_SPREAD: lambda f: frame_contrast(f, "spread"),
        }
        for channel in CurveChannel:
            measure = single.get(channel, lambda f, c=channel: frame_channel_mean(f, c))
            expected = np.array([measure(f) for f in frames])
            assert curves[channel].values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("count", (1, 2))
    @pytest.mark.parametrize("order", (
        (CurveChannel.CONTRAST_SPREAD, CurveChannel.CONTRAST_RMS, CurveChannel.LUMA),
        (CurveChannel.CONTRAST_RMS, CurveChannel.CONTRAST_SPREAD),
    ))
    def test_shared_luma_keys_equal_single_channel_calls(self, thread_count, fmt, count,
                                                         order):
        # spread reorders the keys that rms then reads, in either order
        rng = np.random.default_rng(321)
        info = StreamInfo(40, 30, 24, 1, fmt)
        frames = [Frame(i, 40, 30, fmt,
                        rng.integers(0, 256, info.bytes_per_frame, dtype=np.uint8).tobytes())
                  for i in range(12)]
        single = {
            CurveChannel.LUMA: frame_luma_mean,
            CurveChannel.CONTRAST_RMS: lambda f: frame_contrast(f, "rms"),
            CurveChannel.CONTRAST_SPREAD: lambda f: frame_contrast(f, "spread"),
        }
        expected = {channel: np.array([single[channel](f) for f in frames])
                    for channel in order}
        assert _measure_frame(frames[0], order) == tuple(expected[c][0] for c in order)
        thread_count(count)
        curves = extract_curves(ListSource(info, frames), order)
        for channel in order:
            assert curves[channel].values.tobytes() == expected[channel].tobytes()

    @pytest.fixture
    def helpers(self, monkeypatch):
        """Records every thread extract_curves starts."""
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        return started

    @pytest.mark.parametrize("wanted", [
        (CurveChannel.LUMA,),
        (CurveChannel.LUMA, CurveChannel.CONTRAST_RMS),
    ])
    def test_one_pool_of_the_thread_count_for_any_channels(self, helpers, thread_count,
                                                           wanted):
        # means alone are measured beside helpers too: the calling thread
        # and two helpers make three
        values = [int(u * 256) % 256 for u in unit_noise(808, 240)]
        frames = [values[4 * i:4 * i + 4] for i in range(60)]
        thread_count(3)
        extract_curves(gray_source(frames), wanted)
        assert len(helpers) == 2
        assert not any(helper.is_alive() for helper in helpers)

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


def noise_frames(info, count, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, info.bytes_per_frame, dtype=np.uint8).tobytes()
            for _ in range(count)]


def write_sidecar(path, info):
    path.with_name(path.name + ".json").write_text(json.dumps(
        {"width": info.width, "height": info.height, "fps_num": 24, "fps_den": 1}))


@contextlib.contextmanager
def fifo_y4m(path, stream):
    """A Y4M reader over the FIFO at ``path``, fed ``stream``."""
    with feeding(path, stream), Y4MReader(path) as source:
        yield source


@contextlib.contextmanager
def fifo_rgb(path, payload):
    """A raw RGB24 reader over the FIFO at ``path``, fed ``payload``."""
    with feeding(path, payload), RawRgbReader(path) as source:
        yield source


def source_kind(kind, tmp_path):
    """40 frames of seeded 24x18 noise as one kind of source: a function
    opening a fresh source over them, and the channels to measure."""
    if kind in ("gray8_y4m", "y4m_420", "y4m_pipe"):
        gray = kind == "gray8_y4m"
        info = StreamInfo(24, 18, 24, 1, PixelFormat.GRAY8 if gray else PixelFormat.Y4M_420)
        stream = build_y4m(24, 18, noise_frames(info, 40),
                           colorspace=b"Cmono" if gray else b"C420")
        path = tmp_path / "film.y4m"
        if kind == "y4m_pipe":
            os.mkfifo(path)
            return (lambda: fifo_y4m(path, stream),
                    (CurveChannel.LUMA, CurveChannel.CONTRAST_RMS))
        path.write_bytes(stream)
        if gray:
            # means alone
            return lambda: Y4MReader(path), (CurveChannel.LUMA,)
        return lambda: Y4MReader(path), (CurveChannel.LUMA, CurveChannel.CONTRAST_RMS,
                                         CurveChannel.CONTRAST_SPREAD)
    info = StreamInfo(24, 18, 24, 1, PixelFormat.RGB24)
    frames = noise_frames(info, 40)
    if kind == "image_sequence":
        folder = tmp_path / "frames"
        folder.mkdir()
        for i, raster in enumerate(frames):
            (folder / ("f%03d.ppm" % i)).write_bytes(build_ppm(24, 18, raster))
        # the colour means alone
        return lambda: open_source(folder), tuple(CurveChannel)[:4]
    path = tmp_path / "clip.rgb"
    write_sidecar(path, info)
    if kind == "raw_rgb24_fifo":
        os.mkfifo(path)
        return lambda: fifo_rgb(path, b"".join(frames)), tuple(CurveChannel)
    path.write_bytes(b"".join(frames))
    return lambda: RawRgbReader(path), tuple(CurveChannel)


def rows_csv(info, wanted, rows):
    table = np.array(rows, dtype=np.float64)
    return write_curves_csv(CurveSet(info, {
        channel: BrightnessCurve(channel, info.fps, 0.0, table[:, i].copy())
        for i, channel in enumerate(wanted)}))


class TestThreadedSources:
    """``extract_curves`` on every kind of source at several thread counts,
    against the serial loop over the same frames."""

    @pytest.mark.parametrize("count", (1, 2, 8))
    @pytest.mark.parametrize("kind", ("gray8_y4m", "y4m_420", "raw_rgb24", "image_sequence",
                                      "y4m_pipe", "raw_rgb24_fifo"))
    def test_curves_csv_equals_the_serial_loop(self, tmp_path, thread_count, run_bytes, kind,
                                               count):
        opener, wanted = source_kind(kind, tmp_path)
        with opener() as source:
            serial = rows_csv(source.info, wanted, [_measure_frame(f, wanted) for f in source])
        thread_count(count)
        # a Y4M file is one run of all 40 frames, then runs of two to four
        for limit in (ingest._RUN_BYTES, 2000):
            run_bytes(limit)
            with opener() as source:
                assert write_curves_csv(extract_curves(source, wanted)) == serial

    def test_each_thread_measures_its_own_buffer(self, tmp_path, thread_count, run_bytes):
        # a run of two 640x480 frames is read while another thread measures;
        # a buffer shared by two threads changed about one frame in 40 per run
        info = StreamInfo(640, 480, 24, 1, PixelFormat.GRAY8)
        path = tmp_path / "wide.y4m"
        path.write_bytes(build_y4m(640, 480, noise_frames(info, 40), colorspace=b"Cmono"))
        run_bytes(2 * info.bytes_per_frame + 6)
        with Y4MReader(path) as source:
            serial = rows_csv(info, (CurveChannel.LUMA,),
                              [_measure_frame(f, (CurveChannel.LUMA,)) for f in source])
        for count in (2, 8) * 3:
            thread_count(count)
            with Y4MReader(path) as source:
                assert write_curves_csv(extract_curves(source)) == serial

    def test_run_buffers_go_with_their_threads(self, tmp_path, thread_count, run_bytes,
                                               monkeypatch):
        # a helper's buffer goes when the helper ends; the calling thread's
        # stays until the source closes, as extract_stage does before analysis
        class Buffer(mmap.mmap):
            pass

        buffers = []

        def mapped(*args):
            buffers.append(weakref.ref(buffer := Buffer(*args)))
            return buffer

        monkeypatch.setattr(ingest, "mmap", types.SimpleNamespace(mmap=mapped))
        info = StreamInfo(16, 16, 24, 1, PixelFormat.GRAY8)
        path = tmp_path / "film.y4m"
        path.write_bytes(build_y4m(16, 16, noise_frames(info, 200), colorspace=b"Cmono"))
        run_bytes(2 * (info.bytes_per_frame + 6))
        for count in (1, 8):
            thread_count(count)
            with Y4MReader(path) as source:
                extract_curves(source)
                # the calling thread's, which at one thread loaded every run
                alive = [ref for ref in buffers if ref() is not None]
                assert len(alive) == 1 or count > 1 and not alive
            assert all(ref() is None for ref in buffers)

    @pytest.mark.parametrize("count", (1, 2, 8))
    @pytest.mark.parametrize("piped", (False, True), ids=("file", "pipe"))
    def test_frame_larger_than_the_input_is_truncated(self, tmp_path, thread_count, run_bytes,
                                                      count, piped):
        # the claimed frame is ~10 PB: a file's size refuses it at once, as a
        # run of one however small the runs, a pipe's bounded reads when the
        # stream ends
        run_bytes(1)
        stream = b"YUV4MPEG2 W99999999 H99999999 F24:1 C420\nFRAME\n" + bytes(64)
        path = tmp_path / "huge.y4m"
        if piped:
            os.mkfifo(path)
        else:
            path.write_bytes(stream)
        thread_count(count)
        opened = fifo_y4m(path, stream) if piped else Y4MReader(path)
        with opened as source, pytest.raises(MediaFormatError,
                                             match="y4m: frame 0 truncated \\(64 of"):
            extract_curves(source)

    @pytest.mark.parametrize("count", (1, 2, 8))
    def test_truncated_last_frame_of_a_file(self, tmp_path, thread_count, count):
        info = StreamInfo(24, 18, 24, 1, PixelFormat.RGB24)
        path = tmp_path / "clip.rgb"
        write_sidecar(path, info)
        path.write_bytes(b"".join(noise_frames(info, 30)) + bytes(100))
        thread_count(count)
        with pytest.raises(MediaFormatError,
                           match="raw rgb24: frame 30 truncated \\(100 of 1296 bytes\\)"):
            extract_curves(RawRgbReader(path))

    @pytest.mark.parametrize("count", (1, 2, 8))
    def test_no_claim_after_a_failed_one(self, thread_count, count):
        info = StreamInfo(3, 1, 24, 1, PixelFormat.GRAY8)
        calls, loaded = [], []

        class Failing(ListSource):
            def claims(self):
                for frame in self._frames:
                    calls.append(frame.index)
                    if frame.index == 7:
                        raise MediaFormatError("frame 7 is bad")
                    yield frame

            def load(self, claim):
                loaded.append(claim.index)
                return super().load(claim)

        frames = [gray_frame([i, i, i], index=i) for i in range(20)]
        thread_count(count)
        with pytest.raises(MediaFormatError, match="frame 7 is bad"):
            extract_curves(Failing(info, frames))
        assert calls == list(range(8))
        assert sorted(loaded) == list(range(7))

    @pytest.mark.parametrize("count", (1, 2, 8))
    def test_interrupt_stops_every_thread_and_closes_the_claims(self, thread_count, count):
        # the load of frame 0 interrupts the calling thread, whichever thread
        # runs it
        info = StreamInfo(3, 1, 24, 1, PixelFormat.GRAY8)
        total = 100_000
        claimed, closed = [], []

        class Interrupting(ListSource):
            def claims(self):
                try:
                    for index in range(total):
                        claimed.append(index)
                        yield gray_frame([index % 256] * 3, index=index)
                finally:
                    closed.append(True)

            def load(self, claim):
                if claim.index == 0:
                    os.kill(os.getpid(), signal.SIGINT)
                return super().load(claim)

        before = set(threading.enumerate())
        thread_count(count)
        with pytest.raises(KeyboardInterrupt):
            extract_curves(Interrupting(info, []))
        assert closed == [True]
        assert set(threading.enumerate()) <= before
        assert len(claimed) < total

    @pytest.mark.parametrize("count", (1, 2, 8))
    def test_the_earliest_frame_error_is_raised(self, thread_count, count):
        # frame 2 fails in its slow load, after other threads have claimed
        # frame 5, which fails
        info = StreamInfo(3, 1, 24, 1, PixelFormat.GRAY8)

        class Failing(ListSource):
            def claims(self):
                for frame in self._frames:
                    if frame.index == 5:
                        raise MediaFormatError("claim of frame 5 failed")
                    yield frame

            def load(self, claim):
                if claim.index == 2:
                    time.sleep(0.05)
                    raise MediaFormatError("load of frame 2 failed")
                return super().load(claim)

        frames = [gray_frame([i, i, i], index=i) for i in range(20)]
        thread_count(count)
        with pytest.raises(MediaFormatError, match="load of frame 2 failed"):
            extract_curves(Failing(info, frames))
