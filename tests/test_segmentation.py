"""Changepoint segmentation: noise scale, bottom-up merging, manual cuts."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumascore.config import parse_config
from lumascore.segmentation import (
    NOISE_FLOOR,
    Segment,
    SegmentationParams,
    _block_sums,
    _joined,
    _line_sse,
    apply_manual_boundaries,
    estimate_noise,
    segment,
)

from _synth import curve, gaussian_noise, unit_noise

MAD_SCALE = 0.6745 * math.sqrt(2.0)


def segment_scan_oracle(curve, params):
    """The O(K^2) merge loop: rescan every adjacent pair for each merge."""
    y = curve.values
    n = len(y)
    block = max(int(math.ceil(params.min_segment_s * curve.sample_rate - 1e-9)), 2)
    lam = params.penalty_beta * max(estimate_noise(curve), NOISE_FLOOR) ** 2 * math.log(n)
    bounds = [i * block for i in range(n // block)] + [n]
    stats = _block_sums(y, bounds)
    sse = [_line_sse(sums) for sums in stats]
    while len(bounds) > 2:
        best_delta = math.inf
        best_i = -1
        for i in range(len(bounds) - 2):
            delta = _line_sse(_joined(stats[i], stats[i + 1])) - sse[i] - sse[i + 1]
            if delta < best_delta:
                best_delta = delta
                best_i = i
        if best_delta > lam:
            break
        stats[best_i] = _joined(stats[best_i], stats.pop(best_i + 1))
        sse[best_i] = _line_sse(stats[best_i])
        del sse[best_i + 1]
        del bounds[best_i + 1]
    return [Segment(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def two_pass_sse(window):
    """SSE of the least-squares line by the two-pass formula: centred local
    indices and centred values, so no large term cancels."""
    w = np.asarray(window, dtype=np.float64)
    tc = np.arange(len(w)) - (len(w) - 1) / 2
    yc = w - w.mean()
    slope = float(tc @ yc) / float(tc @ tc)
    return float(np.sum((yc - slope * tc) ** 2))


def check_partition(segments, n):
    assert segments[0].start_idx == 0
    assert segments[-1].end_idx == n
    for a, b in zip(segments, segments[1:]):
        assert a.end_idx == b.start_idx


class TestEstimateNoise:
    def test_constant_curve_is_noiseless(self):
        assert estimate_noise(curve([0.4] * 10)) == 0.0

    def test_alternating_values(self):
        a = 0.06
        vals = [0.0, a] * 8
        expected = a / MAD_SCALE
        assert estimate_noise(curve(vals)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_noisy_ramp_recovers_sigma(self, seed):
        ramp = np.linspace(0.2, 0.8, 500)
        vals = ramp + 0.02 * np.array(gaussian_noise(seed, 500))
        estimate = estimate_noise(curve(list(vals)))
        assert 0.015 <= estimate <= 0.025

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="noise estimation needs at least 3 samples"):
            estimate_noise(curve([0.1, 0.2]))

    @given(st.integers(3, 60), st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_median_is_bit_identical_to_np_median(self, n, seed, quantized):
        values = np.random.default_rng(seed).random(n)
        if quantized:
            values = np.round(values * 4) / 4
        expected = float(np.median(np.abs(np.diff(values)))) / MAD_SCALE
        assert estimate_noise(curve(values)) == expected

    def test_pipeline_never_imports_numpy_ma(self, tmp_path):
        # np.median would import numpy.ma on its first call; nothing else does
        script = """
import sys
from _synth import build_y4m, y4m_frame_420
from lumascore.config import PipelineConfig
from lumascore.pipeline import run_pipeline
frames = [y4m_frame_420(16, 16, v) for v in [40] * 48 + [200] * 48 + [100] * 48]
film = sys.argv[1] + "/film.y4m"
with open(film, "wb") as out:
    out.write(build_y4m(16, 16, frames))
run_pipeline(film, PipelineConfig(), sys.argv[1] + "/out")
print([name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")])
"""
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here)]
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "score.mid").is_file()
        assert result.stdout.strip() == "[]"


class TestSegment:
    def test_constant_curve_is_one_segment(self):
        segments = segment(curve([0.3] * 500))
        assert segments == [Segment(0, 500)]

    def test_step_boundary_found(self):
        vals = [0.0] * 250 + [1.0] * 250
        segments = segment(curve(vals))
        assert len(segments) == 2
        assert abs(segments[0].end_idx - 250) <= 5

    def test_triangle_apex_found(self):
        t = np.arange(500) / 50.0
        vals = 1.0 - np.abs(t - 5.0) / 5.0
        segments = segment(curve(list(vals)))
        assert len(segments) == 2
        assert abs(segments[0].end_idx - 250) <= 10

    def test_noisy_step_boundary_found(self):
        noise = 0.01 * np.array(gaussian_noise(5, 500))
        vals = np.clip(np.array([0.2] * 250 + [0.8] * 250) + noise, 0.0, 1.0)
        segments = segment(curve(list(vals)))
        assert len(segments) == 2
        assert abs(segments[0].end_idx - 250) <= 5

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="curve has 40 samples, need at least 50 for"):
            segment(curve([0.0] * 40))  # needs 50 samples at 50 Hz

    @pytest.mark.parametrize("min_segment_s,need", [
        (0.5, "50"), (1e300, "1e\\+302"), (1.7e308, "inf"),
    ])
    def test_need_is_printed_short(self, min_segment_s, need):
        # 1e300 s at 50 Hz used to print a 303-digit integer, and 1.7e308 s
        # overflowed converting an infinite block length to an integer
        with pytest.raises(ValueError,
                           match="^curve has 40 samples, need at least %s for" % need):
            segment(curve([0.0] * 40), SegmentationParams(min_segment_s, 4.0))

    def test_config_analysis_section_segments_as_the_defaults_do(self):
        # AnalysisConfig inherits SegmentationParams, so its defaults are these
        c = curve(list(unit_noise(8, 400)))
        assert segment(c, parse_config({}).analysis) == segment(c, SegmentationParams())

    def test_deterministic(self):
        vals = list(unit_noise(3, 400))
        first = segment(curve(vals))
        second = segment(curve(vals))
        assert first == second

    def test_higher_penalty_merges_more(self):
        base = np.repeat(np.array(unit_noise(17, 8)), 50)
        vals = np.clip(
            base + 0.02 * np.array(gaussian_noise(18, 400)), 0.0, 1.0
        )
        counts = [
            len(segment(curve(list(vals)), SegmentationParams(0.5, beta)))
            for beta in (1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1] or counts[0] == 1

    @given(st.integers(0, 2 ** 32), st.integers(100, 400))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, seed, n):
        vals = list(unit_noise(seed, n))
        segments = segment(curve(vals))
        check_partition(segments, n)
        for piece in segments:
            assert piece.end_idx - piece.start_idx >= 25  # 0.5 s at 50 Hz

    def test_last_block_absorbs_remainder(self):
        # 60 samples at 50 Hz: blocks [0,25), [25,60); a constant merges to one
        segments = segment(curve([0.5] * 60))
        assert segments == [Segment(0, 60)]


def plateau_values(data, n):
    """Levels on a 1/8 grid held for random lengths."""
    values = []
    while len(values) < n:
        level = data.draw(st.integers(0, 8)) / 8
        values.extend([level] * data.draw(st.sampled_from((1, 3, 10, 25, 50, 75))))
    return values[:n]


def block_pattern_values(data, n, block):
    """Whole blocks at one of three levels, each with the same 0, 1/16
    alternation so the noise estimate is not zero.  On this dyadic grid the
    block sums are exact, so every repeat of a pair of blocks costs exactly
    the same to merge."""
    texture = np.arange(block) % 2 / 16
    levels = data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5)),
                                min_size=n // block + 1, max_size=n // block + 1))
    return (np.repeat(levels, block) + np.tile(texture, len(levels)))[:n]


class TestSegmentAgainstScan:
    @given(
        st.sampled_from(("walk", "plateaus", "noisy plateaus", "block patterns")),
        st.integers(2, 50),
        st.floats(0.5, 50.0),
        st.integers(100, 1200),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_heap_merges_equal_the_scan(self, kind, block, beta, n, data):
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        if kind == "walk":
            values = 0.5 + np.cumsum(rng.normal(0.0, 0.01, n))
        elif kind == "block patterns":
            values = block_pattern_values(data, n, block)
        else:
            values = np.array(plateau_values(data, n))
            if kind == "noisy plateaus":
                values += 0.005 * rng.normal(size=n)
        c = curve(values)
        params = SegmentationParams(block / 50.0, beta)
        if n < 2 * block:
            with pytest.raises(ValueError, match="samples, need at least"):
                segment(c, params)
        else:
            assert segment(c, params) == segment_scan_oracle(c, params)

    def test_all_tied_merges_go_leftmost(self):
        # seven alternating 0/1 blocks of 25 samples: every adjacent pair
        # costs exactly the same to merge, no merged pair can merge again,
        # and pairing from the left leaves the last block alone
        values = np.tile(np.repeat([0.0, 1.0], 25), 4)[:175]
        c = curve(values)
        stats = _block_sums(c.values, list(range(0, 175, 25)) + [175])
        assert len({_line_sse(_joined(a, b)) for a, b in zip(stats, stats[1:])}) == 1
        params = SegmentationParams(0.5, 1e8)
        segments = segment(c, params)
        assert segments == segment_scan_oracle(c, params)
        assert segments == [Segment(0, 50), Segment(50, 100), Segment(100, 150),
                            Segment(150, 175)]


class TestBlockSums:
    @given(st.integers(2, 64), st.integers(0, 2 ** 32 - 1), st.sampled_from((1.0, 0.1, 0.01)))
    # two samples 6e-4 apart at a level of 0.75
    @example(2, 186795, 0.1)
    @settings(max_examples=200, deadline=None)
    def test_line_sse_equals_the_two_pass_fit(self, n, seed, scale):
        # a level in [0, 1) with a slope and noise of the given scale
        rng = np.random.default_rng(seed)
        window = (rng.random() + scale * rng.random() * np.arange(n) / n
                  + scale * rng.random(n))
        [sums] = _block_sums(window, [0, n])
        error = abs(_line_sse(sums) - two_pass_sse(window))
        # the values enter shifted by the block's first one, so Σd² - (Σd)²/n
        # cancels to a few ulps of the block's spread, even where the noise is
        # far below the level, and no term grows with where the block lies
        assert error <= 16 * np.finfo(np.float64).eps * float(np.sum(window ** 2))
        assert error <= 1e-9 * np.var(window)

    @given(st.integers(4, 64), st.integers(0, 2 ** 32 - 1), st.sampled_from((1.0, 0.01, 1e-4)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_joined_line_sse_equals_the_two_pass_fit(self, n, seed, scale, data):
        # two blocks at different levels, each with noise of the given scale:
        # the right block's shift moves onto the left's without losing the spread
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(2, n - 2))
        window = np.repeat(rng.random(2), [m, n - m]) + scale * rng.random(n)
        sums = _joined(*_block_sums(window, [0, m, n]))
        assert abs(_line_sse(sums) - two_pass_sse(window)) <= 1e-9 * np.var(window)

    @given(st.lists(st.integers(0, 256), min_size=2, max_size=200), st.data())
    @settings(max_examples=100, deadline=None)
    def test_joined_sums_are_the_sums_of_the_union(self, levels, data):
        # on a grid of 1/256 every sum is exact, so the join must match exactly
        values = np.array(levels) / 256
        b = len(values)
        a = data.draw(st.integers(0, b - 2))
        m = data.draw(st.integers(a + 1, b - 1))
        [left, right] = _block_sums(values[a:], [0, m - a, b - a])
        assert _joined(left, right) == _block_sums(values[a:], [0, b - a])[0]

    def test_a_long_film_segments_as_a_short_one(self):
        # 3-sample pieces alternating 0.25/0.75, each a block at 50 Hz and
        # 0.06 s: joining any two costs far above the penalty, so every piece
        # stays alone however far into the curve (here 3.3 h) it lies
        values = np.tile(np.repeat([0.25, 0.75], 3), 100_000)
        segments = segment(curve(values), SegmentationParams(0.06, 4.0))
        assert len(segments) == 200_000
        assert all(piece.end_idx - piece.start_idx == 3 for piece in segments)


class TestManualBoundaries:
    def test_single_cut(self):
        vals = [0.0] * 500
        segments = apply_manual_boundaries(curve(vals), [5.0])
        assert segments == [Segment(0, 250), Segment(250, 500)]

    @pytest.mark.parametrize("n", [0, 1])
    def test_curve_of_fewer_than_two_samples_rejected(self, n):
        with pytest.raises(ValueError, match="^curve has %d samples, need at least 2$" % n):
            apply_manual_boundaries(curve([0.0] * n), [])

    def test_no_cuts_is_whole_curve(self):
        segments = apply_manual_boundaries(curve([0.0] * 100), [])
        assert segments == [Segment(0, 100)]

    def test_multiple_cuts(self):
        segments = apply_manual_boundaries(curve([0.0] * 500), [2.0, 7.5])
        assert segments == [
            Segment(0, 100),
            Segment(100, 375),
            Segment(375, 500),
        ]

    def test_cut_index_rounds_half_up(self):
        segments = apply_manual_boundaries(curve([0.0] * 100), [1.01])
        # 1.01 s * 50 Hz = 50.5 -> sample 51
        assert segments[0].end_idx == 51

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "segment [250, 200) is shorter than 2 samples")):
            apply_manual_boundaries(curve([0.0] * 500), [5.0, 4.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="boundary 0 s outside"):
            apply_manual_boundaries(curve([0.0] * 500), [0.0])

    def test_duration_rejected(self):
        with pytest.raises(ValueError, match="boundary 10 s outside"):
            apply_manual_boundaries(curve([0.0] * 500), [10.0])

    def test_tiny_piece_rejected(self):
        with pytest.raises(ValueError, match="shorter than 2 samples"):
            apply_manual_boundaries(curve([0.0] * 500), [0.01])

    def test_close_cuts_collapse_to_tiny_piece(self):
        with pytest.raises(ValueError, match="shorter than 2 samples"):
            apply_manual_boundaries(curve([0.0] * 500), [5.001, 5.012])


class TestSegmentType:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Segment(5, 5)
        with pytest.raises(ValueError):
            Segment(-1, 3)
