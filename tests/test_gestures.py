"""Segment shape classification, envelope fitting, and motif grouping."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumascore import gestures
from lumascore.curveprep import ROUGHNESS_SCALE, residual_rms, smooth_values
from lumascore.gestures import (
    MOTIF_EPSILON,
    Archetype,
    ClassifyParams,
    ExpFit,
    Gesture,
    RRMSE_RANGE_FLOOR,
    STAIRCASE_BLOCK,
    STAIRCASE_MAX_LEVELS,
    LinearFit,
    ShapeKind,
    StaircaseFit,
    TransientInfo,
    assign_motifs,
    body_start,
    classify,
    detect_transient,
    fit_exponential,
    fit_linear,
    fit_staircase,
    make_tau_grid,
)
from lumascore.segmentation import Segment

from _synth import gaussian_noise, unit_noise

RATE = 50.0


def classify_raw(raw, rate=RATE, params=None):
    raw = np.asarray(raw, dtype=np.float64)
    smoothed = smooth_values(raw, rate, 0.25)
    return classify(smoothed, raw, rate, params)


class TestDetectTransient:
    def test_flat_body_has_no_transient(self):
        body = np.full(100, 0.2)
        assert detect_transient(body, RATE, ClassifyParams()) is None

    def test_fast_jump_is_reported_with_its_rise(self):
        body = np.concatenate(([0.1, 0.1], np.full(98, 0.8)))
        info = detect_transient(body, RATE, ClassifyParams())
        assert info is not None
        assert info.amplitude == pytest.approx(0.7, abs=1e-15)
        assert info.onset_idx == 2

    def test_subthreshold_rise_ignored(self):
        body = np.concatenate(([0.2], np.full(99, 0.3)))
        assert detect_transient(body, RATE, ClassifyParams()) is None

    def test_rise_outside_window_ignored(self):
        # the jump lands after the first 0.2 s (11 samples at 50 Hz)
        body = np.concatenate((np.full(20, 0.1), np.full(80, 0.9)))
        assert detect_transient(body, RATE, ClassifyParams()) is None

    def test_onset_is_argmax_within_window(self):
        body = np.array([0.1, 0.3, 0.7, 0.5, 0.4] + [0.4] * 95)
        info = detect_transient(body, RATE, ClassifyParams())
        assert info.onset_idx == 2
        assert info.amplitude == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("body", [[], [0.5]])
    def test_fewer_than_two_samples_have_no_transient(self, body):
        assert detect_transient(np.array(body), RATE, ClassifyParams()) is None


class TestFitLinear:
    def test_exact_line_recovered(self):
        t = np.arange(250) / RATE
        fit = fit_linear(0.1 + 0.05 * t, RATE)
        assert fit.intercept == pytest.approx(0.1, abs=1e-12)
        assert fit.slope_per_s == pytest.approx(0.05, abs=1e-12)
        assert fit.sse < 1e-18

    def test_constant_input(self):
        fit = fit_linear(np.full(50, 0.4), RATE)
        assert fit.slope_per_s == 0.0
        assert fit.intercept == pytest.approx(0.4, abs=1e-15)

    def test_noisy_line_slope_close_to_truth(self):
        t = np.arange(250) / RATE
        noise = 0.01 * np.array(gaussian_noise(11, 250))
        fit = fit_linear(0.3 + 0.08 * t + noise, RATE)
        assert abs(fit.slope_per_s - 0.08) < 0.005

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="linear fit needs at least 2 samples"):
            fit_linear(np.array([0.5]), RATE)


def exp_grid_oracle(y, rate, tau_grid):
    """Independent grid search: per-tau closed-form least squares."""
    t = np.arange(len(y)) / rate
    best = None
    for tau in tau_grid:
        col = np.exp(-t / tau)
        basis = np.column_stack((np.ones_like(col), col))
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        resid = y - basis @ coef
        sse = float(resid @ resid)
        if best is None or sse < best[0] - 1e-15:
            best = (sse, float(tau), float(coef[0]), float(coef[1]))
    return best


class TestFitExponential:
    def test_exact_decay_with_tau_in_grid(self):
        t = np.arange(501) / RATE
        y = 0.1 + 0.6 * np.exp(-t / 2.0)
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        fit = fit_exponential(y, RATE, grid)
        assert fit.tau_s == 2.0
        assert fit.offset == pytest.approx(0.1, abs=1e-9)
        assert fit.scale == pytest.approx(0.6, abs=1e-9)
        assert fit.sse < 1e-16
        assert not fit.degenerate

    def test_dense_grid_lands_near_true_tau(self):
        t = np.arange(501) / RATE
        y = 0.1 + 0.6 * np.exp(-t / 2.0)
        grid = make_tau_grid(10.0, 64)
        fit = fit_exponential(y, RATE, grid)
        assert abs(fit.tau_s - 2.0) / 2.0 <= 0.05
        sse, tau, offset, scale = exp_grid_oracle(y, RATE, grid)
        assert fit.tau_s == tau
        assert fit.sse == pytest.approx(sse, rel=1e-9, abs=1e-18)

    def test_rising_shape_has_negative_scale(self):
        t = np.arange(250) / RATE
        y = 0.9 - 0.5 * np.exp(-t / 1.5)
        fit = fit_exponential(y, RATE)
        assert fit.scale < 0
        assert abs(fit.tau_s - 1.5) / 1.5 <= 0.1

    def test_constant_input_degenerates_to_line(self):
        fit = fit_exponential(np.full(100, 0.3), RATE)
        assert fit.degenerate
        assert fit.scale == 0.0
        assert fit.offset == pytest.approx(0.3, abs=1e-15)

    def test_a_grid_without_a_usable_tau_degenerates_to_line(self):
        # a tau this long leaves exp(-t / tau) flat to within 1e-12 over the
        # ramp, so no candidate can be solved for
        y = np.linspace(0.2, 0.8, 100)
        grid = np.full(64, 1e15)
        line = fit_linear(y, RATE)
        assert fit_exponential(y, RATE, grid) == ExpFit(line.intercept, 0.0, float(grid[0]),
                                                        line.sse, degenerate=True)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="exponential fit needs at least 3 samples"):
            fit_exponential(np.array([0.1, 0.2]), RATE)

    def test_grid_spans_fifty_to_one_and_five_times(self):
        grid = make_tau_grid(10.0, 64)
        assert len(grid) == 64
        assert grid[0] == pytest.approx(0.2, rel=1e-12)
        assert grid[-1] == pytest.approx(50.0, rel=1e-12)
        assert np.all(np.diff(np.log(grid)) > 0)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_tau_grid_needs_a_positive_duration(self, duration):
        with pytest.raises(ValueError, match="^duration must be positive$"):
            make_tau_grid(duration)


def staircase_oracle(y, rate, max_levels):
    """Exhaustive search over piece boundaries plus the same BIC rule."""
    n = len(y)
    best = None
    for m in range(2, max_levels + 1):
        best_sse = math.inf
        best_edges = None
        for cuts in itertools.combinations(range(1, n), m - 1):
            edges = (0,) + cuts + (n,)
            sse = 0.0
            for a, b in zip(edges, edges[1:]):
                piece = y[a:b]
                sse += float(((piece - piece.mean()) ** 2).sum())
            if sse < best_sse - 1e-15:
                best_sse = sse
                best_edges = edges
        bic = n * math.log(best_sse / n + 1e-12) + (2 * m - 1) * math.log(n)
        if best is None or bic < best[0]:
            best = (bic, best_edges, best_sse)
    return best


def staircase_loop_oracle(y, rate, max_levels):
    """The staircase DP as a plain scan over each piece end j, one level count
    at a time; fit_staircase must reproduce it bit for bit."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    cy = np.concatenate(([0.0], np.cumsum(y)))
    cyy = np.concatenate(([0.0], np.cumsum(y * y)))

    def block_cost(i, j):
        length = j - i
        s = cy[j] - cy[i]
        return np.maximum(0.0, (cyy[j] - cyy[i]) - s * s / length)

    dp = np.full((max_levels + 1, n + 1), np.inf)
    back = np.zeros((max_levels + 1, n + 1), dtype=np.int64)
    idx = np.arange(n + 1)
    lengths = np.arange(1, n + 1, dtype=np.float64)
    dp[1][1:] = np.maximum(0.0, cyy[1:] - cy[1:] * cy[1:] / lengths)
    for k in range(2, max_levels + 1):
        for j in range(k, n + 1):
            starts = idx[k - 1:j]
            cand = dp[k - 1][k - 1:j] + block_cost(starts, j)
            pick = int(np.argmin(cand))
            dp[k][j] = cand[pick]
            back[k][j] = starts[pick]
    best_m = 2
    best_bic = math.inf
    for m in range(2, max_levels + 1):
        bic = n * math.log(dp[m][n] / n + 1e-12) + (2 * m - 1) * math.log(n)
        if bic < best_bic:
            best_bic = bic
            best_m = m
    edges = [n]
    j = n
    for k in range(best_m, 1, -1):
        j = int(back[k][j])
        edges.append(j)
    edges.append(0)
    edges.reverse()
    levels = []
    sse = 0.0
    for a, b in zip(edges, edges[1:]):
        piece = y[a:b]
        mean = float(piece.mean())
        levels.append(mean)
        sse += float(((piece - mean) ** 2).sum())
    return StaircaseFit(tuple(levels), tuple(e / rate for e in edges[1:-1]), sse)


# lengths just around one and two cost blocks, where a block is cut short
_BLOCK_EDGE_LENGTHS = sorted({
    n for edge in (STAIRCASE_BLOCK, 2 * STAIRCASE_BLOCK)
    for n in range(edge - 3, edge + 4) if n >= 12
})


@st.composite
def staircase_inputs(draw):
    """(samples, max_levels): quantized noise, or plateaus full of exact ties."""
    max_levels = draw(st.integers(2, 6))
    n = draw(st.one_of(
        st.sampled_from(_BLOCK_EDGE_LENGTHS),
        st.integers(2 * max_levels, 3 * STAIRCASE_BLOCK),
    ))
    steps = draw(st.sampled_from((1, 2, 4, 255)))
    if draw(st.booleans()):
        codes = draw(st.lists(st.integers(0, steps), min_size=n, max_size=n))
    else:
        runs = draw(st.lists(
            st.tuples(st.integers(0, steps), st.integers(1, n)), min_size=1, max_size=8,
        ))
        codes = [code for code, length in runs for _ in range(length)]
        codes = (codes * (n // len(codes) + 1))[:n]
    return np.array(codes, dtype=np.float64) / steps, max_levels


class TestFitStaircase:
    @given(staircase_inputs())
    @settings(max_examples=120, deadline=None)
    def test_blocked_dp_matches_per_end_scan(self, case):
        y, max_levels = case
        fit = fit_staircase(y, RATE, max_levels)
        expected = staircase_loop_oracle(y, RATE, max_levels)
        assert fit.levels == expected.levels
        assert fit.step_times_s == expected.step_times_s
        assert fit.sse == expected.sse

    def test_noisy_staircase_across_several_blocks_matches_scan(self):
        n = 5 * STAIRCASE_BLOCK + 17
        levels = np.repeat(np.linspace(0.2, 0.8, 5), -(-n // 5))[:n]
        y = levels + 0.01 * np.array(gaussian_noise(5, n))
        assert fit_staircase(y, RATE, 6) == staircase_loop_oracle(y, RATE, 6)

    def test_exact_three_level_staircase(self):
        y = np.concatenate(
            (np.full(100, 0.2), np.full(100, 0.5), np.full(100, 0.8))
        )
        fit = fit_staircase(y, RATE, 6)
        assert len(fit.levels) == 3
        assert fit.levels == pytest.approx((0.2, 0.5, 0.8), abs=1e-12)
        assert fit.step_times_s == (2.0, 4.0)
        assert fit.sse < 1e-18

    def test_matches_exhaustive_oracle(self):
        y = np.array(unit_noise(1234, 30))
        fit = fit_staircase(y, RATE, 4)
        _, edges, sse = staircase_oracle(y, RATE, 4)
        assert fit.sse == pytest.approx(sse, rel=1e-9, abs=1e-15)
        assert fit.step_times_s == tuple(e / RATE for e in edges[1:-1])

    def test_noisy_two_level_boundary_recovered(self):
        noise = 0.02 * np.array(gaussian_noise(9, 250))
        y = np.concatenate((np.full(120, 0.3), np.full(130, 0.7))) + noise
        fit = fit_staircase(y, RATE, 2)
        assert len(fit.levels) == 2
        boundary = fit.step_times_s[0] * RATE
        assert abs(boundary - 120) <= 3

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="staircase fit needs at least 12 samples"):
            fit_staircase(np.zeros(11), RATE, 6)


class TestClassifyArchetypes:
    def test_jump_then_linear_fall_is_chord_resonance(self):
        fall = np.linspace(0.9, 0.1, 247)
        raw = np.concatenate((np.full(3, 0.1), fall))
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.LINEAR_DECAY
        assert gesture.transient is not None
        assert gesture.archetype is Archetype.CHORD_RESONANCE

    def test_jump_then_exponential_fall_is_chord_arpeggio(self):
        t = np.arange(247) / RATE
        fall = 0.1 + 0.8 * np.exp(-t / 1.5)
        raw = np.concatenate((np.full(3, 0.1), fall))
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.EXPONENTIAL_DECAY
        assert gesture.transient is not None
        assert gesture.archetype is Archetype.CHORD_ARPEGGIO

    def test_noisy_rising_ramp_is_tremolo_scratch(self):
        ramp = np.linspace(0.1, 0.9, 250)
        noise = (np.array(unit_noise(77, 250)) - 0.5) * 0.16  # +/- 0.08
        raw = np.clip(ramp + noise, 0.0, 1.0)
        gesture = classify_raw(raw)
        assert gesture.archetype is Archetype.TREMOLO_SCRATCH
        assert gesture.granularity >= 0.4

    def test_jump_then_flat_is_chord_held(self):
        raw = np.concatenate((np.full(3, 0.1), np.full(247, 0.8)))
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.PLATEAU
        assert gesture.transient is not None
        assert gesture.archetype is Archetype.CHORD_HELD

    def test_rising_staircase_is_arpeggio_detached(self):
        raw = np.concatenate(
            [np.full(62, v) for v in (0.2, 0.4, 0.6)] + [np.full(64, 0.8)]
        )
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.STAIRCASE
        assert gesture.archetype is Archetype.ARPEGGIO_DETACHED

    def test_white_noise_is_granular_texture(self):
        raw = 0.2 + 0.6 * np.array(unit_noise(55, 250))
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.CHAOTIC
        assert gesture.archetype is Archetype.GRANULAR_TEXTURE

    def test_clean_rising_ramp_is_crescendo_held(self):
        raw = np.linspace(0.1, 0.9, 250)
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.LINEAR_RISE
        assert gesture.archetype is Archetype.CRESCENDO_HELD

    def test_clean_falling_ramp_is_diminuendo_held(self):
        raw = np.linspace(0.9, 0.1, 250)
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.LINEAR_DECAY
        assert gesture.transient is None
        assert gesture.archetype is Archetype.DIMINUENDO_HELD

    def test_plain_plateau_is_diminuendo_held(self):
        gesture = classify_raw(np.full(250, 0.5))
        assert gesture.kind is ShapeKind.PLATEAU
        assert gesture.archetype is Archetype.DIMINUENDO_HELD


class TestClassifyDetails:
    def test_plateau_carries_a_linear_fit(self):
        gesture = classify_raw(np.full(250, 0.5))
        assert isinstance(gesture.fit, LinearFit)

    def test_mean_brightness_is_raw_mean(self):
        raw = np.linspace(0.2, 0.6, 250)
        gesture = classify_raw(raw)
        assert gesture.mean_brightness == pytest.approx(
            float(raw.mean()), abs=1e-12
        )

    def test_exponential_fit_has_positive_tau(self):
        t = np.arange(250) / RATE
        raw = 0.1 + 0.7 * np.exp(-t / 1.0)
        gesture = classify_raw(raw)
        assert isinstance(gesture.fit, ExpFit)
        assert gesture.fit.tau_s > 0

    def test_too_short_segment_rejected(self):
        with pytest.raises(ValueError, match="classification needs at least 2 samples"):
            classify(np.array([0.5]), np.array([0.5]), RATE)

    def test_time_stretch_preserves_archetype(self):
        # same sample sequence read at half the rate covers twice the time
        for rate in (RATE, RATE / 2.0):
            fall = np.linspace(0.9, 0.1, 247)
            raw = np.concatenate((np.full(3, 0.1), fall))
            smoothed = smooth_values(raw, rate, 0.25)
            gesture = classify(smoothed, raw, rate)
            assert gesture.kind is ShapeKind.LINEAR_DECAY
            assert gesture.archetype is Archetype.CHORD_RESONANCE

    def test_constant_offset_preserves_classification(self):
        base = np.linspace(0.7, 0.1, 250)
        lifted = base + 0.2
        for raw in (base, lifted):
            gesture = classify_raw(raw)
            assert gesture.kind is ShapeKind.LINEAR_DECAY
            assert gesture.archetype is Archetype.DIMINUENDO_HELD

    def test_granularity_saturates_at_one(self):
        assert classify_raw([0.0, 1.0] * 125).granularity == 1.0
        raw = 0.5 + 0.02 * (np.array(unit_noise(4, 250)) - 0.5)
        gesture = classify_raw(raw)
        assert gesture.transient is None
        rms = residual_rms(raw, smooth_values(raw, RATE, 0.25))
        assert gesture.granularity == rms / ROUGHNESS_SCALE < 1.0

    def test_chaotic_keeps_best_structured_fit_for_reporting(self):
        raw = 0.2 + 0.6 * np.array(unit_noise(55, 250))
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.CHAOTIC
        assert gesture.fit is not None

    def test_non_monotone_staircase_is_set_aside(self):
        # the exact up-then-down staircase has zero error, so it would win
        # under BIC; it is no candidate, and the next best fit wins instead
        body = np.repeat([0.2, 0.8, 0.5], 40)
        assert fit_staircase(body, RATE).sse == 0.0
        gesture = classify(body, body, RATE)
        assert gesture.kind is ShapeKind.EXPONENTIAL_RISE
        assert gesture.fit == fit_exponential(body, RATE)


def classify_oracle(smoothed, raw, rate, params):
    """``classify`` as it was before it decided flat bodies first: every fit
    is made, and the rules read the winner."""
    smoothed = np.asarray(smoothed, dtype=np.float64)
    raw = np.asarray(raw, dtype=np.float64)
    n = len(smoothed)
    transient = detect_transient(smoothed, rate, params)
    start = body_start(n, transient)
    body = smoothed[start:]
    nb = len(body)
    value_range = float(body.max() - body.min())
    linear = fit_linear(body, rate)
    candidates = [(linear, 2)]
    if nb >= 3:
        exp = fit_exponential(body, rate)
        if not exp.degenerate:
            candidates.append((exp, 3))
    if nb >= 2 * STAIRCASE_MAX_LEVELS:
        stair = fit_staircase(body, rate)
        if gestures._is_rising(stair.levels) or gestures._is_rising(stair.levels[::-1]):
            candidates.append((stair, 2 * len(stair.levels) - 1))
    winner = min(candidates, key=lambda c: gestures._bic(c[0].sse, nb, c[1]))[0]
    kind = ShapeKind.PLATEAU if value_range < params.flat else gestures._kind_of(winner)
    resid_rms = residual_rms(raw[start:], smoothed[start:])
    granularity = min(1.0, resid_rms / ROUGHNESS_SCALE)
    rrmse = math.sqrt(winner.sse / nb) / max(value_range, RRMSE_RANGE_FLOOR)
    if rrmse > params.fit_rrmse or (
        granularity > params.chaotic_rough
        and value_range < 2.0 * resid_rms * math.sqrt(12.0)
    ):
        kind = ShapeKind.CHAOTIC
    fit = linear if kind is ShapeKind.PLATEAU else winner
    return Gesture(Segment(0, n), kind, transient, granularity, fit, float(raw.mean()),
                   gestures._archetype_for(kind, transient, granularity, fit, params))


def _near(draw, value):
    """``value`` itself, the floats either side of it, or far from it, kept
    inside (0, 1) as every threshold is."""
    value = min(max(value, 1e-9), 0.999)
    return draw(st.sampled_from((
        value, math.nextafter(value, 0.0), math.nextafter(value, 1.0), value / 2,
        min(2 * value, 0.999),
    )))


@st.composite
def near_plateau(draw):
    """(smoothed, raw, params): a small-range body of ties, a ramp or a decay
    with noise on top, and thresholds drawn on or around the range, the
    granularity and the line's rrmse that this body measures."""
    n = draw(st.one_of(st.integers(2, 2 * STAIRCASE_MAX_LEVELS + 1), st.integers(12, 120)))
    shape = draw(st.sampled_from(("ties", "ramp", "decay")))
    if shape == "ties":
        steps = draw(st.sampled_from((1, 2, 255)))
        unit = np.array(draw(st.lists(st.integers(0, steps), min_size=n, max_size=n))) / steps
    elif shape == "ramp":
        unit = np.linspace(0.0, 1.0, n)
    else:
        unit = np.exp(-np.arange(n) / draw(st.floats(0.5, 50.0)))
    level = draw(st.floats(0.0, 0.9))
    height = draw(st.sampled_from((0.0, 0.001, 0.02, 0.05, 0.3)))
    smoothed = level + height * unit
    noise = draw(st.sampled_from((0.0, 0.001, 0.02, 0.2)))
    raw = np.clip(smoothed + noise * (np.array(unit_noise(draw(st.integers(0, 999)), n)) - 0.5),
                  0.0, 1.0)
    start = body_start(n, detect_transient(smoothed, RATE, ClassifyParams()))
    body = smoothed[start:]
    value_range = float(body.max() - body.min())
    granularity = min(1.0, residual_rms(raw[start:], body) / ROUGHNESS_SCALE)
    line_rrmse = (math.sqrt(fit_linear(body, RATE).sse / len(body))
                  / max(value_range, RRMSE_RANGE_FLOOR))
    params = ClassifyParams(flat=_near(draw, value_range),
                            chaotic_rough=_near(draw, granularity),
                            fit_rrmse=_near(draw, line_rrmse))
    return smoothed, raw, params


class TestPlateauBeforeFits:
    @given(near_plateau())
    @settings(max_examples=300, deadline=None)
    def test_equals_classify_with_every_fit(self, case):
        smoothed, raw, params = case
        assert classify(smoothed, raw, RATE, params) == classify_oracle(smoothed, raw, RATE,
                                                                        params)

    def test_flat_body_is_decided_without_the_other_fits(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("fitted a flat body")

        monkeypatch.setattr(gestures, "fit_exponential", refused)
        monkeypatch.setattr(gestures, "fit_staircase", refused)
        raw = 0.5 + 0.01 * (np.array(unit_noise(12, 3000)) - 0.5)
        gesture = classify_raw(raw)
        assert gesture.kind is ShapeKind.PLATEAU
        assert gesture.fit == fit_linear(smooth_values(raw, RATE, 0.25), RATE)


def make_gesture(kind, slope, duration_s=5.0, granularity=0.1, amplitude=0.0):
    n = int(duration_s * RATE)
    transient = TransientInfo(2, amplitude) if amplitude else None
    return Gesture(
        segment=Segment(0, n),
        kind=kind,
        transient=transient,
        granularity=granularity,
        fit=LinearFit(0.5, slope, 0.0),
        mean_brightness=0.5,
        archetype=Archetype.DIMINUENDO_HELD,
    )


class TestAssignMotifs:
    def test_identical_gestures_share_a_motif(self):
        gestures = [
            make_gesture(ShapeKind.LINEAR_DECAY, -0.1),
            make_gesture(ShapeKind.LINEAR_DECAY, -0.1),
        ]
        assign_motifs(gestures, RATE)
        assert gestures[0].motif_id == 0
        assert gestures[1].motif_id == 0

    def test_kind_mismatch_splits_motifs(self):
        decay = make_gesture(ShapeKind.LINEAR_DECAY, -0.1)
        exp_decay = make_gesture(ShapeKind.EXPONENTIAL_DECAY, -0.1)
        gestures = [decay, exp_decay]
        assign_motifs(gestures, RATE)
        assert gestures[0].motif_id != gestures[1].motif_id

    def test_slope_gap_splits_motifs(self):
        # over 5 s the trend features are -0.25 vs -1.0: distance 0.75 > 0.25
        shallow = make_gesture(ShapeKind.LINEAR_DECAY, -0.05, amplitude=0.5)
        steep = make_gesture(ShapeKind.LINEAR_DECAY, -0.30, amplitude=0.5)
        gestures = [shallow, steep]
        assign_motifs(gestures, RATE)
        assert gestures[0].motif_id == 0
        assert gestures[1].motif_id == 1

    def test_ids_count_up_from_zero_in_order(self):
        gestures = [
            make_gesture(ShapeKind.LINEAR_RISE, 0.1),
            make_gesture(ShapeKind.LINEAR_DECAY, -0.1),
            make_gesture(ShapeKind.LINEAR_RISE, 0.1),
            make_gesture(ShapeKind.PLATEAU, 0.0),
        ]
        assign_motifs(gestures, RATE)
        assert [g.motif_id for g in gestures] == [0, 1, 0, 2]

    def test_later_gestures_never_change_earlier_ids(self):
        def build():
            return [
                make_gesture(ShapeKind.LINEAR_RISE, 0.1),
                make_gesture(ShapeKind.LINEAR_DECAY, -0.1),
                make_gesture(ShapeKind.PLATEAU, 0.0),
            ]

        prefix = build()
        assign_motifs(prefix, RATE)
        extended = build() + [
            make_gesture(ShapeKind.STAIRCASE, 0.05),
            make_gesture(ShapeKind.LINEAR_RISE, 0.1),
        ]
        assign_motifs(extended, RATE)
        assert [g.motif_id for g in extended[:3]] == [
            g.motif_id for g in prefix
        ]

    def test_deterministic(self):
        first = [
            make_gesture(ShapeKind.LINEAR_RISE, 0.1),
            make_gesture(ShapeKind.CHAOTIC, 0.0, granularity=0.9),
        ]
        second = [
            make_gesture(ShapeKind.LINEAR_RISE, 0.1),
            make_gesture(ShapeKind.CHAOTIC, 0.0, granularity=0.9),
        ]
        assign_motifs(first, RATE)
        assign_motifs(second, RATE)
        assert [g.motif_id for g in first] == [g.motif_id for g in second]


# The motif features as they once held a one-hot block of the gesture's kind
# before the five numbers: the oracle the five numbers alone are held to.
# assign_motifs compares only gestures of one kind, whose blocks cancel.
_KIND_INDEX = {kind: i for i, kind in enumerate(ShapeKind)}


def _one_hot_features(gesture, rate):
    duration = (gesture.segment.end_idx - gesture.segment.start_idx) / rate
    vec = np.zeros(len(ShapeKind) + 5)
    vec[_KIND_INDEX[gesture.kind]] = 1.0
    slope = gestures._fit_slope(gesture.fit, duration)
    vec[len(ShapeKind)] = math.copysign(min(1.0, abs(slope) * duration), slope)
    if isinstance(gesture.fit, ExpFit) and gesture.kind in (
        ShapeKind.EXPONENTIAL_RISE, ShapeKind.EXPONENTIAL_DECAY
    ):
        vec[len(ShapeKind) + 1] = min(1.0, gesture.fit.tau_s / duration)
    vec[len(ShapeKind) + 2] = gesture.granularity
    if gesture.transient is not None:
        vec[len(ShapeKind) + 3] = gesture.transient.amplitude
    vec[len(ShapeKind) + 4] = math.log(duration) / math.log(60.0)
    return vec


def _one_hot_motifs(gestures_, rate):
    representatives = []
    ids = []
    for gesture in gestures_:
        vec = _one_hot_features(gesture, rate)
        for motif_id, (kind, ref) in enumerate(representatives):
            if kind is gesture.kind and float(np.linalg.norm(vec - ref)) <= MOTIF_EPSILON:
                ids.append(motif_id)
                break
        else:
            ids.append(len(representatives))
            representatives.append((gesture.kind, vec))
    return ids


# a few values near one another, so that distances often fall near MOTIF_EPSILON
NEAR = st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.3, 0.5]) | st.floats(-1.0, 1.0)


@st.composite
def motif_runs(draw):
    """(rate, gestures): up to 12 gestures of up to 3 kinds over spans of 1
    to 300 samples, with every fit model."""
    rate = draw(st.floats(0.5, 1000.0))
    kinds = st.sampled_from(draw(st.lists(st.sampled_from(ShapeKind), min_size=1, max_size=3)))
    fits = st.one_of(st.builds(LinearFit, NEAR, NEAR, st.just(0.0)),
                     st.builds(ExpFit, NEAR, NEAR, st.floats(0.01, 100.0), st.just(0.0)),
                     st.builds(StaircaseFit, st.lists(NEAR, min_size=1, max_size=4).map(tuple),
                               st.just(()), st.just(0.0)))
    transients = st.none() | st.builds(TransientInfo, st.just(0), NEAR)
    return rate, [Gesture(Segment(0, draw(st.integers(1, 300))), draw(kinds), draw(transients),
                          draw(NEAR.map(abs)), draw(fits), 0.5, Archetype.CHORD_HELD)
                  for _ in range(draw(st.integers(0, 12)))]


class TestMotifFeatures:
    @given(motif_runs())
    @settings(max_examples=60, deadline=None)
    def test_ids_match_the_one_hot_features(self, run):
        rate, drawn = run
        expected = _one_hot_motifs(drawn, rate)
        assign_motifs(drawn, rate)
        assert [g.motif_id for g in drawn] == expected
