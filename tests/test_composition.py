"""Score rendering: PRNG, mappings, archetype patterns, and assembly."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lumascore import composition
from lumascore.composition import (
    ARPEGGIO_RHO,
    TEXTURE_GRID_S,
    ControlEvent,
    HarmonyConfig,
    MusicalEvent,
    Score,
    SplitMix64,
    _descending_pitches,
    _value_at,
    _voice_near,
    arpeggio_times,
    chord_for,
    compose,
    expression_track,
    register_center,
    render_gesture,
    velocity_at,
)
from lumascore.gestures import (
    Archetype,
    ExpFit,
    Gesture,
    LinearFit,
    ShapeKind,
    StaircaseFit,
    TransientInfo,
    body_start,
)
from lumascore.curveprep import round_half_up
from lumascore.photometry import BrightnessCurve, CurveChannel
from lumascore.segmentation import Segment

from test_report import gestures_on

DATA = pathlib.Path(__file__).parent / "data"
RATE = 50.0


def make_curve(values, rate=RATE):
    return BrightnessCurve(CurveChannel.LUMA, rate, 0.0, np.asarray(values, dtype=np.float64))


def make_gesture(
    segment,
    archetype,
    kind=ShapeKind.PLATEAU,
    transient=None,
    granularity=0.0,
    fit=None,
    mean_brightness=0.5,
    motif_id=0,
):
    return Gesture(
        segment=segment,
        kind=kind,
        transient=transient,
        granularity=granularity,
        fit=fit if fit is not None else LinearFit(mean_brightness, 0.0, 0.0),
        mean_brightness=mean_brightness,
        archetype=archetype,
        motif_id=motif_id,
    )


def reference_splitmix(seed, count):
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) & mask)
    return out


class TestSplitMix64:
    def test_seed_zero_reference_values(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    @pytest.mark.parametrize("seed", [0, 1, 42, (1 << 64) - 1])
    def test_matches_reference_recurrence(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(64)] == reference_splitmix(seed, 64)

    def test_unit_reals_are_scaled_draws(self):
        expected = [v / 2.0 ** 64 for v in reference_splitmix(7, 16)]
        rng = SplitMix64(7)
        assert [rng.next_unit() for _ in range(16)] == expected
        assert all(0.0 <= u < 1.0 for u in expected)


class TestMappings:
    @pytest.mark.parametrize(
        "brightness,expected", [(0.0, 36), (1.0, 84), (0.5, 60)]
    )
    def test_register_center_defaults(self, brightness, expected):
        assert register_center(brightness, (36, 84)) == expected

    def test_register_center_custom_range(self):
        assert register_center(0.25, (40, 60)) == 45

    @pytest.mark.parametrize(
        "value,expected", [(0.0, 20), (0.5, 70), (1.0, 120)]
    )
    def test_velocity_line(self, value, expected):
        assert velocity_at(value) == expected

    def test_velocity_monotone(self):
        values = [velocity_at(v / 100.0) for v in range(101)]
        assert values == sorted(values)

    # a report's curve values and staircase levels are smoothed means, which
    # may stray an ulp outside [0, 1]; the clamp changes no velocity for them
    @pytest.mark.parametrize("value,expected", [
        (-1.7e308, 20), (-0.0049, 20), (1.0049, 120), (1.7e308, 120)])
    def test_velocity_clamps_the_value_to_the_unit_range(self, value, expected):
        assert velocity_at(value) == expected


class TestChordFor:
    def test_motif_zero_at_middle_c(self):
        assert chord_for(0, 60, HarmonyConfig()) == [60, 63, 67]

    def test_deterministic(self):
        harmony = HarmonyConfig()
        assert chord_for(3, 70, harmony) == chord_for(3, 70, harmony)

    def test_motif_shift_changes_root_pitch_class(self):
        harmony = HarmonyConfig()
        first = chord_for(0, 60, harmony)
        second = chord_for(1, 60, harmony)
        assert first[0] % 12 != second[0] % 12

    def test_pitch_class_content_ignores_register(self):
        harmony = HarmonyConfig()
        low = {p % 12 for p in chord_for(2, 40, harmony)}
        high = {p % 12 for p in chord_for(2, 80, harmony)}
        assert low == high

    def test_output_sorted_and_distinct(self):
        for motif in range(8):
            chord = chord_for(motif, 60, HarmonyConfig())
            assert chord == sorted(chord)
            assert len(set(chord)) == 3


# The voicing as it was before it placed each pitch on the keyboard itself:
# _voice_near chose the closer octave whatever its key, the note maker folded
# a key past the keyboard back onto it by whole octaves, and chord_for moved
# a chord below key 0 up by whole octaves.  The oracles the voicing is held to.

def _parent_voice_near(pitch_class, center):
    up = center + (pitch_class - center) % 12
    down = up - 12
    return up if up - center < center - down else down


def _parent_fold(pitch):
    if pitch > 127:
        pitch = 127 - (127 - pitch) % 12
    elif pitch < 0:
        pitch %= 12
    return pitch


def _parent_chord_for(motif_id, center, harmony):
    scale = harmony.scale
    size = len(scale)
    j = motif_id % size
    root = _parent_voice_near((scale[j] + harmony.root_pc) % 12, center)
    notes = [root]
    for degree in (2, 4):
        note = root + (scale[(j + degree) % size] - scale[j]) % 12
        while note in notes:
            note += 12
        notes.append(note)
    notes.sort()
    while notes[-1] > 127:
        notes = [note - 12 for note in notes]
    while notes[0] < 0:
        notes = [note + 12 for note in notes]
    return notes


VOICING_SCALES = ((0,), (0, 7), (0, 1), tuple(range(12)), HarmonyConfig().scale,
                  (0, 2, 4, 5, 7, 9, 11), (0, 4, 7), (0, 3, 6, 9))


class TestVoicingMatchesThePlaceThenFold:
    def test_every_pitch_class_at_every_center(self):
        # a one-level staircase plays one key: the root pitch class voiced
        # near the register's low end, or its high end at full brightness
        for pc in range(12):
            for center in range(128):
                register, level = ((center, center + 1), 0.0) if center < 127 else (
                    (126, 127), 1.0)
                gesture = make_gesture(Segment(0, 10), Archetype.ARPEGGIO_DETACHED,
                                       kind=ShapeKind.STAIRCASE,
                                       fit=StaircaseFit((level,), (), 0.0))
                events = render_gesture(gesture, make_curve([level] * 10),
                                        HarmonyConfig((0,), pc, register), SplitMix64(0))
                expected = _parent_fold(_parent_voice_near(pc, center))
                assert [e.pitch for e in events] == [expected], (pc, center)

    def test_every_chord_at_every_center(self):
        cases = 0
        for scale in VOICING_SCALES:
            for root_pc in range(12):
                harmony = HarmonyConfig(scale, root_pc)
                for motif in range(len(scale)):
                    for center in range(128):
                        assert (chord_for(motif, center, harmony)
                                == _parent_chord_for(motif, center, harmony)), (
                            scale, root_pc, motif, center)
                        cases += 1
        assert cases == 58368

    # a staircase at full brightness on [100, 127] voices every degree near
    # key 127, and one in darkness on [0, 12] near key 0; the closer octave
    # of some degrees lies past the keyboard
    @pytest.mark.parametrize("register, level", [((100, 127), 1.0), ((0, 12), 0.0)])
    def test_a_staircase_at_the_keyboard_ends_keeps_its_pitch_classes(self, register, level):
        harmony = HarmonyConfig(register=register)
        scale = harmony.scale
        fit = StaircaseFit((level,) * len(scale), tuple(0.1 * k for k in range(1, len(scale))),
                           0.0)
        gesture = make_gesture(Segment(0, 100), Archetype.ARPEGGIO_DETACHED,
                               kind=ShapeKind.STAIRCASE, fit=fit, mean_brightness=level)
        events = render_gesture(gesture, make_curve([level] * 100), harmony, SplitMix64(0))
        center = register_center(level, register)
        placed = [_parent_voice_near(pc, center) for pc in scale]
        assert any(not 0 <= pitch <= 127 for pitch in placed)
        assert [e.pitch for e in events] == [_parent_fold(pitch) for pitch in placed]
        assert all(0 <= e.pitch <= 127 for e in events)
        assert [e.pitch % 12 for e in events] == list(scale)


def _restarted_pitches(chord, motif_id, harmony, count):
    """The arpeggio's pitch walk as a restart loop once wrote it: the oracle
    the cycle is held to."""
    scale = harmony.scale
    size = len(scale)
    floor = max(0, harmony.register[0] - 12)
    out = []
    while len(out) < count:
        out.extend(chord[::-1][: count - len(out)])
        idx = motif_id % size
        pitch = chord[0]
        while len(out) < count:
            step = (scale[idx % size] - scale[(idx - 1) % size]) % 12
            step = step or 12
            pitch -= step
            idx -= 1
            if pitch < floor:
                break
            out.append(pitch)
    return out[:count]


class TestDescendingPitches:
    @given(st.sets(st.integers(0, 11), min_size=1).map(sorted), st.integers(0, 11),
           st.lists(st.integers(0, 127), min_size=2, max_size=2, unique=True).map(sorted),
           st.integers(0, 1000), st.floats(0.0, 1.0), st.integers(0, 200))
    def test_the_cycle_matches_the_restart_loop(self, scale, root_pc, register, motif,
                                                 brightness, count):
        harmony = HarmonyConfig(tuple(scale), root_pc, tuple(register))
        chord = chord_for(motif, register_center(brightness, harmony.register), harmony)
        assert (composition._descending_pitches(chord, motif, harmony, count)
                == _restarted_pitches(chord, motif, harmony, count))


class TestArpeggioTimes:
    def test_tau_of_one_rho_step_per_second_gives_integer_onsets(self):
        fit = ExpFit(0.0, 0.5, 1.0 / math.log(1.0 / ARPEGGIO_RHO), 0.0)
        times = arpeggio_times(fit, 3.5)
        assert times == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_default_rho_spacing_is_uniform(self):
        fit = ExpFit(0.1, 0.6, 2.0, 0.0)
        times = arpeggio_times(fit, 2.0)
        spacing = 2.0 * math.log(1.25)
        assert times == pytest.approx(
            [spacing * k for k in range(1, len(times) + 1)], rel=1e-12
        )
        assert spacing == pytest.approx(0.44629, abs=5e-6)

    def test_short_segment_yields_nothing(self):
        fit = ExpFit(0.0, 0.5, 0.45 / math.log(1.0 / 0.8), 0.0)
        assert arpeggio_times(fit, 0.3) == []

    def test_at_most_32_onsets(self):
        fit = ExpFit(0.0, 0.5, 0.01, 0.0)
        assert len(arpeggio_times(fit, 1000.0)) == 32

    def test_rising_fit_rejected(self):
        assert arpeggio_times(ExpFit(0.9, -0.5, 1.0, 0.0), 5.0) == []

    def test_degenerate_fit_rejected(self):
        assert arpeggio_times(ExpFit(0.5, 0.0, 1.0, 0.0, degenerate=True), 5.0) == []

    @given(st.builds(ExpFit, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                     st.floats(0.0, exclude_min=True, allow_infinity=False),
                     st.just(0.0), st.booleans()),
           st.floats(-1.0, 1e6) | st.floats(allow_nan=False))
    @settings(max_examples=50)
    def test_the_filter_matches_the_loop(self, fit, duration_s):
        assert arpeggio_times(fit, duration_s) == _parent_arpeggio_times(fit, duration_s)


# The rules of render_gesture as they were written out once per archetype,
# one velocity_at call and one channel argument per note: the oracle the one
# note maker and the one onset grid are held to.  Its pitch clamp never
# acts, since the voicing keeps every key in [0, 127].

def _parent_velocity_at(value):
    return max(1, min(127, round_half_up(20.0 + 100.0 * min(1.0, max(0.0, value)))))


def _parent_arpeggio_times(fit, duration_s):
    if fit.scale <= 0 or fit.degenerate:
        return []
    spacing = fit.tau_s * math.log(1.0 / ARPEGGIO_RHO)
    times = []
    for k in range(1, 33):
        t = spacing * k
        if t >= duration_s:
            break
        times.append(t)
    return times


def _parent_note(onset, duration, pitch, velocity, channel):
    return MusicalEvent(onset, duration, max(0, min(127, pitch)), velocity, channel)


def _parent_render(gesture, curve, harmony, rng, lambda_max, grain_s):
    rate = curve.sample_rate
    seg = gesture.segment
    seg_start = seg.start_idx / rate
    seg_end = seg.end_idx / rate
    seg_dur = seg_end - seg_start
    center = register_center(gesture.mean_brightness, harmony.register)
    motif = gesture.motif_id or 0
    chord = chord_for(motif, center, harmony)
    channel = harmony.channel
    onset = seg_start
    if gesture.transient is not None:
        onset = seg_start + gesture.transient.onset_idx / rate
    body_at = seg_start + body_start(seg.end_idx - seg.start_idx, gesture.transient) / rate
    arche = gesture.archetype
    events = []
    if arche in (Archetype.CHORD_RESONANCE, Archetype.CHORD_HELD,
                 Archetype.CRESCENDO_HELD, Archetype.DIMINUENDO_HELD):
        vel = _parent_velocity_at(_value_at(curve, onset))
        for pitch in chord:
            events.append(_parent_note(onset, seg_end - onset, pitch, vel, channel))
    elif arche is Archetype.CHORD_ARPEGGIO:
        vel = _parent_velocity_at(_value_at(curve, onset))
        chord_dur = min(1.0, 0.25 * seg_dur)
        for pitch in chord:
            events.append(_parent_note(onset, chord_dur, pitch, vel, channel))
        fit = gesture.fit
        if isinstance(fit, ExpFit):
            times = _parent_arpeggio_times(fit, seg_end - body_at)
            pitches = _descending_pitches(chord, motif, harmony, len(times))
            for t, pitch in zip(times, pitches):
                at = body_at + t
                dur = min(0.8 * times[0], seg_end + 1.0 - at)
                events.append(_parent_note(at, dur, pitch,
                                           _parent_velocity_at(_value_at(curve, at)), channel))
    elif arche is Archetype.TREMOLO_SCRATCH:
        period = 0.120 - 0.085 * gesture.granularity
        k = 0
        while (at := onset + k * period) < seg_end - 1e-9:
            events.append(_parent_note(at, 0.6 * period, chord[0],
                                       _parent_velocity_at(_value_at(curve, at)), channel))
            k += 1
    elif arche is Archetype.ARPEGGIO_DETACHED:
        fit = gesture.fit
        scale = harmony.scale
        size = len(scale)
        j = motif % size
        if isinstance(fit, StaircaseFit):
            onsets = (0.0,) + fit.step_times_s
            for k, (t, level) in enumerate(zip(onsets, fit.levels)):
                pc = (scale[(j + k) % size] + harmony.root_pc) % 12
                pitch = _voice_near(pc, register_center(min(1.0, max(0.0, level)),
                                                        harmony.register))
                events.append(_parent_note(body_at + t, 0.2, pitch,
                                           _parent_velocity_at(level), channel))
        else:
            events.append(_parent_note(body_at, 0.2, chord[0],
                                       _parent_velocity_at(_value_at(curve, body_at)), channel))
    else:
        pcs = {(s + harmony.root_pc) % 12 for s in harmony.scale}
        candidates = [p for p in range(center - 12, center + 13)
                      if p % 12 in pcs and 0 <= p <= 127]
        k = 0
        while (at := seg_start + k * TEXTURE_GRID_S) < seg_end - 1e-9:
            draw = rng.next_unit()
            value = _value_at(curve, at)
            if draw < lambda_max * gesture.granularity * value * TEXTURE_GRID_S:
                pick = rng.next_unit()
                pitch = candidates[min(len(candidates) - 1, int(pick * len(candidates)))]
                events.append(_parent_note(at, grain_s, pitch, _parent_velocity_at(value),
                                           channel))
            k += 1
    return events


@st.composite
def renderings(draw):
    """(gesture, curve, harmony, seed, lambda_max, grain_s): a gesture of any
    archetype, transient and fit on a curve of up to 100 samples, and a
    harmony whose register keeps every chord tone on the keyboard: tones lie
    within 6 below and 29 above the register's centre."""
    rate = draw(st.floats(0.5, 1000.0))
    n = draw(st.integers(1, 100))
    curve = make_curve(draw(st.lists(st.floats(-0.1, 1.1), min_size=n, max_size=n)), rate)
    start = draw(st.integers(0, n - 1))
    gesture = draw(gestures_on(rate, start, draw(st.integers(start + 1, n))))
    harmony = HarmonyConfig(
        tuple(draw(st.sets(st.integers(0, 11), min_size=1).map(sorted))),
        draw(st.integers(0, 11)),
        tuple(draw(st.lists(st.integers(6, 98), min_size=2, max_size=2, unique=True).map(sorted))),
        channel=draw(st.integers(0, 15)))
    return (gesture, curve, harmony, draw(st.integers(0, 2 ** 64 - 1)),
            draw(st.floats(0.0, 1e6, exclude_min=True)),
            draw(st.floats(0.0, 1.0, exclude_min=True)))


class TestRenderMatchesTheRulesWrittenOut:
    @given(renderings())
    @settings(max_examples=40, deadline=None)
    def test_same_events_and_draws(self, case):
        gesture, curve, harmony, seed, lambda_max, grain_s = case
        rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
        assert (render_gesture(gesture, curve, harmony, rng, lambda_max, grain_s)
                == _parent_render(gesture, curve, harmony, oracle_rng, lambda_max, grain_s))
        assert rng.next_u64() == oracle_rng.next_u64()


class TestRenderGesture:
    def test_held_chord_spans_transient_to_segment_end(self):
        curve = make_curve([0.6] * 700)
        gesture = make_gesture(
            Segment(500, 700),
            Archetype.CHORD_HELD,
            transient=TransientInfo(5, 0.5),
            mean_brightness=0.6,
        )
        events = render_gesture(gesture, curve, HarmonyConfig(), SplitMix64(0))
        assert len(events) == 3
        assert all(e.onset_s == pytest.approx(10.1, abs=1e-12) for e in events)
        assert all(e.duration_s == pytest.approx(3.9, abs=1e-12) for e in events)
        assert sorted(e.pitch for e in events) == [60, 63, 67]
        assert all(e.velocity == velocity_at(0.6) for e in events)

    def test_resonance_chord_rings_to_segment_end(self):
        curve = make_curve([0.8] * 250)
        gesture = make_gesture(
            Segment(0, 250),
            Archetype.CHORD_RESONANCE,
            kind=ShapeKind.LINEAR_DECAY,
            transient=TransientInfo(3, 0.6),
            mean_brightness=0.5,
        )
        events = render_gesture(gesture, curve, HarmonyConfig(), SplitMix64(0))
        assert len(events) == 3
        assert all(e.onset_s == pytest.approx(0.06, abs=1e-12) for e in events)
        assert all(
            e.onset_s + e.duration_s == pytest.approx(5.0, abs=1e-12)
            for e in events
        )

    def test_arpeggio_follows_decay_spacing(self):
        curve = make_curve([0.7] * 250)
        fit = ExpFit(0.1, 0.8, 1.5, 0.0)
        gesture = make_gesture(
            Segment(0, 250),
            Archetype.CHORD_ARPEGGIO,
            kind=ShapeKind.EXPONENTIAL_DECAY,
            transient=TransientInfo(3, 0.6),
            fit=fit,
            mean_brightness=0.5,
        )
        events = render_gesture(gesture, curve, HarmonyConfig(), SplitMix64(0))
        spacing = 1.5 * math.log(1.25)
        body_start = 4 / RATE
        expected_arps = len(arpeggio_times(fit, 5.0 - body_start))
        assert len(events) == 3 + expected_arps
        chord_events = events[:3]
        assert all(
            e.duration_s == pytest.approx(min(1.0, 0.25 * 5.0), abs=1e-12)
            for e in chord_events
        )
        arps = events[3:]
        for k, event in enumerate(arps, start=1):
            assert event.onset_s == pytest.approx(
                body_start + spacing * k, abs=1e-9
            )
            assert event.duration_s == pytest.approx(0.8 * spacing, abs=1e-9)

    def test_tremolo_period_tracks_granularity(self):
        curve = make_curve([0.5] * 50)
        gesture = make_gesture(
            Segment(0, 50),
            Archetype.TREMOLO_SCRATCH,
            kind=ShapeKind.LINEAR_RISE,
            granularity=0.8,
            mean_brightness=0.5,
        )
        events = render_gesture(gesture, curve, HarmonyConfig(), SplitMix64(0))
        period = 0.120 - 0.085 * 0.8
        assert len(events) == math.ceil((1.0 - 1e-9) / period)
        root = chord_for(0, 60, HarmonyConfig())[0]
        assert all(e.pitch == root for e in events)
        for k, event in enumerate(events):
            assert event.onset_s == pytest.approx(k * period, abs=1e-12)
            assert event.duration_s == pytest.approx(0.6 * period, abs=1e-12)

    def test_detached_arpeggio_walks_the_scale_up(self):
        curve = make_curve([0.5] * 100)
        fit = StaircaseFit((0.2, 0.4, 0.6, 0.8), (0.5, 1.0, 1.5), 0.0)
        gesture = make_gesture(
            Segment(0, 100),
            Archetype.ARPEGGIO_DETACHED,
            kind=ShapeKind.STAIRCASE,
            fit=fit,
            mean_brightness=0.5,
        )
        events = render_gesture(gesture, curve, HarmonyConfig(), SplitMix64(0))
        assert len(events) == 4
        assert [e.onset_s for e in events] == pytest.approx(
            [0.0, 0.5, 1.0, 1.5], abs=1e-12
        )
        assert all(e.duration_s == pytest.approx(0.2, abs=1e-12) for e in events)
        scale = HarmonyConfig().scale
        assert [e.pitch % 12 for e in events] == [scale[k] for k in range(4)]
        assert [e.velocity for e in events] == [
            velocity_at(v) for v in (0.2, 0.4, 0.6, 0.8)
        ]
        # an override can force the archetype onto a fit without steps: one
        # note on the chord's root where the body starts, after the transient
        curve = make_curve([0.1] * 105 + [0.9] * 95)
        gesture = make_gesture(
            Segment(100, 200),
            Archetype.ARPEGGIO_DETACHED,
            kind=ShapeKind.LINEAR_RISE,
            transient=TransientInfo(4, 0.3),
            fit=LinearFit(0.5, 0.1, 0.0),
            mean_brightness=0.5,
        )
        events = render_gesture(gesture, curve, HarmonyConfig(), SplitMix64(0))
        root = chord_for(0, register_center(0.5, HarmonyConfig().register), HarmonyConfig())[0]
        assert [(e.onset_s, e.duration_s, e.pitch, e.velocity) for e in events] == [
            (pytest.approx(2.1, abs=1e-12), 0.2, root, velocity_at(0.9))]

    # the closer octave of motif 0's root at full brightness on [100, 127] is
    # key 132, and of motif 4's in darkness on [0, 1] key -5, both past the
    # keyboard; each root takes the octave on it, and the chord stacks there
    @pytest.mark.parametrize("register, brightness, motif, keys", [
        ((100, 127), 1.0, 0, [120, 123, 127]), ((0, 1), 0.0, 4, [7, 10, 14])])
    def test_a_chord_past_the_keyboard_moves_by_octaves(self, register, brightness,
                                                         motif, keys):
        curve = make_curve([brightness] * 100)

        def chord(register):
            gesture = make_gesture(Segment(0, 100), Archetype.CHORD_HELD,
                                   mean_brightness=brightness, motif_id=motif)
            harmony = HarmonyConfig(register=register)
            return sorted(e.pitch for e in render_gesture(gesture, curve, harmony, SplitMix64(0)))

        assert chord(register) == keys
        assert {p % 12 for p in keys} == {p % 12 for p in chord((36, 84))}

    # one pitch class stacked at 132, 144 and 156 once played key 120 three times
    @given(st.sets(st.integers(0, 11), min_size=1).map(sorted), st.integers(0, 11),
           st.lists(st.integers(0, 127), min_size=2, max_size=2, unique=True).map(sorted),
           st.integers(0, 1000), st.floats(0.0, 1.0))
    @example([0], 0, [100, 127], 0, 1.0)
    def test_a_held_chord_plays_three_keys_at_any_register(self, scale, root_pc, register,
                                                           motif, brightness):
        gesture = make_gesture(Segment(0, 100), Archetype.CHORD_HELD,
                               mean_brightness=brightness, motif_id=motif)
        harmony = HarmonyConfig(tuple(scale), root_pc, tuple(register))
        keys = [e.pitch for e in render_gesture(gesture, make_curve([brightness] * 100),
                                                harmony, SplitMix64(0))]
        assert len(set(keys)) == 3 and all(0 <= key <= 127 for key in keys), keys
        home = chord_for(motif, register_center(brightness, (36, 84)),
                         HarmonyConfig(tuple(scale), root_pc, (36, 84)))
        assert sorted(key % 12 for key in keys) == sorted(p % 12 for p in home)

    def test_granular_with_zero_granularity_is_silent(self):
        curve = make_curve([0.9] * 100)
        gesture = make_gesture(
            Segment(0, 100),
            Archetype.GRANULAR_TEXTURE,
            kind=ShapeKind.CHAOTIC,
            granularity=0.0,
        )
        for seed in (0, 1, 99):
            events = render_gesture(
                gesture, curve, HarmonyConfig(), SplitMix64(seed)
            )
            assert events == []

    def test_granular_matches_golden_reference(self):
        golden = json.loads((DATA / "granular_golden.json").read_text())
        curve = make_curve([golden["brightness"]] * 50)
        gesture = make_gesture(
            Segment(0, 50),
            Archetype.GRANULAR_TEXTURE,
            kind=ShapeKind.CHAOTIC,
            granularity=golden["granularity"],
            mean_brightness=golden["brightness"],
        )
        events = render_gesture(
            gesture, curve, HarmonyConfig(), SplitMix64(golden["seed"])
        )
        assert len(events) == len(golden["events"])
        for event, expected in zip(events, golden["events"]):
            assert event.onset_s == expected["onset_s"]
            assert event.duration_s == expected["duration_s"]
            assert event.pitch == expected["pitch"]
            assert event.velocity == expected["velocity"]
            assert event.channel == expected["channel"]

    def test_only_granular_consumes_randomness(self):
        curve = make_curve([0.5] * 250)
        quiet = [
            make_gesture(
                Segment(0, 250), Archetype.CHORD_HELD,
                transient=TransientInfo(2, 0.5),
            ),
            make_gesture(
                Segment(0, 250), Archetype.CHORD_RESONANCE,
                kind=ShapeKind.LINEAR_DECAY, transient=TransientInfo(2, 0.5),
            ),
            make_gesture(
                Segment(0, 250), Archetype.CHORD_ARPEGGIO,
                kind=ShapeKind.EXPONENTIAL_DECAY,
                transient=TransientInfo(2, 0.5), fit=ExpFit(0.1, 0.8, 1.5, 0.0),
            ),
            make_gesture(
                Segment(0, 250), Archetype.TREMOLO_SCRATCH,
                kind=ShapeKind.LINEAR_RISE, granularity=0.9,
            ),
            make_gesture(
                Segment(0, 250), Archetype.ARPEGGIO_DETACHED,
                kind=ShapeKind.STAIRCASE,
                fit=StaircaseFit((0.2, 0.6), (2.0,), 0.0),
            ),
            make_gesture(Segment(0, 250), Archetype.CRESCENDO_HELD,
                         kind=ShapeKind.LINEAR_RISE),
            make_gesture(Segment(0, 250), Archetype.DIMINUENDO_HELD,
                         kind=ShapeKind.LINEAR_DECAY),
        ]
        for gesture in quiet:
            rng = SplitMix64(1)
            before = rng.next_u64()
            rng2 = SplitMix64(1)
            render_gesture(gesture, curve, HarmonyConfig(), rng2)
            assert rng2.next_u64() == before

    def test_granular_advances_randomness(self):
        curve = make_curve([0.5] * 100)
        gesture = make_gesture(
            Segment(0, 100), Archetype.GRANULAR_TEXTURE,
            kind=ShapeKind.CHAOTIC, granularity=1.0,
        )
        probe = SplitMix64(1)
        first = probe.next_u64()
        rng = SplitMix64(1)
        render_gesture(gesture, curve, HarmonyConfig(), rng)
        assert rng.next_u64() != first


class TestExpressionTrack:
    def test_constant_curve_single_event(self):
        track = expression_track(make_curve([0.5] * 100))
        assert track == [ControlEvent(0.0, 11, 64, 0)]

    def test_linear_rise_values(self):
        values = np.linspace(0.0, 1.0, 21)
        track = expression_track(make_curve(values, rate=20.0))
        assert len(track) <= 21
        emitted = [e.value for e in track]
        assert emitted[:3] == [0, 6, 13]
        assert emitted == sorted(emitted)
        assert all(e.controller == 11 for e in track)

    def test_no_trailing_events_after_last_change(self):
        values = np.concatenate(([0.0], np.full(40, 0.5)))
        track = expression_track(make_curve(values, rate=20.0))
        assert len(track) == 2
        assert track[-1].time_s == pytest.approx(0.05, abs=1e-12)

    def test_values_outside_the_unit_range_are_clamped(self):
        track = expression_track(make_curve([1.7e308, -1.7e308, 1.0039, -0.0039], rate=20.0))
        assert [e.value for e in track] == [127, 0, 127, 0]

    def test_cap_admits_exactly_max_steps(self, monkeypatch):
        monkeypatch.setattr(composition, "MAX_CURVE_SAMPLES", 10)
        # 9 samples at 20 Hz take steps 0..9, ten of them; 10 samples take eleven
        expression_track(make_curve([0.5] * 9, rate=20.0))
        with pytest.raises(ValueError, match="needs more than 10 expression steps"):
            expression_track(make_curve([0.5] * 10, rate=20.0))

    # four samples at 1e-300 Hz last 4e300 s; at 5e-324 Hz the duration is inf
    @pytest.mark.parametrize("rate", [1e-300, 5e-324])
    def test_curve_past_the_cap_rejected(self, rate):
        with pytest.raises(ValueError, match="needs more than 16777216 expression steps"):
            expression_track(make_curve([0.5] * 4, rate=rate))


class TestCompose:
    def test_empty_gesture_list_gives_controls_only(self):
        curve = make_curve([0.5] * 100)
        score = compose([], curve)
        assert score.notes == []
        assert score.controls == expression_track(curve)

    def test_same_seed_reproduces_score(self):
        curve = make_curve([0.6] * 200)
        gestures = [
            make_gesture(Segment(0, 100), Archetype.GRANULAR_TEXTURE,
                         kind=ShapeKind.CHAOTIC, granularity=0.9),
            make_gesture(Segment(100, 200), Archetype.CRESCENDO_HELD,
                         kind=ShapeKind.LINEAR_RISE),
        ]
        first = compose(gestures, curve, seed=5)
        second = compose(gestures, curve, seed=5)
        assert first == second

    def test_different_seeds_change_granular_notes(self):
        curve = make_curve([0.6] * 200)
        gestures = [
            make_gesture(Segment(0, 200), Archetype.GRANULAR_TEXTURE,
                         kind=ShapeKind.CHAOTIC, granularity=0.9),
        ]
        one = compose(gestures, curve, seed=1)
        two = compose(gestures, curve, seed=2)
        assert one.notes != two.notes

    def test_notes_sorted_by_onset_then_pitch(self):
        curve = make_curve([0.5] * 500)
        gestures = [
            make_gesture(Segment(250, 500), Archetype.DIMINUENDO_HELD,
                         kind=ShapeKind.LINEAR_DECAY),
            make_gesture(Segment(0, 250), Archetype.CRESCENDO_HELD,
                         kind=ShapeKind.LINEAR_RISE),
        ]
        score = compose(gestures, curve)
        keys = [(e.onset_s, e.pitch) for e in score.notes]
        assert keys == sorted(keys)

    def test_gesture_list_order_is_irrelevant(self):
        curve = make_curve([0.5] * 200)
        def build(order):
            gestures = [
                make_gesture(Segment(0, 100), Archetype.GRANULAR_TEXTURE,
                             kind=ShapeKind.CHAOTIC, granularity=0.8),
                make_gesture(Segment(100, 200), Archetype.GRANULAR_TEXTURE,
                             kind=ShapeKind.CHAOTIC, granularity=0.8),
            ]
            return [gestures[i] for i in order]
        assert compose(build([0, 1]), curve, seed=9) == compose(
            build([1, 0]), curve, seed=9
        )

    def test_first_note_lands_on_the_transient(self):
        curve = make_curve([0.5] * 500)
        for archetype, kind in (
            (Archetype.CHORD_RESONANCE, ShapeKind.LINEAR_DECAY),
            (Archetype.CHORD_HELD, ShapeKind.PLATEAU),
            (Archetype.TREMOLO_SCRATCH, ShapeKind.LINEAR_RISE),
            (Archetype.CRESCENDO_HELD, ShapeKind.LINEAR_RISE),
        ):
            gesture = make_gesture(
                Segment(100, 500), archetype, kind=kind,
                transient=TransientInfo(4, 0.5), granularity=0.5,
            )
            score = compose([gesture], curve)
            onset = 100 / RATE + 4 / RATE
            assert abs(score.notes[0].onset_s - onset) <= 1.0 / RATE

    def test_pitch_and_velocity_bounds(self):
        curve = make_curve(
            np.abs(np.sin(np.arange(800) / 40.0)) * 0.9 + 0.05
        )
        gestures = [
            make_gesture(Segment(0, 100), Archetype.CHORD_RESONANCE,
                         kind=ShapeKind.LINEAR_DECAY,
                         transient=TransientInfo(2, 0.5), mean_brightness=0.9),
            make_gesture(Segment(100, 200), Archetype.CHORD_ARPEGGIO,
                         kind=ShapeKind.EXPONENTIAL_DECAY,
                         transient=TransientInfo(2, 0.5),
                         fit=ExpFit(0.1, 0.8, 0.5, 0.0), mean_brightness=0.1),
            make_gesture(Segment(200, 300), Archetype.TREMOLO_SCRATCH,
                         kind=ShapeKind.LINEAR_RISE, granularity=1.0,
                         mean_brightness=1.0),
            make_gesture(Segment(300, 400), Archetype.ARPEGGIO_DETACHED,
                         kind=ShapeKind.STAIRCASE,
                         fit=StaircaseFit((0.0, 1.0), (1.0,), 0.0)),
            make_gesture(Segment(400, 500), Archetype.GRANULAR_TEXTURE,
                         kind=ShapeKind.CHAOTIC, granularity=1.0,
                         mean_brightness=0.0),
            make_gesture(Segment(500, 600), Archetype.GRANULAR_TEXTURE,
                         kind=ShapeKind.CHAOTIC, granularity=1.0,
                         mean_brightness=1.0),
            make_gesture(Segment(600, 700), Archetype.CRESCENDO_HELD,
                         kind=ShapeKind.LINEAR_RISE, mean_brightness=0.95),
            make_gesture(Segment(700, 800), Archetype.CHORD_HELD,
                         kind=ShapeKind.PLATEAU,
                         transient=TransientInfo(1, 0.8), mean_brightness=0.02),
        ]
        score = compose(gestures, curve, seed=3)
        low, high = HarmonyConfig().register
        assert score.notes
        for event in score.notes:
            assert low - 12 <= event.pitch <= high + 12
            assert 1 <= event.velocity <= 127

    def test_brighter_curve_never_quieter(self):
        dim_curve = make_curve([0.3] * 200)
        bright_curve = make_curve([0.6] * 200)
        def render(curve):
            gesture = make_gesture(Segment(0, 200), Archetype.DIMINUENDO_HELD,
                                   kind=ShapeKind.PLATEAU,
                                   mean_brightness=float(curve.values[0]))
            return compose([gesture], curve)
        dim = render(dim_curve)
        bright = render(bright_curve)
        for a, b in zip(dim.notes, bright.notes):
            assert a.velocity <= b.velocity
        for a, b in zip(dim.controls, bright.controls):
            assert a.value <= b.value

    def test_shared_motifs_share_pitch_classes(self):
        curve = make_curve([0.2] * 250 + [0.8] * 250)
        gestures = [
            make_gesture(Segment(0, 250), Archetype.CRESCENDO_HELD,
                         kind=ShapeKind.LINEAR_RISE, mean_brightness=0.2,
                         motif_id=4),
            make_gesture(Segment(250, 500), Archetype.CRESCENDO_HELD,
                         kind=ShapeKind.LINEAR_RISE, mean_brightness=0.8,
                         motif_id=4),
        ]
        score = compose(gestures, curve)
        first = {e.pitch % 12 for e in score.notes if e.onset_s < 5.0}
        second = {e.pitch % 12 for e in score.notes if e.onset_s >= 5.0}
        assert first == second
