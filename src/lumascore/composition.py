"""Rule-based rendering of classified gestures into a note list.

Every archetype maps to one small playing pattern.  The only stochastic
pattern is the granular texture; it draws from a SplitMix64 generator so
scores are reproducible bit for bit from the seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .curveprep import round_half_up
from .gestures import Archetype, ExpFit, Gesture, StaircaseFit, body_start
from .photometry import MAX_CURVE_SAMPLES, BrightnessCurve

MASK64 = (1 << 64) - 1
ARPEGGIO_RHO = 0.8
EXPRESSION_RATE_HZ = 20.0
TEXTURE_GRID_S = 0.01
# the longest curve a report may hold, about 46.6 h: a granular texture over
# all of it draws MAX_CURVE_SAMPLES times, the step cap of the other loops
MAX_FILM_S = MAX_CURVE_SAMPLES * TEXTURE_GRID_S


def check_film_length(duration_s: float, curve: str, error: type = ValueError) -> None:
    """Refuse a curve that lasts longer than MAX_FILM_S; `curve` names it."""
    if duration_s > MAX_FILM_S:
        raise error("%s lasts %.10g s, longer than the %.10g s limit"
                    % (curve, duration_s, MAX_FILM_S))


class SplitMix64:
    """SplitMix64 sequence; unit reals are draws divided by 2**64."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def next_unit(self) -> float:
        return self.next_u64() / 2.0 ** 64


@dataclass(frozen=True)
class HarmonyConfig:
    """Musical settings; each number and list carries the rules a config may set."""

    scale: tuple[int, ...] = field(default=(0, 2, 3, 5, 7, 8, 10), metadata={
        "items": "[0, 11]", "increasing": True, "nonempty": True})
    root_pc: int = field(default=0, metadata={"range": "[0, 11]"})
    register: tuple[int, int] = field(default=(36, 84), metadata={
        "items": "[0, 127]", "increasing": True})
    # the SMF tempo is 60e6 / bpm microseconds in 24 bits, so at least ~3.58
    tempo_bpm: float = field(default=60.0, metadata={"range": "[4, 1000]"})
    ppq: int = field(default=480, metadata={"range": "[24, 32767]"})
    channel: int = field(default=0, metadata={"range": "[0, 15]"})


@dataclass
class TextureConfig:
    """Granular texture settings, each with the range a config may set."""

    lambda_max: float = field(default=40.0, metadata={"range": "(0, inf)"})
    # a grain starts inside its segment, so at most 1 s it rings no further
    # past the segment than an arpeggio may
    grain_ms: float = field(default=60.0, metadata={"range": "(0, 1000]"})

    @property
    def grain_s(self) -> float:
        return self.grain_ms / 1000.0


@dataclass(frozen=True)
class MusicalEvent:
    onset_s: float
    duration_s: float
    pitch: int
    velocity: int
    channel: int


@dataclass(frozen=True)
class ControlEvent:
    time_s: float
    controller: int
    value: int
    channel: int = 0


@dataclass
class Score:
    notes: list[MusicalEvent]
    controls: list[ControlEvent]
    tempo_bpm: float
    ppq: int


def _clamp_unit(value: float) -> float:
    return min(1.0, max(0.0, value))


def register_center(mean_brightness: float, register: tuple[int, int]) -> int:
    """Map brightness in [0, 1] onto a pitch inside the register."""
    low, high = register
    return low + round_half_up(mean_brightness * (high - low))


def velocity_at(value: float) -> int:
    return round_half_up(20.0 + 100.0 * _clamp_unit(value))


def _voice_near(pitch_class: int, center: int) -> int:
    """The key of a pitch class closest to center among keys 0-127, ties
    downward; center is a key, so one of the two candidates is on the
    keyboard."""
    up = center + (pitch_class - center) % 12
    down = up - 12
    if down < 0 or up <= 127 and up - center < center - down:
        return up
    return down


def chord_for(motif_id: int, center: int, harmony: HarmonyConfig) -> list[int]:
    """Triad on the scale degree selected by the motif, voiced near center.

    The root goes to its closest key; the third and fifth of the scale
    stack upward from it so the pitch-class content depends only on the
    motif and harmony, never on the register.  A chord whose top would pass
    the keyboard moves down onto it by whole octaves, all its tones
    together, so they stay three keys (the chord spans at most two octaves).
    """
    scale = harmony.scale
    size = len(scale)
    j = motif_id % size
    root_pc = (scale[j] + harmony.root_pc) % 12
    root = _voice_near(root_pc, center)
    notes = [root]
    for degree in (2, 4):
        interval = (scale[(j + degree) % size] - scale[j]) % 12
        note = root + interval
        while note in notes:
            note += 12
        notes.append(note)
    notes.sort()
    while notes[-1] > 127:
        notes = [note - 12 for note in notes]
    return notes


def arpeggio_times(fit: ExpFit, duration_s: float) -> list[float]:
    """Onsets where the decay envelope loses another factor of ARPEGGIO_RHO.

    Times are relative to the fit's own origin and truncated to the given
    duration, at most 32 of them; a fit that does not decay gives none.
    """
    if fit.scale <= 0 or fit.degenerate:
        return []
    spacing = fit.tau_s * math.log(1.0 / ARPEGGIO_RHO)
    return [spacing * k for k in range(1, 33) if spacing * k < duration_s]


def _value_at(curve: BrightnessCurve, t: float) -> float:
    idx = round_half_up((t - curve.t0) * curve.sample_rate)
    idx = max(0, min(len(curve.values) - 1, idx))
    return float(curve.values[idx])


def _grid(start: float, step: float, end: float) -> Iterator[float]:
    """Onsets start + k * step, k = 0, 1, ..., for as long as they fall before end."""
    k = 0
    while (at := start + k * step) < end - 1e-9:
        yield at
        k += 1


def _descending_pitches(chord: list[int], motif_id: int, harmony: HarmonyConfig, count: int) -> list[int]:
    """Chord tones top down, then scale degrees walking below the root.

    The sequence cycles back to the top where the walk would leave the
    playable range, which keeps long runs cycling instead of falling off the
    keyboard.
    """
    scale = harmony.scale
    size = len(scale)
    floor = max(0, harmony.register[0] - 12)
    cycle = chord[::-1]
    pitch, idx = chord[0], motif_id % size
    while True:
        # a repeated degree steps down an octave, so every step falls
        pitch -= (scale[idx % size] - scale[(idx - 1) % size]) % 12 or 12
        if pitch < floor:
            return [cycle[i % len(cycle)] for i in range(count)]
        cycle.append(pitch)
        idx -= 1


def render_gesture(
    gesture: Gesture,
    curve: BrightnessCurve,
    harmony: HarmonyConfig,
    rng: SplitMix64,
    lambda_max: float = TextureConfig.lambda_max,
    grain_s: float = TextureConfig().grain_s,
) -> list[MusicalEvent]:
    """Render one gesture; only the granular texture consumes the rng."""
    rate = curve.sample_rate
    seg = gesture.segment
    seg_start = seg.start_idx / rate
    seg_end = seg.end_idx / rate
    seg_dur = seg_end - seg_start
    center = register_center(gesture.mean_brightness, harmony.register)
    motif = gesture.motif_id or 0
    chord = chord_for(motif, center, harmony)
    onset = seg_start
    if gesture.transient is not None:
        onset = seg_start + gesture.transient.onset_idx / rate
    # where classify fitted the body, so its fits play where they were measured
    body_at = seg_start + body_start(seg.end_idx - seg.start_idx, gesture.transient) / rate

    def note(at: float, duration: float, pitch: int, level: float | None = None) -> MusicalEvent:
        """A note as loud as ``level``, or as the curve at its onset, on the
        harmony's channel; the voicing has already placed ``pitch`` on the
        keyboard."""
        value = _value_at(curve, at) if level is None else level
        return MusicalEvent(at, duration, pitch, velocity_at(value), harmony.channel)

    arche = gesture.archetype
    if arche in (Archetype.CHORD_RESONANCE, Archetype.CHORD_HELD,
                 Archetype.CRESCENDO_HELD, Archetype.DIMINUENDO_HELD):
        return [note(onset, seg_end - onset, pitch) for pitch in chord]
    if arche is Archetype.CHORD_ARPEGGIO:
        events = [note(onset, min(1.0, 0.25 * seg_dur), pitch) for pitch in chord]
        fit = gesture.fit
        if isinstance(fit, ExpFit):
            times = arpeggio_times(fit, seg_end - body_at)
            pitches = _descending_pitches(chord, motif, harmony, len(times))
            # 80% of the inter-onset gap, times[0], but a slowly fitted decay must
            # not ring past the one-second tail allowed after the segment
            events += [note(at, min(0.8 * times[0], seg_end + 1.0 - at), pitch)
                       for at, pitch in zip([body_at + t for t in times], pitches)]
        return events
    if arche is Archetype.TREMOLO_SCRATCH:
        period = 0.120 - 0.085 * gesture.granularity
        # the train starts on the transient when one was detected, so the
        # first attack stays synchronized with the visual accent
        return [note(at, 0.6 * period, chord[0]) for at in _grid(onset, period, seg_end)]
    if arche is Archetype.ARPEGGIO_DETACHED:
        fit = gesture.fit
        if not isinstance(fit, StaircaseFit):
            # archetype forced onto a segment without staircase structure
            return [note(body_at, 0.2, chord[0])]
        scale = harmony.scale

        def step_pitch(k: int, level: float) -> int:
            pc = (scale[(motif + k) % len(scale)] + harmony.root_pc) % 12
            return _voice_near(pc, register_center(_clamp_unit(level), harmony.register))

        return [note(body_at + t, 0.2, step_pitch(k, level), level)
                for k, (t, level) in enumerate(zip((0.0,) + fit.step_times_s, fit.levels))]
    # GranularTexture
    pcs = {(s + harmony.root_pc) % 12 for s in harmony.scale}
    candidates = [p for p in range(center - 12, center + 13)
                  if p % 12 in pcs and 0 <= p <= 127]
    events = []
    for at in _grid(seg_start, TEXTURE_GRID_S, seg_end):
        draw = rng.next_unit()
        value = _value_at(curve, at)
        if draw < lambda_max * gesture.granularity * value * TEXTURE_GRID_S:
            pick = rng.next_unit()
            pitch = candidates[min(len(candidates) - 1, int(pick * len(candidates)))]
            events.append(note(at, grain_s, pitch, value))
    return events


def expression_track(curve: BrightnessCurve, channel: int = 0) -> list[ControlEvent]:
    """Controller 11 following the curve at EXPRESSION_RATE_HZ, duplicate
    values suppressed."""
    last = curve.duration * EXPRESSION_RATE_HZ + 1e-9  # inf at a tiny curve rate; `<` rejects it
    if not last < MAX_CURVE_SAMPLES:
        raise ValueError("a %.6g s curve needs more than %d expression steps"
                         % (curve.duration, MAX_CURVE_SAMPLES))
    steps = int(math.floor(last))
    events: list[ControlEvent] = []
    previous = -1
    for k in range(steps + 1):
        t = k / EXPRESSION_RATE_HZ
        value = round_half_up(_clamp_unit(_value_at(curve, t)) * 127.0)
        if value != previous:
            events.append(ControlEvent(t, 11, value, channel))
            previous = value
    return events


def compose(
    gestures: list[Gesture],
    curve: BrightnessCurve,
    harmony: HarmonyConfig = HarmonyConfig(),
    seed: int = 0,
    lambda_max: float = TextureConfig.lambda_max,
    grain_s: float = TextureConfig().grain_s,
) -> Score:
    """Render all gestures against one rng stream and assemble the score."""
    # first, so a curve too long to follow is refused before any rendering
    controls = expression_track(curve, channel=harmony.channel)
    rng = SplitMix64(seed)
    notes: list[MusicalEvent] = []
    for gesture in sorted(gestures, key=lambda g: g.segment.start_idx):
        notes.extend(
            render_gesture(gesture, curve, harmony, rng, lambda_max, grain_s)
        )
    notes.sort(key=lambda e: (e.onset_s, e.pitch))
    return Score(notes, controls, harmony.tempo_bpm, harmony.ppq)
