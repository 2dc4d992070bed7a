"""Curve CSV exchange and the canonical analysis report.

The report, ``analysis.json``, has sorted keys, two-space indentation and
shortest round-trip floats, so re-serializing a parsed report reproduces it
byte for byte.  Its records are the dataclasses below, which `schema`'s
walker writes and reads, refusing unknown keys; after every record's fields
come the rules that span records: the version, segments in time order, not
overlapping and inside the embedded curve, each fit's ``model``, a staircase's
steps inside its segment's body, and a curve at ``rate_hz`` that lasts at
most composition.MAX_FILM_S seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .composition import check_film_length
from .config import PipelineConfig
from .curveprep import round_half_up
from .gestures import (
    Archetype,
    ExpFit,
    Gesture,
    LinearFit,
    ShapeKind,
    StaircaseFit,
    TransientInfo,
    body_start,
)
from .photometry import BrightnessCurve, CurveChannel, CurveSet
from .schema import load_json, parse_record, plan, to_json
from .segmentation import Segment

REPORT_VERSION = "1"
# times are written with six decimals, so faster samples would share a time
MAX_CSV_RATE_HZ = 1e6


class ReportFormatError(ValueError):
    pass


class CsvFormatError(ValueError):
    pass


def write_curves_csv(curves: CurveSet) -> bytes:
    """Six-decimal CSV, one row per sample, channels in fixed order."""
    present = [c for c in CurveChannel if c in curves.curves]
    if not present:
        raise ValueError("no curves to write")
    columns = [curves.curves[c].values for c in present]
    n = len(columns[0])
    for channel, column in zip(present, columns):
        if len(column) != n:
            raise ValueError("curve %s has mismatched length" % channel.value)
    rate = curves.curves[present[0]].sample_rate
    if rate > MAX_CSV_RATE_HZ:
        raise ValueError("sample rate %g Hz is above %g Hz, the finest rate the "
                         "six-decimal time column resolves" % (rate, MAX_CSV_RATE_HZ))
    lines = ["time_s," + ",".join(c.value for c in present)]
    row = ",".join(["%.6f"] * (1 + len(columns)))
    lines.extend(row % values for values in zip(np.arange(n) / rate, *columns))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_curves_csv(data: bytes, source_path: str = "<curves>") -> dict[CurveChannel, BrightnessCurve]:
    """Read curves back; the rate is recovered from the time column."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CsvFormatError("%s: not ASCII (%s)" % (source_path, exc)) from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError("%s: empty file" % source_path)
    header = lines[0].split(",")
    if header[:1] != ["time_s"] or len(header) < 2:
        raise CsvFormatError("%s: header must start with time_s" % source_path)
    channels = []
    for name in header[1:]:
        try:
            channel = CurveChannel(name)
        except ValueError:
            raise CsvFormatError("%s: unknown channel %r" % (source_path, name)) from None
        if channel in channels:
            raise CsvFormatError("%s: repeated channel %r" % (source_path, name))
        channels.append(channel)
    if len(lines) < 2:
        raise CsvFormatError("%s: no samples" % source_path)
    # NumPy converts each field as float() does and raises float()'s message
    table = np.empty((len(lines) - 1, len(header)))
    for ln, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise CsvFormatError("%s: line %d has %d fields, expected %d"
                                 % (source_path, ln, len(fields), len(header)))
        try:
            table[ln - 2] = fields
        except ValueError as exc:
            raise CsvFormatError("%s: line %d: %s" % (source_path, ln, exc)) from exc
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise CsvFormatError("%s: line %d: value is not finite"
                             % (source_path, int(np.argmin(finite)) + 2))
    times, values = table[:, 0], table[:, 1:]
    first = float(times[0])
    # the curve's t0 is 0, as extract writes it; a later first time would
    # shift every sample back to the film's start
    if abs(first) > 1e-6:
        raise CsvFormatError("%s: line 2: time_s %r must be 0, the start of the film"
                             % (source_path, first))
    # every channel is a brightness in [0, 1], as extract writes it; a value
    # outside would pass into the analysis as an impossible brightness
    outside = (values < 0.0) | (values > 1.0)
    if outside.any():
        row, column = divmod(int(np.argmax(outside)), len(channels))
        raise CsvFormatError("%s: line %d: %s value %r is outside [0, 1]"
                             % (source_path, row + 2, channels[column].value,
                                float(values[row, column])))
    # the rate comes from the first and last time, so a column that stalls
    # or runs backwards would give a wrong rate
    rising = np.diff(times) > 0
    if not rising.all():
        raise CsvFormatError("%s: line %d: time_s is not strictly increasing"
                             % (source_path, int(np.argmin(rising)) + 3))
    n = len(times)
    # a single row carries no timing, fall back to 1 Hz
    rate = (n - 1) / (float(times[-1]) - first) if n > 1 else 1.0
    # the rate holds only if every time lies on the grid it spans; 1e-6 s
    # covers two six-decimal roundings, the time's own and the last time's
    off = np.abs(times - (first + np.arange(n) / rate)) > 0.5 / rate + 1e-6
    if off.any():
        row = int(np.argmax(off))
        raise CsvFormatError("%s: line %d: time_s %r lies off the %g Hz grid from the first "
                             "time to the last" % (source_path, row + 2, float(times[row]), rate))
    return {
        channel: BrightnessCurve(channel, rate, 0.0, values[:, i].copy())
        for i, channel in enumerate(channels)
    }


@dataclass
class _Channel:
    channel: CurveChannel
    sample_rate_hz: float
    # analyze writes the curve from the film's start
    t0: float = field(metadata={"range": "[0, 0]"})
    values: list[float]


@dataclass
class _Transient:
    t_s: float
    amplitude: float


# a segment's times stay in seconds here; _segment and gestures_from_report
# convert them to and from the gesture's sample indices
@dataclass
class _Segment:
    start_s: float
    end_s: float
    kind: ShapeKind
    archetype: Archetype
    granularity: float = field(metadata={"range": "[0, 1]"})
    fit: dict  # its model tag picks the fit dataclass that reads the rest
    mean_brightness: float = field(metadata={"range": "[0, 1]"})
    transient: _Transient | None = None
    motif_id: int | None = None


@dataclass
class _Report:
    version: str
    rate_hz: float
    channels: list[_Channel] = field(metadata={"nonempty": True})
    segments: list[_Segment]
    source: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


_FITS = {"linear": LinearFit, "exponential": ExpFit, "staircase": StaircaseFit}
_FIT_TAGS = {cls: tag for tag, cls in _FITS.items()}
# the walker plans each record once; plan the report's now, not in its first write
for _cls in (_Report, *_FITS.values()):
    plan(_cls)


def _segment(g: Gesture, rate: float) -> _Segment:
    start = g.segment.start_idx
    transient = None if g.transient is None else _Transient(
        (start + g.transient.onset_idx) / rate, g.transient.amplitude)
    return _Segment(start / rate, g.segment.end_idx / rate, g.kind, g.archetype,
                    g.granularity, dict(to_json(g.fit), model=_FIT_TAGS[type(g.fit)]),
                    g.mean_brightness, transient, g.motif_id)


def build_report(
    source: dict,
    rate_hz: float,
    analysis_curve: BrightnessCurve,
    gestures: list[Gesture],
    config: PipelineConfig,
) -> dict:
    """Assemble the report document; the analysis curve is embedded so the
    composition stage needs nothing beyond this file."""
    curve = analysis_curve
    channels = [_Channel(curve.channel, curve.sample_rate, curve.t0, curve.values)]
    return to_json(_Report(REPORT_VERSION, rate_hz, channels,
                           [_segment(g, rate_hz) for g in gestures], source, to_json(config)))


def report_to_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii")


def gestures_from_report(doc: dict, source_path: str = "<analysis>"
                         ) -> tuple[list[Gesture], BrightnessCurve]:
    """Check a parsed report and rebuild its gesture list and analysis curve."""
    # a report of another version is refused before its fields are read
    if isinstance(doc, dict) and doc.get("version", REPORT_VERSION) != REPORT_VERSION:
        raise ReportFormatError("%s: unsupported version %r" % (source_path, doc["version"]))
    report = parse_record(_Report, doc, source_path, ReportFormatError)
    channel = report.channels[0]
    n = len(channel.values)
    rate = report.rate_hz
    gestures = []
    previous_end = 0
    for i, seg in enumerate(report.segments):
        where = "%s: segments[%d]" % (source_path, i)
        start, end = round_half_up(seg.start_s * rate), round_half_up(seg.end_s * rate)
        onset = None if seg.transient is None else round_half_up(seg.transient.t_s * rate)
        if not 0 <= start < end <= n:
            raise ReportFormatError("%s: start_s and end_s must give a non-empty span "
                                    "inside the %d-sample curve" % (where, n))
        # analyze writes a partition; overlapping segments would multiply the work
        if start < previous_end:
            raise ReportFormatError("%s: start_s must not precede the end of segments[%d]"
                                    % (where, i - 1))
        previous_end = end
        if onset is not None and not start <= onset < end:
            raise ReportFormatError("%s: transient t_s must lie inside the segment" % where)
        model = seg.fit.get("model")
        # a JSON list or object is not hashable, so it cannot be looked up
        if not isinstance(model, str) or model not in _FITS:
            raise ReportFormatError("%s: unknown fit model %r" % (where, model))
        fit = parse_record(_FITS[model], {k: v for k, v in seg.fit.items() if k != "model"},
                           source_path, ReportFormatError, "segments", i, "fit")
        # a transient's index counts from its segment's start
        transient = None if onset is None else TransientInfo(onset - start,
                                                             seg.transient.amplitude)
        # analyze fits a staircase to the body, which starts after the transient
        if isinstance(fit, StaircaseFit):
            steps = fit.step_times_s
            if len(fit.levels) != len(steps) + 1:
                raise ReportFormatError("%s.fit.levels must hold one more item than "
                                        "step_times_s" % where)
            body = (end - start - body_start(end - start, transient)) / rate
            if steps and not steps[-1] < body:
                raise ReportFormatError("%s.fit.step_times_s[%d] must lie inside the "
                                        "segment's %.6g s body" % (where, len(steps) - 1, body))
        gestures.append(Gesture(Segment(start, end), seg.kind, transient, seg.granularity, fit,
                                seg.mean_brightness, seg.archetype, seg.motif_id))
    # segments are indexed at rate_hz and their notes timed at the curve's rate
    if channel.sample_rate_hz != rate or rate <= 0 or n == 0:
        raise ReportFormatError("%s: channels[0] must hold samples at rate_hz, a "
                                "positive rate" % source_path)
    check_film_length(n / rate, "%s: channels[0]" % source_path, ReportFormatError)
    return gestures, BrightnessCurve(channel.channel, channel.sample_rate_hz, channel.t0,
                                     channel.values)


def read_report(data: bytes, source_path: str = "<analysis>"
                ) -> tuple[list[Gesture], BrightnessCurve]:
    """The gestures and analysis curve of a report, checked and read in one walk."""
    return gestures_from_report(load_json(data, source_path, ReportFormatError), source_path)


def parse_report(data: bytes, source_path: str = "<analysis>") -> dict:
    """Parse a report and check every field compose and plot read."""
    doc = load_json(data, source_path, ReportFormatError)
    gestures_from_report(doc, source_path)
    return doc
