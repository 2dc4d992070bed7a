"""Curve CSV exchange and the canonical analysis report.

The report, ``analysis.json``, has sorted keys, two-space indentation and
shortest round-trip floats, so re-serializing a parsed report reproduces it
byte for byte.  Beside ``version``, ``rate_hz``, ``source``, ``config`` and
the analysis curve as ``channels[0]`` (``t0`` 0), it holds one object per
segment, in time order and not overlapping: ``start_s`` and ``end_s``
(numbers, seconds at ``rate_hz``), ``kind`` (a ShapeKind name),
``archetype`` (an Archetype name), ``granularity`` and ``mean_brightness``
(numbers in [0, 1]), ``fit`` (an object: its ``model`` and that fit's
fields), ``transient`` (null, or the numbers ``t_s`` and ``amplitude``) and
``motif_id`` (null or an integer).  The curve lasts at most
composition.MAX_FILM_S seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from operator import attrgetter
from typing import Callable, NamedTuple, get_type_hints

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
)
from .photometry import BrightnessCurve, CurveChannel, CurveSet
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
    for i in range(n):
        row = ["%.6f" % (i / rate)]
        row.extend("%.6f" % column[i] for column in columns)
        lines.append(",".join(row))
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
            channels.append(CurveChannel(name))
        except ValueError:
            raise CsvFormatError("%s: unknown channel %r" % (source_path, name)) from None
    rows = []
    times = []
    for ln, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise CsvFormatError("%s: line %d has %d fields, expected %d"
                                 % (source_path, ln, len(fields), len(header)))
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise CsvFormatError("%s: line %d: %s" % (source_path, ln, exc)) from exc
        times.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise CsvFormatError("%s: no samples" % source_path)
    table = np.array(rows, dtype=np.float64)
    finite = np.isfinite(table).all(axis=1) & np.isfinite(times)
    if not finite.all():
        raise CsvFormatError("%s: line %d: value is not finite"
                             % (source_path, int(np.argmin(finite)) + 2))
    # every channel is a brightness in [0, 1], as extract writes it; a value
    # outside would pass into the analysis as an impossible brightness
    outside = (table < 0.0) | (table > 1.0)
    if outside.any():
        row, column = divmod(int(np.argmax(outside)), len(channels))
        raise CsvFormatError("%s: line %d: %s value %r is outside [0, 1]"
                             % (source_path, row + 2, channels[column].value,
                                float(table[row, column])))
    # the rate comes from the first and last time, so a column that stalls
    # or runs backwards would give a wrong rate
    rising = np.diff(times) > 0
    if not rising.all():
        raise CsvFormatError("%s: line %d: time_s is not strictly increasing"
                             % (source_path, int(np.argmin(rising)) + 3))
    n = len(times)
    # a single row carries no timing, fall back to 1 Hz
    rate = (n - 1) / (times[-1] - times[0]) if n > 1 else 1.0
    return {
        channel: BrightnessCurve(channel, rate, 0.0, table[:, i].copy())
        for i, channel in enumerate(channels)
    }


def _finite_numbers(values: list) -> bool:
    # json.loads also reads NaN, Infinity and integers too large for a float
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


class _Type(NamedTuple):
    """A JSON type: its noun in a message, the test a JSON value passes, and
    the converters from a record's attribute to JSON and back."""

    noun: str
    test: Callable
    to_json: Callable | None = None
    from_json: Callable | None = None


# types are exact, as json.loads builds them: isinstance counts a bool as an int
_NUMBER = _Type("a finite number", lambda v: _finite_numbers([v]), float, float)
_NUMBERS = _Type("a list of finite numbers", lambda v: type(v) is list and _finite_numbers(v),
                 lambda values: [float(v) for v in values], tuple)
_INTEGER = _Type("an integer", lambda v: type(v) is int, int, int)
_BOOLEAN = _Type("a boolean", lambda v: type(v) is bool, bool, bool)
_LIST = _Type("a list", lambda v: type(v) is list)


def _known(cls: type, noun: str) -> _Type:
    """The type of the name of one member of the Enum `cls`."""
    return _Type("a known " + noun, lambda v: type(v) is str and v in {m.value for m in cls},
                 attrgetter("value"), cls)


class _Field(NamedTuple):
    """A field of a record: its JSON name and type, the attribute it maps
    onto when that has another name, and the closed interval a number must
    lie in.  A field with a default may be absent; one whose default is None
    may also be null."""

    name: str
    type: _Type | _Record
    attr: str | None = None
    default: object = dataclasses.MISSING
    bounds: tuple[float, float] | None = None


class _Record(NamedTuple):
    """The JSON object of a record, which `make` builds from its attributes."""

    make: Callable
    fields: tuple[_Field, ...]

    def to_json(self, attrs: dict) -> dict:
        """The object of a record's attributes, as `vars` gives them."""
        values = [(f, attrs[f.attr or f.name]) for f in self.fields]
        return {f.name: None if v is None else f.type.to_json(v) for f, v in values}

    def from_json(self, doc: dict):
        """The record of an object that `check` passed; a field that is absent
        or null takes its default."""
        return self.make(**{f.attr or f.name: f.default if doc.get(f.name) is None
                            else f.type.from_json(doc[f.name]) for f in self.fields})

    def check(self, doc, where: str) -> None:
        if not isinstance(doc, dict):
            raise ReportFormatError("%s must be an object" % where)
        for f in self.fields:
            absent = f.name not in doc and f.default is not dataclasses.MISSING
            if absent or doc.get(f.name) is None and f.default is None:
                continue
            if isinstance(f.type, _Record):
                f.type.check(doc[f.name], "%s.%s" % (where, f.name))
            elif not f.type.test(doc.get(f.name)):
                raise ReportFormatError("%s: %s must be %s%s" % (
                    where, f.name, f.type.noun, " or null" if f.default is None else ""))
            elif f.bounds and not f.bounds[0] <= doc[f.name] <= f.bounds[1]:
                raise ReportFormatError("%s: %s must lie in [%g, %g]"
                                        % (where, f.name, *f.bounds))


# each fit model's tag and the record of its dataclass, whose type hints give
# the fields' types; a field with a default, such as degenerate, may be absent
_HINTS = {float: _NUMBER, bool: _BOOLEAN, tuple[float, ...]: _NUMBERS}
_FITS = {
    tag: _Record(cls, tuple(_Field(f.name, _HINTS[get_type_hints(cls)[f.name]], default=f.default)
                            for f in dataclasses.fields(cls)))
    for tag, cls in (("linear", LinearFit), ("exponential", ExpFit), ("staircase", StaircaseFit))
}
_FIT_TAGS = {record.make: tag for tag, record in _FITS.items()}
_FIT = _Type("an object", lambda v: type(v) is dict,
             lambda fit: dict(_FITS[_FIT_TAGS[type(fit)]].to_json(vars(fit)),
                              model=_FIT_TAGS[type(fit)]),
             lambda doc: _FITS[doc["model"]].from_json(doc))

_CHANNEL = _Record(BrightnessCurve, (
    _Field("channel", _known(CurveChannel, "channel")),
    _Field("sample_rate_hz", _NUMBER, "sample_rate"),
    _Field("t0", _NUMBER, bounds=(0, 0)),
    _Field("values", _NUMBERS),
))
# a segment's times stay in seconds here; _segment_to_json and _indices
# convert them to and from the gesture's sample indices
_TRANSIENT = _Record(dict, (_Field("t_s", _NUMBER), _Field("amplitude", _NUMBER)))
_SEGMENT = _Record(dict, (
    _Field("start_s", _NUMBER),
    _Field("end_s", _NUMBER),
    _Field("kind", _known(ShapeKind, "kind")),
    _Field("archetype", _known(Archetype, "archetype")),
    _Field("granularity", _NUMBER, bounds=(0, 1)),
    _Field("fit", _FIT),
    _Field("mean_brightness", _NUMBER, bounds=(0, 1)),
    _Field("transient", _TRANSIENT, default=None),
    _Field("motif_id", _INTEGER, default=None),
))
# the top-level fields parse_report checks before the curve and the segments
_TOP = _Record(dict, (_Field("rate_hz", _NUMBER), _Field("channels", _LIST),
                      _Field("segments", _LIST)))


def _segment_to_json(g: Gesture, rate: float) -> dict:
    start = g.segment.start_idx
    transient = None if g.transient is None else {
        "t_s": (start + g.transient.onset_idx) / rate, "amplitude": g.transient.amplitude}
    return _SEGMENT.to_json(dict(vars(g), start_s=start / rate,
                                 end_s=g.segment.end_idx / rate, transient=transient))


def _indices(seg: dict, rate: float) -> tuple:
    """Sample indices of a segment's start_s, end_s and transient t_s (or None)."""
    transient = seg.get("transient")
    return (round_half_up(seg["start_s"] * rate), round_half_up(seg["end_s"] * rate),
            None if transient is None else round_half_up(transient["t_s"] * rate))


def _gesture(seg: dict, rate: float) -> Gesture:
    attrs = _SEGMENT.from_json(seg)
    start, end, onset = _indices(seg, rate)
    del attrs["start_s"], attrs["end_s"]
    if onset is not None:
        # a transient's index counts from its segment's start
        attrs["transient"] = TransientInfo(onset - start, attrs["transient"]["amplitude"])
    return Gesture(segment=Segment(start, end), **attrs)


def build_report(
    source: dict,
    rate_hz: float,
    analysis_curve: BrightnessCurve,
    gestures: list[Gesture],
    config: PipelineConfig,
) -> dict:
    """Assemble the report document; the analysis curve is embedded so the
    composition stage needs nothing beyond this file."""
    rate = float(rate_hz)
    return {
        "version": REPORT_VERSION,
        "source": source,
        "rate_hz": rate,
        "channels": [_CHANNEL.to_json(vars(analysis_curve))],
        "segments": [_segment_to_json(g, rate) for g in gestures],
        "config": config.to_dict(),
    }


def report_to_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii")


def parse_report(data: bytes, source_path: str = "<analysis>") -> dict:
    """Parse a report and check every field compose and plot read: its type
    and range, the names of kinds, archetypes and channels, that each segment
    and transient lies inside the embedded curve, that no segment starts
    before the previous one ends, that the curve is sampled at rate_hz and
    that it lasts at most MAX_FILM_S."""
    try:
        doc = json.loads(data.decode("utf-8"))
    # a bad byte and 4300+ digit integers raise ValueError, deep nesting RecursionError
    except (ValueError, RecursionError) as exc:
        raise ReportFormatError("%s: %s" % (source_path, exc)) from exc
    if not isinstance(doc, dict):
        raise ReportFormatError("%s: top level must be an object" % source_path)
    for key in ("version", "rate_hz", "channels", "segments"):
        if key not in doc:
            raise ReportFormatError("%s: missing key %s" % (source_path, key))
    if doc["version"] != REPORT_VERSION:
        raise ReportFormatError("%s: unsupported version %r" % (source_path, doc["version"]))
    _TOP.check(doc, source_path)
    if not doc["channels"]:
        raise ReportFormatError("%s: channels is empty" % source_path)
    _CHANNEL.check(doc["channels"][0], "%s: channels[0]" % source_path)
    n = len(doc["channels"][0]["values"])
    rate = float(doc["rate_hz"])
    previous_end = 0
    for i, seg in enumerate(doc["segments"]):
        where = "%s: segments[%d]" % (source_path, i)
        _SEGMENT.check(seg, where)
        start, end, onset = _indices(seg, rate)
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
        model = seg["fit"].get("model")
        # a JSON list or object is not hashable, so it cannot be looked up
        if not isinstance(model, str) or model not in _FITS:
            raise ReportFormatError("%s: unknown fit model %r" % (where, model))
        _FITS[model].check(seg["fit"], where + ".fit")
    # segments are indexed at rate_hz and their notes timed at the curve's rate
    if float(doc["channels"][0]["sample_rate_hz"]) != rate or rate <= 0 or n == 0:
        raise ReportFormatError("%s: channels[0] must hold samples at rate_hz, a "
                                "positive rate" % source_path)
    check_film_length(n / rate, "%s: channels[0]" % source_path, ReportFormatError)
    return doc


def gestures_from_report(doc: dict) -> tuple[list[Gesture], BrightnessCurve]:
    """Rebuild the gesture list and analysis curve of a report that
    `parse_report` has checked."""
    rate = float(doc["rate_hz"])
    return [_gesture(seg, rate) for seg in doc["segments"]], _CHANNEL.from_json(doc["channels"][0])
