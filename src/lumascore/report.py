"""Curve CSV exchange and the canonical analysis report.

The report is serialized with sorted keys, two-space indentation and
shortest round-trip float formatting, so parsing and re-serializing a
report reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import dataclasses
from typing import get_type_hints

import numpy as np

from .config import PipelineConfig
from .gestures import (
    Archetype,
    ExpFit,
    FitRecord,
    Gesture,
    LinearFit,
    ShapeKind,
    StaircaseFit,
    TransientInfo,
)
from .photometry import CHANNEL_ORDER, BrightnessCurve, CurveChannel, CurveSet
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
    present = [c for c in CHANNEL_ORDER if c in curves.curves]
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
    names = {c.value: c for c in CHANNEL_ORDER}
    try:
        channels = [names[name] for name in header[1:]]
    except KeyError as exc:
        raise CsvFormatError("%s: unknown channel %s" % (source_path, exc)) from exc
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


# each fit model's tag in a report and the dataclass that holds it; writing,
# checking and reading a fit all follow the dataclass's fields
_FIT_MODELS = {"linear": LinearFit, "exponential": ExpFit, "staircase": StaircaseFit}
_FIT_TAGS = {cls: tag for tag, cls in _FIT_MODELS.items()}
_ANNOTATION_TYPES = {float: "number", bool: "boolean", tuple[float, ...]: "numbers"}
# the JSON type of each field of each fit dataclass, in field order
_FIT_JSON_TYPES = {
    cls: {name: _ANNOTATION_TYPES[hint] for name, hint in get_type_hints(cls).items()}
    for cls in _FIT_TAGS
}
_TO_JSON = {"number": float, "boolean": bool, "numbers": lambda v: [float(x) for x in v]}


def _fit_to_dict(fit: FitRecord) -> dict:
    doc = {"model": _FIT_TAGS[type(fit)]}
    for name, kind in _FIT_JSON_TYPES[type(fit)].items():
        doc[name] = _TO_JSON[kind](getattr(fit, name))
    return doc


def _fit_from_dict(doc: dict) -> FitRecord:
    cls = _FIT_MODELS[doc["model"]]
    # a field absent from the report, such as degenerate, keeps its default
    return cls(**{name: tuple(doc[name]) if kind == "numbers" else doc[name]
                  for name, kind in _FIT_JSON_TYPES[cls].items() if name in doc})


def build_report(
    source: dict,
    rate_hz: float,
    analysis_curve: BrightnessCurve,
    gestures: list[Gesture],
    config: PipelineConfig,
) -> dict:
    """Assemble the report document; the analysis curve is embedded so the
    composition stage needs nothing beyond this file."""
    segments = []
    for g in gestures:
        transient = None
        if g.transient is not None:
            transient = {
                "t_s": (g.segment.start_idx + g.transient.onset_idx) / rate_hz,
                "amplitude": float(g.transient.amplitude),
            }
        segments.append({
            "start_s": g.segment.start_idx / rate_hz,
            "end_s": g.segment.end_idx / rate_hz,
            "kind": g.kind.value,
            "archetype": g.archetype.value,
            "transient": transient,
            "granularity": float(g.granularity),
            "fit": _fit_to_dict(g.fit),
            "mean_brightness": float(g.mean_brightness),
            "motif_id": g.motif_id,
        })
    return {
        "version": REPORT_VERSION,
        "source": source,
        "rate_hz": float(rate_hz),
        "channels": [{
            "channel": analysis_curve.channel.value,
            "sample_rate_hz": float(analysis_curve.sample_rate),
            "t0": float(analysis_curve.t0),
            "values": [float(v) for v in analysis_curve.values],
        }],
        "segments": segments,
        "config": config.to_dict(),
    }


def report_to_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("ascii")


# the fields of a report that compose and plot read, by JSON type; a name
# field holds the value of one member of its Enum
_CHANNEL_FIELDS = {"channel": CurveChannel, "sample_rate_hz": "number", "t0": "number",
                   "values": "numbers"}
_SEGMENT_FIELDS = {"start_s": "number", "end_s": "number", "kind": ShapeKind,
                   "archetype": Archetype, "granularity": "number", "fit": "object",
                   "mean_brightness": "number"}
_TRANSIENT_FIELDS = {"t_s": "number", "amplitude": "number"}
_TYPE_NAMES = {"number": "a finite number", "integer": "an integer",
               "object": "an object", "list": "a list",
               "numbers": "a list of finite numbers", "boolean": "a boolean",
               CurveChannel: "a known channel", ShapeKind: "a known kind",
               Archetype: "a known archetype"}
# exact types, as json.loads builds them; a JSON true/false is a bool, which
# isinstance would count as an int
_JSON_TYPES = {"integer": {int}, "object": {dict}, "list": {list}, "boolean": {bool}}


def _finite_numbers(values: list) -> bool:
    # json.loads also reads NaN, Infinity and integers too large for a float
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def _has_type(value, kind) -> bool:
    if kind == "number":
        return _finite_numbers([value])
    if kind == "numbers":
        return type(value) is list and _finite_numbers(value)
    if kind in _JSON_TYPES:
        return type(value) in _JSON_TYPES[kind]
    return type(value) is str and value in {member.value for member in kind}


def _sample(t_s: float, rate: float) -> int | float:
    """The sample index of a time, halves rounded up; inf when it overflows."""
    x = float(t_s) * rate + 0.5
    return math.floor(x) if math.isfinite(x) else math.inf


def _check_fields(obj, types: dict, where: str, optional=()) -> None:
    if not isinstance(obj, dict):
        raise ReportFormatError("%s must be an object" % where)
    for key, kind in types.items():
        if (key in obj or key not in optional) and not _has_type(obj.get(key), kind):
            raise ReportFormatError("%s: %s must be %s" % (where, key, _TYPE_NAMES[kind]))


def parse_report(data: bytes, source_path: str = "<analysis>") -> dict:
    """Parse a report and check every field compose and plot read: its type,
    the names of kinds, archetypes and channels, that each segment and
    transient lies inside the embedded curve, and that the curve is sampled
    at rate_hz."""
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
    _check_fields(doc, {"rate_hz": "number", "channels": "list", "segments": "list"},
                  source_path)
    if not doc["channels"]:
        raise ReportFormatError("%s: channels is empty" % source_path)
    _check_fields(doc["channels"][0], _CHANNEL_FIELDS, "%s: channels[0]" % source_path)
    n = len(doc["channels"][0]["values"])
    rate = float(doc["rate_hz"])
    for i, seg in enumerate(doc["segments"]):
        where = "%s: segments[%d]" % (source_path, i)
        _check_fields(seg, _SEGMENT_FIELDS, where)
        start, end = _sample(seg["start_s"], rate), _sample(seg["end_s"], rate)
        if not 0 <= start < end <= n:
            raise ReportFormatError("%s: start_s and end_s must give a non-empty span "
                                    "inside the %d-sample curve" % (where, n))
        if seg.get("transient") is not None:
            _check_fields(seg["transient"], _TRANSIENT_FIELDS, where + ".transient")
            if not start <= _sample(seg["transient"]["t_s"], rate) < end:
                raise ReportFormatError("%s: transient t_s must lie inside the segment"
                                        % where)
        motif = seg.get("motif_id")
        if motif is not None and not _has_type(motif, "integer"):
            raise ReportFormatError("%s: motif_id must be an integer or null" % where)
        model = seg["fit"].get("model")
        # a JSON list or object is not hashable, so it cannot be looked up
        cls = _FIT_MODELS.get(model) if isinstance(model, str) else None
        if cls is None:
            raise ReportFormatError("%s: unknown fit model %r" % (where, model))
        optional = [f.name for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING]
        _check_fields(seg["fit"], _FIT_JSON_TYPES[cls], where + ".fit", optional)
    # segments are indexed at rate_hz and their notes timed at the curve's rate
    if float(doc["channels"][0]["sample_rate_hz"]) != rate or rate <= 0 or n == 0:
        raise ReportFormatError("%s: channels[0] must hold samples at rate_hz, a "
                                "positive rate" % source_path)
    return doc


def gestures_from_report(doc: dict) -> tuple[list[Gesture], BrightnessCurve]:
    """Rebuild the gesture list and analysis curve of a report that
    `parse_report` has checked."""
    rate = float(doc["rate_hz"])
    entry = doc["channels"][0]
    curve = BrightnessCurve(
        CurveChannel(entry["channel"]),
        rate,
        float(entry["t0"]),
        np.array(entry["values"], dtype=np.float64),
    )
    gestures = []
    for seg in doc["segments"]:
        start_idx = _sample(seg["start_s"], rate)
        transient = None
        if seg.get("transient") is not None:
            transient = TransientInfo(_sample(seg["transient"]["t_s"], rate) - start_idx,
                                      seg["transient"]["amplitude"])
        gestures.append(Gesture(
            segment=Segment(start_idx, _sample(seg["end_s"], rate)),
            kind=ShapeKind(seg["kind"]),
            transient=transient,
            granularity=float(seg["granularity"]),
            fit=_fit_from_dict(seg["fit"]),
            fit_rrmse=0.0,
            mean_brightness=float(seg["mean_brightness"]),
            archetype=Archetype(seg["archetype"]),
            motif_id=seg.get("motif_id"),
        ))
    return gestures, curve
