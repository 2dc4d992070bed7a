"""Curve CSV exchange and the canonical analysis report.

The report is serialized with sorted keys, two-space indentation and
shortest round-trip float formatting, so parsing and re-serializing a
report reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import PipelineConfig
from .gestures import (
    Archetype,
    ExpFit,
    Gesture,
    LinearFit,
    ShapeKind,
    StaircaseFit,
    TransientInfo,
)
from .photometry import CHANNEL_ORDER, BrightnessCurve, CurveChannel, CurveSet
from .segmentation import Segment

REPORT_VERSION = "1"


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


def _fit_to_dict(fit) -> dict:
    if isinstance(fit, LinearFit):
        return {
            "model": "linear",
            "intercept": float(fit.intercept),
            "slope_per_s": float(fit.slope_per_s),
            "sse": float(fit.sse),
        }
    if isinstance(fit, ExpFit):
        return {
            "model": "exponential",
            "offset": float(fit.offset),
            "scale": float(fit.scale),
            "tau_s": float(fit.tau_s),
            "sse": float(fit.sse),
            "degenerate": bool(fit.degenerate),
        }
    return {
        "model": "staircase",
        "levels": [float(v) for v in fit.levels],
        "step_times_s": [float(t) for t in fit.step_times_s],
        "sse": float(fit.sse),
    }


def _fit_from_dict(doc: dict) -> LinearFit | ExpFit | StaircaseFit:
    model = doc.get("model")
    if model == "linear":
        return LinearFit(doc["intercept"], doc["slope_per_s"], doc["sse"])
    if model == "exponential":
        return ExpFit(doc["offset"], doc["scale"], doc["tau_s"], doc["sse"],
                      doc.get("degenerate", False))
    if model == "staircase":
        return StaircaseFit(tuple(doc["levels"]), tuple(doc["step_times_s"]), doc["sse"])
    raise ReportFormatError("unknown fit model %r" % model)


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
        start_s = g.segment.start_idx / rate_hz
        end_s = g.segment.end_idx / rate_hz
        transient = None
        if g.transient is not None:
            transient = {
                "t_s": (g.segment.start_idx + g.transient.onset_idx) / rate_hz,
                "amplitude": float(g.transient.amplitude),
            }
        segments.append({
            "start_s": start_s,
            "end_s": end_s,
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


def parse_report(data: bytes, source_path: str = "<analysis>") -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportFormatError("%s: %s" % (source_path, exc)) from exc
    if not isinstance(doc, dict):
        raise ReportFormatError("%s: top level must be an object" % source_path)
    for key in ("version", "rate_hz", "channels", "segments"):
        if key not in doc:
            raise ReportFormatError("%s: missing key %s" % (source_path, key))
    if doc["version"] != REPORT_VERSION:
        raise ReportFormatError("%s: unsupported version %r" % (source_path, doc["version"]))
    return doc


_KIND_NAMES = {k.value: k for k in ShapeKind}
_ARCHETYPE_NAMES = {a.value: a for a in Archetype}


def gestures_from_report(doc: dict) -> tuple[list[Gesture], BrightnessCurve]:
    """Rebuild the gesture list and analysis curve a report was built from."""
    rate = float(doc["rate_hz"])
    channels = doc["channels"]
    if not channels:
        raise ReportFormatError("report carries no curve data")
    entry = channels[0]
    curve = BrightnessCurve(
        CurveChannel(entry["channel"]),
        float(entry["sample_rate_hz"]),
        float(entry["t0"]),
        np.array(entry["values"], dtype=np.float64),
    )
    gestures = []
    for seg in doc["segments"]:
        start_idx = int(math.floor(seg["start_s"] * rate + 0.5))
        end_idx = int(math.floor(seg["end_s"] * rate + 0.5))
        transient = None
        if seg.get("transient") is not None:
            onset_abs = int(math.floor(seg["transient"]["t_s"] * rate + 0.5))
            transient = TransientInfo(onset_abs - start_idx, seg["transient"]["amplitude"])
        kind = _KIND_NAMES.get(seg["kind"])
        archetype = _ARCHETYPE_NAMES.get(seg["archetype"])
        if kind is None or archetype is None:
            raise ReportFormatError(
                "segment at %gs: unknown kind or archetype" % seg["start_s"]
            )
        gestures.append(Gesture(
            segment=Segment(start_idx, end_idx),
            kind=kind,
            transient=transient,
            granularity=float(seg["granularity"]),
            fit=_fit_from_dict(seg["fit"]),
            fit_rrmse=0.0,
            mean_brightness=float(seg["mean_brightness"]),
            archetype=archetype,
            motif_id=seg.get("motif_id"),
        ))
    return gestures, curve
