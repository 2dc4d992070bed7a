"""Curve CSV format and the canonical JSON analysis report."""

import dataclasses
import functools
import json
import math
import operator
import tracemalloc
import types
import typing
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lumascore import composition
from lumascore.cli import main
from lumascore.composition import MAX_FILM_S
from lumascore.config import parse_config
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
from lumascore.ingest import PixelFormat, StreamInfo
from lumascore.midi import read_smf, ticks
from lumascore.photometry import BrightnessCurve, CurveChannel, CurveSet
from lumascore.pipeline import analyze_stage, compose_stage
from lumascore.report import (
    MAX_CSV_RATE_HZ,
    CsvFormatError,
    ReportFormatError,
    build_report,
    gestures_from_report,
    parse_report,
    read_curves_csv,
    report_to_bytes,
    write_curves_csv,
    _FITS,
    _Report,
)
from lumascore.schema import to_json
from lumascore.segmentation import Segment

from _synth import deadline
from test_config import _edge_values, _inside


def make_curveset(channel_values: dict, rate: float = 24.0) -> CurveSet:
    info = StreamInfo(4, 4, 24, 1, PixelFormat.GRAY8)
    curves = {
        channel: BrightnessCurve(channel, rate, 0.0, np.asarray(values, dtype=np.float64))
        for channel, values in channel_values.items()
    }
    return CurveSet(info, curves)


class TestWriteCurvesCsv:
    def test_single_sample_golden(self):
        curves = make_curveset({CurveChannel.LUMA: [0.5]})
        assert write_curves_csv(curves) == b"time_s,luma\n0.000000,0.500000\n"

    def test_two_channels_in_fixed_order(self):
        curves = make_curveset({
            CurveChannel.CONTRAST_RMS: [0.25],
            CurveChannel.LUMA: [0.5],
        })
        data = write_curves_csv(curves).decode("ascii")
        assert data.splitlines()[0] == "time_s,luma,contrast_rms"

    def test_color_channels_follow_luma(self):
        curves = make_curveset({
            CurveChannel.BLUE: [0.1],
            CurveChannel.RED: [0.9],
            CurveChannel.GREEN: [0.5],
        })
        header = write_curves_csv(curves).decode("ascii").splitlines()[0]
        assert header == "time_s,red,green,blue"

    def test_time_column_uses_sample_rate(self):
        curves = make_curveset({CurveChannel.LUMA: [0.0, 1.0]}, rate=24.0)
        lines = write_curves_csv(curves).decode("ascii").splitlines()
        assert lines[1].startswith("0.000000,")
        assert lines[2].startswith("0.041667,")  # 1/24 rounded to 6 decimals

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            write_curves_csv(make_curveset({}))

    def test_rate_the_time_column_cannot_resolve_rejected(self):
        # six decimals resolve 1 MHz; above it, times would repeat
        assert read_curves_csv(write_curves_csv(
            make_curveset({CurveChannel.LUMA: [0.1, 0.2, 0.3]}, rate=1e6)
        ))[CurveChannel.LUMA].sample_rate == 1e6
        with pytest.raises(ValueError, match="six-decimal"):
            write_curves_csv(make_curveset({CurveChannel.LUMA: [0.1, 0.2, 0.3]},
                                           rate=1.5e6))


class TestReadCurvesCsv:
    def test_round_trip_within_quantization(self):
        rng = np.random.default_rng(5)
        values = rng.random(48)
        curves = make_curveset({CurveChannel.LUMA: values})
        back = read_curves_csv(write_curves_csv(curves))
        assert np.all(np.abs(back[CurveChannel.LUMA].values - values) <= 5e-7)

    def test_rate_recovered_from_time_column(self):
        curves = make_curveset({CurveChannel.LUMA: np.linspace(0, 1, 25)}, rate=50.0)
        back = read_curves_csv(write_curves_csv(curves))
        assert back[CurveChannel.LUMA].sample_rate == pytest.approx(50.0, rel=1e-3)

    def test_bad_header_rejected(self):
        with pytest.raises(CsvFormatError, match="header"):
            read_curves_csv(b"frame,luma\n0,0.5\n")

    def test_unknown_channel_rejected(self):
        with pytest.raises(CsvFormatError, match="unknown channel"):
            read_curves_csv(b"time_s,loudness\n0.000000,0.500000\n")

    def test_ragged_row_names_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            read_curves_csv(b"time_s,luma\n0.000000,0.500000\n0.041667\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_value_names_line(self, token, column):
        rows = [["0.000000", "0.500000"], ["0.020000", "0.400000"], ["0.040000", "0.300000"]]
        rows[1][column] = token
        data = ("time_s,luma\n" + "".join(",".join(r) + "\n" for r in rows)).encode()
        with pytest.raises(CsvFormatError, match="line 3: value is not finite"):
            read_curves_csv(data)

    @pytest.mark.parametrize("time", ["0.010000", "0.020000"])
    def test_time_not_increasing_names_line(self, time):
        # a backwards or repeated time would give a wrong recovered rate
        data = ("time_s,luma\n0.000000,0.5\n0.020000,0.4\n%s,0.3\n0.060000,0.2\n"
                % time).encode()
        with pytest.raises(CsvFormatError, match="line 4: time_s is not strictly increasing"):
            read_curves_csv(data)

    @pytest.mark.parametrize("value", ["7.5", "-3.0", "1.000001", "-0.000001"])
    def test_value_outside_unit_range_names_line_and_column(self, value):
        data = ("time_s,luma,contrast_rms\n0.000000,0.5,0.1\n0.040000,0.4,%s\n"
                "0.080000,9.0,0.2\n" % value).encode()
        with pytest.raises(CsvFormatError,
                           match=r"line 3: contrast_rms value %s is outside \[0, 1\]"
                           % float(value)):
            read_curves_csv(data)

    def test_unit_range_ends_are_accepted(self):
        back = read_curves_csv(b"time_s,luma\n0.000000,0.000000\n0.040000,1.000000\n")
        assert list(back[CurveChannel.LUMA].values) == [0.0, 1.0]

    @pytest.mark.parametrize("middle, off", [("1.400000", False), ("1.600000", True)])
    def test_time_more_than_half_a_period_off_the_grid_rejected(self, middle, off):
        # the first and last times span a 1 Hz grid; the middle one is 0.4 or 0.6 s off it
        data = ("time_s,luma\n0.000000,0.5\n%s,0.5\n2.000000,0.5\n" % middle).encode()
        if not off:
            assert read_curves_csv(data)[CurveChannel.LUMA].sample_rate == 1.0
            return
        with pytest.raises(CsvFormatError, match="line 3: time_s 1.6 lies off the 1 Hz grid"):
            read_curves_csv(data)

    @given(rate=st.floats(1e-6, MAX_CSV_RATE_HZ),
           values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    @example(rate=MAX_CSV_RATE_HZ, values=[0.5] * 200)
    @example(rate=24000 / 1001, values=[0.5] * 200)
    def test_every_written_csv_reads_back(self, rate, values):
        # each time is six-decimal rounded, and so is the last time the rate
        # is recovered from; both stay within the grid's tolerance
        back = read_curves_csv(write_curves_csv(make_curveset({CurveChannel.LUMA: values},
                                                              rate=rate)))
        assert len(back[CurveChannel.LUMA].values) == len(values)

    def test_empty_body_rejected(self):
        with pytest.raises(CsvFormatError):
            read_curves_csv(b"time_s,luma\n")

    @pytest.mark.parametrize("data, message", [
        (b"\xff", "<curves>: not ASCII ('ascii' codec can't decode byte 0xff in position 0: "
                  "ordinal not in range(128))"),
        (b"", "<curves>: empty file"),
        (b"frame,luma\n", "<curves>: header must start with time_s"),
        (b"time_s,loudness\n0,0.5\n", "<curves>: unknown channel 'loudness'"),
        (b"time_s,luma\n0,0.5\n0.1\n", "<curves>: line 3 has 1 fields, expected 2"),
        (b"time_s,luma\n0,x\n", "<curves>: line 2: could not convert string to float: 'x'"),
        (b"time_s,luma\n", "<curves>: no samples"),
        (b"time_s,luma\n0,nan\n", "<curves>: line 2: value is not finite"),
        (b"time_s,luma\n0,2\n", "<curves>: line 2: luma value 2.0 is outside [0, 1]"),
        (b"time_s,luma\n0,0.5\n0,0.5\n", "<curves>: line 3: time_s is not strictly increasing"),
        (b"time_s,luma,luma\n0,0.5,0.5\n", "<curves>: repeated channel 'luma'"),
        (b"time_s,luma\n5,0.5\n5.5,0.5\n", "<curves>: line 2: time_s 5.0 must be 0, the start "
                                            "of the film"),
        (b"time_s,luma\n0,0.5\n0.02,0.5\n1,0.5\n",
         "<curves>: line 3: time_s 0.02 lies off the 2 Hz grid from the first time to the last"),
    ])
    def test_each_fault_gives_its_message(self, data, message):
        with pytest.raises(CsvFormatError) as err:
            read_curves_csv(data)
        assert str(err.value) == message



# The reader and writer as they were when they went row by row through
# Python lists: the oracles the one-array versions are held to.
def _parent_write_curves_csv(curves: CurveSet) -> bytes:
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


def _parent_read_curves_csv(data: bytes, source_path: str = "<curves>"):
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
    if abs(times[0]) > 1e-6:
        raise CsvFormatError("%s: line 2: time_s %r must be 0, the start of the film"
                             % (source_path, times[0]))
    outside = (table < 0.0) | (table > 1.0)
    if outside.any():
        row, column = divmod(int(np.argmax(outside)), len(channels))
        raise CsvFormatError("%s: line %d: %s value %r is outside [0, 1]"
                             % (source_path, row + 2, channels[column].value,
                                float(table[row, column])))
    rising = np.diff(times) > 0
    if not rising.all():
        raise CsvFormatError("%s: line %d: time_s is not strictly increasing"
                             % (source_path, int(np.argmin(rising)) + 3))
    n = len(times)
    rate = (n - 1) / (times[-1] - times[0]) if n > 1 else 1.0
    off = np.abs(np.asarray(times) - (times[0] + np.arange(n) / rate)) > 0.5 / rate + 1e-6
    if off.any():
        row = int(np.argmax(off))
        raise CsvFormatError("%s: line %d: time_s %r lies off the %g Hz grid from the first "
                             "time to the last" % (source_path, row + 2, times[row], rate))
    return {
        channel: BrightnessCurve(channel, rate, 0.0, table[:, i].copy())
        for i, channel in enumerate(channels)
    }


def _outcome(function, *args):
    """What ``function`` gives: its result, or its error's type and message."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _curves_outcome(function, data):
    """The curves as bits, with the type of each rate, or the error."""
    result = _outcome(function, data)
    if isinstance(result, tuple):
        return result
    return [(channel, type(curve.sample_rate), float.hex(curve.sample_rate), curve.t0,
             curve.values.dtype, curve.values.tobytes()) for channel, curve in result.items()]


# fields that read and fail in every way float() has: grid times, values in
# and out of [0, 1], signs, exponents, underscores, padding, non-finite
# spellings and text float() refuses
_FIELDS = st.one_of(
    st.sampled_from(["0", "0.000000", "0.041667", "0.083333", "0.125000", "1", "1.000000",
                     "0.5", "-0", "-0.000001", "1.000001", "1e-7", "2.5e-1", "1_0", "0_5",
                     " 0.5", "0.5 ", "\t1", "+.5", "5.", "", " ", "x", "0x1", "1e", "--1",
                     "1__0", "nan", "-nan", "inf", "-inf", "Infinity", "1e500", "5e-324",
                     "\x00", "0.5\x00"]),
    st.floats(0.0, 1.0).map(lambda v: "%.6f" % v),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(max_codepoint=127), max_size=4),
)


def _seldom(n):
    """True about once in ``n`` draws."""
    return st.sampled_from([True] + [False] * (n - 1))


@st.composite
def csv_texts(draw):
    """CSV bytes near the reader's rules: a header of known channels, seldom
    an unknown or repeated one, then rows on a drawn time grid with a time
    sometimes off its grid point, drawn fields, ragged rows, stray line ends
    and non-ASCII bytes."""
    names = draw(st.lists(st.sampled_from([c.value for c in CurveChannel]), min_size=1,
                          max_size=6, unique=True))
    if draw(_seldom(8)):
        names.insert(draw(st.integers(0, len(names))),
                     draw(st.sampled_from(["loudness", "", names[0], "time_s"])))
    first = "time_s" if not draw(_seldom(10)) else draw(st.sampled_from(["frame", ""]))
    lines = [",".join([first] + names)]
    rate = draw(st.sampled_from([1.0, 24.0, 25.0, 24000 / 1001, 1e6]) | st.floats(0.01, 1e6))
    for i in range(draw(st.integers(0, 10))):
        width = len(names) + 1 if not draw(_seldom(20)) else draw(st.integers(0, 8))
        # a time up to a period off its grid point, or the first time later than 0
        shift = 0.0 if not draw(_seldom(6)) else draw(st.sampled_from([0.4, 0.6])
                                                      | st.floats(-1.0, 1.0))
        fields = ["%.6f" % ((i + shift) / rate)] + [
            draw(st.floats(0.0, 1.0).map("%.6f".__mod__)) for _ in range(width - 1)]
        for _ in range(draw(st.sampled_from([0] * 12 + [1, 2]))):
            if fields:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELDS)
        lines.append(",".join(fields[:width]))
    text = "\n".join(lines) + draw(st.sampled_from(["\n"] * 5 + ["", "\n\n", "\r\n"]))
    data = text.encode("ascii", "replace")
    if draw(_seldom(20)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x80"])) + data[at:]
    return data


@st.composite
def curve_sets(draw):
    """1 to 6 channels of equal length from 0 samples up, values in [0, 1]
    with both ends, at rates up to past the writer's limit."""
    channels = draw(st.lists(st.sampled_from(CurveChannel), min_size=1, max_size=6,
                             unique=True))
    n = draw(st.integers(0, 60))
    values = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.0000005, 0.9999995]),
                       st.floats(0.0, 1.0))
    rate = draw(st.sampled_from([1.0, 24.0, 24000 / 1001, MAX_CSV_RATE_HZ, 1.5e6])
                | st.floats(1e-6, 2e6))
    return make_curveset({c: draw(st.lists(values, min_size=n, max_size=n))
                          for c in channels}, rate=rate)


class TestAgainstTheRowByRowCsv:
    @given(csv_texts())
    @example(b"time_s,luma\n0,0.5\n5e-324,0.5\n")
    @example(b"time_s,luma\n0,1_0\n")
    @example(b"time_s,luma,red\n0, 0.5,\n")
    @example(b"time_s,luma\n0,0.5\x00\n")
    @example(b"time_s,luma\n0,-nan\n")
    @example(b"time_s,luma\n0,0.5\n0.02,0.5\n1,0.5\n")
    @example(b"time_s,luma\n5,0.5\n5.5,0.5\n")
    @example(b"time_s,luma\n0.000000,0.000000\n0.500000,1.000000\n1.000000,-0\n")
    @settings(max_examples=600, deadline=None)
    def test_reader_gives_the_same_curves_or_message(self, data):
        assert (_curves_outcome(read_curves_csv, data)
                == _curves_outcome(_parent_read_curves_csv, data))

    @given(curve_sets())
    @example(make_curveset({CurveChannel.LUMA: []}))
    @example(make_curveset({c: [0.0, 1.0, 0.5] for c in CurveChannel}, rate=24000 / 1001))
    # 7 / 4e5 and 7 * (1 / 4e5) round to different sixth decimals
    @example(make_curveset({CurveChannel.LUMA: [0.5] * 8}, rate=4e5))
    @settings(max_examples=300, deadline=None)
    def test_writer_gives_the_same_bytes(self, curves):
        assert _outcome(write_curves_csv, curves) == _outcome(_parent_write_curves_csv, curves)

    def test_reading_a_long_curve_peaks_below_eight_times_its_bytes(self):
        # a 2 h one-channel curve at 24 Hz; the row-by-row reader peaked at
        # 12.8 times the CSV's bytes, with a Python float per field
        rng = np.random.default_rng(11)
        data = write_curves_csv(make_curveset({CurveChannel.LUMA: rng.random(172_800)}))
        tracemalloc.start()
        try:
            curves = read_curves_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curves[CurveChannel.LUMA].values) == 172_800
        assert peak < 8 * len(data), peak / len(data)

def make_report(gestures, n=300, rate=50.0):
    curve = BrightnessCurve(
        CurveChannel.LUMA, rate, 0.0, np.linspace(0.2, 0.8, n)
    )
    source = {"channels": ["luma"], "num_samples": n,
              "sample_rate_hz": 24.0, "duration_s": n / 24.0}
    return build_report(source, rate, curve, gestures, parse_config({}))


SAMPLE_GESTURES = [
    Gesture(Segment(0, 100), ShapeKind.PLATEAU, TransientInfo(5, 0.4),
            0.12, LinearFit(0.5, 0.0, 1e-6), 0.55,
            Archetype.CHORD_HELD, motif_id=0),
    Gesture(Segment(100, 200), ShapeKind.EXPONENTIAL_DECAY, None,
            0.05, ExpFit(0.2, 0.6, 1.25, 2e-5, False), 0.4,
            Archetype.CHORD_RESONANCE, motif_id=1),
    Gesture(Segment(200, 300), ShapeKind.STAIRCASE, None,
            0.02, StaircaseFit((0.2, 0.5, 0.8), (0.5, 1.2), 3e-5), 0.5,
            Archetype.ARPEGGIO_DETACHED, motif_id=2),
]


class TestReportRoundTrip:
    def test_serialization_is_canonical(self):
        data = report_to_bytes(make_report(SAMPLE_GESTURES))
        reparsed = json.loads(data.decode("ascii"))
        assert report_to_bytes(reparsed) == data

    def test_parse_validates_version(self):
        doc = make_report([])
        doc["version"] = "99"
        with pytest.raises(ReportFormatError, match="version"):
            parse_report(report_to_bytes(doc))

    def test_parse_requires_segments_key(self):
        doc = make_report([])
        del doc["segments"]
        with pytest.raises(ReportFormatError, match="segments"):
            parse_report(report_to_bytes(doc))

    def test_parse_rejects_non_object(self):
        with pytest.raises(ReportFormatError):
            parse_report(b"[1, 2]")

    def test_gestures_rebuilt_exactly(self):
        doc = parse_report(report_to_bytes(make_report(SAMPLE_GESTURES)))
        rebuilt, curve = gestures_from_report(doc)
        assert len(rebuilt) == len(SAMPLE_GESTURES)
        for got, want in zip(rebuilt, SAMPLE_GESTURES):
            assert got.segment == want.segment
            assert got.kind is want.kind
            assert got.archetype is want.archetype
            assert got.transient == want.transient
            assert got.granularity == want.granularity
            assert got.fit == want.fit
            assert got.mean_brightness == want.mean_brightness
            assert got.motif_id == want.motif_id
        assert curve.sample_rate == 50.0
        assert len(curve.values) == 300

    def test_segment_times_in_seconds(self):
        doc = parse_report(report_to_bytes(make_report(SAMPLE_GESTURES)))
        seg = doc["segments"][0]
        assert seg["start_s"] == 0.0
        assert seg["end_s"] == 2.0
        assert seg["transient"]["t_s"] == pytest.approx(0.1)

    def test_config_echo_included(self):
        doc = parse_report(report_to_bytes(make_report([])))
        assert doc["config"]["analysis"]["rate_hz"] == 50.0
        assert doc["config"]["seed"] == 0

    def test_unknown_fit_model_rejected(self):
        doc = make_report(SAMPLE_GESTURES)
        doc["segments"][0]["fit"]["model"] = "spline"
        with pytest.raises(ReportFormatError, match="spline"):
            gestures_from_report(parse_report(report_to_bytes(doc)))


def _drop(key):
    def edit(seg):
        del seg[key]
    return edit


def _set(key, value):
    def edit(seg):
        seg[key] = value
    return edit


# each edit to segments[0] of a sample report and the whole message it must give,
# written out in full so that no table of the reader can generate it
SPAN = ("<analysis>: segments[0]: start_s and end_s must give a non-empty span "
        "inside the 300-sample curve")
OUTSIDE = "<analysis>: segments[0]: transient t_s must lie inside the segment"
SEGMENT_EDITS = {
    "missing granularity": (_drop("granularity"),
                            "<analysis>: segments[0].granularity is required"),
    "string granularity": (_set("granularity", "0.1"),
                           "<analysis>: segments[0].granularity must be a number"),
    "boolean start": (_set("start_s", True),
                      "<analysis>: segments[0].start_s must be a number"),
    "infinite start": (_set("start_s", float("inf")),
                       "<analysis>: segments[0].start_s must be a finite number"),
    "integer start too large for a float": (
        _set("start_s", 10 ** 400), "<analysis>: segments[0].start_s must be a finite number"),
    "NaN granularity": (_set("granularity", float("nan")),
                        "<analysis>: segments[0].granularity must be a finite number"),
    "numeric kind": (_set("kind", 3), "<analysis>: segments[0].kind unknown name 3"),
    "fit not an object": (_set("fit", [1.0]), "<analysis>: segments[0].fit must be an object"),
    "fit without sse": (lambda seg: seg["fit"].pop("sse"),
                        "<analysis>: segments[0].fit.sse is required"),
    "unknown fit model": (lambda seg: seg["fit"].update(model="spline"),
                          "<analysis>: segments[0]: unknown fit model 'spline'"),
    "fit model as a list": (lambda seg: seg["fit"].update(model=["linear"]),
                            "<analysis>: segments[0]: unknown fit model ['linear']"),
    "transient without amplitude": (
        lambda seg: seg["transient"].pop("amplitude"),
        "<analysis>: segments[0].transient.amplitude is required"),
    "transient not an object": (_set("transient", 0.1),
                                "<analysis>: segments[0].transient must be an object"),
    "string motif": (_set("motif_id", "2"),
                     "<analysis>: segments[0].motif_id must be an integer"),
    "fractional motif": (_set("motif_id", 1.5),
                         "<analysis>: segments[0].motif_id must be an integer"),
    "unknown kind": (_set("kind", "spline"), "<analysis>: segments[0].kind unknown name 'spline'"),
    "unknown archetype": (_set("archetype", "a & <b>"),
                          "<analysis>: segments[0].archetype unknown name 'a & <b>'"),
    "archetype as a list": (_set("archetype", ["chord_held"]),
                            "<analysis>: segments[0].archetype unknown name ['chord_held']"),
    "end past the curve": (_set("end_s", 6.02), SPAN),
    "end far past the curve": (_set("end_s", 2e4), SPAN),
    "end that overflows the index": (_set("end_s", 1e300), SPAN),
    "negative start": (_set("start_s", -0.02), SPAN),
    "empty span": (_set("end_s", 0.0), SPAN),
    "transient before the segment": (_set("transient", {"t_s": -0.02, "amplitude": 0.3}),
                                     OUTSIDE),
    "transient at the segment end": (_set("transient", {"t_s": 2.0, "amplitude": 0.3}),
                                     OUTSIDE),
    "transient that overflows the index": (_set("transient", {"t_s": 1e308, "amplitude": 0.3}),
                                           OUTSIDE),
    # granularity and mean brightness lie in [0, 1] in every report analyze writes
    "granularity above one": (_set("granularity", 2.0),
                              "<analysis>: segments[0].granularity must lie in [0, 1]"),
    "negative granularity": (_set("granularity", -1e-300),
                             "<analysis>: segments[0].granularity must lie in [0, 1]"),
    "huge mean brightness": (_set("mean_brightness", 1.7e308),
                             "<analysis>: segments[0].mean_brightness must lie in [0, 1]"),
    "negative mean brightness": (_set("mean_brightness", -0.5),
                                 "<analysis>: segments[0].mean_brightness must lie in [0, 1]"),
}


def _channel(**fields):
    def edit(doc):
        doc["channels"][0].update(fields)
    return edit


# each edit to a whole sample report and the whole message it must give
REPORT_EDITS = {
    "missing version": (lambda doc: doc.pop("version"), "<analysis>: version is required"),
    "missing rate": (lambda doc: doc.pop("rate_hz"), "<analysis>: rate_hz is required"),
    "missing channels": (lambda doc: doc.pop("channels"), "<analysis>: channels is required"),
    "missing segments": (lambda doc: doc.pop("segments"), "<analysis>: segments is required"),
    "unknown version": (lambda doc: doc.update(version="99"),
                        "<analysis>: unsupported version '99'"),
    "numeric version": (lambda doc: doc.update(version=1), "<analysis>: unsupported version 1"),
    "string rate": (lambda doc: doc.update(rate_hz="50"),
                    "<analysis>: rate_hz must be a number"),
    "channels not a list": (lambda doc: doc.update(channels="abc"),
                            "<analysis>: channels must be a list"),
    "segments not a list": (lambda doc: doc.update(segments={"start_s": 0}),
                            "<analysis>: segments must be a list"),
    "no channels": (lambda doc: doc.update(channels=[]), "<analysis>: channels must not be empty"),
    "channel not an object": (lambda doc: doc.update(channels=[[]]),
                              "<analysis>: channels[0] must be an object"),
    "segment not an object": (lambda doc: doc.update(segments=[1.0]),
                              "<analysis>: segments[0] must be an object"),
    "unknown channel": (_channel(channel="loudness"),
                        "<analysis>: channels[0].channel unknown name 'loudness'"),
    "string channel rate": (_channel(sample_rate_hz="50"),
                            "<analysis>: channels[0].sample_rate_hz must be a number"),
    "missing t0": (lambda doc: doc["channels"][0].pop("t0"),
                   "<analysis>: channels[0].t0 is required"),
    "values not a list": (_channel(values="abc"),
                          "<analysis>: channels[0].values must be a list"),
    "null value": (lambda doc: doc["channels"][0]["values"].__setitem__(7, None),
                   "<analysis>: channels[0].values[7] must be a number"),
    "rates differ": (_channel(sample_rate_hz=1e-300),
                     "<analysis>: channels[0] must hold samples at rate_hz, a positive rate"),
    "string staircase level": (lambda doc: doc["segments"][2]["fit"]["levels"].append("x"),
                               "<analysis>: segments[2].fit.levels[3] must be a number"),
    "string degenerate": (lambda doc: doc["segments"][1]["fit"].update(degenerate="no"),
                          "<analysis>: segments[1].fit.degenerate must be a boolean"),
    "rate that overflows the index": (lambda doc: doc.update(rate_hz=1e308), SPAN),
    # analyze writes t0 = 0 and a partition of the curve in time order
    "huge negative t0": (_channel(t0=-1.7e308), "<analysis>: channels[0].t0 must lie in [0, 0]"),
    "positive t0": (_channel(t0=0.5), "<analysis>: channels[0].t0 must lie in [0, 0]"),
    "overlapping segments": (lambda doc: doc["segments"][1].update(start_s=1.0),
                             "<analysis>: segments[1]: start_s must not precede the end of "
                             "segments[0]"),
    "segments out of order": (lambda doc: doc["segments"].reverse(),
                              "<analysis>: segments[1]: start_s must not precede the end of "
                              "segments[0]"),
    "one segment twice": (lambda doc: doc["segments"].append(doc["segments"][2]),
                          "<analysis>: segments[3]: start_s must not precede the end of "
                          "segments[2]"),
    # a key no record declares is refused, so a typo never falls back to a default
    "unknown top-level key": (lambda doc: doc.update(bogus=1), "<analysis>: unknown key 'bogus'"),
    "misspelt motif key": (lambda doc: doc["segments"][0].update({"motif-id": 5}),
                           "<analysis>: unknown key 'segments[0].motif-id'"),
    "extra fit key": (lambda doc: doc["segments"][1]["fit"].update(rrmse=0.1),
                      "<analysis>: unknown key 'segments[1].fit.rrmse'"),
    "extra transient key": (lambda doc: doc["segments"][0]["transient"].update(width=0.1),
                            "<analysis>: unknown key 'segments[0].transient.width'"),
    "extra channel key": (_channel(unit="nit"), "<analysis>: unknown key 'channels[0].unit'"),
    # every channel is checked, though compose and plot read only the first
    "garbage second channel": (lambda doc: doc["channels"].append("abc"),
                               "<analysis>: channels[1] must be an object"),
    "second channel without values": (
        lambda doc: doc["channels"].append({k: v for k, v in doc["channels"][0].items()
                                            if k != "values"}),
        "<analysis>: channels[1].values is required"),
    "source not an object": (lambda doc: doc.update(source=[1]),
                             "<analysis>: source must be an object"),
    "config not an object": (lambda doc: doc.update(config="x"),
                             "<analysis>: config must be an object"),
    # a fit's numbers lie where analyze puts them: a positive decay time, and
    # a staircase's steps increasing inside the body, after any transient
    "negative decay time": (lambda doc: doc["segments"][1]["fit"].update(tau_s=-1),
                            "<analysis>: segments[1].fit.tau_s must lie in (0, inf)"),
    "step at the body's start": (
        lambda doc: doc["segments"][2]["fit"]["step_times_s"].__setitem__(0, 0),
        "<analysis>: segments[2].fit.step_times_s[0] must lie in (0, inf)"),
    "steps out of order": (
        lambda doc: doc["segments"][2]["fit"]["step_times_s"].reverse(),
        "<analysis>: segments[2].fit.step_times_s[1] must be greater than "
        "segments[2].fit.step_times_s[0]"),
    "a level too few": (lambda doc: doc["segments"][2]["fit"]["levels"].pop(),
                        "<analysis>: segments[2].fit.levels must hold one more item than "
                        "step_times_s"),
    "step past the body": (
        lambda doc: doc["segments"][2]["fit"]["step_times_s"].__setitem__(1, 2.0),
        "<analysis>: segments[2].fit.step_times_s[1] must lie inside the segment's 2 s body"),
    "step past the body after a transient": (
        lambda doc: doc["segments"][0].update(fit={
            "model": "staircase", "levels": [0.2, 0.5], "step_times_s": [1.9], "sse": 0.0}),
        "<analysis>: segments[0].fit.step_times_s[0] must lie inside the segment's 1.88 s body"),
    # every record's fields are checked before the checks across records
    "a span and a later field": (
        lambda doc: (doc["segments"][0].update(end_s=2e4),
                     doc["segments"][2].update(granularity=2.0)),
        "<analysis>: segments[2].granularity must lie in [0, 1]"),
}


class TestReportSchema:
    @pytest.mark.parametrize("edit, message", SEGMENT_EDITS.values(), ids=SEGMENT_EDITS.keys())
    def test_segment_field_of_wrong_type_rejected(self, edit, message):
        doc = make_report(SAMPLE_GESTURES)
        edit(doc["segments"][0])
        with pytest.raises(ReportFormatError) as err:
            parse_report(report_to_bytes(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("edit, message", REPORT_EDITS.values(), ids=REPORT_EDITS.keys())
    def test_report_edit_gives_its_message(self, edit, message):
        doc = make_report(SAMPLE_GESTURES)
        edit(doc)
        with pytest.raises(ReportFormatError) as err:
            parse_report(report_to_bytes(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("data, message", [
        (b"{", "<analysis>: invalid JSON (Expecting property name enclosed in double "
               "quotes: line 1 column 2 (char 1))"),
        (b"[1, 2]", "<analysis>: top level must be an object"),
    ])
    def test_unreadable_report_gives_its_message(self, data, message):
        with pytest.raises(ReportFormatError) as err:
            parse_report(data)
        assert str(err.value) == message

    def test_staircase_levels_must_be_numbers(self):
        doc = make_report(SAMPLE_GESTURES)
        doc["segments"][2]["fit"]["levels"] = [0.2, "x"]
        with pytest.raises(ReportFormatError, match=r"segments\[2\]\.fit\.levels\[1\]"):
            parse_report(report_to_bytes(doc))

    @pytest.mark.parametrize("segments", ["abc", {"start_s": 0}, [1.0], [None]])
    def test_segments_must_be_a_list_of_objects(self, segments):
        doc = make_report(SAMPLE_GESTURES)
        doc["segments"] = segments
        with pytest.raises(ReportFormatError, match="segments"):
            parse_report(report_to_bytes(doc))

    @pytest.mark.parametrize("channels", [[], "abc", [[]], [{"values": "abc"}]])
    def test_first_channel_must_carry_values(self, channels):
        doc = make_report(SAMPLE_GESTURES)
        doc["channels"] = channels
        with pytest.raises(ReportFormatError, match="channels"):
            parse_report(report_to_bytes(doc))

    @pytest.mark.parametrize("value", [None, "0.5", float("nan"), float("-inf")])
    def test_values_must_be_finite_numbers(self, value):
        doc = make_report(SAMPLE_GESTURES)
        doc["channels"][0]["values"][7] = value
        with pytest.raises(ReportFormatError, match=r"channels\[0\]\.values\[7\]"):
            parse_report(report_to_bytes(doc))

    def test_rate_must_be_a_number(self):
        doc = make_report(SAMPLE_GESTURES)
        doc["rate_hz"] = "50"
        with pytest.raises(ReportFormatError, match="rate_hz"):
            parse_report(report_to_bytes(doc))

    @pytest.mark.parametrize("value", ["no", 0, 1.0, None, [True]])
    def test_degenerate_must_be_a_boolean(self, value):
        doc = make_report(SAMPLE_GESTURES)
        doc["segments"][1]["fit"]["degenerate"] = value
        with pytest.raises(ReportFormatError,
                           match=r"segments\[1\]\.fit\.degenerate must be a boolean"):
            parse_report(report_to_bytes(doc))

    def test_optional_fields_may_be_absent_or_null(self):
        doc = make_report(SAMPLE_GESTURES)
        del doc["segments"][0]["motif_id"]
        doc["segments"][1]["motif_id"] = None
        del doc["segments"][1]["fit"]["degenerate"]
        gestures, _ = gestures_from_report(parse_report(report_to_bytes(doc)))
        assert [g.motif_id for g in gestures] == [None, None, 2]


class TestReportRanges:
    def test_rate_that_overflows_the_index_rejected(self):
        doc = make_report(SAMPLE_GESTURES)
        doc["rate_hz"] = 1e308
        with pytest.raises(ReportFormatError, match=r"segments\[0\]: start_s and end_s"):
            parse_report(report_to_bytes(doc))

    def test_unknown_channel_rejected(self):
        doc = make_report(SAMPLE_GESTURES)
        doc["channels"][0]["channel"] = "loudness"
        with pytest.raises(ReportFormatError, match=r"channels\[0\]\.channel"):
            parse_report(report_to_bytes(doc))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["channels"][0].update(sample_rate_hz=1e-300),
        lambda doc: doc.update(rate_hz=-50.0, segments=[],
                               channels=[dict(doc["channels"][0], sample_rate_hz=-50.0)]),
        lambda doc: doc.update(segments=[], channels=[dict(doc["channels"][0], values=[])]),
    ], ids=["rates differ", "negative rate", "no samples"])
    def test_channel_must_hold_samples_at_rate_hz(self, edit):
        doc = make_report(SAMPLE_GESTURES)
        edit(doc)
        with pytest.raises(ReportFormatError,
                           match=r"channels\[0\] must hold samples at rate_hz, a positive rate"):
            parse_report(report_to_bytes(doc))

    def test_segment_may_end_at_the_curve_end(self):
        doc = make_report(SAMPLE_GESTURES)
        doc["segments"][2]["transient"] = {"t_s": 5.98, "amplitude": 0.3}
        gestures, curve = gestures_from_report(parse_report(report_to_bytes(doc)))
        assert gestures[2].segment == Segment(200, len(curve.values))
        assert gestures[2].transient == TransientInfo(99, 0.3)

    def test_a_transient_that_leaves_no_body_does_not_shift_the_fit(self):
        # at 5.96 s the transient leaves one sample of segment 2 (4-6 s), so
        # the fit is of the whole segment and its steps play from 4 s, not
        # past the film's end
        doc = make_report(SAMPLE_GESTURES)
        doc["segments"][2]["transient"] = {"t_s": 5.96, "amplitude": 0.3}
        doc["segments"][2]["fit"]["step_times_s"] = [0.5, 1.9]
        gestures, curve = gestures_from_report(parse_report(report_to_bytes(doc)))
        notes = composition.compose(gestures, curve).notes
        assert max(note.onset_s for note in notes) < 6.0
        assert {4.5, 5.9} <= {note.onset_s for note in notes}


def csv_at(rate: float, rows: int) -> bytes:
    """A luma CSV of ``rows`` samples at ``rate``, written as extract writes it."""
    return ("time_s,luma\n" + "".join("%.6f,0.500000\n" % (i / rate) for i in range(rows))
            ).encode("ascii")


def report_at(rate: float, n: int) -> bytes:
    curve = BrightnessCurve(CurveChannel.LUMA, rate, 0.0, np.full(n, 0.5))
    return report_to_bytes(build_report({}, rate, curve, [], parse_config({})))


def analysis_config(rate: float):
    return parse_config({"analysis": {"rate_hz": rate}})


class TestFilmLength:
    def test_report_past_the_limit_rejected(self):
        # 83,886 samples at 0.5 Hz last 167,772 s, just inside the limit
        assert MAX_FILM_S == 167772.16
        parse_report(report_at(0.5, 83886))
        with pytest.raises(ReportFormatError) as err:
            parse_report(report_at(0.5, 83887))
        assert str(err.value) == ("<analysis>: channels[0] lasts 167774 s, longer than the "
                                  "167772.16 s limit")

    def test_analysis_past_the_limit_rejected(self):
        # the CSV is read whole, for plot composes nothing; analyze refuses
        # the 83,887 samples it would embed, before it segments them
        data = csv_at(1.0, 167773)
        assert read_curves_csv(data)[CurveChannel.LUMA].duration == 167773.0
        with pytest.raises(ValueError) as err:
            analyze_stage(data, analysis_config(0.5))
        assert str(err.value) == ("the luma curve at 0.5 Hz lasts 167774 s, longer than the "
                                  "167772.16 s limit")

    # resampling may add a sample, so a CSV inside the limit may give a curve
    # past it: a 1 Hz CSV of 10,800 rows at 0.3333 Hz gives 3,600 samples,
    # 10,801 s.  Any limit shows that analyze and parse_report agree.
    @given(limit=st.floats(1.0, 20.0), csv_rate=st.floats(0.25, 4.0),
           analysis_rate=st.floats(0.0, 1000.0, exclude_min=True), extra=st.integers(-1, 1))
    @example(limit=10800.0, csv_rate=1.0, analysis_rate=0.3333, extra=0)
    @settings(max_examples=40, deadline=None)
    def test_analyze_writes_no_report_that_parse_report_refuses(self, limit, csv_rate,
                                                                analysis_rate, extra):
        data = csv_at(csv_rate, max(1, int(limit * csv_rate) + extra))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(composition, "MAX_FILM_S", limit)
            try:
                out = analyze_stage(data, analysis_config(analysis_rate))
            except ValueError:
                # a curve too long to embed, or too short to segment
                return
            parse_report(out)


def finite_floats():
    return st.floats(allow_nan=False, allow_infinity=False)


def fits_on(body_s: float):
    """A fit of any model, its numbers drawn freely but where analyze puts them:
    a positive decay time, and a staircase with one more level than steps, its
    steps strictly increasing inside a body of `body_s` seconds."""
    steps = st.lists(st.floats(0.0, body_s, exclude_min=True, exclude_max=True),
                     max_size=5, unique=True).map(sorted)
    return st.one_of(
        st.builds(LinearFit, finite_floats(), finite_floats(), finite_floats()),
        st.builds(ExpFit, finite_floats(), finite_floats(),
                  st.floats(0.0, exclude_min=True, allow_infinity=False), finite_floats(),
                  st.booleans()),
        steps.flatmap(lambda times: st.builds(
            StaircaseFit, st.lists(finite_floats(), min_size=len(times) + 1,
                                   max_size=len(times) + 1).map(tuple),
            st.just(tuple(times)), finite_floats())),
    )


UNIT = st.floats(0.0, 1.0)


@st.composite
def gestures_on(draw, rate: float, start: int, end: int, kinds=None):
    """A gesture over samples [start, end): its (ShapeKind, Archetype) pair
    one of ``kinds``, or any pair, granularity and mean brightness in [0, 1],
    a fit as `fits_on` draws it at ``rate`` and every other field drawn freely."""
    kind, archetype = draw(st.sampled_from(kinds)) if kinds else (
        draw(st.sampled_from(ShapeKind)), draw(st.sampled_from(Archetype)))
    transient = draw(st.none() | st.builds(TransientInfo, st.integers(0, end - start - 1),
                                           finite_floats()))
    fit = draw(fits_on((end - start - body_start(end - start, transient)) / rate))
    return Gesture(Segment(start, end), kind, transient, draw(UNIT), fit, draw(UNIT),
                   archetype, draw(st.none() | st.integers(-2 ** 70, 2 ** 70)))


EVERY_PAIR = [(kind, archetype) for kind in ShapeKind for archetype in Archetype]


@st.composite
def analyses(draw):
    """(rate, curve, gestures): a report's contents as analyze could write
    them, on a curve inside the limit that starts at 0, the segments in time
    order and not overlapping."""
    rate = draw(st.floats(0.5, 1000.0))
    # now and then one gesture of every kind and archetype pair
    pairs = draw(st.sampled_from([None, EVERY_PAIR]))
    count = len(EVERY_PAIR) if pairs else draw(st.integers(0, 6))
    n = draw(st.integers(max(1, count), 300))
    curve = BrightnessCurve(draw(st.sampled_from(CurveChannel)), rate, 0.0,
                            np.array(draw(st.lists(UNIT, min_size=n, max_size=n))))
    # gesture i starts at cuts[i] and ends by cuts[i + 1], so gaps may fall between
    cuts = sorted(draw(st.permutations(range(n + 1)))[:count + 1])
    gestures = [draw(gestures_on(rate, a, draw(st.integers(a + 1, b)), [pairs[i]] if pairs else None))
                for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    return rate, curve, gestures


def every_pair_analysis():
    """One gesture of each kind and archetype pair, the fit models, transients
    and motif ids taking turns."""
    fits = [LinearFit(0.5, -0.25, 1e-6), ExpFit(0.2, 0.6, 1.25, 2e-5, False),
            ExpFit(0.1, 0.3, 0.5, 0.0, True), StaircaseFit((0.2, 0.5, 0.8), (0.01, 0.02), 3e-5)]
    gestures = [Gesture(Segment(10 * i, 10 * i + 10), kind,
                        TransientInfo(i % 10, 0.3) if i % 3 else None, 0.01 * i, fits[i % 4],
                        0.5, archetype, i if i % 5 else None)
                for i, (kind, archetype) in enumerate(EVERY_PAIR)]
    n = 10 * len(gestures)
    return 50.0, BrightnessCurve(CurveChannel.LUMA, 50.0, 0.0, np.linspace(0.2, 0.8, n)), gestures


class TestWriteCheckReadAgree:
    @given(analyses(), st.booleans())
    @example(every_pair_analysis(), False)
    @example(every_pair_analysis(), True)
    @settings(max_examples=40, deadline=None)
    def test_report_round_trips_to_the_same_bytes_and_gestures(self, analysis,
                                                               drop_degenerate):
        rate, curve, gestures = analysis
        config = parse_config({})
        data = report_to_bytes(build_report({"name": "x"}, rate, curve, gestures, config))
        doc = parse_report(data)
        if drop_degenerate:
            # an ExpFit's degenerate flag may be absent when it is false
            for seg in doc["segments"]:
                if seg["fit"].get("degenerate") is False:
                    del seg["fit"]["degenerate"]
        rebuilt, back = gestures_from_report(doc)
        assert rebuilt == gestures
        assert (back.channel, back.sample_rate, back.t0) == (curve.channel, rate, curve.t0)
        assert back.values.tobytes() == curve.values.tobytes()
        assert report_to_bytes(build_report({"name": "x"}, rate, back, rebuilt, config)) == data

    # each value analyze never writes, and the whole message it gives
    @given(analyses(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_values_analyze_never_writes_are_refused(self, analysis, data):
        rate, curve, gestures = analysis
        doc = build_report({}, rate, curve, gestures, parse_config({}))
        faults = ["t0"] + ["granularity", "mean_brightness"] * bool(gestures)
        fault = data.draw(st.sampled_from(faults + ["overlap"] * (len(gestures) > 1)))
        if fault == "t0":
            doc["channels"][0]["t0"] = data.draw(finite_floats().filter(bool))
            message = "<analysis>: channels[0].t0 must lie in [0, 0]"
        elif fault == "overlap":
            i = data.draw(st.integers(1, len(gestures) - 1))
            doc["segments"][i]["start_s"] = doc["segments"][i - 1]["start_s"]
            message = ("<analysis>: segments[%d]: start_s must not precede the end of "
                       "segments[%d]" % (i, i - 1))
        else:
            i = data.draw(st.integers(0, len(gestures) - 1))
            doc["segments"][i][fault] = data.draw(
                st.floats(max_value=-5e-324, allow_infinity=False)
                | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))
            message = "<analysis>: segments[%d].%s must lie in [0, 1]" % (i, fault)
        with pytest.raises(ReportFormatError) as err:
            parse_report(report_to_bytes(doc))
        assert str(err.value) == message



@st.composite
def compose_configs(draw):
    """A config whose compose fields are drawn from their schema ranges, now
    and then at the slowest MIDI clock, 4 bpm at ppq 24 (1.6 ticks a second)."""
    tempo_bpm, ppq = draw(st.just((4.0, 24))
                          | st.tuples(st.floats(4.0, 1000.0), st.integers(24, 32767)))
    return parse_config({
        "harmony": {"scale": draw(st.sets(st.integers(0, 11), min_size=1).map(sorted)),
                    "root_pc": draw(st.integers(0, 11)),
                    "register": draw(st.lists(st.integers(0, 127), min_size=2, max_size=2,
                                              unique=True).map(sorted)),
                    "tempo_bpm": tempo_bpm, "ppq": ppq, "channel": draw(st.integers(0, 15))},
        "texture": {"lambda_max": draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
                    "grain_ms": draw(st.floats(0.0, 1000.0, exclude_min=True))},
        "seed": draw(st.integers(0, 2 ** 64 - 1))})


SAMPLE_CURVE = BrightnessCurve(CurveChannel.LUMA, 50.0, 0.0, np.linspace(0.2, 0.8, 300))
# a transient 0.04 s before the end leaves one sample, so the staircase was
# fitted from the segment's start, where its steps must play
LATE_TRANSIENT = SAMPLE_GESTURES[:2] + [dataclasses.replace(
    SAMPLE_GESTURES[2], transient=TransientInfo(98, 0.3), fit=StaircaseFit(
        (0.2, 0.5, 0.8), (0.5, 1.9), 3e-5))]
FULL_TEXTURE = [Gesture(Segment(0, 300), ShapeKind.CHAOTIC, None, 1.0, LinearFit(0.5, 0.0, 0.0),
                        0.5, Archetype.GRANULAR_TEXTURE, 0)]
# 596 s between the chords, more than the largest SMF delta at 1000 bpm and ppq 32767
FAR_APART = (0.5, BrightnessCurve(CurveChannel.LUMA, 0.5, 0.0, np.full(300, 0.5)), [
    Gesture(Segment(i, i + 1), ShapeKind.PLATEAU, None, 0.0, LinearFit(0.5, 0.0, 0.0), 0.5,
            Archetype.CHORD_HELD, i) for i in (0, 299)])
# 200,000 s of curve, longer than MAX_FILM_S, which compose refuses naming the report
TOO_LONG = (1e-5, BrightnessCurve(CurveChannel.LUMA, 1e-5, 0.0, np.full(2, 0.5)), [
    Gesture(Segment(0, 2), ShapeKind.PLATEAU, None, 0.0, LinearFit(0.5, 0.0, 0.0), 0.5,
            Archetype.CHORD_HELD, 0)])


class TestComposeGate:
    """compose on a report parse_report accepts, with a config inside the
    schema's ranges, ends within 5 s: in an SMF whose notes start by the
    film's end and end by 1 s after it, or in one error naming the report."""

    @given(analyses(), compose_configs())
    @example((50.0, SAMPLE_CURVE, LATE_TRANSIENT), parse_config({}))
    @example((50.0, SAMPLE_CURVE, FULL_TEXTURE),
             parse_config({"texture": {"lambda_max": 1e6, "grain_ms": 1000.0}}))
    @example(FAR_APART, parse_config({"harmony": {"tempo_bpm": 1000.0, "ppq": 32767}}))
    @settings(max_examples=15, deadline=None)
    def test_every_note_lies_inside_the_film(self, analysis, config):
        rate, curve, gestures = analysis
        data = report_to_bytes(build_report({}, rate, curve, gestures, parse_config({})))
        try:
            with deadline(5):
                smf = compose_stage(data, config, "gate.json")
        except ValueError as exc:
            assert str(exc).startswith("gate.json: "), exc
            return
        clock = (config.harmony.tempo_bpm, config.harmony.ppq)
        film_end = len(curve.values) / rate
        last_on, last_off = ticks(film_end, *clock), ticks(film_end + 1.0, *clock)
        for tick, event in read_smf(smf)["tracks"][1]:
            assert tick <= {"note_on": last_on, "note_off": last_off}.get(event[0], tick), (
                tick, event)

    # the same reports and configs through the command line: the bytes
    # compose_stage gives, or exit 1 with one line naming the report
    @given(analysis=analyses(), config=compose_configs())
    @example(analysis=(50.0, SAMPLE_CURVE, LATE_TRANSIENT), config=parse_config({}))
    @example(analysis=(50.0, SAMPLE_CURVE, FULL_TEXTURE),
             config=parse_config({"texture": {"lambda_max": 1e6, "grain_ms": 1000.0}}))
    @example(analysis=FAR_APART,
             config=parse_config({"harmony": {"tempo_bpm": 1000.0, "ppq": 32767}}))
    @example(analysis=TOO_LONG, config=parse_config({}))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_the_cli_writes_what_compose_stage_gives(self, analysis, config, tmp_path, capsys):
        rate, curve, gestures = analysis
        data = report_to_bytes(build_report({}, rate, curve, gestures, parse_config({})))
        report, config_file, out = (tmp_path / "gate.json", tmp_path / "config.json",
                                    tmp_path / "score.mid")
        report.write_bytes(data)
        config_file.write_text(json.dumps(to_json(config)))
        out.unlink(missing_ok=True)
        try:
            with deadline(5):
                expected = compose_stage(data, config, str(report))
        except ValueError as exc:
            expected = exc
        with deadline(5):
            code = main(["compose", "--analysis", str(report), "--config", str(config_file),
                         "--out", str(out)])
        err = capsys.readouterr().err
        if isinstance(expected, bytes):
            assert (code, err, out.read_bytes()) == (0, "", expected)
        else:
            assert (code, err) == (1, "error: %s\n" % expected), err
            assert err.startswith("error: %s: " % report) and not out.exists()


def _report_fields(cls, doc, path):
    """(record type, path, type hint, metadata) of each number and boolean field
    that `doc`, a `cls` record, holds: a list of numbers by its first item, a
    fit by the record its model names."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, value, where = hints[f.name], doc.get(f.name), path + (f.name,)
        if typing.get_origin(hint) is types.UnionType:  # `X | None`
            hint = typing.get_args(hint)[0]
        item = (typing.get_args(hint) or [None])[0]
        if f.name == "fit":
            yield from _report_fields(_FITS[value["model"]], value, where)
        elif dataclasses.is_dataclass(hint) and value is not None:
            yield from _report_fields(hint, value, where)
        elif typing.get_origin(hint) is list and dataclasses.is_dataclass(item):
            for i, record in enumerate(value):
                yield from _report_fields(item, record, where + (i,))
        elif typing.get_origin(hint) in (list, tuple):
            yield cls, where + (0,), item, {"range": f.metadata["items"]} if "items" in f.metadata else {}
        elif hint in (int, float, bool):
            yield cls, where, hint, f.metadata


def _report_leaves():
    """(path, type hint, metadata) of each field of each record type, at its
    first place in the sample report."""
    leaves = {}
    for cls, path, hint, meta in _report_fields(_Report, make_report(SAMPLE_GESTURES), ()):
        leaves.setdefault((cls, [key for key in path if isinstance(key, str)][-1]),
                          (path, hint, meta))
    return list(leaves.values())


def _probes(hint, meta):
    """(value, refused) pairs: a ranged field's edges, refused outside the
    interval; any other number at 5e-324, 1e-300, 1.7e308, NaN and a 400-digit
    integer, the last two refused; a motif id and a flag as each JSON type."""
    if "range" in meta:
        return [(v, not _inside(v, meta["range"], hint)) for v in _edge_values(meta["range"], hint)]
    if hint is float:
        return [(5e-324, False), (1e-300, False), (1.7e308, False), (math.nan, True),
                (10 ** 400, True)]
    if hint is int:  # motif_id, an integer or null
        return [(-(2 ** 70), False), (2 ** 70, False), (10 ** 400, False), (None, False),
                (1.5, True), (True, True), ("1", True)]
    return [(True, False), (False, False), (None, True), (0, True), (1.0, True)]


REPORT_LEAVES = _report_leaves()


class TestReportFieldEdges:
    """The report half of the schema gate: each number and boolean field of
    every report record at its edges, through compose and plot.  Each ends at
    once, in artifacts that read back or in one error line."""

    def test_every_field_is_probed(self):
        names = {path[-1] if isinstance(path[-1], str) else path[-2]
                 for path, _, _ in REPORT_LEAVES}
        assert {"rate_hz", "sample_rate_hz", "t0", "values", "start_s", "end_s",
                "granularity", "mean_brightness", "t_s", "amplitude", "motif_id",
                "intercept", "slope_per_s", "sse", "offset", "scale", "tau_s", "degenerate",
                "levels", "step_times_s"} == names
        assert sum(path[-1] == "sse" for path, _, _ in REPORT_LEAVES) == 3

    @pytest.mark.parametrize("path, hint, meta", REPORT_LEAVES,
                             ids=[".".join(map(str, leaf[0])) for leaf in REPORT_LEAVES])
    def test_edges(self, path, hint, meta, tmp_path, capsys):
        report, curves, out = tmp_path / "analysis.json", tmp_path / "curves.csv", tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text("{}")
        curves.write_bytes(write_curves_csv(
            make_curveset({CurveChannel.LUMA: np.linspace(0.2, 0.8, 300)}, rate=50.0)))
        for value, refused in _probes(hint, meta):
            doc = make_report(SAMPLE_GESTURES)
            *keys, last = path
            functools.reduce(operator.getitem, keys, doc)[last] = value
            report.write_text(json.dumps(doc))
            for argv, read_back in (
                    (["compose", "--analysis", str(report), "--config", str(config)], read_smf),
                    (["plot", "--curves", str(curves), "--analysis", str(report)],
                     ElementTree.fromstring)):
                with deadline(5):
                    code = main(argv + ["--out", str(out)])
                err = capsys.readouterr().err
                if code:
                    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (
                        value, err)
                else:
                    assert not refused and err == "", (value, argv[0])
                    read_back(out.read_bytes())
                    out.unlink()
