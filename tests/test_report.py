"""Curve CSV format and the canonical JSON analysis report."""

import json

import numpy as np
import pytest

from lumascore.config import parse_config
from lumascore.gestures import (
    Archetype,
    ExpFit,
    Gesture,
    LinearFit,
    ShapeKind,
    StaircaseFit,
    TransientInfo,
)
from lumascore.ingest import PixelFormat, StreamInfo
from lumascore.photometry import BrightnessCurve, CurveChannel, CurveSet
from lumascore.report import (
    CsvFormatError,
    ReportFormatError,
    build_report,
    gestures_from_report,
    parse_report,
    read_curves_csv,
    report_to_bytes,
    write_curves_csv,
)
from lumascore.segmentation import Segment


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

    def test_empty_body_rejected(self):
        with pytest.raises(CsvFormatError):
            read_curves_csv(b"time_s,luma\n")


def make_report(gestures, n=100, rate=50.0):
    curve = BrightnessCurve(
        CurveChannel.LUMA, rate, 0.0, np.linspace(0.2, 0.8, n)
    )
    source = {"channels": ["luma"], "num_samples": n,
              "sample_rate_hz": 24.0, "duration_s": n / 24.0}
    return build_report(source, rate, curve, gestures, parse_config({}))


SAMPLE_GESTURES = [
    Gesture(Segment(0, 100), ShapeKind.PLATEAU, TransientInfo(5, 0.4),
            0.12, LinearFit(0.5, 0.0, 1e-6), 0.01, 0.55,
            Archetype.CHORD_HELD, motif_id=0),
    Gesture(Segment(100, 200), ShapeKind.EXPONENTIAL_DECAY, None,
            0.05, ExpFit(0.2, 0.6, 1.25, 2e-5, False), 0.02, 0.4,
            Archetype.CHORD_RESONANCE, motif_id=1),
    Gesture(Segment(200, 300), ShapeKind.STAIRCASE, None,
            0.02, StaircaseFit((0.2, 0.5, 0.8), (4.5, 5.2), 3e-5), 0.0, 0.5,
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
        assert len(curve.values) == 100

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
