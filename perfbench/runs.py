"""One run of each workload, untraced or traced.

The untraced run makes the calls the CLI makes.  The traced run repeats
``lumascore.pipeline``'s call order with the layer functions themselves,
so that a span from this file surrounds every call into a layer.  Both
write the same artifacts, which the caller compares byte for byte.

The benchmark's config is ``{}``: no manual boundaries and no overrides,
so the traced analysis leaves out those two branches of ``analyze_stage``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from lumascore import gestures as gestures_module
from lumascore.composition import compose
from lumascore.config import PipelineConfig
from lumascore.curveprep import resample, smooth
from lumascore.gestures import assign_motifs, classify
from lumascore.ingest import open_source
from lumascore.midi import write_smf
from lumascore.photometry import (
    BrightnessCurve,
    CurveChannel,
    CurveSet,
    frame_channel_mean,
    frame_contrast,
    frame_luma_mean,
)
from lumascore.pipeline import (
    analyze_stage,
    compose_stage,
    extract_stage,
    plot_stage,
    run_pipeline,
)
from lumascore.report import (
    build_report,
    gestures_from_report,
    parse_report,
    read_curves_csv,
    report_to_bytes,
    write_curves_csv,
)
from lumascore.segmentation import SegmentationParams, segment
from lumascore.svgplot import plot_svg

from spans import Tracer
from workloads import RGB_CHANNELS

CHANNELS = tuple(CurveChannel(name) for name in RGB_CHANNELS)

_MEASURE = {
    CurveChannel.LUMA: frame_luma_mean,
    CurveChannel.RED: lambda frame: frame_channel_mean(frame, CurveChannel.RED),
    CurveChannel.GREEN: lambda frame: frame_channel_mean(frame, CurveChannel.GREEN),
    CurveChannel.BLUE: lambda frame: frame_channel_mean(frame, CurveChannel.BLUE),
    CurveChannel.CONTRAST_RMS: lambda frame: frame_contrast(frame, "rms"),
    CurveChannel.CONTRAST_SPREAD: lambda frame: frame_contrast(frame, "spread"),
}


def untraced(workload: str, source: Path, source_bytes: bytes | None,
             config: PipelineConfig, out: Path, workers: int) -> dict[str, Path]:
    """The workload's CLI calls; ``source_bytes`` is the curve_long input."""
    if workload == "film90":
        return run_pipeline(source, config, out, workers=workers)
    if workload == "rgb_channels":
        path = out / "curves.csv"
        path.write_bytes(extract_stage(source, CHANNELS, workers=workers))
        return {"curves.csv": path}
    report_path = out / "analysis.json"
    report_path.write_bytes(analyze_stage(source_bytes, config, str(source)))
    midi_path = out / "score.mid"
    midi_path.write_bytes(compose_stage(report_path.read_bytes(), config, str(report_path)))
    svg_path = out / "plot.svg"
    svg_path.write_bytes(plot_stage(source.read_bytes(), report_path.read_bytes(), str(source)))
    return {"analysis.json": report_path, "score.mid": midi_path, "plot.svg": svg_path}


def traced(workload: str, source: Path, source_bytes: bytes | None,
           config: PipelineConfig, out: Path, tracer: Tracer) -> dict[str, Path]:
    """The same artifacts as :func:`untraced` at one worker, under spans."""
    artifacts = {}
    with tracer.span("pipeline"), _timed_fits(tracer):
        if workload == "curve_long":
            csv_path = source
        else:
            channels = (CurveChannel.LUMA,) if workload == "film90" else CHANNELS
            csv_path = out / "curves.csv"
            csv_path.write_bytes(_extract(tracer, source, channels))
            artifacts["curves.csv"] = csv_path
        if workload != "rgb_channels":
            csv_data = source_bytes if workload == "curve_long" else csv_path.read_bytes()
            report_path = out / "analysis.json"
            report_path.write_bytes(_analyze(tracer, csv_data, config, str(csv_path)))
            midi_path = out / "score.mid"
            midi_path.write_bytes(_compose(tracer, report_path.read_bytes(), config,
                                           str(report_path)))
            svg_path = out / "plot.svg"
            svg_path.write_bytes(_plot(tracer, csv_path.read_bytes(), report_path.read_bytes(),
                                       str(csv_path)))
            artifacts.update({"analysis.json": report_path, "score.mid": midi_path,
                              "plot.svg": svg_path})
    tracer.add("report.bytes_out", sum(artifacts[name].stat().st_size
                                       for name in ("curves.csv", "analysis.json")
                                       if name in artifacts))
    return artifacts


@contextmanager
def _timed_fits(tracer: Tracer):
    """Rebind the fits ``classify`` looks up so each call gets a span."""
    names = ("fit_staircase", "fit_exponential")
    saved = {name: getattr(gestures_module, name) for name in names}

    def timed(name, fit):
        def call(*args, **kwargs):
            with tracer.span("gestures." + name):
                return fit(*args, **kwargs)
        return call

    for name, fit in saved.items():
        setattr(gestures_module, name, timed(name, fit))
    try:
        yield
    finally:
        for name, fit in saved.items():
            setattr(gestures_module, name, fit)


def _extract(tracer: Tracer, path: Path, channels) -> bytes:
    """``extract_stage`` at one worker, one span per reader step and frame."""
    with tracer.span("stage.extract"):
        with tracer.span("ingest.read"):
            source = open_source(path)
        try:
            frames = iter(source)
            rows = []
            while True:
                with tracer.span("ingest.read"):
                    frame = next(frames, None)
                if frame is None:
                    break
                tracer.add("ingest.frames")
                tracer.add("ingest.mb_read", len(frame.data) / 1e6)
                with tracer.span("photometry.measure"):
                    rows.append(tuple(_MEASURE[channel](frame) for channel in channels))
        finally:
            source.close()
        table = np.array(rows, dtype=np.float64)
        curves = CurveSet(source.info, {
            channel: BrightnessCurve(channel, source.info.fps, 0.0, table[:, i].copy())
            for i, channel in enumerate(channels)
        })
        with tracer.span("report.csv_write"):
            return write_curves_csv(curves)


def _analyze(tracer: Tracer, csv_data: bytes, config: PipelineConfig, name: str) -> bytes:
    with tracer.span("stage.analyze"):
        with tracer.span("report.csv_read"):
            curves = read_curves_csv(csv_data, name)
        luma = curves[CurveChannel.LUMA]
        rate = config.analysis.rate_hz
        with tracer.span("curveprep.resample"):
            raw = resample(luma, rate)
        with tracer.span("curveprep.smooth"):
            smoothed = smooth(raw, config.analysis.smooth_window_s)
        tracer.add("curveprep.samples", len(raw.values))
        seg_params = SegmentationParams(config.analysis.min_segment_s,
                                        config.analysis.penalty_beta)
        with tracer.span("segmentation.segment"):
            segments = segment(smoothed, seg_params)
        block = max(int(math.ceil(seg_params.min_segment_s * rate - 1e-9)), 2)
        blocks = len(smoothed.values) // block
        tracer.add("segmentation.blocks", blocks)
        tracer.add("segmentation.segments", len(segments))
        tracer.add("segmentation.merges", blocks - len(segments))
        params = config.classify_params()
        gestures = []
        for s in segments:
            with tracer.span("gestures.classify"):
                gestures.append(classify(smoothed.values[s.start_idx:s.end_idx],
                                         raw.values[s.start_idx:s.end_idx], rate, params, s))
        tracer.add("gestures.segments", len(segments))
        tracer.add("gestures.max_segment_samples",
                   max(s.end_idx - s.start_idx for s in segments))
        with tracer.span("gestures.assign_motifs"):
            assign_motifs(gestures, rate)
        source = {
            "channels": sorted(c.value for c in curves),
            "num_samples": len(luma.values),
            "sample_rate_hz": float(luma.sample_rate),
            "duration_s": float(luma.duration),
        }
        with tracer.span("report.json_write"):
            return report_to_bytes(build_report(source, rate, smoothed, gestures, config))


def _compose(tracer: Tracer, report_data: bytes, config: PipelineConfig, name: str) -> bytes:
    with tracer.span("stage.compose"):
        with tracer.span("report.json_read"):
            gestures, curve = gestures_from_report(parse_report(report_data, name))
        with tracer.span("composition.compose"):
            score = compose(gestures, curve, config.harmony, seed=config.seed,
                            lambda_max=config.texture.lambda_max,
                            grain_s=config.texture.grain_ms / 1000.0)
        tracer.add("composition.notes", len(score.notes))
        with tracer.span("midi.write_smf"):
            data = write_smf(score)
        tracer.add("midi.bytes", len(data))
        return data


def _plot(tracer: Tracer, csv_data: bytes, report_data: bytes, name: str) -> bytes:
    with tracer.span("stage.plot"):
        with tracer.span("report.csv_read"):
            curves = read_curves_csv(csv_data, name)
        curve = curves[CurveChannel.LUMA]
        with tracer.span("report.json_read"):
            doc = parse_report(report_data)
        segments = [(seg["start_s"], seg["end_s"], seg["archetype"]) for seg in doc["segments"]]
        with tracer.span("svgplot.plot"):
            data = plot_svg(curve, segments)
        tracer.add("svgplot.bytes", len(data))
        return data
