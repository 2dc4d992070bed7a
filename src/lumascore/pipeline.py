"""Stage functions tying extraction, analysis and composition together.

The pipeline feeds each stage the bytes of the artifacts before it, exactly
the bytes it then writes, so running the stages separately over the written
files produces the same bytes as one pipeline invocation.  It writes nothing
until every stage has succeeded.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from pathlib import Path

from .composition import check_film_length, compose
from .config import ConfigError, PipelineConfig
from .curveprep import resample, smooth
from .gestures import Gesture, assign_motifs, classify
from .ingest import open_source
from .midi import write_smf
from .photometry import BrightnessCurve, CurveChannel, extract_curves
from .report import (
    CsvFormatError,
    build_report,
    read_curves_csv,
    read_report,
    report_to_bytes,
    write_curves_csv,
)
from .segmentation import apply_manual_boundaries, segment
from .svgplot import plot_svg


def extract_stage(input_path: str | Path, channels, workers: int = 1) -> bytes:
    """The curves CSV of ``input_path``.  Extraction measures frames on one
    thread per core; ``workers`` is ignored and stays only because callers
    such as ``perfbench`` pass it, until ROADMAP item 1 removes it."""
    with open_source(input_path) as source:
        curves = extract_curves(source, channels)
    return write_curves_csv(curves)


def analyze_stage(csv_data: bytes, config: PipelineConfig, source_name: str = "<curves>") -> bytes:
    return _analyze(read_curves_csv(csv_data, source_name), config, source_name)


def _analyze(curves: dict[CurveChannel, BrightnessCurve], config: PipelineConfig,
             source_name: str) -> bytes:
    """The report of the curves parsed from ``source_name``."""
    if CurveChannel.LUMA not in curves:
        raise CsvFormatError("%s: analysis needs a luma column" % source_name)
    luma = curves[CurveChannel.LUMA]
    raw = resample(luma, config.analysis.rate_hz)
    # the rule parse_report applies to the curve the report embeds, so that
    # analyze writes no report that compose refuses
    check_film_length(raw.duration, "the luma curve at %.6g Hz" % raw.sample_rate)
    smoothed = smooth(raw, config.analysis.smooth_window_s)
    if config.manual_boundaries_s is not None:
        segments = apply_manual_boundaries(smoothed, config.manual_boundaries_s, ConfigError)
    else:
        segments = segment(smoothed, config.analysis)
    params = config.classify_params()
    rate = config.analysis.rate_hz
    gestures = [
        classify(
            smoothed.values[s.start_idx:s.end_idx],
            raw.values[s.start_idx:s.end_idx],
            rate,
            params,
            s,
        )
        for s in segments
    ]
    assign_motifs(gestures, rate)
    for i, override in enumerate(config.overrides):
        # the config walker checked segment_index >= 0; only the analysis knows the end
        if override.segment_index >= len(gestures):
            raise ConfigError("config: overrides[%d].segment_index must lie in [0, %d]"
                              % (i, len(gestures) - 1))
        gestures[override.segment_index].archetype = override.archetype
    source = {
        "channels": sorted(c.value for c in curves),
        "num_samples": len(luma.values),
        "sample_rate_hz": float(luma.sample_rate),
        "duration_s": float(luma.duration),
    }
    report = build_report(source, rate, smoothed, gestures, config)
    return report_to_bytes(report)


def compose_stage(report_data: bytes, config: PipelineConfig, source_name: str = "<analysis>") -> bytes:
    return _compose(*read_report(report_data, source_name), config)


def _compose(gestures: list[Gesture], curve: BrightnessCurve, config: PipelineConfig) -> bytes:
    """The SMF of a report's gestures and analysis curve."""
    score = compose(
        gestures,
        curve,
        config.harmony,
        seed=config.seed,
        lambda_max=config.texture.lambda_max,
        grain_s=config.texture.grain_s,
    )
    return write_smf(score)


def plot_stage(csv_data: bytes, report_data: bytes | None = None,
               source_name: str = "<curves>", report_name: str = "<analysis>") -> bytes:
    curves = read_curves_csv(csv_data, source_name)
    if report_data is None:
        return _plot(curves)
    gestures, analysis = read_report(report_data, report_name)
    return _plot(curves, gestures, analysis.sample_rate)


def _plot(curves: dict[CurveChannel, BrightnessCurve], gestures: Sequence[Gesture] = (),
          rate: float = 1.0) -> bytes:
    """The SVG of the parsed curves with a report's gestures, drawn where
    compose plays them: on the analysis grid of ``rate``."""
    curve = curves.get(CurveChannel.LUMA) or next(iter(curves.values()))
    return plot_svg(curve, [(g.segment.start_idx / rate, g.segment.end_idx / rate,
                             g.archetype.value) for g in gestures])


def _write_artifacts(out: Path, artifacts: dict[str, bytes]) -> dict[str, Path]:
    """Write every artifact to a temporary file in ``out`` first, then rename
    each over its name, so a failed write replaces none of them.  A failed
    rename leaves the artifacts renamed before it in place and the rest as
    they were.  Either way no temporary file is left.  A temporary name
    carries 64 random bits, not the PID, which a restarted container reuses,
    so a killed run's stale temporary does not block the next run."""
    temps: list[Path] = []
    try:
        for name, data in artifacts.items():
            temp = out / (".%s.%s.tmp" % (name, os.urandom(8).hex()))
            with open(temp, "xb") as fh:
                temps.append(temp)
                fh.write(data)
        for temp, name in zip(temps, artifacts):
            os.replace(temp, out / name)
    except BaseException:
        for temp in temps:
            # a renamed temporary is gone already
            temp.unlink(missing_ok=True)
        raise
    return {name: out / name for name in artifacts}


def write_out(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``, a single stage's ``--out``, as the
    artifacts are written: a failed write leaves the old file whole, and a
    symlink's target is replaced.  Whoever reads fd 1 holds the file it
    writes to, so that file is written through fd 1, at its offset, which
    keeps what a shell writes around the command.  Any other path that exists
    and is not a regular file, such as a pipe, cannot be renamed over, so it
    is written in place.  An error names ``path``, not the temporary."""
    try:
        exists = os.path.exists(path)
        # fd 1 is compared only if it is open
        if exists and os.path.exists(1) and os.path.samestat(os.stat(path), os.fstat(1)):
            with open(1, "wb", closefd=False) as stdout:
                stdout.write(data)
        elif exists and not os.path.isfile(path):
            path.write_bytes(data)
        else:
            target = Path(os.path.realpath(path))
            _write_artifacts(target.parent, {target.name: data})
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def run_pipeline(
    input_path: str | Path,
    config: PipelineConfig,
    out_dir: str | Path,
    workers: int = 1,
) -> dict[str, Path]:
    """Extract, analyze, compose and plot, then write all four artifacts.  A
    failing stage leaves ``out_dir`` as it was.  Extraction measures frames
    on one thread per core; ``workers`` is ignored and stays only because
    callers such as ``perfbench`` pass it, until ROADMAP item 1 removes it."""
    out = Path(out_dir)
    csv_name = str(out / "curves.csv")
    csv_data = extract_stage(input_path, (CurveChannel.LUMA,))
    # each artifact is parsed once from its bytes, as the stages run
    # separately parse it from the file
    curves = read_curves_csv(csv_data, csv_name)
    report_name = str(out / "analysis.json")
    report_data = _analyze(curves, config, csv_name)
    gestures, curve = read_report(report_data, report_name)
    midi_data = _compose(gestures, curve, config)
    svg_data = _plot(curves, gestures, curve.sample_rate)
    out.mkdir(parents=True, exist_ok=True)
    return _write_artifacts(out, {
        "curves.csv": csv_data,
        "analysis.json": report_data,
        "score.mid": midi_data,
        "plot.svg": svg_data,
    })
