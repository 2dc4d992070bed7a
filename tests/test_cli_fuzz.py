"""The "never a traceback" gate: mutated inputs through the CLI in-process.

Every input the CLI accepts must end either in exit 0 or in exit 1 or 2 with
exactly one ``error:`` line on stderr.  Each case takes one small valid
input (a Y4M clip, a PPM image, a raw RGB24 file or its sidecar, a curve
CSV, an analysis report or a config), applies a few byte mutations and runs
the commands that read it.  An exception escaping ``main`` fails the case,
and so does an exit 0 whose score does not read back as MIDI or whose plot
does not parse as XML.

Below the CLI, each reader of an outside input raises only the one error
class of that input, whatever bytes it is given.
"""

import contextlib
import functools
import importlib
import io
import json
import pkgutil
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lumascore
from lumascore.cli import main
from lumascore.config import ConfigError, load_config
from lumascore.ingest import MediaFormatError, open_source
from lumascore.midi import MidiFormatError, read_smf
from lumascore.photometry import CurveChannel, extract_curves
from lumascore.report import CsvFormatError, ReportFormatError, parse_report, read_curves_csv

from _synth import build_ppm, build_y4m, unit_noise, y4m_frame_420

# a JSON array nested far deeper than the interpreter's recursion limit
DEEP_JSON = b"[" * 100000 + b"]" * 100000

# bytes a mutation inserts beside random ones: number syntax, JSON
# structure and the separators of the headers and the CSV
TOKENS = [b"9" * 8, b"-", b"0.", b"e308", b"NaN", b"Infinity", b"[", b"{", b'"', b",",
          b":", b" ", b"\n", b"#", b"\x00", b"\xff"]


@functools.cache
def seeds() -> dict[str, bytes]:
    """One small valid input per kind; the CSV, the report and the MIDI score
    come from a pipeline run over the clip."""
    levels = [40 + int(u * 160) for u in unit_noise(12, 72)]
    clip = build_y4m(4, 4, [y4m_frame_420(4, 4, v) for v in levels])
    raster = bytes(int(u * 256) % 256 for u in unit_noise(13, 3 * 4 * 3))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "clip.y4m").write_bytes(clip)
        (tmp / "config.json").write_text("{}")
        assert main(["pipeline", "--input", str(tmp / "clip.y4m"), "--config",
                     str(tmp / "config.json"), "--out-dir", str(tmp / "out")]) == 0
        curves = (tmp / "out" / "curves.csv").read_bytes()
        report = (tmp / "out" / "analysis.json").read_bytes()
        score = (tmp / "out" / "score.mid").read_bytes()
    config = {"analysis": {"rate_hz": 50.0, "min_segment_s": 0.5},
              "texture": {"grain_ms": 60.0}, "seed": 3,
              "overrides": [{"segment_index": 0, "archetype": "granular_texture"}]}
    return {
        "y4m": clip,
        "ppm": build_ppm(4, 3, raster),
        "raw": raster * 2,
        "sidecar": json.dumps({"width": 4, "height": 3, "fps_num": 24, "fps_den": 1}).encode(),
        "csv": curves,
        "report": report,
        "config": json.dumps(config).encode(),
        "midi": score,
    }


def edited(kind: str, edit) -> tuple[str, bytes]:
    """(kind, bytes): a seed input with one edit of its JSON document."""
    doc = json.loads(seeds()[kind])
    edit(doc)
    return kind, json.dumps(doc).encode()


# where each kind of input the CLI reads is written
FILES = {"y4m": "clip.y4m", "ppm": "image.ppm", "raw": "clip.rgb",
         "sidecar": "clip.rgb.json", "csv": "curves.csv", "report": "analysis.json",
         "config": "config.json"}


@st.composite
def mutated(draw, kinds=tuple(sorted(FILES))):
    """(kind, bytes): a seed input of one of ``kinds`` with one to four byte
    mutations."""
    kind = draw(st.sampled_from(kinds))
    data = bytearray(seeds()[kind])
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        pos = draw(st.integers(0, len(data)))
        if op == "replace":
            data[pos:pos + 1] = bytes([draw(st.integers(0, 255))])
        elif op == "insert":
            data[pos:pos] = draw(st.one_of(st.binary(min_size=1, max_size=4),
                                           st.sampled_from(TOKENS)))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return kind, bytes(data)


def _write(kind: str, data: bytes, tmp: Path) -> dict[str, str]:
    """Write ``data`` as the input of ``kind`` and the valid seed of every
    other kind into ``tmp``; the path of each kind."""
    for other, name in FILES.items():
        (tmp / name).write_bytes(data if other == kind else seeds()[other])
    return {k: str(tmp / name) for k, name in FILES.items()}


def _commands(kind: str, path: dict[str, str], tmp: Path) -> list[list[str]]:
    """The argv lists that read the input of ``kind``."""
    config = ["--config", path["config"]]
    out = ["--out", str(tmp / "out")]
    if kind in ("y4m", "ppm", "raw", "sidecar"):
        channels = {"y4m": "luma,contrast_rms,contrast_spread",
                    "ppm": "luma,red,contrast_spread"}.get(
                        kind, "luma,red,green,blue,contrast_rms,contrast_spread")
        source = path["raw"] if kind == "sidecar" else path[kind]
        return [["extract", "--input", source, "--channels", channels] + out]
    if kind == "csv":
        return [["analyze", "--curves", path["csv"]] + config + out,
                ["plot", "--curves", path["csv"]] + out]
    if kind == "report":
        return [["compose", "--analysis", path["report"]] + config + out,
                ["plot", "--curves", path["csv"], "--analysis", path["report"]] + out]
    return [["pipeline", "--input", path["y4m"]] + config + ["--out-dir", str(tmp / "dir")]]


def _one_long_segment(doc: dict) -> None:
    """Four samples at 1e-300 Hz, one segment over all of them: 4e300 s."""
    doc.update(rate_hz=1e-300, channels=[dict(doc["channels"][0], sample_rate_hz=1e-300,
                                              values=[0.5] * 4)],
               segments=[dict(doc["segments"][0], start_s=0.0, end_s=4e300, transient=None)])


def _long_texture(doc: dict) -> None:
    """Four samples at 5e-6 Hz, an 8e5 s curve, under one granular texture."""
    doc.update(rate_hz=5e-6, channels=[dict(doc["channels"][0], sample_rate_hz=5e-6,
                                            values=[0.5] * 4)],
               segments=[dict(doc["segments"][0], start_s=0.0, end_s=8e5, transient=None,
                              archetype="granular_texture")])


# what an exit 0 of each command must have written to --out
READ_BACK = {"compose": read_smf, "plot": ET.fromstring}


@given(mutated())
@example(("report", DEEP_JSON))
@example(("sidecar", DEEP_JSON))
# reports and configs that once ended in a traceback, a plot that is not XML
# or a score that runs far past the film
@example(edited("report", lambda doc: doc["segments"][0].update(archetype="a & <b>")))
@example(edited("report", lambda doc: doc["segments"][0].update(kind="spline")))
@example(edited("report", lambda doc: doc.update(rate_hz=1e308)))
@example(edited("report", lambda doc: doc["segments"][0].update(
    transient={"t_s": 1e308, "amplitude": 0.3})))
@example(edited("report", lambda doc: doc["segments"][-1].update(end_s=2e4)))
@example(edited("report", lambda doc: doc["segments"][-1].update(end_s=1e300)))
@example(edited("config", lambda doc: doc["overrides"][0].update(archetype=["x"])))
@example(edited("config", lambda doc: doc["overrides"][0].update(archetype={"a": 1})))
# curves too long to build: a 373 GiB resample, and two scores that did not finish
@example(("csv", b"time_s,luma\n0.000000,0.500000\n1000000000.000000,0.500000\n"))
@example(edited("report", lambda doc: doc["channels"][0].update(sample_rate_hz=1e-300)))
@example(edited("report", _one_long_segment))
# a curve under the sample cap whose texture drew for longer than any test waited
@example(edited("report", _long_texture))
# numbers no report of analyze holds: four tracebacks, a tremolo that did not
# end and overlapping segments that multiplied the work
@example(edited("report", lambda doc: doc["channels"][0].update(t0=-1.7e308)))
@example(edited("report", lambda doc: doc["segments"][0].update(mean_brightness=1.7e308)))
@example(edited("report", lambda doc: doc["channels"][0]["values"].__setitem__(0, 1.7e308)))
@example(edited("report", lambda doc: doc["segments"][0].update(
    archetype="arpeggio_detached",
    fit={"model": "staircase", "levels": [1.7e308, 0.5], "step_times_s": [0.25], "sse": 0.0})))
@example(edited("report", lambda doc: doc["segments"][0].update(archetype="tremolo_scratch",
                                                                granularity=2.0)))
@example(edited("report", lambda doc: doc.update(segments=[doc["segments"][0]] * 20)))
# fit numbers no analysis writes: a note 1000 s past its segment, and a
# negative decay time that failed in the SMF writer, naming no file
@example(edited("report", lambda doc: doc["segments"][0].update(
    archetype="arpeggio_detached",
    fit={"model": "staircase", "levels": [0.2, 0.5], "step_times_s": [1000.0], "sse": 0.0})))
@example(edited("report", lambda doc: doc["segments"][0].update(
    archetype="chord_arpeggio",
    fit={"model": "exponential", "offset": 0.2, "scale": 0.6, "tau_s": -1, "sse": 0.0})))
@settings(max_examples=300, deadline=None)
def test_mutated_input_ends_in_artifacts_or_one_error_line(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv in _commands(kind, _write(kind, data, tmp), tmp):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            message = err.getvalue()
            assert code in (0, 1, 2), (argv, code, message)
            if code:
                assert message.startswith("error:") and message.count("\n") == 1, message
            else:
                assert message == ""
                if argv[0] in READ_BACK:
                    READ_BACK[argv[0]]((tmp / "out").read_bytes())


# the one error class of each outside input; a MIDI score is read back only
# by the tests
ERRORS = {"y4m": MediaFormatError, "ppm": MediaFormatError, "raw": MediaFormatError,
          "sidecar": MediaFormatError, "csv": CsvFormatError, "report": ReportFormatError,
          "config": ConfigError, "midi": MidiFormatError}
# red, green and blue need RGB24, which a mutated PPM magic can take away; asking
# for them then is an error in the arguments, not in the media
ANY_FORMAT = (CurveChannel.LUMA, CurveChannel.CONTRAST_RMS, CurveChannel.CONTRAST_SPREAD)


def _read(kind: str, data: bytes, tmp: Path) -> None:
    """Read ``data`` as an input of ``kind`` with the library's reader for it."""
    if kind == "midi":
        read_smf(data)
    elif kind == "csv":
        read_curves_csv(data)
    elif kind == "report":
        parse_report(data)
    elif kind == "config":
        load_config(_write(kind, data, tmp)["config"])
    else:
        path = _write(kind, data, tmp)
        with open_source(path["raw" if kind == "sidecar" else kind]) as source:
            extract_curves(source,
                           tuple(CurveChannel) if kind in ("raw", "sidecar") else ANY_FORMAT)


@given(mutated(kinds=tuple(sorted(ERRORS))))
# a config or sidecar that is not UTF-8 once raised a bare UnicodeDecodeError
@example(("config", b'{"seed": 1, "\xff": 2}'))
@example(("sidecar", b'{"width": 4\xff}'))
@settings(max_examples=300, deadline=None)
def test_each_reader_raises_only_its_own_class(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _read(kind, data, Path(tmp))
        except ERRORS[kind]:
            pass


def test_the_library_defines_one_error_class_per_input():
    defined = set()
    for info in pkgutil.iter_modules(lumascore.__path__):
        module = importlib.import_module("lumascore." + info.name)
        defined |= {"%s.%s" % (info.name, name) for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {"ingest.MediaFormatError", "report.CsvFormatError",
                       "report.ReportFormatError", "config.ConfigError",
                       "midi.MidiFormatError"}
