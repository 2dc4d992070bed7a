"""The "never a traceback" gate: mutated inputs through the CLI in-process.

Every input the CLI accepts must end either in exit 0 or in exit 1 or 2 with
exactly one ``error:`` line on stderr.  Each case takes one small valid
input (a Y4M clip, a PPM image, a raw RGB24 file or its sidecar, a curve
CSV, an analysis report or a config), applies a few byte mutations and runs
the commands that read it.  An exception escaping ``main`` fails the case,
and so does an exit 0 whose score does not read back as MIDI or whose plot
does not parse as XML.
"""

import contextlib
import functools
import io
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumascore.cli import main
from lumascore.midi import read_smf

from _synth import build_ppm, build_y4m, unit_noise, y4m_frame_420

# a JSON array nested far deeper than the interpreter's recursion limit
DEEP_JSON = b"[" * 100000 + b"]" * 100000

# bytes a mutation inserts beside random ones: number syntax, JSON
# structure and the separators of the headers and the CSV
TOKENS = [b"9" * 8, b"-", b"0.", b"e308", b"NaN", b"Infinity", b"[", b"{", b'"', b",",
          b":", b" ", b"\n", b"#", b"\x00", b"\xff"]


@functools.cache
def seeds() -> dict[str, bytes]:
    """One small valid input per kind; the CSV and the report come from a
    pipeline run over the clip."""
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
    }


def edited(kind: str, edit) -> tuple[str, bytes]:
    """(kind, bytes): a seed input with one edit of its JSON document."""
    doc = json.loads(seeds()[kind])
    edit(doc)
    return kind, json.dumps(doc).encode()


@st.composite
def mutated(draw):
    """(kind, bytes): a seed input with one to four byte mutations."""
    kind = draw(st.sampled_from(sorted(seeds())))
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


# where each kind of input is written
FILES = {"y4m": "clip.y4m", "ppm": "image.ppm", "raw": "clip.rgb",
         "sidecar": "clip.rgb.json", "csv": "curves.csv", "report": "analysis.json",
         "config": "config.json"}


def _commands(kind: str, tmp: Path) -> list[list[str]]:
    """Write the valid seed of every other kind into ``tmp``; the argv lists
    that read the input of ``kind``."""
    for other, name in FILES.items():
        if other != kind:
            (tmp / name).write_bytes(seeds()[other])
    path = {k: str(tmp / name) for k, name in FILES.items()}
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
@settings(max_examples=300, deadline=None)
def test_mutated_input_ends_in_artifacts_or_one_error_line(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / FILES[kind]).write_bytes(data)
        for argv in _commands(kind, tmp):
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
