"""Command line behaviour: subcommands, artifacts, and exit codes."""

import contextlib
import errno
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from lumascore.cli import main
from lumascore.config import parse_config
from lumascore.gestures import Archetype, Gesture, LinearFit, ShapeKind
from lumascore.midi import MAX_VLQ, read_smf, ticks
from lumascore.pipeline import _write_artifacts
from lumascore.photometry import BrightnessCurve, CurveChannel
from lumascore.report import build_report, read_curves_csv, report_to_bytes
from lumascore.segmentation import Segment

from _synth import build_ppm, build_y4m, deadline, feeding, unit_noise, y4m_frame_420


@pytest.fixture
def shot_video(tmp_path):
    """Three-second clip with three constant-brightness shots."""
    frames = (
        [y4m_frame_420(16, 16, 40)] * 24
        + [y4m_frame_420(16, 16, 200)] * 24
        + [y4m_frame_420(16, 16, 100)] * 24
    )
    path = tmp_path / "shots.y4m"
    path.write_bytes(build_y4m(16, 16, frames))
    return path


@pytest.fixture
def noisy_video(tmp_path):
    """Three-second clip whose brightness jumps at random every frame."""
    levels = [60 + int(u * 140) for u in unit_noise(4, 72)]
    path = tmp_path / "noisy.y4m"
    path.write_bytes(build_y4m(16, 16, [y4m_frame_420(16, 16, v) for v in levels]))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    return path


class TestExtract:
    def test_writes_csv(self, shot_video, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["extract", "--input", str(shot_video), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "time_s,luma"
        assert len(text.splitlines()) == 73  # header + 72 frames

    def test_channel_list_in_fixed_order(self, shot_video, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["extract", "--input", str(shot_video),
                     "--channels", "contrast_rms,luma", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "time_s,luma,contrast_rms"

    def test_red_on_grayscale_exits_1(self, tmp_path, capsys):
        source = tmp_path / "gray.pgm"
        source.write_bytes(build_ppm(4, 4, bytes([128]) * 16, magic=b"P5"))
        out = tmp_path / "curves.csv"
        code = main(["extract", "--input", str(source),
                     "--channels", "red", "--out", str(out)])
        assert code == 1
        assert "red" in capsys.readouterr().err

    def test_unknown_channel_exits_1(self, shot_video, tmp_path, capsys):
        code = main(["extract", "--input", str(shot_video),
                     "--channels", "luma, loudness", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown channel 'loudness'\n"

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["extract", "--input", str(tmp_path / "absent.y4m"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err != ""

    # each refusal on one line, with nothing written
    @pytest.mark.parametrize("name, files, message", [
        ("w0.y4m", {"": b"YUV4MPEG2 W0 H16 F24:1 C420\n"}, "stream dimensions must be positive"),
        ("f0.y4m", {"": b"YUV4MPEG2 W16 H16 F0:1 C420\n"}, "frame rate must be positive"),
        ("zero.pgm", {"": b"P5 0 1 255\n"}, "ppm: non-positive dimensions"),
        ("frames", {}, "image sequence: no input files"),
        ("frames", {"a.ppm": build_ppm(2, 2, bytes(4), magic=b"P5"),
                    "b.ppm": build_ppm(2, 2, bytes(12))},
         "image sequence: b.ppm changes pixel format"),
    ], ids=["y4m width 0", "y4m rate 0", "ppm width 0", "empty directory",
            "gray then rgb"])
    def test_media_refusal_exits_1(self, tmp_path, capsys, name, files, message):
        source = tmp_path / name
        if "" in files:
            source.write_bytes(files[""])
        else:
            source.mkdir()
            for file_name, data in files.items():
                (source / file_name).write_bytes(data)
        out = tmp_path / "x.csv"
        assert main(["extract", "--input", str(source), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    def test_frame_larger_than_file_exits_1(self, tmp_path, capsys):
        source = tmp_path / "huge.y4m"
        source.write_bytes(b"YUV4MPEG2 W99999999 H99999999 F24:1\nFRAME\n" + bytes(100))
        code = main(["extract", "--input", str(source), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


    def test_rate_finer_than_the_time_column_exits_1(self, tmp_path, capsys):
        source = tmp_path / "fast.y4m"
        source.write_bytes(build_y4m(16, 16, [y4m_frame_420(16, 16, 40)] * 3,
                                     fps=(3000000, 1)))
        out = tmp_path / "x.csv"
        code = main(["extract", "--input", str(source), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_one_megahertz_round_trips(self, tmp_path):
        source = tmp_path / "fast.y4m"
        source.write_bytes(build_y4m(
            16, 16, [y4m_frame_420(16, 16, v) for v in (16, 126, 235, 60)],
            fps=(1000000, 1),
        ))
        out = tmp_path / "x.csv"
        assert main(["extract", "--input", str(source), "--out", str(out)]) == 0
        luma = read_curves_csv(out.read_bytes())[CurveChannel.LUMA]
        assert luma.sample_rate == 1e6
        assert list(luma.values) == [0.0, 0.502283, 1.0, 0.200913]


    @pytest.mark.parametrize("kind", ("y4m_file", "y4m_fifo", "truncated_rgb24"))
    def test_threaded_extract_runs_clean_in_dev_mode(self, tmp_path, kind):
        # dev mode warns of a file left open, here by a claim or a worker,
        # and -W error makes that warning fail the run, a failed one too
        levels = [60 + int(u * 140) for u in unit_noise(9, 48)]
        film = tmp_path / ("film.rgb" if kind == "truncated_rgb24" else "film.y4m")
        stream = build_y4m(16, 16, [y4m_frame_420(16, 16, v) for v in levels])
        if kind == "truncated_rgb24":
            film.with_name("film.rgb.json").write_text(json.dumps(
                {"width": 16, "height": 16, "fps_num": 24, "fps_den": 1}))
            stream = b"".join(bytes([v]) * 768 for v in levels) + bytes(100)
        if kind == "y4m_fifo":
            os.mkfifo(film)
        else:
            film.write_bytes(stream)
        out = tmp_path / "curves.csv"
        src = Path(__file__).resolve().parent.parent / "src"
        with feeding(film, stream) if kind == "y4m_fifo" else contextlib.nullcontext():
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "lumascore.cli", "extract",
                 "--input", str(film), "--channels", "luma,contrast_rms",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        if kind == "truncated_rgb24":
            assert (result.returncode, result.stderr) == (
                1, "error: raw rgb24: frame 48 truncated (100 of 768 bytes)\n")
            assert not out.exists()
            return
        assert (result.returncode, result.stderr) == (0, "")
        assert out.read_text().splitlines()[0] == "time_s,luma,contrast_rms"

    def test_contrast_pair_equals_the_single_channel_columns(self, tmp_path):
        # both channels share one set of keys per frame, which spread reorders
        rng = np.random.default_rng(17)
        frames = tmp_path / "frames"
        frames.mkdir()
        for i in range(6):
            raster = rng.integers(0, 256, 32 * 24 * 3, dtype=np.uint8).tobytes()
            (frames / ("f%02d.ppm" % i)).write_bytes(build_ppm(32, 24, raster))
        columns = {}
        for channels in ("contrast_spread,contrast_rms", "contrast_rms", "contrast_spread"):
            out = tmp_path / (channels + ".csv")
            assert main(["extract", "--input", str(frames), "--channels", channels,
                         "--out", str(out)]) == 0
            columns[channels] = out.read_text().splitlines()
        rms, spread = columns["contrast_rms"], columns["contrast_spread"]
        joined = [a + "," + b.split(",")[1] for a, b in zip(rms, spread)]
        assert columns["contrast_spread,contrast_rms"] == joined
        assert joined[0] == "time_s,contrast_rms,contrast_spread"


def extract_in_child(film, out, **kwargs) -> subprocess.CompletedProcess:
    """``lumascore extract`` of ``film`` into ``out``, run in a child."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "lumascore.cli", "extract", "--input", str(film),
         "--out", str(out)],
        timeout=60, env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs})


class TestStageOut:
    """A single stage writes ``--out`` as ``pipeline`` writes its artifacts."""

    def test_failed_write_leaves_the_old_file_whole(self, shot_video, tmp_path):
        out = tmp_path / "curves.csv"
        out.write_bytes(b"time_s,luma\n0.0,0.5\n")
        limit = 1024

        def cap_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        result = extract_in_child(shot_video, out, preexec_fn=cap_file_size)
        assert result.returncode == 1
        assert result.stderr.startswith(b"error: [Errno %d] " % errno.EFBIG)
        assert out.read_bytes() == b"time_s,luma\n0.0,0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.csv", "shots.y4m"]
        # the CSV is longer than the cap
        assert main(["extract", "--input", str(shot_video), "--out", str(out)]) == 0
        assert out.stat().st_size > limit

    def test_dev_stdout_under_a_pipe_prints_the_csv(self, shot_video, tmp_path):
        result = extract_in_child(shot_video, "/dev/stdout")
        assert (result.returncode, result.stderr) == (0, b"")
        out = tmp_path / "curves.csv"
        assert main(["extract", "--input", str(shot_video), "--out", str(out)]) == 0
        assert result.stdout == out.read_bytes()

    def test_dev_stdout_to_an_unlinked_file_writes_that_file(self, shot_video, tmp_path):
        # /dev/stdout resolves to "<dir>/#<inode> (deleted)", a name a rename
        # would create beside the file fd 1 writes to
        with tempfile.TemporaryFile(dir=tmp_path) as captured:
            result = extract_in_child(shot_video, "/dev/stdout", stdout=captured)
            assert (result.returncode, result.stderr) == (0, b"")
            captured.seek(0)
            csv = captured.read()
        assert csv.startswith(b"time_s,luma\n")
        assert [p.name for p in tmp_path.iterdir()] == ["shots.y4m"]

    def test_dev_stdout_to_a_named_file_keeps_its_inode(self, shot_video, tmp_path):
        # the caller reads what the child wrote through its own descriptor
        out = tmp_path / "captured.csv"
        with open(out, "w+b") as captured:
            result = extract_in_child(shot_video, "/dev/stdout", stdout=captured)
            assert (result.returncode, result.stderr) == (0, b"")
            captured.seek(0)
            assert captured.read() == out.read_bytes()
        assert out.read_bytes().startswith(b"time_s,luma\n")

    def test_dev_stdout_keeps_what_its_descriptor_writes_around_it(self, shot_video,
                                                                  tmp_path):
        # as `{ echo header; lumascore extract --out /dev/stdout; echo trailer; } > all`
        # does, which once lost the header to a truncating reopen
        out = tmp_path / "all.csv"
        with open(out, "wb", buffering=0) as shared:
            shared.write(b"header\n")
            result = extract_in_child(shot_video, "/dev/stdout", stdout=shared)
            assert (result.returncode, result.stderr) == (0, b"")
            shared.write(b"trailer\n")
        csv = tmp_path / "curves.csv"
        assert main(["extract", "--input", str(shot_video), "--out", str(csv)]) == 0
        assert out.read_bytes() == b"header\n" + csv.read_bytes() + b"trailer\n"

    def test_closed_stdout_still_replaces_a_file(self, shot_video, tmp_path):
        out = tmp_path / "curves.csv"
        out.write_bytes(b"old\n")
        result = extract_in_child(shot_video, out, stdout=None,
                                  preexec_fn=lambda: os.close(1))
        assert (result.returncode, result.stderr) == (0, b"")
        assert out.read_bytes().startswith(b"time_s,luma\n")

    def test_missing_directory_names_the_out_path(self, shot_video, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["extract", "--input", str(shot_video), "--out", "nodir/x.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: [Errno %d] No such file or directory: 'nodir/x.csv'\n" % errno.ENOENT)

    def test_symlinked_out_updates_its_target(self, shot_video, tmp_path):
        target = tmp_path / "real" / "curves.csv"
        target.parent.mkdir()
        target.write_bytes(b"old\n")
        link = tmp_path / "curves.csv"
        link.symlink_to(Path("real") / "curves.csv")
        assert main(["extract", "--input", str(shot_video), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("time_s,luma\n")
        assert [p.name for p in target.parent.iterdir()] == ["curves.csv"]


class TestAnalyze:
    def test_produces_report(self, shot_video, config_file, tmp_path):
        curves = tmp_path / "curves.csv"
        report = tmp_path / "analysis.json"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["version"] == "1"
        assert len(doc["segments"]) >= 1

    def test_unknown_config_key_exits_2(self, shot_video, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        config = tmp_path / "config.json"
        config.write_text('{"tempo": 120}')
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config), "--out", str(tmp_path / "a.json")])
        assert code == 2
        assert "tempo" in capsys.readouterr().err

    def test_malformed_curves_exit_1(self, config_file, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text("frame,luma\n0,0.5\n")
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert str(curves) in capsys.readouterr().err

    def test_curves_without_luma_exit_1(self, config_file, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text("time_s,red\n0.000000,0.5\n0.041667,0.5\n")
        out = tmp_path / "a.json"
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: %s: analysis needs a luma column\n" % curves
        assert not out.exists()

    def test_nan_sample_exits_1(self, shot_video, config_file, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        lines = curves.read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + ",nan"
        curves.write_text("\n".join(lines) + "\n")
        out = tmp_path / "a.json"
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert "line 11: value is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_backwards_time_exits_1(self, shot_video, config_file, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        lines = curves.read_text().splitlines()
        lines[10] = "0.000000," + lines[10].split(",")[1]
        curves.write_text("\n".join(lines) + "\n")
        out = tmp_path / "a.json"
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert "line 11: time_s is not strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_time_off_the_grid_exits_1(self, config_file, tmp_path, capsys):
        # 100 rows 0.02 s apart and one at 100 s once analysed as a 101 s curve
        curves = tmp_path / "curves.csv"
        rows = ["%.6f,0.500000" % (0.02 * i) for i in range(100)] + ["100.000000,0.500000"]
        curves.write_text("time_s,luma\n" + "\n".join(rows) + "\n")
        out = tmp_path / "a.json"
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: %s: line 3: time_s 0.02 lies off the 1 Hz grid from the first time to "
            "the last\n" % curves)
        assert not out.exists()

    @pytest.mark.parametrize("stage, text, rate", [
        # times 5e-324 s apart give an infinite rate
        ("plot", "0,0.5\n5e-324,0.5\n", "inf"),
        ("analyze", "0,0.5\n1e-300,0.5\n2e-300,0.5\n", "1e+300"),
    ])
    def test_rate_past_the_writers_limit_exits_1(self, config_file, tmp_path, capsys,
                                                 stage, text, rate):
        curves = tmp_path / "curves.csv"
        curves.write_text("time_s,luma\n" + text)
        out = tmp_path / "out"
        argv = [stage, "--curves", str(curves), "--out", str(out)]
        if stage == "analyze":
            argv += ["--config", str(config_file)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: %s: line %d: sample rate %s Hz is above 1e+06 Hz, the finest rate the "
            "six-decimal time column resolves\n" % (curves, text.count("\n") + 1, rate))
        assert not out.exists()

    @pytest.mark.parametrize("value", ["7.5", "-3.0"])
    @pytest.mark.parametrize("stage", ["analyze", "plot"])
    def test_value_outside_unit_range_exits_1(self, shot_video, config_file, tmp_path,
                                              capsys, stage, value):
        curves = tmp_path / "curves.csv"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        lines = curves.read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + "," + value
        curves.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = [stage, "--curves", str(curves), "--out", str(out)]
        if stage == "analyze":
            argv += ["--config", str(config_file)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 11: luma value %s is outside [0, 1]" % value in err
        assert not out.exists()

    def test_long_still_shot_is_analysed_at_once(self, config_file, tmp_path):
        # 1,200 s of one brightness is one plateau of 60,000 samples at 50 Hz;
        # fitting its staircase as well took ~46 s
        curves = tmp_path / "still.csv"
        curves.write_text("time_s,luma\n" + "".join("%d.000000,0.5\n" % t for t in range(1201)))
        report = tmp_path / "analysis.json"
        with deadline(5):
            code = main(["analyze", "--curves", str(curves),
                         "--config", str(config_file), "--out", str(report)])
        assert code == 0
        segments = json.loads(report.read_text())["segments"]
        assert [seg["kind"] for seg in segments] == ["plateau"]
        assert segments[0]["start_s"] == 0.0

    def test_invalid_config_json_exits_2(self, shot_video, tmp_path):
        curves = tmp_path / "curves.csv"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        config = tmp_path / "config.json"
        config.write_text("{broken")
        code = main(["analyze", "--curves", str(curves),
                     "--config", str(config), "--out", str(tmp_path / "a.json")])
        assert code == 2


class TestComposeAndPlot:
    def test_full_stage_chain(self, shot_video, config_file, tmp_path):
        curves = tmp_path / "curves.csv"
        report = tmp_path / "analysis.json"
        midi = tmp_path / "score.mid"
        svg = tmp_path / "plot.svg"
        assert main(["extract", "--input", str(shot_video), "--out", str(curves)]) == 0
        assert main(["analyze", "--curves", str(curves),
                     "--config", str(config_file), "--out", str(report)]) == 0
        assert main(["compose", "--analysis", str(report),
                     "--config", str(config_file), "--out", str(midi)]) == 0
        assert main(["plot", "--curves", str(curves),
                     "--analysis", str(report), "--out", str(svg)]) == 0
        parsed = read_smf(midi.read_bytes())
        assert parsed["format"] == 1
        assert svg.read_bytes().startswith(b"<svg")

    def test_chord_held_longer_than_the_largest_delta(self, tmp_path):
        # at 1000 bpm and ppq 32767 a second is ~546117 ticks, so the largest
        # SMF delta lasts ~491 s; a 600 s chord once failed with
        # "value 3.27681e+08 outside VLQ range"
        curve = BrightnessCurve(CurveChannel.LUMA, 0.1, 0.0, np.full(60, 0.5))
        held = Gesture(Segment(0, 60), ShapeKind.PLATEAU, None, 0.0,
                       LinearFit(0.5, 0.0, 0.0), 0.5, Archetype.CHORD_HELD, motif_id=0)
        source = {"channels": ["luma"], "num_samples": 60, "sample_rate_hz": 0.1,
                  "duration_s": 600.0}
        report = tmp_path / "analysis.json"
        report.write_bytes(report_to_bytes(
            build_report(source, 0.1, curve, [held], parse_config({}))))
        config = tmp_path / "config.json"
        config.write_text('{"harmony": {"tempo_bpm": 1000, "ppq": 32767}}')
        midi = tmp_path / "score.mid"
        assert main(["compose", "--analysis", str(report), "--config", str(config),
                     "--out", str(midi)]) == 0
        notes = [(tick, event[0]) for tick, event in read_smf(midi.read_bytes())["tracks"][1]
                 if event[0] in ("note_on", "note_off")]
        end = ticks(600.0, 1000.0, 32767)
        assert end > MAX_VLQ
        assert notes == [(0, "note_on")] * 3 + [(end, "note_off")] * 3

    def test_plot_draws_an_off_grid_report_where_compose_plays_it(self, shot_video,
                                                                  config_file, tmp_path):
        # compose rounds each time to the 50 Hz analysis grid; plot once drew
        # the times as the report wrote them
        curves = tmp_path / "curves.csv"
        report = tmp_path / "analysis.json"
        assert main(["extract", "--input", str(shot_video), "--out", str(curves)]) == 0
        assert main(["analyze", "--curves", str(curves), "--config", str(config_file),
                     "--out", str(report)]) == 0

        def artifacts():
            svg, midi = tmp_path / "plot.svg", tmp_path / "score.mid"
            assert main(["plot", "--curves", str(curves), "--analysis", str(report),
                         "--out", str(svg)]) == 0
            assert main(["compose", "--analysis", str(report), "--config", str(config_file),
                         "--out", str(midi)]) == 0
            return svg.read_bytes(), midi.read_bytes()

        on_grid = artifacts()
        doc = json.loads(report.read_text())
        assert len(doc["segments"]) > 1
        for seg in doc["segments"]:
            seg["start_s"] += 0.003
            seg["end_s"] += 0.003
        report.write_text(json.dumps(doc))
        assert artifacts() == on_grid

    def test_plot_without_analysis(self, shot_video, tmp_path):
        curves = tmp_path / "curves.csv"
        svg = tmp_path / "plot.svg"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        assert main(["plot", "--curves", str(curves), "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert text.count("<text") == 0


class TestMalformedReport:
    @pytest.fixture
    def report(self, shot_video, config_file, tmp_path):
        curves = tmp_path / "curves.csv"
        report = tmp_path / "analysis.json"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        main(["analyze", "--curves", str(curves),
              "--config", str(config_file), "--out", str(report)])
        return report

    def _edit(self, report, edit):
        doc = json.loads(report.read_text())
        edit(doc)
        report.write_text(json.dumps(doc))

    def _assert_one_error_line(self, code, capsys):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_segment_without_granularity_exits_1(self, report, config_file, tmp_path,
                                                 capsys):
        self._edit(report, lambda doc: doc["segments"][0].pop("granularity"))
        code = main(["compose", "--analysis", str(report),
                     "--config", str(config_file), "--out", str(tmp_path / "s.mid")])
        self._assert_one_error_line(code, capsys)
        assert not (tmp_path / "s.mid").exists()

    @pytest.mark.parametrize("stage", ["compose", "plot"])
    def test_segments_as_a_string_exits_1(self, report, config_file, tmp_path, capsys,
                                          stage):
        self._edit(report, lambda doc: doc.update(segments="abc"))
        if stage == "compose":
            argv = ["compose", "--analysis", str(report), "--config", str(config_file)]
        else:
            argv = ["plot", "--curves", str(tmp_path / "curves.csv"),
                    "--analysis", str(report)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        self._assert_one_error_line(code, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["compose", "plot"])
    @pytest.mark.parametrize("edit", [
        lambda doc: doc["segments"][0].update(kind="spline"),
        lambda doc: doc["segments"][0].update(archetype="a & <b>"),
        lambda doc: doc.update(rate_hz=1e308),
        lambda doc: doc["segments"][0].update(transient={"t_s": 1e308, "amplitude": 0.3}),
        lambda doc: doc["segments"][-1].update(end_s=2e4),
        lambda doc: doc["segments"][-1].update(end_s=1e300),
    ], ids=["unknown kind", "unknown archetype", "huge rate", "huge transient time",
            "end past the film", "huge end"])
    def test_unchecked_report_exits_1_naming_it(self, report, config_file, tmp_path,
                                                capsys, stage, edit):
        self._edit(report, edit)
        if stage == "compose":
            argv = ["compose", "--analysis", str(report), "--config", str(config_file)]
        else:
            argv = ["plot", "--curves", str(tmp_path / "curves.csv"),
                    "--analysis", str(report)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: %s: segments[" % report) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # a key no record declares, a bad second channel, and a later field's fault
    # before an earlier span's: each refused on one line that names the field
    @pytest.mark.parametrize("stage", ["compose", "plot"])
    @pytest.mark.parametrize("edit, fault", [
        (lambda doc: doc.update(bogus=1), "unknown key 'bogus'"),
        (lambda doc: doc["segments"][0].update({"motif-id": 5}),
         "unknown key 'segments[0].motif-id'"),
        (lambda doc: doc["segments"][0]["fit"].update(rrmse=0.1),
         "unknown key 'segments[0].fit.rrmse'"),
        (lambda doc: doc["channels"].append("abc"), "channels[1] must be an object"),
        (lambda doc: (doc["segments"][0].update(end_s=2e4),
                      doc["segments"][1].update(granularity=2.0)),
         "segments[1].granularity must lie in [0, 1]"),
        # fit numbers no analysis writes: a note 1000 s into a 0.5 s segment,
        # and a negative decay time that once failed in the SMF writer
        (lambda doc: doc["segments"][1].update(archetype="arpeggio_detached", fit={
            "model": "staircase", "levels": [0.2, 0.5], "step_times_s": [1000.0], "sse": 0.0}),
         "segments[1].fit.step_times_s[0] must lie inside the segment's 0.5 s body"),
        (lambda doc: doc["segments"][0].update(archetype="chord_arpeggio", fit={
            "model": "exponential", "offset": 0.2, "scale": 0.6, "tau_s": -1, "sse": 0.0}),
         "segments[0].fit.tau_s must lie in (0, inf)"),
    ], ids=["unknown top-level key", "misspelt motif key", "extra fit key",
            "garbage second channel", "two faults", "step past the segment",
            "negative decay time"])
    def test_report_fault_exits_1_naming_the_field(self, report, config_file, tmp_path,
                                                   capsys, stage, edit, fault):
        self._edit(report, edit)
        if stage == "compose":
            argv = ["compose", "--analysis", str(report), "--config", str(config_file)]
        else:
            argv = ["plot", "--curves", str(tmp_path / "curves.csv"),
                    "--analysis", str(report)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: %s: %s\n" % (report, fault)
        assert not (tmp_path / "out").exists()

    def test_curve_longer_than_a_film_exits_1_at_once(self, report, config_file, tmp_path,
                                                      capsys):
        # four samples at 5e-6 Hz last 8e5 s; a granular texture over them
        # draws once per 10 ms and did not finish
        self._edit(report, lambda doc: doc.update(
            rate_hz=5e-6,
            channels=[dict(doc["channels"][0], sample_rate_hz=5e-6, values=[0.5] * 4)],
            segments=[dict(doc["segments"][0], start_s=0.0, end_s=8e5, transient=None,
                           archetype="granular_texture")]))
        start = time.perf_counter()
        code = main(["compose", "--analysis", str(report), "--config", str(config_file),
                     "--out", str(tmp_path / "s.mid")])
        assert time.perf_counter() - start < 1.0
        self._assert_one_error_line(code, capsys)
        assert not (tmp_path / "s.mid").exists()


class TestReportBeyondAnalyze:
    """A report of a 10 s sine with one number analyze never writes: each
    once gave a traceback or a compose that did not end."""

    @pytest.fixture
    def report(self, config_file, tmp_path):
        curves = tmp_path / "sine.csv"
        curves.write_text("time_s,luma\n" + "".join(
            "%.6f,%.6f\n" % (i / 24, 0.5 + 0.4 * math.sin(2 * math.pi * i / 120))
            for i in range(240)))
        report = tmp_path / "analysis.json"
        assert main(["analyze", "--curves", str(curves), "--config", str(config_file),
                     "--out", str(report)]) == 0
        return report

    @pytest.mark.parametrize("edit, code", [
        (lambda doc: doc["channels"][0].update(t0=-1.7e308), 1),
        (lambda doc: doc["segments"][0].update(mean_brightness=1.7e308), 1),
        (lambda doc: doc["segments"][0].update(archetype="tremolo_scratch", granularity=2.0), 1),
        (lambda doc: doc.update(segments=[doc["segments"][0]] * 20), 1),
        # curve values and staircase levels are clamped where they are rounded
        (lambda doc: doc["channels"][0]["values"].__setitem__(0, 1.7e308), 0),
        (lambda doc: doc["segments"][0].update(archetype="arpeggio_detached", fit={
            "model": "staircase", "levels": [1.7e308, 0.5], "step_times_s": [0.25],
            "sse": 0.0}), 0),
    ], ids=["huge negative t0", "huge mean brightness", "granularity past one",
            "twenty copies of one segment", "huge curve value", "huge staircase level"])
    def test_compose_ends_at_once(self, report, config_file, tmp_path, capsys, edit, code):
        doc = json.loads(report.read_text())
        edit(doc)
        report.write_text(json.dumps(doc))
        out = tmp_path / "s.mid"
        start = time.perf_counter()
        got = main(["compose", "--analysis", str(report), "--config", str(config_file),
                    "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert got == code
        if code:
            assert err.startswith("error: %s: " % report) and err.count("\n") == 1
            assert not out.exists()
        else:
            assert err == ""
            read_smf(out.read_bytes())


# a JSON array nested far deeper than the interpreter's recursion limit
DEEP_JSON = "[" * 100000 + "]" * 100000


class TestDeepNesting:
    def test_report_exits_1_on_one_line(self, config_file, tmp_path, capsys):
        report = tmp_path / "analysis.json"
        report.write_text(DEEP_JSON)
        code = main(["compose", "--analysis", str(report),
                     "--config", str(config_file), "--out", str(tmp_path / "s.mid")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: %s: " % report) and err.count("\n") == 1
        assert not (tmp_path / "s.mid").exists()

    def test_sidecar_exits_1_on_one_line(self, tmp_path, capsys):
        raw = tmp_path / "clip.rgb"
        raw.write_bytes(bytes(3))
        (tmp_path / "clip.rgb.json").write_text(DEEP_JSON)
        code = main(["extract", "--input", str(raw), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: sidecar ") and "invalid JSON" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


class TestNotUtf8:
    """A byte that is not UTF-8 once escaped as a bare UnicodeDecodeError."""

    def test_config_exits_2_naming_it(self, shot_video, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": 1, "\xff": 2}')
        code = main(["pipeline", "--input", str(shot_video), "--config", str(config),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: config %s: invalid JSON" % config)
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sidecar_exits_1_naming_it(self, tmp_path, capsys):
        raw = tmp_path / "clip.rgb"
        raw.write_bytes(bytes(3))
        sidecar = tmp_path / "clip.rgb.json"
        sidecar.write_bytes(b'{"width": 1\xff}')
        code = main(["extract", "--input", str(raw), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: sidecar %s: invalid JSON" % sidecar)
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


def assert_stages_match_pipeline(film, config, tmp_path) -> Path:
    """Run ``pipeline`` into ``tmp_path / "pipe"`` and the four stages by
    hand into ``tmp_path``, check that both write the same bytes, and return
    the pipeline's directory."""
    out_dir = tmp_path / "pipe"
    assert main(["pipeline", "--input", str(film),
                 "--config", str(config), "--out-dir", str(out_dir)]) == 0
    curves = tmp_path / "curves.csv"
    report = tmp_path / "analysis.json"
    midi = tmp_path / "score.mid"
    svg = tmp_path / "plot.svg"
    assert main(["extract", "--input", str(film), "--out", str(curves)]) == 0
    assert main(["analyze", "--curves", str(curves),
                 "--config", str(config), "--out", str(report)]) == 0
    assert main(["compose", "--analysis", str(report),
                 "--config", str(config), "--out", str(midi)]) == 0
    assert main(["plot", "--curves", str(curves),
                 "--analysis", str(report), "--out", str(svg)]) == 0
    for path in (curves, report, midi, svg):
        assert path.read_bytes() == (out_dir / path.name).read_bytes(), path.name
    return out_dir


class TestPipeline:
    def test_writes_all_four_artifacts(self, shot_video, config_file, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config_file), "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("curves.csv", "analysis.json", "score.mid", "plot.svg"):
            assert (out_dir / name).is_file(), name

    def test_stage_chain_matches_pipeline_bytes(self, shot_video, config_file, tmp_path):
        assert_stages_match_pipeline(shot_video, config_file, tmp_path)

    def test_each_artifact_is_parsed_once(self, shot_video, tmp_path, monkeypatch):
        # the curves feed analyze and plot, the report compose and plot
        import lumascore.pipeline as pipeline

        calls = []
        for name in ("read_curves_csv", "read_report"):
            def counted(*args, name=name, real=getattr(pipeline, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(pipeline, name, counted)
        pipeline.run_pipeline(shot_video, parse_config({}), tmp_path / "out")
        assert sorted(calls) == ["read_curves_csv", "read_report"]

    def test_override_changes_archetype(self, shot_video, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"overrides": [{"segment_index": 0, "archetype": "granular_texture"}]}
        ))
        out_dir = tmp_path / "artifacts"
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        doc = json.loads((out_dir / "analysis.json").read_text())
        assert doc["segments"][0]["archetype"] == "granular_texture"

    # the three shots give five segments, 0 to 4; the message names the entry
    @pytest.mark.parametrize("indices, entry", [([99], 0), ([0, 7], 1)],
                             ids=["one override", "second of two"])
    def test_override_out_of_range_exits_2(self, shot_video, tmp_path, capsys, indices,
                                           entry):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"overrides": [{"segment_index": i, "archetype": "chord_held"} for i in indices]}
        ))
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "a")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: config: overrides[%d].segment_index must lie in [0, 4]\n" % entry)
        assert not (tmp_path / "a").exists()

    # the three-second film resamples to 148 samples at 50 Hz, 2.96 s, and
    # 1.01 s rounds to sample 51
    @pytest.mark.parametrize("boundaries, message", [
        ([1.0, 100.0], "config: manual_boundaries_s[1] must lie inside the film: "
                       "boundary 100 s outside (0, 2.96)"),
        ([1.0, 1.01], "config: manual_boundaries_s[1] must leave pieces of 2 samples: "
                      "segment [50, 51) is shorter than 2 samples"),
    ], ids=["outside the film", "short piece"])
    def test_manual_boundary_the_film_rules_out_exits_2(self, shot_video, tmp_path, capsys,
                                                        boundaries, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manual_boundaries_s": boundaries}))
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "a")])
        assert code == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (tmp_path / "a").exists()

    def test_manual_boundaries_cut_the_film_there(self, shot_video, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"manual_boundaries_s": [1.0, 2.0]}))
        out_dir = assert_stages_match_pipeline(shot_video, config, tmp_path)
        doc = json.loads((out_dir / "analysis.json").read_text())
        assert [(seg["start_s"], seg["end_s"]) for seg in doc["segments"]] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 2.96)]

    @pytest.mark.parametrize("text", [
        '{"analysis": {"penalty_beta": NaN}}',
        '{"analysis": {"thresholds": {"flat": NaN}}}',
        '{"analysis": {"rate_hz": NaN}}',
        '{"harmony": {"tempo_bpm": NaN}}',
        '{"analysis": {"rate_hz": 1e999}}',
        '{"texture": {"grain_ms": Infinity}}',
        '{"analysis": {"smooth_window_s": Infinity}}',
        '{"analysis": {"rate_hz": 1%s}}' % ("0" * 400),
        '{"manual_boundaries_s": [-Infinity, 1.0]}',
        '{"harmony": {"tempo_bpm": 3.5}}',
        '{"analysis": {"smooth_window_s": 1e300}}',
        '{"analysis": {"rate_hz": 5000}}',
        '{"a\\nb": 1}',
    ], ids=lambda text: text[:48])
    def test_config_rejection_exits_2_on_one_line(self, shot_video, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: config") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ['["x"]', '{"a": 1}'])
    def test_override_archetype_of_wrong_type_exits_2(self, shot_video, tmp_path, capsys,
                                                      name):
        config = tmp_path / "config.json"
        config.write_text('{"overrides": [{"segment_index": 0, "archetype": %s}]}' % name)
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: config: overrides[0].archetype")
        assert err.count("\n") == 1

    def test_failing_stage_writes_no_artifact(self, shot_video, config_file, tmp_path,
                                              capsys):
        # a reused directory keeps the previous run's set untouched
        out_dir = tmp_path / "artifacts"
        assert main(["pipeline", "--input", str(shot_video),
                     "--config", str(config_file), "--out-dir", str(out_dir)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(
            {"overrides": [{"segment_index": 99, "archetype": "chord_held"}]}
        ))
        for target in (out_dir, tmp_path / "fresh"):
            code = main(["pipeline", "--input", str(shot_video),
                         "--config", str(config), "--out-dir", str(target)])
            assert code == 2
            assert capsys.readouterr().err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("text,message", [
        ('{"analysis": {"min_segment_s": 1e300}}',
         "curve has 148 samples, need at least 1e+302 for segmentation"),
        ('{"analysis": {"min_segment_s": 1.7e308}}',
         "curve has 148 samples, need at least inf for segmentation"),
        # one sample at this rate lasts longer than any film, checked before segmenting
        ('{"analysis": {"rate_hz": 5e-324}}',
         "the luma curve at 4.94066e-324 Hz lasts inf s, longer than the 167772.16 s limit"),
    ], ids=lambda v: v[:48])
    def test_huge_finite_config_value_exits_1_on_one_short_line(
            self, noisy_video, tmp_path, capsys, text, message):
        # huge numbers print as %.6g, and values whose products overflow a
        # float end in the same one-line error, not an OverflowError
        config = tmp_path / "config.json"
        config.write_text(text)
        code = main(["pipeline", "--input", str(noisy_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and len(err) < 100
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grain_ms", [1000.001, 5000, 1e300, 1.7e308])
    def test_grain_longer_than_a_second_exits_2(self, noisy_video, tmp_path, capsys,
                                                grain_ms):
        # a grain rings at most 1 s past its segment; a huge one once got past
        # the config and failed in the SMF writer, naming neither
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "texture": {"grain_ms": grain_ms}, "harmony": {"tempo_bpm": 1000},
            "overrides": [{"segment_index": 0, "archetype": "granular_texture"}]}))
        code = main(["pipeline", "--input", str(noisy_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: config: texture.grain_ms must lie in (0, 1000]\n")
        assert not (tmp_path / "out").exists()

    def test_huge_transient_window_runs(self, noisy_video, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"analysis": {"thresholds": {"transient_window_s": 1.7e308}}}')
        assert main(["pipeline", "--input", str(noisy_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0

    def test_failing_write_replaces_nothing(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(b"old")
        with pytest.raises(TypeError):
            _write_artifacts(tmp_path, {"a.csv": b"new", "b.json": b"new", "c.mid": None})
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert (tmp_path / "a.csv").read_bytes() == b"old"
        assert _write_artifacts(tmp_path, {"a.csv": b"new"}) == {"a.csv": tmp_path / "a.csv"}
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert (tmp_path / "a.csv").read_bytes() == b"new"

    def test_failed_rename_leaves_no_temporary(self, tmp_path):
        # the renames before the failed one stand, the ones after it are not made
        (tmp_path / "score.mid").mkdir()
        (tmp_path / "curves.csv").write_bytes(b"old")
        with pytest.raises(IsADirectoryError):
            _write_artifacts(tmp_path, {"curves.csv": b"new", "analysis.json": b"new",
                                        "score.mid": b"new", "plot.svg": b"new"})
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "analysis.json", "curves.csv", "score.mid"]
        assert (tmp_path / "curves.csv").read_bytes() == b"new"
        assert (tmp_path / "score.mid").is_dir()

    def test_stale_temporary_of_a_recurring_pid_does_not_block(self, shot_video, config_file,
                                                               tmp_path):
        # a killed run left a temporary named by the PID this run has
        out_dir = tmp_path / "artifacts"
        out_dir.mkdir()
        stale = out_dir / (".curves.csv.%d.tmp" % os.getpid())
        stale.write_bytes(b"stale")
        assert main(["pipeline", "--input", str(shot_video),
                     "--config", str(config_file), "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            stale.name, "analysis.json", "curves.csv", "plot.svg", "score.mid"]
        assert stale.read_bytes() == b"stale"
