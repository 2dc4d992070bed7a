"""Command line behaviour: subcommands, artifacts, and exit codes."""

import json

import pytest

from lumascore.cli import main
from lumascore.midi import read_smf

from _synth import build_ppm, build_y4m, y4m_frame_420


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
                     "--channels", "loudness", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "loudness" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["extract", "--input", str(tmp_path / "absent.y4m"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_frame_larger_than_file_exits_1(self, tmp_path, capsys):
        source = tmp_path / "huge.y4m"
        source.write_bytes(b"YUV4MPEG2 W99999999 H99999999 F24:1\nFRAME\n" + bytes(100))
        code = main(["extract", "--input", str(source), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


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

    def test_plot_without_analysis(self, shot_video, tmp_path):
        curves = tmp_path / "curves.csv"
        svg = tmp_path / "plot.svg"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        assert main(["plot", "--curves", str(curves), "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert text.count("<text") == 0


class TestPipeline:
    def test_writes_all_four_artifacts(self, shot_video, config_file, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config_file), "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("curves.csv", "analysis.json", "score.mid", "plot.svg"):
            assert (out_dir / name).is_file(), name

    def test_stage_chain_matches_pipeline_bytes(self, shot_video, config_file, tmp_path):
        out_dir = tmp_path / "pipe"
        main(["pipeline", "--input", str(shot_video),
              "--config", str(config_file), "--out-dir", str(out_dir)])
        curves = tmp_path / "curves.csv"
        report = tmp_path / "analysis.json"
        midi = tmp_path / "score.mid"
        svg = tmp_path / "plot.svg"
        main(["extract", "--input", str(shot_video), "--out", str(curves)])
        main(["analyze", "--curves", str(curves),
              "--config", str(config_file), "--out", str(report)])
        main(["compose", "--analysis", str(report),
              "--config", str(config_file), "--out", str(midi)])
        main(["plot", "--curves", str(curves),
              "--analysis", str(report), "--out", str(svg)])
        assert curves.read_bytes() == (out_dir / "curves.csv").read_bytes()
        assert report.read_bytes() == (out_dir / "analysis.json").read_bytes()
        assert midi.read_bytes() == (out_dir / "score.mid").read_bytes()
        assert svg.read_bytes() == (out_dir / "plot.svg").read_bytes()

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

    def test_override_out_of_range_exits_2(self, shot_video, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"overrides": [{"segment_index": 99, "archetype": "chord_held"}]}
        ))
        code = main(["pipeline", "--input", str(shot_video),
                     "--config", str(config), "--out-dir", str(tmp_path / "a")])
        assert code == 2
        assert "99" in capsys.readouterr().err
