"""Tests of the benchmark itself: seeded inputs, metric coverage and span nesting."""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, nesting_errors, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MINI_PIECES = (("plateau", 6, None), ("ramp", 5, 0.5), ("steps", 6, 3), ("decay", 5, 1.0))


def test_film90_reproduces_the_pinned_acceptance_film():
    digest = hashlib.sha256()
    for chunk in workloads.gray_y4m_chunks(workloads.film90_values(), workloads.FILM_W,
                                           workloads.FILM_H, workloads.FILM_FPS):
        digest.update(chunk)
    assert digest.hexdigest() == workloads.FILM90_SHA256


def test_generators_are_deterministic_for_a_fixed_seed(tmp_path):
    a, b, c = (workloads.rgb_channels(tmp_path / name, seed, seconds=1)
               for name, seed in (("a.rgb", 7), ("b.rgb", 7), ("c.rgb", 8)))
    assert a.sha256 == b.sha256 != c.sha256
    for name in workloads.RGB_CHANNELS:
        assert np.array_equal(a.expected_columns[name], b.expected_columns[name])
    x, y, z = (workloads.curve_long(tmp_path / name, seed)
               for name, seed in (("x.csv", 7), ("y.csv", 7), ("z.csv", 8)))
    assert x.sha256 == y.sha256 != z.sha256
    assert x.jumps_s == y.jumps_s
    assert x.duration_s == sum(seconds for _, seconds, _ in workloads.CURVE_PIECES)
    assert x.digests == workloads.CURVE_LONG_ARTIFACTS[7] != z.digests


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """Miniature inputs for the three workloads, and a probe result on small sizes."""
    root = tmp_path_factory.mktemp("mini")
    values = np.repeat(np.array([51, 217, 128, 38], dtype=np.uint8), 48)
    path = root / "film.y4m"
    sha = workloads.write_chunks(path, workloads.gray_y4m_chunks(values, 64, 48, 24))
    film = workloads.Input(path, len(values) / 24, 24, path.stat().st_size, sha,
                           {"luma": values / 255.0}, (2.0, 4.0, 6.0))
    inputs = {
        "film90": film,
        "rgb_channels": workloads.rgb_channels(root / "rgb.rgb", 3, seconds=1),
        "curve_long": workloads.curve_long(root / "curves.csv", 3, MINI_PIECES),
    }
    curve = workloads.curve_long_values(3, MINI_PIECES)[0]
    probe = {"setup_s": 0.1, "probe": probes.run(3, curve, (60, 120, 240), frames=1, batches=1)}
    return inputs, probe


def _run(workload, inp, mode, out, workers=1):
    return child.run_child({"mode": mode, "workload": workload, "input": str(inp.path),
                            "out": str(out), "workers": workers, "seed": 3})


@pytest.mark.parametrize("workload", sorted(run.WORKERS))
def test_miniature_run_emits_every_metric_with_its_unit(workload, mini, tmp_path):
    inputs, probe = mini
    inp = inputs[workload]
    untraced = _run(workload, inp, "untraced", tmp_path / "plain", run.WORKERS[workload])
    traced = _run(workload, inp, "traced", tmp_path / "traced")
    assert traced["digests"] == untraced["digests"]
    artifacts = {name: (tmp_path / "plain" / name).read_bytes() for name in untraced["digests"]}
    assert workloads.check(workload, inp, artifacts) == []

    session = run.Session(workload, inp, 3, tmp_path)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        metrics = run.summarize(session, [untraced], [traced], [untraced, traced, probe],
                                BENCHMARK, trace)
        assert [(name, m["unit"]) for name, m in metrics.items()] == [
            (spec["name"], spec["unit"]) for spec in BENCHMARK[kind]]
        assert all(math.isfinite(m["value"]) and m["n"] >= 1 for m in metrics.values())
    assert session.problems == []


def test_check_rejects_a_wrong_curve(mini, tmp_path):
    inp = mini[0]["rgb_channels"]
    _run("rgb_channels", inp, "untraced", tmp_path)
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = "%.6f" % (float(fields[2]) + 0.01)
    lines[1] = ",".join(fields)
    problems = workloads.check("rgb_channels", inp, {"curves.csv": "\n".join(lines).encode()})
    assert len(problems) == 1 and "red row 0" in problems[0]


def test_check_rejects_bytes_other_than_the_pinned_ones(mini, tmp_path):
    inp = mini[0]["film90"]
    _run("film90", inp, "untraced", tmp_path)
    artifacts = {name: (tmp_path / name).read_bytes() for name in workloads.ARTIFACTS["film90"]}
    assert workloads.check("film90", inp, artifacts) == []
    pinned = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    pinned["score.mid"] = hashlib.sha256(b"other").hexdigest()
    problems = workloads.check("film90", replace(inp, digests=pinned), artifacts)
    assert len(problems) == 1 and problems[0].startswith("score.mid: bytes differ")


def test_traced_spans_nest_and_self_times_are_not_negative(mini, tmp_path):
    result = _run("film90", mini[0]["film90"], "traced", tmp_path)
    spans = [Span(**record) for record in result["spans"]]
    assert [s.name for s in spans if s.parent is None] == ["pipeline"]
    assert nesting_errors(spans) == []
    assert min(self_times(spans).values()) >= 0.0
    assert result["counts"]["ingest.frames"] == 192


def test_self_time_subtracts_the_children():
    spans = [Span(0, "root", None, 0.0, 10.0), Span(1, "a", 0, 1.0, 3.0),
             Span(2, "b", 0, 5.0, 6.0), Span(3, "c", 2, 5.5, 5.75)]
    own = self_times(spans)
    assert own == {0: 7.0, 1: 2.0, 2: 0.75, 3: 0.25}
    assert nesting_errors(spans) == []
    assert nesting_errors([spans[0], Span(1, "late", 0, 9.0, 11.0)]) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "film90",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
