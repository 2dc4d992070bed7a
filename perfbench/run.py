"""lumascore benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input from the seed in a scratch directory under
``.perfbench/``, then runs the program in a fresh child process per run
(``child.py``) until ``S`` seconds have passed, and checks every run's
artifacts.  The scratch directory is deleted at the end.

- ``--trace 0`` measures untraced runs and reports the end-to-end metrics.
- ``--trace 1`` alternates untraced and traced runs at one worker, runs the
  layer probes, and reports the per-layer metrics.

Before measuring, a reference run at one worker is checked against the
input's ground truth and, for film90 and curve_long, against the pinned
SHA-256 of every artifact.  Every later run, traced or not, must give the
reference's artifact bytes; ``rgb_channels`` also makes a gate run at two
workers.  A run that raises or gives other bytes counts as failed.

Output: one line per metric with its unit and sample count, the failed
ratio, an ``env`` line, and last one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from ``BENCHMARK.json``.

``BENCHMARK.json`` lists film90 and rgb_channels.  curve_long runs by name
only: its runs are bound by the Python interpreter, and on a shared 2-vCPU
host their medians spread by up to a third across invocations, beyond the
largest bound a listed workload may have.  It is the workload that shows
the cost of ``segment()`` and ``fit_staircase`` (ROADMAP item 2).

Predicted moves, layer metric -> end-to-end metric on a workload:

- ``ingest.*``: ``wall_s`` (~10 %) and ``peak_rss_mb`` on film90 and
  rgb_channels; nothing on curve_long.
- ``photometry.mpix_per_s.gray8``: ``wall_s`` on film90 (~70 %); the other
  formats: ``wall_s`` and ``cpu_s`` on rgb_channels; nothing on curve_long.
- ``segmentation.*`` and ``gestures.fit_staircase_s``: ``wall_s`` on
  curve_long; under 5 % of film90.  Per-call classify cost: film90.
- ``report.*``, ``curveprep.*``, ``composition.*``, ``midi.*``,
  ``svgplot.*``: a small share everywhere; no move predicted.
- ``pipeline.self_s`` (artifact writes and re-reads): film90 only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Span, busy_seconds, nesting_errors, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# worker count of the measured untraced run
WORKERS = {"film90": 1, "rgb_channels": 2, "curve_long": 1}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
PAGE_CACHE = "warm: inputs are read from the page cache; dropping it would change machine settings"


class Session:
    """Child runs of one workload, with the failures and reference bytes so far."""

    def __init__(self, workload: str, inp, seed: int, scratch: Path):
        self.workload = workload
        self.inp = inp
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def run(self, mode: str, workers: int = 1) -> dict | None:
        """One child run; returns its result, or None if it failed."""
        out = self.scratch / ("run-%d" % self.attempted)
        spec = {"mode": mode, "workload": self.workload, "input": str(self.inp.path),
                "out": str(out), "workers": workers, "seed": self.seed}
        self.attempted += 1
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
                return self._fail("%s run exited %d: %s" % (mode, proc.returncode, tail[0]))
            result = json.loads(proc.stdout.splitlines()[-1])
            if mode == "probe":
                return result
            if self.reference is None:
                return self._set_reference(result, out)
            if result["digests"] != self.reference:
                return self._fail("%s run at %d workers gave other bytes: %s"
                                  % (mode, workers, result["digests"]))
            if mode == "traced":
                self.problems.extend(nesting_errors([Span(**s) for s in result["spans"]]))
            return result
        except subprocess.TimeoutExpired:
            return self._fail("%s run exceeded %d s" % (mode, CHILD_TIMEOUT_S))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _set_reference(self, result: dict, out: Path) -> dict | None:
        import workloads

        artifacts = {name: (out / name).read_bytes() for name in result["digests"]}
        try:
            problems = workloads.check(self.workload, self.inp, artifacts)
        except Exception as exc:  # a malformed artifact is a failed run, not a crash
            problems = ["unreadable artifacts: %r" % exc]
        if problems:
            return self._fail("reference run: " + "; ".join(problems))
        self.reference = result["digests"]
        return result

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "page_cache": PAGE_CACHE}


def measure(session: Session, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Gate runs, measured runs for ``seconds``, then the probe when tracing.

    Returns the untraced and traced measured runs, and every successful
    child result (gates and probe included) for the set-up time."""
    children = []
    for workers in sorted({1, WORKERS[session.workload]}):
        children.append(session.run("untraced", workers))
    untraced, traced = [], []
    started = time.perf_counter()
    rounds = 0
    while time.perf_counter() - started < seconds or rounds < MIN_RUNS:
        rounds += 1
        untraced.append(session.run("untraced", 1 if trace else WORKERS[session.workload]))
        if trace:
            traced.append(session.run("traced"))
    if trace:
        children.append(session.run("probe"))
    ok = lambda results: [r for r in results if r is not None]
    return ok(untraced), ok(traced), ok(children + untraced + traced)


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer values of one traced run: busy seconds per span name,
    counters, and the pipeline span's self time."""
    spans = [Span(**record) for record in result["spans"]]
    values = {**busy_seconds(spans), **result["counts"]}
    own = self_times(spans)
    values["pipeline.self_s"] = sum(own[s.id] for s in spans if s.name == "pipeline")
    return values


def summarize(session: Session, untraced: list, traced: list, children: list,
              bench: dict, trace: bool) -> dict[str, dict]:
    """Metric name -> value, unit and sample count."""
    def median(runs, key):
        return statistics.median(r[key] for r in runs)

    if not trace:
        wall = median(untraced, "wall_s")
        n = len(untraced)
        values = {
            "wall_s": (wall, n),
            "realtime_x": (session.inp.duration_s / wall, n),
            "cpu_s": (median(untraced, "cpu_s"), n),
            "peak_rss_mb": (median(untraced, "peak_rss_mb"), n),
            "setup_s": (median(children, "setup_s"), len(children)),
        }
        specs = bench["end_to_end"]
    else:
        per_run = [layer_metrics(r) for r in traced]
        # a layer the workload never calls reads 0
        values = {spec["name"]: (statistics.median(run.get(spec["name"], 0.0) for run in per_run),
                                 len(per_run))
                  for spec in bench["per_layer"]}
        probe = next(r["probe"] for r in children if "probe" in r)
        values.update({key: (value, 1) for key, value in probe["metrics"].items()})
        values["trace.overhead_ratio"] = (
            median(traced, "wall_s") / median(untraced, "wall_s") - 1.0, len(traced))
        specs = bench["per_layer"]
    return {spec["name"]: {"value": float(values[spec["name"]][0]), "unit": spec["unit"],
                           "n": values[spec["name"]][1]}
            for spec in specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lumascore" / "__init__.py").is_file():
        print("error: no lumascore sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {**environment(), "loadavg_before": os.getloadavg()}
    scratch = ROOT / ".perfbench" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    scratch.mkdir(parents=True)
    try:
        started = time.perf_counter()
        inp = workloads.generate(args.workload, scratch, args.seed)
        env.update(input_bytes=inp.bytes, input_sha256=inp.sha256,
                   input_generation_s=time.perf_counter() - started)
        session = Session(args.workload, inp, args.seed, scratch)
        if args.workload == "film90" and inp.sha256 != workloads.FILM90_SHA256:
            session.problems.append("film90 input drifted: sha256 %s" % inp.sha256)
        untraced, traced, children = measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    env["loadavg_after"] = os.getloadavg()
    if not untraced or (args.trace and not (traced and any("probe" in r for r in children))):
        print("error: no successful run of %s: %s" % (args.workload, "; ".join(session.problems)),
              file=sys.stderr)
        return 1

    metrics = summarize(session, untraced, traced, children, bench, bool(args.trace))
    points = next((r["probe"]["points"] for r in children if "probe" in r), {})
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, metric in metrics.items():
        print("  %-40s %14.6g %-14s n=%d" % (name, metric["value"], metric["unit"], metric["n"]))
    print("  %-40s %14.6g %-14s (%d of %d runs)" % (
        "failed_ratio", session.failed / session.attempted, "fraction",
        session.failed, session.attempted))
    for name, sizes in points.items():
        print("  %-40s %s" % (name, "  ".join("n=%d: %.4g s" % tuple(p) for p in sizes)))
    for problem in session.problems:
        print("  problem: %s" % problem)
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
