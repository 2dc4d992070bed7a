"""One run of a workload in a fresh process, the way a CLI user starts one.

Usage: ``python3 perfbench/child.py SPEC`` where SPEC is a JSON object with
``mode`` (``untraced``, ``traced`` or ``probe``), ``workload``, ``input``,
``out``, ``workers`` and ``seed``.  Prints one JSON object: set-up time,
wall and CPU time of the run, peak RSS, artifact digests and, when traced,
spans and counters.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_child(spec: dict) -> dict:
    """One run as ``spec`` describes it; see the module docstring."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    source = Path(spec["input"])

    started = time.perf_counter()
    import lumascore  # noqa: F401  (import time is part of set-up)
    from lumascore.config import parse_config
    from lumascore.ingest import open_source

    config = parse_config({})
    source_bytes = None
    if spec["workload"] == "curve_long":
        source_bytes = source.read_bytes()
    else:
        open_source(source).close()
    setup_s = time.perf_counter() - started

    import probes
    import runs
    from spans import Tracer

    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    artifacts = {}
    cpu0 = _cpu_s()
    started = time.perf_counter()
    if spec["mode"] == "probe":
        probe = probes.run(spec["seed"])
    elif spec["mode"] == "traced":
        artifacts = runs.traced(spec["workload"], source, source_bytes, config, out, tracer)
    else:
        artifacts = runs.untraced(spec["workload"], source, source_bytes, config, out,
                                  spec["workers"])
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu0
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digests": {name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for name, path in sorted(artifacts.items())},
    }
    if spec["mode"] == "traced":
        result["spans"] = [vars(span) for span in tracer.spans]
        result["counts"] = tracer.counts
    if spec["mode"] == "probe":
        result["probe"] = probe
    return result


if __name__ == "__main__":
    print(json.dumps(run_child(json.loads(sys.argv[1]))))
