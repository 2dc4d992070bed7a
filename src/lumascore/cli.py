"""Command line front end.

Exit codes: 0 on success, 1 for unreadable or malformed input media and
curves, 2 for configuration problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .photometry import CurveChannel
from .pipeline import analyze_stage, compose_stage, extract_stage, plot_stage, run_pipeline, write_out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumascore",
        description="Extract film brightness curves and turn them into a score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="write per-frame curves as CSV")
    extract.add_argument("--input", required=True)
    extract.add_argument("--channels", default="luma",
                         help="comma separated channel list (default: luma)")
    extract.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="segment and classify a curve CSV")
    analyze.add_argument("--curves", required=True)
    analyze.add_argument("--config", required=True)
    analyze.add_argument("--out", required=True)

    compose = sub.add_parser("compose", help="render an analysis to MIDI")
    compose.add_argument("--analysis", required=True)
    compose.add_argument("--config", required=True)
    compose.add_argument("--out", required=True)

    plot = sub.add_parser("plot", help="render curves (and segments) as SVG")
    plot.add_argument("--curves", required=True)
    plot.add_argument("--analysis", default=None)
    plot.add_argument("--out", required=True)

    pipeline = sub.add_parser("pipeline", help="run all stages into a directory")
    pipeline.add_argument("--input", required=True)
    pipeline.add_argument("--config", required=True)
    pipeline.add_argument("--out-dir", required=True)

    return parser


def _parse_channels(raw: str) -> list[CurveChannel]:
    out = []
    for name in raw.split(","):
        name = name.strip()
        try:
            out.append(CurveChannel(name))
        except ValueError:
            raise ValueError("unknown channel %r" % name) from None
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "extract":
            data = extract_stage(args.input, _parse_channels(args.channels))
        elif args.command == "analyze":
            config = load_config(args.config)
            data = analyze_stage(Path(args.curves).read_bytes(), config, args.curves)
        elif args.command == "compose":
            config = load_config(args.config)
            data = compose_stage(Path(args.analysis).read_bytes(), config, args.analysis)
        elif args.command == "plot":
            report = Path(args.analysis).read_bytes() if args.analysis else None
            data = plot_stage(Path(args.curves).read_bytes(), report, args.curves,
                              args.analysis)
        else:
            run_pipeline(args.input, load_config(args.config), args.out_dir)
            return 0
        write_out(Path(args.out), data)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
