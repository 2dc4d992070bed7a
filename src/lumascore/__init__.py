"""Brightness-curve sonification: video in, MIDI score and analysis artifacts out."""

import os

# OpenBLAS starts a worker thread per further core when numpy is imported,
# and the worker busy-waits: 50-80 ms of CPU at start-up on a 2-vCPU Xeon
# with NumPy 2.4, and more after each product it shares.  lumascore's BLAS
# calls are the RGB24 luma-key products, made on each measuring thread while
# the measuring threads already fill every core, and the small products of
# the exponential fit and the motif assignment; their bits are the same at
# any thread count.  This runs before the first import below brings in
# numpy; a value the caller has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .composition import HarmonyConfig, Score, compose
from .config import PipelineConfig, load_config, parse_config
from .gestures import Archetype, ShapeKind, assign_motifs, classify
from .ingest import StreamInfo, open_source
from .photometry import BrightnessCurve, CurveChannel, CurveSet, extract_curves
from .pipeline import run_pipeline

__version__ = "0.1.0"

__all__ = [
    "Archetype",
    "BrightnessCurve",
    "CurveChannel",
    "CurveSet",
    "HarmonyConfig",
    "PipelineConfig",
    "Score",
    "ShapeKind",
    "StreamInfo",
    "assign_motifs",
    "classify",
    "compose",
    "extract_curves",
    "load_config",
    "open_source",
    "parse_config",
    "run_pipeline",
    "__version__",
]
