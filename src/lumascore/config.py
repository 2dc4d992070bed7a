"""The pipeline configuration: its error class, and the dataclasses by which
`schema`'s walker reads, checks and echoes a config."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .composition import HarmonyConfig, TextureConfig
from .gestures import Archetype, ClassifyParams
from .schema import load_json, parse_record
from .segmentation import SegmentationParams


class ConfigError(ValueError):
    pass


@dataclass
class AnalysisConfig(SegmentationParams):
    # the analysis work grows with rate_hz, so it is capped at 1 kHz
    rate_hz: float = field(default=50.0, metadata={"range": "(0, 1000]"})
    smooth_window_s: float = field(default=0.25, metadata={"range": "[0, 3600]"})
    thresholds: ClassifyParams = field(default_factory=ClassifyParams)


@dataclass
class Override:
    segment_index: int = field(metadata={"range": "[0, inf)"})
    archetype: Archetype


@dataclass
class PipelineConfig:
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    manual_boundaries_s: list[float] | None = field(
        default=None, metadata={"items": "(-inf, inf)", "increasing": True})
    overrides: list[Override] = field(default_factory=list)
    harmony: HarmonyConfig = field(default_factory=HarmonyConfig)
    texture: TextureConfig = field(default_factory=TextureConfig)
    seed: int = field(default=0, metadata={"range": "[0, %d]" % (2 ** 64 - 1)})

    def classify_params(self) -> ClassifyParams:
        return self.analysis.thresholds


def parse_config(doc: dict) -> PipelineConfig:
    return parse_record(PipelineConfig, doc, "config", ConfigError)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    return parse_config(load_json(path, "config %s" % path, ConfigError))
