"""Pipeline configuration: strict JSON with defaults for every field.

Unknown keys are rejected with their full path so typos never silently
fall back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .composition import HarmonyConfig
from .gestures import Archetype, ClassifyParams


class ConfigError(ValueError):
    pass


@dataclass
class Thresholds:
    flat: float = 0.03
    transient: float = 0.15
    transient_window_s: float = 0.2
    granular: float = 0.4
    chaotic_rough: float = 0.6
    fit_rrmse: float = 0.35


@dataclass
class AnalysisConfig:
    rate_hz: float = 50.0
    smooth_window_s: float = 0.25
    min_segment_s: float = 0.5
    penalty_beta: float = 4.0
    thresholds: Thresholds = field(default_factory=Thresholds)


@dataclass
class TextureConfig:
    lambda_max: float = 40.0
    grain_ms: float = 60.0


@dataclass
class Override:
    segment_index: int
    archetype: Archetype


@dataclass
class PipelineConfig:
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    manual_boundaries_s: list[float] | None = None
    overrides: list[Override] = field(default_factory=list)
    harmony: HarmonyConfig = field(default_factory=HarmonyConfig)
    texture: TextureConfig = field(default_factory=TextureConfig)
    seed: int = 0

    def classify_params(self) -> ClassifyParams:
        t = self.analysis.thresholds
        return ClassifyParams(
            flat=t.flat,
            transient=t.transient,
            transient_window_s=t.transient_window_s,
            granular=t.granular,
            chaotic_rough=t.chaotic_rough,
            fit_rrmse=t.fit_rrmse,
        )

    def to_dict(self) -> dict:
        """Fully resolved configuration, defaults included, for the report."""
        return {
            "analysis": {
                "rate_hz": float(self.analysis.rate_hz),
                "smooth_window_s": float(self.analysis.smooth_window_s),
                "min_segment_s": float(self.analysis.min_segment_s),
                "penalty_beta": float(self.analysis.penalty_beta),
                "thresholds": {
                    "flat": float(self.analysis.thresholds.flat),
                    "transient": float(self.analysis.thresholds.transient),
                    "transient_window_s": float(self.analysis.thresholds.transient_window_s),
                    "granular": float(self.analysis.thresholds.granular),
                    "chaotic_rough": float(self.analysis.thresholds.chaotic_rough),
                    "fit_rrmse": float(self.analysis.thresholds.fit_rrmse),
                },
            },
            "manual_boundaries_s": (
                None if self.manual_boundaries_s is None
                else [float(t) for t in self.manual_boundaries_s]
            ),
            "overrides": [
                {"segment_index": o.segment_index, "archetype": o.archetype.value}
                for o in self.overrides
            ],
            "harmony": {
                "scale": list(self.harmony.scale),
                "root_pc": self.harmony.root_pc,
                "register": list(self.harmony.register),
                "tempo_bpm": float(self.harmony.tempo_bpm),
                "ppq": self.harmony.ppq,
                "channel": self.harmony.channel,
            },
            "texture": {
                "lambda_max": float(self.texture.lambda_max),
                "grain_ms": float(self.texture.grain_ms),
            },
            "seed": self.seed,
        }


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("config: %s must be an object" % path)
    return value


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            where = "%s.%s" % (path, key) if path else key
            raise ConfigError("config: unknown key %s" % where)


def _join(path: str, key: str) -> str:
    return "%s.%s" % (path, key) if path else key


def _number(doc: dict, key: str, default: float, path: str,
            low: float | None = None, high: float | None = None,
            low_open: bool = False, high_open: bool = False) -> float:
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("config: %s must be a number" % _join(path, key))
    value = float(value)
    if low is not None and (value <= low if low_open else value < low):
        raise ConfigError("config: %s out of range" % _join(path, key))
    if high is not None and (value >= high if high_open else value > high):
        raise ConfigError("config: %s out of range" % _join(path, key))
    return value


def _integer(doc: dict, key: str, default: int, path: str,
             low: int | None = None, high: int | None = None) -> int:
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("config: %s must be an integer" % _join(path, key))
    if low is not None and value < low:
        raise ConfigError("config: %s out of range" % _join(path, key))
    if high is not None and value > high:
        raise ConfigError("config: %s out of range" % _join(path, key))
    return value


def _parse_thresholds(doc: dict, path: str) -> Thresholds:
    allowed = {"flat", "transient", "transient_window_s", "granular",
               "chaotic_rough", "fit_rrmse"}
    _reject_unknown(doc, allowed, path)
    out = Thresholds()
    out.flat = _number(doc, "flat", out.flat, path, 0.0, 1.0, low_open=True, high_open=True)
    out.transient = _number(doc, "transient", out.transient, path, 0.0, 1.0, low_open=True, high_open=True)
    out.transient_window_s = _number(doc, "transient_window_s", out.transient_window_s,
                                     path, 0.0, None, low_open=True)
    out.granular = _number(doc, "granular", out.granular, path, 0.0, 1.0, low_open=True, high_open=True)
    out.chaotic_rough = _number(doc, "chaotic_rough", out.chaotic_rough, path, 0.0, 1.0,
                                low_open=True, high_open=True)
    out.fit_rrmse = _number(doc, "fit_rrmse", out.fit_rrmse, path, 0.0, 1.0,
                            low_open=True, high_open=True)
    return out


def _parse_analysis(doc: dict) -> AnalysisConfig:
    path = "analysis"
    allowed = {"rate_hz", "smooth_window_s", "min_segment_s", "penalty_beta", "thresholds"}
    _reject_unknown(doc, allowed, path)
    out = AnalysisConfig()
    out.rate_hz = _number(doc, "rate_hz", out.rate_hz, path, 0.0, None, low_open=True)
    out.smooth_window_s = _number(doc, "smooth_window_s", out.smooth_window_s, path, 0.0)
    out.min_segment_s = _number(doc, "min_segment_s", out.min_segment_s, path, 0.0, low_open=True)
    out.penalty_beta = _number(doc, "penalty_beta", out.penalty_beta, path, 0.0, low_open=True)
    if "thresholds" in doc:
        out.thresholds = _parse_thresholds(
            _require_mapping(doc["thresholds"], "analysis.thresholds"),
            "analysis.thresholds",
        )
    return out


def _parse_harmony(doc: dict) -> HarmonyConfig:
    path = "harmony"
    allowed = {"scale", "root_pc", "register", "tempo_bpm", "ppq", "channel"}
    _reject_unknown(doc, allowed, path)
    defaults = HarmonyConfig()
    scale = defaults.scale
    if "scale" in doc:
        raw = doc["scale"]
        if (not isinstance(raw, list) or not raw
                or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)):
            raise ConfigError("config: harmony.scale must be a non-empty integer list")
        if any(not 0 <= v < 12 for v in raw) or any(b <= a for a, b in zip(raw, raw[1:])):
            raise ConfigError("config: harmony.scale must be strictly increasing in [0, 12)")
        scale = tuple(raw)
    register = defaults.register
    if "register" in doc:
        raw = doc["register"]
        if (not isinstance(raw, list) or len(raw) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)):
            raise ConfigError("config: harmony.register must be a [low, high] integer pair")
        low, high = raw
        if not (0 <= low < high <= 127):
            raise ConfigError("config: harmony.register out of range")
        register = (low, high)
    return HarmonyConfig(
        scale=scale,
        root_pc=_integer(doc, "root_pc", defaults.root_pc, path, 0, 11),
        register=register,
        tempo_bpm=_number(doc, "tempo_bpm", defaults.tempo_bpm, path, 0.0, low_open=True),
        ppq=_integer(doc, "ppq", defaults.ppq, path, 24, 32767),
        channel=_integer(doc, "channel", defaults.channel, path, 0, 15),
    )


def _parse_texture(doc: dict) -> TextureConfig:
    path = "texture"
    _reject_unknown(doc, {"lambda_max", "grain_ms"}, path)
    out = TextureConfig()
    out.lambda_max = _number(doc, "lambda_max", out.lambda_max, path, 0.0, low_open=True)
    out.grain_ms = _number(doc, "grain_ms", out.grain_ms, path, 0.0, low_open=True)
    return out


_ARCHETYPE_NAMES = {a.value: a for a in Archetype}


def parse_config(doc: dict) -> PipelineConfig:
    doc = _require_mapping(doc, "top level")
    allowed = {"analysis", "manual_boundaries_s", "overrides", "harmony", "texture", "seed"}
    _reject_unknown(doc, allowed, "")
    cfg = PipelineConfig()
    if "analysis" in doc:
        cfg.analysis = _parse_analysis(_require_mapping(doc["analysis"], "analysis"))
    if "manual_boundaries_s" in doc and doc["manual_boundaries_s"] is not None:
        raw = doc["manual_boundaries_s"]
        if not isinstance(raw, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw
        ):
            raise ConfigError("config: manual_boundaries_s must be a number list")
        times = [float(v) for v in raw]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("config: manual_boundaries_s must be strictly increasing")
        cfg.manual_boundaries_s = times
    if "overrides" in doc:
        raw = doc["overrides"]
        if not isinstance(raw, list):
            raise ConfigError("config: overrides must be a list")
        overrides = []
        for i, entry in enumerate(raw):
            where = "overrides[%d]" % i
            entry = _require_mapping(entry, where)
            _reject_unknown(entry, {"segment_index", "archetype"}, where)
            if "segment_index" not in entry or "archetype" not in entry:
                raise ConfigError("config: %s needs segment_index and archetype" % where)
            index = entry["segment_index"]
            if isinstance(index, bool) or not isinstance(index, int) or index < 0:
                raise ConfigError("config: %s.segment_index must be a non-negative integer" % where)
            name = entry["archetype"]
            if name not in _ARCHETYPE_NAMES:
                raise ConfigError("config: %s.archetype unknown name %r" % (where, name))
            overrides.append(Override(index, _ARCHETYPE_NAMES[name]))
        cfg.overrides = overrides
    if "harmony" in doc:
        cfg.harmony = _parse_harmony(_require_mapping(doc["harmony"], "harmony"))
    if "texture" in doc:
        cfg.texture = _parse_texture(_require_mapping(doc["texture"], "texture"))
    cfg.seed = _integer(doc, "seed", 0, "", 0, 2 ** 64 - 1)
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("config %s: %s" % (path, exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s: invalid JSON (%s)" % (path, exc)) from exc
    return parse_config(doc)
