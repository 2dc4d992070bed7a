"""Pipeline configuration: strict JSON with defaults for every field.

The dataclasses are the schema; a number field keeps its range, an interval
such as ``"(0, 1]"``, in its field metadata.  One walker rejects unknown keys
by full path (so a typo never falls back to a default), checks that numbers
are finite and in range, and echoes the resolved configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

from .composition import HarmonyConfig, TextureConfig
from .gestures import Archetype, ClassifyParams
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
    segment_index: int
    archetype: Archetype


@dataclass
class PipelineConfig:
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    manual_boundaries_s: list[float] | None = None
    overrides: list[Override] = field(default_factory=list)
    harmony: HarmonyConfig = field(default_factory=HarmonyConfig)
    texture: TextureConfig = field(default_factory=TextureConfig)
    seed: int = field(default=0, metadata={"range": "[0, %d]" % (2 ** 64 - 1)})

    def classify_params(self) -> ClassifyParams:
        return self.analysis.thresholds

    def to_dict(self) -> dict:
        """Fully resolved configuration, defaults included, for the report."""
        return _echo(self)


def _echo(value):
    if is_dataclass(value):
        # a number field is echoed as its declared kind, so 25 reads 25.0
        return {f.name: type(f.default)(getattr(value, f.name)) if "range" in f.metadata
                else _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_echo(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def _join(path: str, key: str) -> str:
    return "%s.%s" % (path, key) if path else key


def _check_keys(doc, allowed, path: str) -> None:
    """Require a JSON object that holds only `allowed` keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config: %s must be an object" % (path or "top level"))
    for key in doc:
        if key not in allowed:
            raise ConfigError("config: unknown key %r" % _join(path, key))


def _number(value, where: str, interval: str, kind: type):
    """`value` as `kind` (int or float), checked to be finite and in `interval`."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError("config: %s must be %s"
                          % (where, "an integer" if kind is int else "a number"))
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # json.loads reads integers too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError("config: %s must be a finite number" % where)
    low, high = (kind(end) for end in interval[1:-1].split(","))
    if ((value <= low if interval[0] == "(" else value < low)
            or (value >= high if interval[-1] == ")" else value > high)):
        raise ConfigError("config: %s out of range" % where)
    return value


def _scale(raw) -> tuple[int, ...]:
    if (not isinstance(raw, list) or not raw
            or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)):
        raise ConfigError("config: harmony.scale must be a non-empty integer list")
    if any(not 0 <= v < 12 for v in raw) or any(b <= a for a, b in zip(raw, raw[1:])):
        raise ConfigError("config: harmony.scale must be strictly increasing in [0, 12)")
    return tuple(raw)


def _register(raw) -> tuple[int, int]:
    if (not isinstance(raw, list) or len(raw) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)):
        raise ConfigError("config: harmony.register must be a [low, high] integer pair")
    if not (0 <= raw[0] < raw[1] <= 127):
        raise ConfigError("config: harmony.register out of range")
    return tuple(raw)


def _boundaries(raw) -> list[float] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or any(isinstance(v, bool) or not isinstance(v, (int, float))
                                        for v in raw):
        raise ConfigError("config: manual_boundaries_s must be a number list")
    times = [_number(v, "manual_boundaries_s[%d]" % i, "(-inf, inf)", float)
             for i, v in enumerate(raw)]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("config: manual_boundaries_s must be strictly increasing")
    return times


def _overrides(raw) -> list[Override]:
    if not isinstance(raw, list):
        raise ConfigError("config: overrides must be a list")
    overrides = []
    for i, entry in enumerate(raw):
        where = "overrides[%d]" % i
        _check_keys(entry, {"segment_index", "archetype"}, where)
        if "segment_index" not in entry or "archetype" not in entry:
            raise ConfigError("config: %s needs segment_index and archetype" % where)
        index = entry["segment_index"]
        if isinstance(index, bool) or not isinstance(index, int) or index < 0:
            raise ConfigError("config: %s.segment_index must be a non-negative integer" % where)
        try:
            archetype = Archetype(entry["archetype"])
        except ValueError:
            raise ConfigError("config: %s.archetype unknown name %r"
                              % (where, entry["archetype"])) from None
        overrides.append(Override(index, archetype))
    return overrides


# the fields that are not a single number or a nested section, by key path
_VALIDATORS = {
    "manual_boundaries_s": _boundaries,
    "overrides": _overrides,
    "harmony.scale": _scale,
    "harmony.register": _register,
}


def _parse(cls, doc, path: str):
    """A `cls` from a JSON object, its fields checked in declaration order."""
    _check_keys(doc, {f.name for f in fields(cls)}, path)
    values = {}
    for f in (f for f in fields(cls) if f.name in doc):
        where, raw = _join(path, f.name), doc[f.name]
        if where in _VALIDATORS:
            values[f.name] = _VALIDATORS[where](raw)
        elif "range" in f.metadata:
            values[f.name] = _number(raw, where, f.metadata["range"], type(f.default))
        else:
            values[f.name] = _parse(f.default_factory, raw, where)
    return cls(**values)


def parse_config(doc: dict) -> PipelineConfig:
    return _parse(PipelineConfig, doc, "")


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError("config %s: %s" % (path, exc)) from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    # a bad byte and 4300+ digit integers raise ValueError, deep nesting RecursionError
    except (ValueError, RecursionError) as exc:
        raise ConfigError("config %s: invalid JSON (%s)" % (path, exc)) from exc
    return parse_config(doc)
