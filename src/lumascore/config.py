"""Pipeline configuration: strict JSON with defaults for every field.

The dataclasses are the schema.  One walker reads each field's type hint and
metadata (a number's ``"range"``, an interval such as ``"(0, 1]"``; a list's
``"items"`` interval, ``"nonempty"`` and strictly ``"increasing"``), rejects
unknown keys by full path (so a typo never falls back to a default), requires
each record field with no default and echoes the resolved configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

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

    def to_dict(self) -> dict:
        """Fully resolved configuration, defaults included, for the report."""
        return _echo(self)


_hints = cache(get_type_hints)


def _echo(value):
    if is_dataclass(value):
        # a number field is echoed as its declared kind, so 25 reads 25.0
        return {f.name: _hints(type(value))[f.name](getattr(value, f.name))
                if "range" in f.metadata
                else _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_echo(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


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
    # an integer range may be open to inf; Python compares int and float exactly
    low, high = (float(end) if "inf" in end else kind(end) for end in interval[1:-1].split(","))
    if ((value <= low if interval[0] == "(" else value < low)
            or (value >= high if interval[-1] == ")" else value > high)):
        raise ConfigError("config: %s out of range" % where)
    return value


def _parse(cls, doc, prefix: str):
    """A `cls` from a JSON object of its fields, checked in declaration order."""
    if not isinstance(doc, dict):
        raise ConfigError("config: %s must be an object" % (prefix[:-1] or "top level"))
    for key in doc:
        if key not in {f.name for f in fields(cls)}:
            raise ConfigError("config: unknown key %r" % (prefix + key))
    values = {}
    for f in fields(cls):
        where = prefix + f.name
        if f.name in doc:
            values[f.name] = _value(doc[f.name], _hints(cls)[f.name], f.metadata, where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError("config: %s is required" % where)
    return cls(**values)


def _value(raw, hint, meta, where: str):
    """`raw` checked as the type hint and metadata of its field say."""
    if get_origin(hint) is UnionType:  # `X | None`, X declared first
        if raw is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) in (list, tuple):
        return _items(raw, hint, meta, where)
    if is_dataclass(hint):
        return _parse(hint, raw, where + ".")
    if issubclass(hint, Enum):
        try:
            return hint(raw)
        except ValueError:
            raise ConfigError("config: %s unknown name %r" % (where, raw)) from None
    return _number(raw, where, meta["range"], hint)


def _items(raw, hint, meta, where: str):
    """A list or tuple, each item checked at ``where[i]``."""
    args = get_args(hint)
    if not isinstance(raw, list):
        raise ConfigError("config: %s must be a list" % where)
    if get_origin(hint) is tuple and ... not in args and len(raw) != len(args):
        raise ConfigError("config: %s must hold %d items" % (where, len(args)))
    if meta.get("nonempty") and not raw:
        raise ConfigError("config: %s must not be empty" % where)
    item = {"range": meta.get("items")}
    values = [_value(v, args[0], item, "%s[%d]" % (where, i)) for i, v in enumerate(raw)]
    for i in range(1, len(values)) if meta.get("increasing") else ():
        if values[i] <= values[i - 1]:
            raise ConfigError("config: %s[%d] must be greater than %s[%d]"
                              % (where, i, where, i - 1))
    return get_origin(hint)(values)


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
