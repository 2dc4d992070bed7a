"""Strict configuration parsing: defaults, bounds, and key-path errors."""

import ast
import dataclasses
import enum
import functools
import json
import math
import os
import re
import subprocess
import sys
import types
import typing
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lumascore import ingest, report
from lumascore.cli import main
from lumascore.config import (
    AnalysisConfig,
    ConfigError,
    PipelineConfig,
    TextureConfig,
    load_config,
    parse_config,
)
from lumascore.gestures import Archetype, ClassifyParams
from lumascore.midi import read_smf
from lumascore.report import read_curves_csv
from lumascore.schema import parse_record, to_json

from _synth import build_y4m, deadline, y4m_frame_420

README = Path(__file__).resolve().parent.parent / "README.md"


class TestDefaults:
    def test_empty_object_is_valid(self):
        cfg = parse_config({})
        assert cfg.analysis.rate_hz == 50.0
        assert cfg.analysis.smooth_window_s == 0.25
        assert cfg.analysis.min_segment_s == 0.5
        assert cfg.analysis.penalty_beta == 4.0
        t = cfg.analysis.thresholds
        assert (t.flat, t.transient, t.transient_window_s) == (0.03, 0.15, 0.2)
        assert (t.granular, t.chaotic_rough, t.fit_rrmse) == (0.4, 0.6, 0.35)
        assert cfg.manual_boundaries_s is None
        assert cfg.overrides == []
        assert cfg.texture.lambda_max == 40.0
        assert cfg.texture.grain_ms == 60.0
        assert cfg.seed == 0

    def test_to_json_echoes_resolved_defaults(self):
        doc = to_json(parse_config({}))
        assert doc["analysis"]["rate_hz"] == 50.0
        assert doc["analysis"]["thresholds"]["granular"] == 0.4
        assert doc["harmony"]["register"] == [36, 84]
        assert doc["texture"]["grain_ms"] == 60.0
        assert doc["seed"] == 0

    def test_partial_override_keeps_other_defaults(self):
        cfg = parse_config({"analysis": {"rate_hz": 25}})
        assert cfg.analysis.rate_hz == 25.0
        assert cfg.analysis.smooth_window_s == 0.25


class TestUnknownKeys:
    def test_unknown_top_level_key_names_it(self):
        with pytest.raises(ConfigError, match="tempo"):
            parse_config({"tempo": 120})

    def test_unknown_nested_key_carries_full_path(self):
        with pytest.raises(ConfigError, match=r"analysis\.thresholds\.flt"):
            parse_config({"analysis": {"thresholds": {"flt": 0.1}}})

    def test_unknown_harmony_key(self):
        with pytest.raises(ConfigError, match=r"harmony\.mode"):
            parse_config({"harmony": {"mode": "dorian"}})

    def test_non_object_top_level(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    @pytest.mark.parametrize("doc, quoted", [
        ({"a\nb": 1}, r"'a\nb'"),
        ({"harmony": {"x\r\u2028y": 1}}, r"'harmony.x\r\u2028y'"),
    ])
    def test_key_is_quoted_on_one_line(self, doc, quoted):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == "config: unknown key " + quoted

    @pytest.mark.parametrize("key", ["tau_grid_size", "staircase_max_levels"])
    def test_fixed_classify_settings_are_not_configurable(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_config({"analysis": {"thresholds": {key: 64}}})


class TestBounds:
    @pytest.mark.parametrize("doc", [
        {"analysis": {"rate_hz": 0}},
        {"analysis": {"rate_hz": -3}},
        {"analysis": {"min_segment_s": 0}},
        {"analysis": {"penalty_beta": 0}},
        {"analysis": {"thresholds": {"flat": 0}}},
        {"analysis": {"thresholds": {"flat": 1}}},
        {"analysis": {"thresholds": {"transient_window_s": 0}}},
        {"texture": {"lambda_max": 0}},
        {"texture": {"grain_ms": -1}},
        {"harmony": {"root_pc": 12}},
        {"harmony": {"channel": 16}},
        {"harmony": {"ppq": 4}},
        {"harmony": {"tempo_bpm": 0}},
        {"harmony": {"tempo_bpm": 3.5}},
        {"harmony": {"tempo_bpm": 1000.5}},
        {"analysis": {"smooth_window_s": 1e300}},
        {"analysis": {"smooth_window_s": 3600.5}},
        {"analysis": {"rate_hz": 1000.5}},
        {"analysis": {"rate_hz": 5000}},
        {"seed": -1},
        {"seed": 2 ** 64},
        {"seed": 10 ** 400},
    ])
    def test_out_of_range_rejected(self, doc):
        with pytest.raises(ConfigError, match="must lie in"):
            parse_config(doc)

    @pytest.mark.parametrize("doc", [
        {"analysis": {"rate_hz": 1000}},
        {"analysis": {"smooth_window_s": 3600}},
        {"harmony": {"tempo_bpm": 4}},
        {"harmony": {"tempo_bpm": 1000}},
    ])
    def test_range_ends_accepted(self, doc):
        parse_config(doc)

    # json.loads reads NaN, Infinity and -Infinity, 1e999 as infinity, and
    # integers of any length up to 4300 digits
    @pytest.mark.parametrize("doc", [
        {"analysis": {"penalty_beta": math.nan}},
        {"analysis": {"thresholds": {"flat": math.nan}}},
        {"analysis": {"rate_hz": math.nan}},
        {"harmony": {"tempo_bpm": math.nan}},
        {"analysis": {"rate_hz": math.inf}},
        {"texture": {"grain_ms": math.inf}},
        {"analysis": {"smooth_window_s": math.inf}},
        {"texture": {"lambda_max": -math.inf}},
        {"analysis": {"rate_hz": 10 ** 400}},
        {"manual_boundaries_s": [1.0, math.nan]},
        {"manual_boundaries_s": [math.inf]},
        {"manual_boundaries_s": [-math.inf, 1.0]},
        {"manual_boundaries_s": [10 ** 400]},
    ])
    def test_non_finite_rejected(self, doc):
        with pytest.raises(ConfigError, match="must be a finite number"):
            parse_config(doc)

    def test_seed_accepts_full_u64_range(self):
        assert parse_config({"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1

    def test_smooth_window_zero_is_allowed(self):
        assert parse_config({"analysis": {"smooth_window_s": 0}}).analysis.smooth_window_s == 0.0

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="rate_hz"):
            parse_config({"analysis": {"rate_hz": True}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True})

    def test_float_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="ppq"):
            parse_config({"harmony": {"ppq": 480.0}})


class TestStructuredFields:
    def test_scale_must_be_strictly_increasing(self):
        with pytest.raises(ConfigError, match="scale"):
            parse_config({"harmony": {"scale": [0, 3, 3, 7]}})

    def test_scale_pitch_classes_bounded(self):
        with pytest.raises(ConfigError, match="scale"):
            parse_config({"harmony": {"scale": [0, 3, 12]}})

    def test_scale_rejects_empty(self):
        with pytest.raises(ConfigError, match="scale"):
            parse_config({"harmony": {"scale": []}})

    def test_custom_scale_accepted(self):
        cfg = parse_config({"harmony": {"scale": [0, 2, 4, 7, 9]}})
        assert cfg.harmony.scale == (0, 2, 4, 7, 9)

    def test_register_must_be_ordered_pair(self):
        with pytest.raises(ConfigError, match="register"):
            parse_config({"harmony": {"register": [60, 48]}})
        with pytest.raises(ConfigError, match="register"):
            parse_config({"harmony": {"register": [0, 128]}})

    def test_manual_boundaries_must_increase(self):
        with pytest.raises(ConfigError, match="manual_boundaries_s"):
            parse_config({"manual_boundaries_s": [2.0, 1.0]})

    def test_manual_boundaries_accepted(self):
        cfg = parse_config({"manual_boundaries_s": [1.5, 4.0]})
        assert cfg.manual_boundaries_s == [1.5, 4.0]

    def test_override_parses_archetype_name(self):
        cfg = parse_config({"overrides": [{"segment_index": 2, "archetype": "chord_held"}]})
        assert cfg.overrides[0].segment_index == 2
        assert cfg.overrides[0].archetype is Archetype.CHORD_HELD

    def test_override_unknown_archetype(self):
        with pytest.raises(ConfigError, match="archetype"):
            parse_config({"overrides": [{"segment_index": 0, "archetype": "banjo"}]})

    @pytest.mark.parametrize("name", [["x"], {"a": 1}, 3, None])
    def test_override_archetype_of_wrong_type(self, name):
        with pytest.raises(ConfigError, match=r"overrides\[0\]\.archetype"):
            parse_config({"overrides": [{"segment_index": 0, "archetype": name}]})

    def test_override_negative_index(self):
        with pytest.raises(ConfigError, match="segment_index"):
            parse_config({"overrides": [{"segment_index": -1, "archetype": "chord_held"}]})

    def test_override_unknown_key_names_entry(self):
        with pytest.raises(ConfigError, match=r"overrides\[0\]"):
            parse_config({"overrides": [{"segment_index": 0, "archetype": "chord_held",
                                         "why": "testing"}]})


class TestListAndRecordMessages:
    """The whole message of each fault in a list, an Enum name or a record."""

    CASES = [
        ({"harmony": {"scale": 3}}, "config: harmony.scale must be a list"),
        ({"harmony": {"register": {"low": 36}}}, "config: harmony.register must be a list"),
        ({"manual_boundaries_s": 1.5}, "config: manual_boundaries_s must be a list"),
        ({"overrides": {"segment_index": 0}}, "config: overrides must be a list"),
        ({"harmony": {"scale": []}}, "config: harmony.scale must not be empty"),
        ({"harmony": {"register": [1]}}, "config: harmony.register must hold 2 items"),
        ({"harmony": {"register": [1, 2, 3]}}, "config: harmony.register must hold 2 items"),
        ({"harmony": {"register": [1.5, 60]}}, "config: harmony.register[0] must be an integer"),
        ({"harmony": {"scale": [0, True]}}, "config: harmony.scale[1] must be an integer"),
        ({"manual_boundaries_s": [True]}, "config: manual_boundaries_s[0] must be a number"),
        ({"manual_boundaries_s": [1.0, "2"]}, "config: manual_boundaries_s[1] must be a number"),
        ({"manual_boundaries_s": [1.0, math.inf]},
         "config: manual_boundaries_s[1] must be a finite number"),
        ({"harmony": {"scale": [0, 12]}}, "config: harmony.scale[1] must lie in [0, 11]"),
        ({"harmony": {"scale": [-1]}}, "config: harmony.scale[0] must lie in [0, 11]"),
        ({"harmony": {"register": [0, 128]}}, "config: harmony.register[1] must lie in [0, 127]"),
        ({"harmony": {"register": [60, 48]}},
         "config: harmony.register[1] must be greater than harmony.register[0]"),
        ({"harmony": {"scale": [0, 3, 3, 7]}},
         "config: harmony.scale[2] must be greater than harmony.scale[1]"),
        ({"manual_boundaries_s": [2, 1]},
         "config: manual_boundaries_s[1] must be greater than manual_boundaries_s[0]"),
        ({"overrides": [{"segment_index": 0, "archetype": "banjo"}]},
         "config: overrides[0].archetype unknown name 'banjo'"),
        ({"overrides": [{"segment_index": 0, "archetype": ["x"]}]},
         "config: overrides[0].archetype unknown name ['x']"),
        ({"overrides": [{"archetype": "chord_held"}]},
         "config: overrides[0].segment_index is required"),
        ({"overrides": [{"segment_index": 0, "archetype": "chord_held"}, {"segment_index": 1}]},
         "config: overrides[1].archetype is required"),
        ({"overrides": [{"segment_index": 0, "archetype": "chord_held", "why": "testing"}]},
         "config: unknown key 'overrides[0].why'"),
        ({"overrides": [{"segment_index": -1, "archetype": "chord_held"}]},
         "config: overrides[0].segment_index must lie in [0, inf)"),
        ({"overrides": [{"segment_index": 1.0, "archetype": "chord_held"}]},
         "config: overrides[0].segment_index must be an integer"),
        ({"overrides": ["chord_held"]}, "config: overrides[0] must be an object"),
    ]

    @pytest.mark.parametrize("doc, message", CASES, ids=lambda v: json.dumps(v)[:48])
    def test_message(self, doc, message):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc, message", CASES, ids=lambda v: json.dumps(v)[:48])
    def test_cli_exits_2_on_the_message(self, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(["pipeline", "--input", str(tmp_path / "absent.y4m"),
                     "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (tmp_path / "out").exists()

    def test_huge_segment_index_is_kept(self):
        cfg = parse_config({"overrides": [{"segment_index": 10 ** 400, "archetype": "chord_held"}]})
        assert cfg.overrides[0].segment_index == 10 ** 400


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 7}')
        assert load_config(path).seed == 7

    def test_invalid_json_reported_with_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", ['{"seed": %s}' % ("1" * 5000),
                                      '{"seed": %s%s}' % ("[" * 100000, "]" * 100000)],
                             ids=["5000-digit integer", "deep nesting"])
    def test_json_beyond_the_decoder_limits_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


NON_DEFAULT = {
    "analysis": {
        "rate_hz": 40.0, "smooth_window_s": 0.3, "min_segment_s": 0.4, "penalty_beta": 3.0,
        "thresholds": {"flat": 0.02, "transient": 0.12, "transient_window_s": 0.25,
                       "granular": 0.3, "chaotic_rough": 0.7, "fit_rrmse": 0.4},
    },
    "manual_boundaries_s": [1.5, 3.0],
    "overrides": [{"segment_index": 1, "archetype": "granular_texture"}],
    "harmony": {"scale": [0, 2, 4, 5, 7, 9, 11], "root_pc": 2, "register": [40, 90],
                "tempo_bpm": 90.5, "ppq": 960, "channel": 3},
    "texture": {"lambda_max": 55.5, "grain_ms": 45.0},
    "seed": 12345,
}


def _ranged_fields(cls=PipelineConfig, path=""):
    """{key path: (JSON type, interval)} of every number field of the schema."""
    out = {}
    for f in dataclasses.fields(cls):
        where = path + f.name
        if "range" in f.metadata:
            out[where] = ("integer" if type(f.default) is int else "number", f.metadata["range"])
        elif dataclasses.is_dataclass(f.default_factory):
            out.update(_ranged_fields(f.default_factory, where + "."))
    return out


class TestSchemaWalker:
    def test_every_field_set_echoes_as_given(self):
        doc = json.loads(json.dumps(NON_DEFAULT))
        doc["analysis"]["rate_hz"] = 40
        doc["texture"]["grain_ms"] = 45
        assert to_json(parse_config(doc)) == {
            "analysis": {
                "rate_hz": 40.0, "smooth_window_s": 0.3, "min_segment_s": 0.4,
                "penalty_beta": 3.0,
                "thresholds": {"flat": 0.02, "transient": 0.12, "transient_window_s": 0.25,
                               "granular": 0.3, "chaotic_rough": 0.7, "fit_rrmse": 0.4},
            },
            "manual_boundaries_s": [1.5, 3.0],
            "overrides": [{"segment_index": 1, "archetype": "granular_texture"}],
            "harmony": {"scale": [0, 2, 4, 5, 7, 9, 11], "root_pc": 2, "register": [40, 90],
                        "tempo_bpm": 90.5, "ppq": 960, "channel": 3},
            "texture": {"lambda_max": 55.5, "grain_ms": 45.0},
            "seed": 12345,
        }
        assert type(to_json(parse_config(doc))["analysis"]["rate_hz"]) is float

    def test_echo_writes_numbers_as_their_declared_kind(self):
        cfg = PipelineConfig(analysis=AnalysisConfig(rate_hz=25),
                             texture=TextureConfig(grain_ms=np.float64(45.5)))
        echo = to_json(cfg)
        assert type(echo["analysis"]["rate_hz"]) is float and echo["analysis"]["rate_hz"] == 25.0
        assert type(echo["texture"]["grain_ms"]) is float

    def test_classify_params_are_the_thresholds(self):
        cfg = parse_config(NON_DEFAULT)
        assert cfg.classify_params() is cfg.analysis.thresholds
        assert cfg.classify_params().granular == 0.3

    def test_first_error_follows_declaration_order(self):
        # AnalysisConfig declares the segmentation fields it inherits first
        doc = {"seed": -1, "texture": {"grain_ms": 0}, "analysis": {"penalty_beta": 0,
                                                                   "rate_hz": 0}}
        with pytest.raises(ConfigError, match=r"analysis\.penalty_beta"):
            parse_config(doc)

    def test_readme_schema_block_is_the_default_echo(self):
        section = README.read_text().split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == to_json(parse_config({}))

    def test_readme_range_table_is_the_schema(self):
        rows = re.findall(r"^\| `([a-z_.]+)` \| (number|integer) \| `([^`]+)` \|$",
                          README.read_text(), re.MULTILINE)
        assert {path: (kind, interval) for path, kind, interval in rows} == _ranged_fields()


def _records(*roots):
    """Every dataclass reachable from `roots` through its fields' type hints."""
    found, todo = [], list(roots)
    while todo:
        cls = todo.pop(0)
        if cls not in found:
            found.append(cls)
            todo += [t for hint in typing.get_type_hints(cls).values()
                     for t in _leaf_types(hint) if dataclasses.is_dataclass(t)]
    return found


def _leaf_types(hint):
    """The types a type hint is made of, through `X | None`, lists and tuples."""
    args = [a for a in typing.get_args(hint) if a is not Ellipsis]
    return [t for a in args for t in _leaf_types(a)] if args else [hint]


# the fits are `dict` fields of a report segment, read by the record their model names
RECORDS = _records(PipelineConfig, report._Report, *report._FITS.values(), ingest._Sidecar)
SOURCE = Path(__file__).resolve().parent.parent / "src" / "lumascore"


def _scopes(predicate) -> set:
    """The scopes of ``src/lumascore``, each a module name followed by the
    names of the classes and functions around it, that directly hold a node
    ``predicate`` accepts."""
    def scan(node, scope, found):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += "." + node.name
        if predicate(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            scan(child, scope, found)

    found = set()
    for path in SOURCE.glob("*.py"):
        scan(ast.parse(path.read_text()), path.stem, found)
    return found


def _names(node) -> set:
    """The identifiers ``node`` itself spells: a name, an attribute or an
    imported name and its alias."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname} - {None}
    return set()


class TestWalkerCoverage:
    """Each field of every record the JSON inputs hold has a rule of its own, so
    a new field cannot fall through to the number check."""

    def test_every_record_is_reached(self):
        names = {cls.__name__ for cls in RECORDS}
        assert {"PipelineConfig", "AnalysisConfig", "ClassifyParams", "Override",
                "HarmonyConfig", "TextureConfig", "_Report", "_Channel", "_Segment",
                "_Transient", "LinearFit", "ExpFit", "StaircaseFit", "_Sidecar"} == names

    def test_only_the_schema_decodes_json(self):
        decoders = set()
        for path in SOURCE.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "loads"
                        and isinstance(node.value, ast.Name) and node.value.id == "json"
                        or isinstance(node, ast.ImportFrom) and node.module == "json"):
                    decoders.add(path.name)
        assert decoders == {"schema.py"}

    def test_only_the_report_reads_a_report_document(self):
        # every other module takes the report's checked records, so a plot
        # and a score cannot read one report two ways
        def document(node):
            return (isinstance(node, ast.alias) and node.name == "parse_report"
                    or isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                    and node.slice.value == "segments")

        assert {scope.split(".")[0] for scope in _scopes(document)} <= {"report"}

    def test_one_note_maker_plays_every_note(self):
        # each note takes its velocity, key and channel from one rule, so no
        # archetype can play by a copy of its own
        for name in ("velocity_at", "MusicalEvent"):
            def call(node):
                return isinstance(node, ast.Call) and name in _names(node.func)

            sites = [node for path in SOURCE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text())) if call(node)]
            assert len(sites) == 1, name
            assert _scopes(call) == {"composition.render_gesture.note"}, name

    def test_each_classify_threshold_is_read_once(self):
        # classify reaches each verdict by one rule, so no shortcut can
        # restate a threshold and come to another verdict
        fields = {f.name for f in dataclasses.fields(ClassifyParams)}
        reads = [node.attr for node in ast.walk(ast.parse((SOURCE / "gestures.py").read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in fields
                 and isinstance(node.value, ast.Name) and node.value.id == "params"]
        assert sorted(reads) == sorted(fields)

    def test_one_pair_of_tables_states_the_smf_grammar(self):
        # the writer and the reader take every status nibble from _CHANNEL and
        # every meta event from _META, so they cannot disagree on an event
        midi = ast.parse((SOURCE / "midi.py").read_text())
        table = next(node for node in midi.body if isinstance(node, ast.Assign)
                     and {"_CHANNEL"} == {target.id for target in node.targets})
        for status in (0x90, 0xB0):
            sites = [(path.name, node.lineno) for path in SOURCE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Constant) and type(node.value) is int
                     and node.value == status]
            assert [name for name, _ in sites] == ["midi.py"], hex(status)
            assert table.lineno <= sites[0][1] <= table.end_lineno, hex(status)
        assert not [node.value for node in ast.walk(midi) if isinstance(node, ast.Constant)
                    and isinstance(node.value, bytes) and b"\xff" in node.value]

    def test_only_a_regular_y4m_file_reads_by_offset(self):
        # load reads a Y4M file's runs by offset; every other read, the
        # claims' marker walk and iteration included, is in stream order
        def pread(node):
            return (isinstance(node, ast.Attribute) and node.attr.startswith("pread")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"
                    or isinstance(node, ast.ImportFrom) and node.module == "os")

        assert _scopes(pread) == {"ingest.Y4MReader.load"}

    def test_segmentation_keeps_no_running_sum_over_the_curve(self):
        # each block carries its own sums: a prefix sum over the whole curve
        # grows with the film until a block's own variance cancels away
        def cumsum(node):
            return "cumsum" in _names(node)

        assert not {scope for scope in _scopes(cumsum) if scope.split(".")[0] == "segmentation"}

    def test_the_analysis_uses_no_linalg(self):
        # np.linalg.norm sums through a BLAS dot product, whose last bits
        # follow the kernel the machine picks; the motif distance uses
        # math.dist, and no analysis module reaches np.linalg
        def linalg(node):
            return (isinstance(node, ast.Attribute) and node.attr == "linalg"
                    or isinstance(node, ast.alias) and "linalg" in node.name.split(".")
                    or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""))

        assert not {scope for scope in _scopes(linalg)
                    if scope.split(".")[0] in {"gestures", "segmentation", "curveprep"}}

    def test_reading_state_stays_in_ingest(self):
        # photometry measures opaque claims; the run buffers and the claims
        # that locate frames in a file are made by the sources alone
        def mmap(node):
            return (isinstance(node, ast.Import) and any(a.name == "mmap" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "mmap"
                    or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "mmap")

        def frame_at(node):
            return isinstance(node, ast.Call) and "FrameAt" in _names(node.func)

        for predicate in (mmap, frame_at):
            assert {scope.split(".")[0] for scope in _scopes(predicate)} == {"ingest"}
        names = set()
        for node in ast.walk(ast.parse((SOURCE / "photometry.py").read_text())):
            names |= _names(node)
        assert not {name for name in names if name == "FrameAt" or "Buffer" in name}

    def test_only_the_package_start_writes_the_environment(self):
        # the BLAS thread count is read once, when numpy is first imported, so
        # the one write of os.environ comes before the package's first import
        def environ(node):
            return (isinstance(node, ast.Attribute) and node.attr == "environ"
                    and isinstance(node.value, ast.Name) and node.value.id == "os")

        def writes(node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(node, "targets", None) or [node.target]
                return any(environ(getattr(t, "value", t)) for t in targets)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func
                return (environ(method.value) and method.attr in
                        {"setdefault", "update", "pop", "popitem", "clear"}
                        or isinstance(method.value, ast.Name) and method.value.id == "os"
                        and method.attr in {"putenv", "unsetenv"})
            return (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and bool({a.name for a in node.names} & {"environ", "putenv", "unsetenv"}))

        assert _scopes(writes) == {"__init__"}
        body = ast.parse((SOURCE / "__init__.py").read_text()).body
        first_write = next(i for i, stmt in enumerate(body)
                           if any(writes(node) for node in ast.walk(stmt)))
        first_import = next(i for i, stmt in enumerate(body)
                            if isinstance(stmt, ast.ImportFrom) and stmt.level)
        assert first_write < first_import

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_every_field_has_a_rule(self, cls):
        for name, hint in typing.get_type_hints(cls).items():
            for leaf in _leaf_types(hint):
                assert (leaf in (int, float, bool, str, dict, type(None))
                        or dataclasses.is_dataclass(leaf) or issubclass(leaf, enum.Enum)), name
        # the walker builds every field's rule before it reads the first one
        try:
            parse_record(cls, {}, "x", ValueError)
        except ValueError as exc:
            assert str(exc).endswith(" is required")

    def test_a_type_without_a_rule_is_refused(self):
        @dataclasses.dataclass
        class Odd:
            when: complex = 0j

        with pytest.raises(TypeError, match="no rule"):
            parse_record(Odd, {}, "x", ValueError)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(script, **variables):
    """Run ``script`` in a fresh interpreter that imports from ``src``, with
    no BLAS thread variable but those given, and return its output."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(variables, PYTHONPATH=str(SOURCE.parent))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestBlasDefault:
    """The package runs BLAS on the calling thread unless the caller says
    otherwise."""

    IMPORT = ("import os, lumascore\n"
              "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
    def test_import_leaves_one_thread(self):
        assert _python(self.IMPORT).split() == ["1", "1"]

    def test_the_callers_value_wins(self):
        script = "import os, lumascore\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _python(script, OPENBLAS_NUM_THREADS="2").split() == ["2"]

    def test_exponential_fit_bits_do_not_depend_on_blas_threads(self):
        # 30,000 samples is where OpenBLAS hands the fit's product to a worker
        script = """
import numpy as np
from lumascore.gestures import fit_exponential
t = np.arange(30000) / 24.0
fit = fit_exponential(0.2 + 0.7 * np.exp(-t / 300.0) + 0.01 * np.sin(7.3 * t), 24.0)
print([float.hex(v) for v in (fit.offset, fit.scale, fit.tau_s, fit.sse)], fit.degenerate)
"""
        one = _python(script, OPENBLAS_NUM_THREADS="1")
        assert "False" in one
        assert _python(script, OPENBLAS_NUM_THREADS="2") == one


# JSON-like values that stress the checks: non-finite and huge numbers, booleans,
# strings (with line breaks) and nesting
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(), st.integers(-(10 ** 400), 10 ** 400),
    st.floats(), st.floats(-1e4, 1e4),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 64, 0, 1, 4, 1000, 3600]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_SPECIAL = {
    "manual_boundaries_s": st.none() | st.lists(
        st.floats(-1e6, 1e6) | st.integers(-10, 10), max_size=4, unique=True).map(sorted),
    "overrides": st.lists(st.fixed_dictionaries({
        "segment_index": st.integers(0, 5),
        "archetype": st.sampled_from([a.value for a in Archetype]),
    }), max_size=3),
    "scale": st.lists(st.integers(0, 11), min_size=1, max_size=7, unique=True).map(sorted),
    "register": st.tuples(st.integers(0, 63), st.integers(64, 127)).map(list),
}


@st.composite
def _config_docs(draw, template=None, noise=None):
    """Documents shaped like the schema.  Each key is absent or holds a value in
    range; in `noise` tenths of the keys it holds any value instead, and a noisy
    document may carry an unknown key."""
    template = to_json(parse_config({})) if template is None else template
    noise = draw(st.sampled_from([0, 1, 3])) if noise is None else noise
    doc = {}
    for key, default in template.items():
        if draw(st.booleans()):
            continue
        if draw(st.integers(0, 9)) < noise:
            doc[key] = draw(_SCALARS | _VALUES)
        elif isinstance(default, dict):
            doc[key] = draw(_config_docs(default, noise))
        elif key in _SPECIAL:
            doc[key] = draw(_SPECIAL[key])
        else:
            doc[key] = type(default)(default * draw(st.floats(0.5, 1.5)))
    if noise and draw(st.integers(0, 9)) == 0:
        doc[draw(st.text(max_size=4))] = draw(_VALUES)
    return doc


class TestWalkerProperty:
    @given(doc=_config_docs() | _VALUES)
    def test_rejects_on_one_line_or_echoes_a_fixed_point(self, doc):
        try:
            cfg = parse_config(doc)
        except ConfigError as exc:
            assert len(str(exc).splitlines()) == 1
            return
        echo = to_json(cfg)
        json.dumps(echo, allow_nan=False)
        assert to_json(parse_config(echo)) == echo



def _ends(interval, kind):
    """The two ends of an interval such as ``"(0, 1]"``, as `kind` where finite."""
    return [float(end) if "inf" in end else kind(end) for end in interval[1:-1].split(",")]


def _inside(value, interval, kind):
    """Whether `parse_config` must accept `value` in a field of this interval."""
    if not (isinstance(value, int) if kind is int else math.isfinite(value)):
        return False
    low, high = _ends(interval, kind)
    return (low < value < high or value == low and interval[0] == "["
            or value == high and interval[-1] == "]")


def _step(value, kind, direction):
    """The next integer or float from `value` towards `direction` (+1 or -1)."""
    return value + direction if kind is int else math.nextafter(value, direction * math.inf)


def _edge_values(interval, kind):
    """Each finite end and its neighbours on both sides; an infinite end itself and,
    inside it, the largest float or a 400-digit integer; for a float field also
    5e-324 and 1.7e308 of both signs."""
    values = set()
    for end in _ends(interval, kind):
        if math.isinf(end):
            big = math.nextafter(math.inf, 0) if kind is float else 10 ** 400
            values |= {end, big if end > 0 else -big}
        else:
            values |= {end, _step(end, kind, 1), _step(end, kind, -1)}
    if kind is float:
        values |= {5e-324, -5e-324, 1.7e308, -1.7e308}
    return sorted(values)


def _middle(interval, kind):
    """A value well inside an interval, whose neighbours are inside too."""
    low, high = _ends(interval, kind)
    if math.isinf(low) and math.isinf(high):
        return kind(0)
    if math.isinf(low) or math.isinf(high):
        return high - 1 if math.isinf(low) else low + 1
    return (low + high) // 2 if kind is int else (low + high) / 2


def _valid_record(cls):
    """The required fields of a list record, each set to a valid value."""
    hints = typing.get_type_hints(cls)
    return {f.name: next(iter(hints[f.name])).value if issubclass(hints[f.name], enum.Enum)
            else _middle(f.metadata["range"], hints[f.name])
            for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}


def _schema_leaves(cls=PipelineConfig, path="", put=lambda doc: doc):
    """(JSON path, type hint, metadata, put) of every number and list field of the
    schema, those of list records included; ``put(value)`` is the smallest
    document that sets the field to `value`."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, where = hints[f.name], path + f.name

        def at(value, put=put, name=f.name):
            return put({name: value})

        if dataclasses.is_dataclass(hint):
            yield from _schema_leaves(hint, where + ".", at)
            continue
        if "range" in f.metadata or typing.get_args(hint):
            yield where, hint, f.metadata, at
        item = (typing.get_args(hint) or [None])[0]
        if typing.get_origin(hint) is list and dataclasses.is_dataclass(item):
            def in_record(fields, at=at, valid=_valid_record(item)):
                return at([{**valid, **fields}])

            yield from _schema_leaves(item, where + "[0].", in_record)


def _item_probe(value, middle, length):
    """A list of `length` items, `middle` but for `value`: the first item if it lies
    below the middle, else the last."""
    rest = [middle] * (length - 1)
    return [value] + rest if value < middle else rest + [value]


def _verdict(doc, where):
    """Whether `doc` parses; a ConfigError must name `where`."""
    try:
        parse_config(doc)
    except ConfigError as exc:
        assert where in str(exc), (doc, str(exc))
        return False
    return True


_LEAVES = list(_schema_leaves())


class TestSchemaEdges:
    """Every interval the schema declares, probed at its ends, and every list's
    item count and increasing rule at the edges."""

    def test_every_rule_is_probed(self):
        paths = {where for where, _, _, _ in _LEAVES}
        assert set(_ranged_fields()) <= paths
        assert {"harmony.scale", "harmony.register", "manual_boundaries_s", "overrides",
                "overrides[0].segment_index"} <= paths

    @pytest.mark.parametrize("where, hint, meta, put", _LEAVES, ids=[leaf[0] for leaf in _LEAVES])
    def test_edges(self, where, hint, meta, put):
        if "range" in meta:
            for value in _edge_values(meta["range"], hint):
                assert _verdict(put(value), where) == _inside(value, meta["range"], hint), value
            return
        if typing.get_origin(hint) is types.UnionType:  # `list[...] | None`
            assert _verdict(put(None), where)
            hint = typing.get_args(hint)[0]
        args = typing.get_args(hint)
        count = len(args) if typing.get_origin(hint) is tuple and ... not in args else None
        kind = args[0]
        if dataclasses.is_dataclass(kind):
            items = [_valid_record(kind)] * 3
        else:
            middle = _middle(meta["items"], kind)
            items = [middle, _step(middle, kind, 1), _step(_step(middle, kind, 1), kind, 1)]
        for n in range(4):
            fits = n == count if count else n > 0 or not meta.get("nonempty")
            assert _verdict(put(items[:n]), where) == fits, n
        length = count or 1
        if "items" in meta:
            for value in _edge_values(meta["items"], kind):
                where_probe = "%s[%d]" % (where, 0 if value < middle else length - 1)
                assert (_verdict(put(_item_probe(value, middle, length)), where_probe)
                        == _inside(value, meta["items"], kind))
        if meta.get("increasing") and count in (None, 2):
            for after, fits in ((middle, False), (_step(middle, kind, 1), True),
                                (_step(middle, kind, -1), False)):
                assert _verdict(put([middle, after]), "%s[1]" % where) == fits, after


def _pipeline_probes(hint, meta, put):
    """(config document, refused) of each edge value of a field's ``range``, or
    of a list's ``items`` in a list that is valid but for it."""
    if "range" in meta:
        interval, kind, place = meta["range"], hint, put
    else:
        if typing.get_origin(hint) is types.UnionType:  # `list[...] | None`
            hint = typing.get_args(hint)[0]
        args = typing.get_args(hint)
        interval, kind = meta["items"], args[0]
        length = len(args) if typing.get_origin(hint) is tuple and ... not in args else 1
        middle = _middle(interval, kind)
        place = lambda value: put(_item_probe(value, middle, length))
    return [(place(value), not _inside(value, interval, kind))
            for value in _edge_values(interval, kind)]


_NUMBER_LEAVES = [leaf for leaf in _LEAVES if {"range", "items"} & set(leaf[2])]


@pytest.fixture(scope="module")
def two_second_film(tmp_path_factory):
    """A 24 fps 8x8 clip, a flash that decays and then three steps up, which
    analyze reads as a granular texture, a diminuendo and a tremolo."""
    levels = ([50] * 6 + [230] + [int(50 + 170 * math.exp(-i / 5)) for i in range(17)]
              + [60] * 8 + [110] * 8 + [160] * 8)
    path = tmp_path_factory.mktemp("film") / "film.y4m"
    path.write_bytes(build_y4m(8, 8, [y4m_frame_420(8, 8, v) for v in levels]))
    return path


class TestSchemaEdgesThroughPipeline:
    """The config half of the schema gate: every edge value of each declared
    interval, through ``pipeline`` on a 2 s film.  Each ends at once, in four
    artifacts that read back or in one error line; a value the schema refuses
    exits 2."""

    @pytest.mark.parametrize("where, hint, meta, put", _NUMBER_LEAVES,
                             ids=[leaf[0] for leaf in _NUMBER_LEAVES])
    def test_pipeline_ends_at_once(self, where, hint, meta, put, two_second_film, tmp_path,
                                   capsys):
        config, out = tmp_path / "config.json", tmp_path / "out"
        for doc, refused in _pipeline_probes(hint, meta, put):
            config.write_text(json.dumps(doc))
            with deadline(5):
                code = main(["pipeline", "--input", str(two_second_film), "--config",
                             str(config), "--out-dir", str(out)])
            err = capsys.readouterr().err
            if code:
                assert code in (1, 2) and err.startswith("error: ") and err.count("\n") == 1, (
                    doc, err)
                assert code == 2 or not refused, (doc, err)
                continue
            assert not refused and err == "", doc
            read_curves_csv((out / "curves.csv").read_bytes())
            report.parse_report((out / "analysis.json").read_bytes())
            read_smf((out / "score.mid").read_bytes())
            ElementTree.fromstring((out / "plot.svg").read_bytes())
