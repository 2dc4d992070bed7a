"""The one reader of JSON input: the config, the analysis report and the raw
RGB24 sidecar.  `load_json` reads a document and the walker checks it against
dataclasses, by each field's type hint and metadata (a number's ``"range"``, an
interval such as ``"(0, 1]"``; a list's ``"items"`` interval, ``"nonempty"``
and strictly ``"increasing"``): it refuses unknown keys by full path, requires
each field with no default and writes a record back as JSON.  A fault reads
``<root>: <path> <fault>``.  The module imports nothing from the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints


def load_json(source: bytes | Path, root: str, error: type):
    """The JSON document in `source`, UTF-8 bytes or the file at a path; one that
    does not read or decode raises `error`."""
    try:
        data = source if isinstance(source, bytes) else source.read_bytes()
        return json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise error("%s: %s" % (root, exc)) from exc
    # a bad byte and 4300+ digit integers raise ValueError, deep nesting RecursionError
    except (ValueError, RecursionError) as exc:
        raise error("%s: invalid JSON (%s)" % (root, exc)) from exc


def _locate(at) -> tuple:
    """The error maker of the document `at` lies in, and the path ``a.b[i].c`` of `at`."""
    keys = []
    while isinstance(at, tuple):
        at, key = at
        keys.append("[%d]" % key if isinstance(key, int) else "." + key)
    return at, "".join(reversed(keys))[1:]


def _fault(at, fault: str) -> ValueError:
    error, path = _locate(at)
    return error("%s %s" % (path or "top level", fault))


def _interval(text: str | None, kind: type):
    """The test that a number lies in `text`, such as ``"(0, 1]"``, or any number if
    None; integer ends stay integers, since Python compares int and float exactly."""
    if text is None:
        return lambda value: True
    low, high = (float(end) if "inf" in end else kind(end) for end in text[1:-1].split(","))
    return lambda value: ((low < value if text[0] == "(" else low <= value)
                          and (value < high if text[-1] == ")" else value <= high))


def _number(kind: type, interval: str | None, inside, raw, at):
    """`raw` as `kind` (int or float), checked to be finite and in `interval`, if any."""
    if isinstance(raw, bool) or not isinstance(raw, int if kind is int else (int, float)):
        raise _fault(at, "must be an integer" if kind is int else "must be a number")
    if kind is float:
        try:
            raw = float(raw)
        except OverflowError:  # json.loads reads integers too large for a float
            raw = math.inf
        if not math.isfinite(raw):
            raise _fault(at, "must be a finite number")
    if not inside(raw):
        raise _fault(at, "must lie in " + interval)
    return raw


def _numbers(kind: type, raw: list) -> list | None:
    """`raw` as a list of `kind` if every item passes `_number`'s checks, else None."""
    # json.loads also reads NaN, Infinity and integers too large for a float
    if not set(map(type, raw)) <= {int, kind}:
        return None
    try:
        values = list(map(kind, raw))
    except OverflowError:
        return None
    return values if kind is int or all(map(math.isfinite, values)) else None


def _list(origin: type, args: tuple, meta) -> tuple:
    """(read, write) of a list or tuple field, each item checked at ``PATH[i]``;
    a list of numbers with no range is checked in bulk, item by item on a fault."""
    count = len(args) if origin is tuple and ... not in args else None
    read_item, write_item = _rule(args[0], {"range": meta.get("items")})
    bulk = args[0] in (int, float) and "items" not in meta

    def read(raw, at):
        if not isinstance(raw, list):
            raise _fault(at, "must be a list")
        if count is not None and len(raw) != count:
            raise _fault(at, "must hold %d items" % count)
        if meta.get("nonempty") and not raw:
            raise _fault(at, "must not be empty")
        values = _numbers(args[0], raw) if bulk else None
        if values is None:
            values = [read_item(v, (at, i)) for i, v in enumerate(raw)]
        for i in range(1, len(values)) if meta.get("increasing") else ():
            if values[i] <= values[i - 1]:
                raise _fault((at, i), "must be greater than " + _locate((at, i - 1))[1])
        return origin(values)

    # a number item is written by int or float, not by a call back into the walker
    return read, lambda values: list(map(write_item, values))


def _name(cls: type, raw, at):
    try:
        return cls(raw)
    except ValueError:
        raise _fault(at, "unknown name %r" % (raw,)) from None


def _exact(kind: type, noun: str, raw, at):
    if not isinstance(raw, kind):
        raise _fault(at, "must be " + noun)
    return raw


def _rule(hint, meta) -> tuple:
    """(read, write): how a field of this type hint and metadata is read from
    JSON and checked, and how it is written back."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # `X | None`, X declared first
        read, write = _rule(args[0], meta)
        return (lambda raw, at: None if raw is None else read(raw, at),
                lambda value: None if value is None else write(value))
    if origin in (list, tuple):
        return _list(origin, args, meta)
    if is_dataclass(hint):
        return partial(_record, hint, plan(hint)), to_json
    if isinstance(hint, type) and issubclass(hint, Enum):
        return partial(_name, hint), attrgetter("value")
    # a dict field is an object its owner reads, such as a report's config echo
    for kind, noun in (bool, "a boolean"), (str, "a string"), (dict, "an object"):
        if hint is kind:
            return partial(_exact, kind, noun), kind
    if hint in (int, float):
        # a number is written as its declared kind, so 25 reads 25.0
        interval = meta.get("range")
        return partial(_number, hint, interval, _interval(interval, hint)), hint
    raise TypeError("the JSON walker has no rule for the type %r" % (hint,))


@cache
def plan(cls: type) -> dict:
    """{name: (read, write, required)} of each field of `cls`, nested records planned too."""
    hints = get_type_hints(cls)
    return {f.name: (*_rule(hints[f.name], f.metadata),
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _record(cls: type, rules: dict, doc, at):
    """A `cls` from a JSON object of its fields, checked in declaration order."""
    if not isinstance(doc, dict):
        raise _fault(at, "must be an object")
    for key in doc:
        if key not in rules:
            error, path = _locate((at, key))
            raise error("unknown key %r" % path)
    values = {}
    for name, (read, _, required) in rules.items():
        if name in doc:
            values[name] = read(doc[name], (at, name))
        elif required:
            raise _fault((at, name), "is required")
    return cls(**values)


def parse_record(cls: type, doc, root: str, error: type, *keys):
    """The record `cls` read from `doc`, the JSON object at `keys` in its
    document; a failed check raises `error` worded ``<root>: <path> <fault>``."""
    # a value's place is a (parent, key) pair on top of the function that words
    # the document's errors, so that a path is formatted only when a check fails
    at = lambda fault: error("%s: %s" % (root, fault))
    for key in keys:
        at = (at, key)
    return _record(cls, plan(cls), doc, at)


def to_json(record) -> dict:
    """The JSON object of a dataclass record, as `parse_record` reads it."""
    return {name: write(getattr(record, name))
            for name, (_, write, _) in plan(type(record)).items()}

