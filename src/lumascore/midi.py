"""Standard MIDI File output (format 1) and a reader for round-trip checks.

The writer never uses running status and always emits explicit note-off
events, so the byte stream is a pure function of the score.  Two tables are
the whole event grammar: the writer emits only their events and the reader
accepts nothing else.
"""

from __future__ import annotations

import math
import struct

from .composition import Score
from .curveprep import round_half_up

MAX_VLQ = 0x0FFFFFFF

# channel events by status high nibble, in the order events at one tick are
# written: releases, then controls, then attacks
_CHANNEL = {0x80: "note_off", 0xB0: "control", 0x90: "note_on"}
# meta events by type: name and payload length; an empty text event carries
# a delta longer than MAX_VLQ in parts
_META = {0x01: ("text", 0), 0x51: ("tempo", 3), 0x2F: ("end_of_track", 0)}

_STATUS = {name: status for status, name in _CHANNEL.items()}
_RANK = {name: rank for rank, name in enumerate(_CHANNEL.values())}
_META_TYPE = {name: (meta, size) for meta, (name, size) in _META.items()}


class MidiFormatError(ValueError):
    pass


def encode_vlq(value: int) -> bytes:
    """Variable-length quantity: big-endian 7-bit groups, minimal length."""
    if value < 0 or value > MAX_VLQ:
        raise ValueError("value %.6g outside VLQ range" % value)
    groups = [value & 0x7F]
    value >>= 7
    while value:
        groups.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(groups))


def ticks(t_s: float, tempo_bpm: float, ppq: int) -> int:
    """Seconds to MIDI ticks, rounding half up."""
    tick = round_half_up(t_s * tempo_bpm / 60.0 * ppq)
    if math.isinf(tick):
        raise ValueError("time %.6g s outside the MIDI tick range" % t_s)
    return tick


def _encode(event: tuple) -> bytes:
    """The bytes of one event, given as :func:`read_smf` returns it."""
    name = event[0]
    if name in _STATUS:
        # the channel is masked, because MusicalEvent does not check it
        return bytes((_STATUS[name] | (event[1] & 0x0F), event[2], event[3]))
    meta, size = _META_TYPE[name]
    # each length in _META is below 0x80, so it is its own one-byte VLQ
    return bytes((0xFF, meta, size)) + b"".join(v.to_bytes(size, "big") for v in event[1:])


def _track_chunk(events: list[tuple[int, tuple]]) -> bytes:
    """An MTrk chunk of ``(tick, event)`` pairs in tick order, closed by
    end-of-track at the last tick."""
    parts, cursor = [], 0
    for tick, event in events:
        delta = tick - cursor
        while delta > MAX_VLQ:
            parts.append(encode_vlq(MAX_VLQ) + _encode(("text",)))
            delta -= MAX_VLQ
        parts.append(encode_vlq(delta) + _encode(event))
        cursor = tick
    parts.append(encode_vlq(0) + _encode(("end_of_track",)))
    payload = b"".join(parts)
    return b"MTrk" + struct.pack(">I", len(payload)) + payload


def write_smf(score: Score) -> bytes:
    clock = (score.tempo_bpm, score.ppq)
    tempo_track = _track_chunk([(0, ("tempo", round_half_up(60_000_000.0 / score.tempo_bpm)))])
    header = b"MThd" + struct.pack(">IHHH", 6, 1, 2, score.ppq)

    events: list[tuple[int, tuple]] = []
    for note in score.notes:
        on = ticks(note.onset_s, *clock)
        # a note shorter than half a tick would end at its start, where its
        # release sorts before its attack and never closes it
        off = max(ticks(note.onset_s + note.duration_s, *clock), on + 1)
        events.append((on, ("note_on", note.channel, note.pitch, note.velocity)))
        events.append((off, ("note_off", note.channel, note.pitch, 0)))
    for control in score.controls:
        events.append((ticks(control.time_s, *clock),
                       ("control", control.channel, control.controller, control.value)))
    # at one tick by the table's order, then by pitch or controller
    events.sort(key=lambda e: (e[0], _RANK[e[1][0]], e[1][2]))

    return header + tempo_track + _track_chunk(events)


def read_smf(data: bytes) -> dict:
    """Parse what :func:`write_smf` emits; anything else raises.

    Returns the division plus per-track lists of ``(tick, event)`` tuples
    where events are ("tempo", us), ("end_of_track",), ("note_on", ch,
    pitch, vel), ("note_off", ch, pitch, vel) or ("control", ch, num, val).
    Empty text events only carry their delta into the next event's tick.
    """
    if data[:4] != b"MThd":
        raise MidiFormatError("missing MThd chunk")
    if len(data) < 14:
        raise MidiFormatError("truncated MThd chunk")
    length, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    if length != 6:
        raise MidiFormatError("unexpected MThd length %d" % length)
    if fmt != 1:
        raise MidiFormatError("unsupported format %d" % fmt)
    pos = 14
    tracks = []
    for _ in range(ntrks):
        if data[pos:pos + 4] != b"MTrk":
            raise MidiFormatError("missing MTrk chunk at byte %d" % pos)
        if len(data) < pos + 8:
            raise MidiFormatError("truncated track chunk")
        (size,) = struct.unpack(">I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise MidiFormatError("truncated track chunk")
        tracks.append(_read_track(body))
        pos += 8 + size
    if pos != len(data):
        raise MidiFormatError("%d trailing bytes" % (len(data) - pos))
    return {"format": fmt, "division": division, "tracks": tracks}


def _read_vlq(body: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(body):
            raise MidiFormatError("truncated variable-length quantity")
        byte = body[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiFormatError("variable-length quantity longer than 4 bytes")


def _read_track(body: bytes) -> list[tuple[int, tuple]]:
    events: list[tuple[int, tuple]] = []
    tick = pos = 0
    while pos < len(body):
        delta, pos = _read_vlq(body, pos)
        tick += delta
        if pos >= len(body):
            raise MidiFormatError("truncated event")
        status = body[pos]
        pos += 1
        if status == 0xFF:
            if pos >= len(body):
                raise MidiFormatError("truncated meta event")
            meta = body[pos]
            size, pos = _read_vlq(body, pos + 1)
            payload = body[pos:pos + size]
            if len(payload) < size:
                raise MidiFormatError("truncated meta event")
            pos += size
            name, expected = _META.get(meta, (None, None))
            if size != expected:
                raise MidiFormatError("unsupported meta event 0x%02X" % meta)
            if name != "text":
                events.append((tick, (name, int.from_bytes(payload, "big")) if size else (name,)))
            if name == "end_of_track":
                if pos != len(body):
                    raise MidiFormatError("data after end-of-track")
                return events
        elif status & 0xF0 in _CHANNEL:
            if pos + 2 > len(body):
                raise MidiFormatError("truncated channel event")
            events.append((tick, (_CHANNEL[status & 0xF0], status & 0x0F, body[pos], body[pos + 1])))
            pos += 2
        else:
            # running status in particular lands here on purpose
            raise MidiFormatError("unsupported status byte 0x%02X" % status)
    raise MidiFormatError("track missing end-of-track meta")
