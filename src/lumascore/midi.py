"""Standard MIDI File output (format 1) and a reader for round-trip checks.

The writer never uses running status and always emits explicit note-off
events, so the byte stream is a pure function of the score.
"""

from __future__ import annotations

import math
import struct

from .composition import Score
from .curveprep import round_half_up

MAX_VLQ = 0x0FFFFFFF

# an empty text meta event, which carries a delta longer than MAX_VLQ in parts
_EMPTY_TEXT = b"\xff\x01\x00"

# event ordering classes at equal ticks: releases, controls, attacks
_CLASS_OFF = 0
_CLASS_CONTROL = 1
_CLASS_ON = 2


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


def _track_chunk(payload: bytes) -> bytes:
    return b"MTrk" + struct.pack(">I", len(payload)) + payload


def write_smf(score: Score) -> bytes:
    ppq = score.ppq
    tempo_us = round_half_up(60_000_000.0 / score.tempo_bpm)
    header = b"MThd" + struct.pack(">IHHH", 6, 1, 2, ppq)

    tempo_track = (
        b"\x00\xff\x51\x03" + tempo_us.to_bytes(3, "big") + b"\x00\xff\x2f\x00"
    )

    events: list[tuple[int, int, int, bytes]] = []
    for note in score.notes:
        on = ticks(note.onset_s, score.tempo_bpm, ppq)
        off = ticks(note.onset_s + note.duration_s, score.tempo_bpm, ppq)
        status_on = 0x90 | (note.channel & 0x0F)
        status_off = 0x80 | (note.channel & 0x0F)
        events.append((on, _CLASS_ON, note.pitch, bytes([status_on, note.pitch, note.velocity])))
        events.append((off, _CLASS_OFF, note.pitch, bytes([status_off, note.pitch, 0])))
    for control in score.controls:
        tick = ticks(control.time_s, score.tempo_bpm, ppq)
        status = 0xB0 | (control.channel & 0x0F)
        events.append((tick, _CLASS_CONTROL, control.controller,
                       bytes([status, control.controller, control.value])))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    parts = []
    cursor = 0
    for tick, _, _, payload in events:
        delta = tick - cursor
        while delta > MAX_VLQ:
            parts.append(encode_vlq(MAX_VLQ) + _EMPTY_TEXT)
            delta -= MAX_VLQ
        parts.append(encode_vlq(delta))
        parts.append(payload)
        cursor = tick
    parts.append(b"\x00\xff\x2f\x00")
    note_track = b"".join(parts)

    return header + _track_chunk(tempo_track) + _track_chunk(note_track)


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
    tick = 0
    pos = 0
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
            if meta == 0x01 and size == 0:
                pass
            elif meta == 0x51 and size == 3:
                events.append((tick, ("tempo", int.from_bytes(payload, "big"))))
            elif meta == 0x2F and size == 0:
                events.append((tick, ("end_of_track",)))
                if pos != len(body):
                    raise MidiFormatError("data after end-of-track")
                return events
            else:
                raise MidiFormatError("unsupported meta event 0x%02X" % meta)
        elif 0x80 <= status <= 0xBF:
            if pos + 2 > len(body):
                raise MidiFormatError("truncated channel event")
            d1, d2 = body[pos], body[pos + 1]
            pos += 2
            channel = status & 0x0F
            kind = status & 0xF0
            if kind == 0x90:
                events.append((tick, ("note_on", channel, d1, d2)))
            elif kind == 0x80:
                events.append((tick, ("note_off", channel, d1, d2)))
            else:
                events.append((tick, ("control", channel, d1, d2)))
        else:
            # running status in particular lands here on purpose
            raise MidiFormatError("unsupported status byte 0x%02X" % status)
    raise MidiFormatError("track missing end-of-track meta")
