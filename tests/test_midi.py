"""Standard MIDI File serialization: VLQs, layout, round-trips."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumascore.composition import ControlEvent, MusicalEvent, Score
from lumascore.curveprep import round_half_up
from lumascore.midi import (
    MAX_VLQ,
    MidiFormatError,
    encode_vlq,
    read_smf,
    ticks,
    write_smf,
)


def make_score(notes=(), controls=(), tempo=60.0, ppq=480):
    return Score(list(notes), list(controls), tempo, ppq)


class TestEncodeVlq:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x00"),
            (0x7F, b"\x7f"),
            (128, b"\x81\x00"),
            (0x3FFF, b"\xff\x7f"),
            (0x4000, b"\x81\x80\x00"),
            (0x0FFFFFFF, b"\xff\xff\xff\x7f"),
        ],
    )
    def test_reference_encodings(self, value, expected):
        assert encode_vlq(value) == expected

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="outside VLQ range"):
            encode_vlq(0x10000000)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="outside VLQ range"):
            encode_vlq(-1)

    def test_huge_value_is_printed_short(self):
        # the delta of a 1e300 ms grain used to print all 300 digits
        with pytest.raises(ValueError, match="^value 4.8e\\+299 outside VLQ range$"):
            encode_vlq(int(4.8e299))

    @given(st.integers(0, 0x0FFFFFFF))
    @settings(max_examples=200, deadline=None)
    def test_minimal_big_endian_groups(self, value):
        encoded = encode_vlq(value)
        assert 1 <= len(encoded) <= 4
        # decode by hand: continuation bit on all but the last byte
        decoded = 0
        for i, byte in enumerate(encoded):
            last = i == len(encoded) - 1
            assert bool(byte & 0x80) != last
            decoded = (decoded << 7) | (byte & 0x7F)
        assert decoded == value
        # minimality: a shorter encoding could not hold the value
        if len(encoded) > 1:
            assert value >= 1 << (7 * (len(encoded) - 1))


class TestTicks:
    @pytest.mark.parametrize(
        "t,tempo,ppq,expected",
        [
            (1.0, 60.0, 480, 480),
            (0.0, 60.0, 480, 0),
            (0.5, 120.0, 480, 480),
            (2.0, 90.0, 96, 288),
        ],
    )
    def test_conversions(self, t, tempo, ppq, expected):
        assert ticks(t, tempo, ppq) == expected

    def test_rounds_half_up(self):
        # 0.001 s at 60 bpm, 480 ppq = 0.48 ticks -> 0; 0.00105 -> 0.504 -> 1
        assert ticks(0.001, 60.0, 480) == 0
        assert ticks(0.00105, 60.0, 480) == 1

    def test_time_past_the_float_range_rejected(self):
        # 1.7e305 s at 1000 bpm and 960 ppq is an infinite tick count
        with pytest.raises(ValueError, match="^time 1.7e\\+305 s outside the MIDI tick range$"):
            ticks(1.7e305, 1000.0, 960)


EMPTY_HEADER = b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480)
TEMPO_TRACK = b"MTrk" + struct.pack(">I", 11) + bytes.fromhex("00ff51030f424000ff2f00")


class TestWriteSmf:
    def test_empty_score_layout(self):
        expected = (
            EMPTY_HEADER
            + TEMPO_TRACK
            + b"MTrk" + struct.pack(">I", 4) + bytes.fromhex("00ff2f00")
        )
        assert write_smf(make_score()) == expected

    def test_single_note_track_bytes(self):
        score = make_score([MusicalEvent(0.0, 1.0, 60, 100, 0)])
        payload = bytes.fromhex("00903c6483 60803c00 00ff2f00".replace(" ", ""))
        expected = (
            EMPTY_HEADER
            + TEMPO_TRACK
            + b"MTrk" + struct.pack(">I", len(payload)) + payload
        )
        assert write_smf(score) == expected

    def test_tempo_meta_for_120_bpm(self):
        data = write_smf(make_score(tempo=120.0))
        assert bytes.fromhex("00ff510307a120") in data

    def test_chord_note_ons_sorted_by_pitch(self):
        chord = [
            MusicalEvent(0.0, 1.0, 67, 80, 0),
            MusicalEvent(0.0, 1.0, 60, 80, 0),
            MusicalEvent(0.0, 1.0, 63, 80, 0),
        ]
        parsed = read_smf(write_smf(make_score(chord)))
        events = parsed["tracks"][1]
        ons = [e for e in events if e[1][0] == "note_on"]
        assert [e[1][2] for e in ons] == [60, 63, 67]

    def test_off_before_control_before_on_at_equal_tick(self):
        notes = [
            MusicalEvent(0.0, 1.0, 60, 90, 0),
            MusicalEvent(1.0, 1.0, 72, 90, 0),
        ]
        controls = [ControlEvent(1.0, 11, 64, 0)]
        parsed = read_smf(write_smf(make_score(notes, controls)))
        events = parsed["tracks"][1]
        at_480 = [e[1][0] for e in events if e[0] == 480]
        assert at_480 == ["note_off", "control", "note_on"]

    def test_no_running_status_in_output(self):
        notes = [MusicalEvent(k * 0.1, 0.05, 60, 90, 0) for k in range(10)]
        data = write_smf(make_score(notes))
        # every event in the note track re-states its status byte, so the
        # strict reader (which rejects running status) must accept the file
        parsed = read_smf(data)
        assert len(parsed["tracks"][1]) == 21  # 10 on + 10 off + EOT

    def test_byte_determinism(self):
        notes = [MusicalEvent(0.25, 0.5, 64, 77, 3)]
        controls = [ControlEvent(0.0, 11, 50, 3)]
        first = write_smf(make_score(notes, controls))
        second = write_smf(make_score(notes, controls))
        assert first == second

    @pytest.mark.parametrize("delta", [MAX_VLQ, MAX_VLQ + 1, 3 * MAX_VLQ + 5])
    def test_delta_past_the_vlq_range_is_split(self, delta):
        # an empty text event carries each whole MAX_VLQ of the delta
        score = make_score([MusicalEvent(0.0, delta / 480, 60, 90, 0)])
        data = write_smf(score)
        assert ticks(delta / 480, 60.0, 480) == delta
        assert data.count(encode_vlq(MAX_VLQ) + b"\xff\x01\x00") == (delta - 1) // MAX_VLQ
        assert read_smf(data)["tracks"][1] == [
            (0, ("note_on", 0, 60, 90)), (delta, ("note_off", 0, 60, 0)),
            (delta, ("end_of_track",))]

    def test_end_of_track_at_final_event_tick(self):
        notes = [MusicalEvent(0.0, 2.0, 60, 90, 0)]
        parsed = read_smf(write_smf(make_score(notes)))
        events = parsed["tracks"][1]
        assert events[-1][1] == ("end_of_track",)
        assert events[-1][0] == max(tick for tick, _ in events)


note_strategy = st.builds(
    MusicalEvent,
    onset_s=st.floats(0.0, 20.0, allow_nan=False),
    duration_s=st.floats(0.0, 3.0, allow_nan=False),
    pitch=st.integers(0, 127),
    velocity=st.integers(1, 127),
    channel=st.integers(0, 15),
)
control_strategy = st.builds(
    ControlEvent,
    time_s=st.floats(0.0, 20.0, allow_nan=False),
    controller=st.integers(0, 127),
    value=st.integers(0, 127),
    channel=st.integers(0, 15),
)


class TestRoundTrip:
    @given(
        st.lists(note_strategy, max_size=24),
        st.lists(control_strategy, max_size=12),
        st.floats(4.0, 1000.0),
        st.integers(24, 32767),
    )
    # a 600 s held chord at the fastest tempo and finest ppq once failed with
    # "value 3.27681e+08 outside VLQ range"
    @example([MusicalEvent(0.0, 600.0, 60, 90, 0)], [ControlEvent(0.0, 11, 64, 0)],
             1000.0, 32767)
    @settings(max_examples=60, deadline=None)
    def test_parse_reproduces_all_events(self, notes, controls, tempo, ppq):
        score = make_score(notes, controls, tempo, ppq)
        parsed = read_smf(write_smf(score))
        assert parsed["division"] == ppq
        expected = []
        for note in notes:
            on = ticks(note.onset_s, tempo, ppq)
            off = max(ticks(note.onset_s + note.duration_s, tempo, ppq), on + 1)
            expected.append((on, 2, note.pitch, ("note_on", note.channel, note.pitch, note.velocity)))
            expected.append((off, 0, note.pitch, ("note_off", note.channel, note.pitch, 0)))
        for control in controls:
            tick = ticks(control.time_s, tempo, ppq)
            expected.append((tick, 1, control.controller,
                             ("control", control.channel, control.controller, control.value)))
        expected.sort(key=lambda e: (e[0], e[1], e[2]))
        got = parsed["tracks"][1][:-1]  # strip end-of-track
        assert got == [(tick, event) for tick, _, _, event in expected]

    @given(st.lists(note_strategy, max_size=24), st.floats(4.0, 1000.0),
           st.integers(24, 32767))
    # a note shorter than half a tick rounds to end on the tick it starts
    @example([MusicalEvent(1.0, 0.0005, 60, 90, 0)], 60.0, 480)
    @settings(max_examples=60, deadline=None)
    def test_every_note_on_is_closed(self, notes, tempo, ppq):
        # no (channel, pitch) is released more often than it was struck, at
        # any point of the track, and every one ends released
        parsed = read_smf(write_smf(make_score(notes, tempo=tempo, ppq=ppq)))
        open_counts: dict[tuple[int, int], int] = {}
        for _, event in parsed["tracks"][1]:
            if event[0] in ("note_on", "note_off"):
                step = 1 if event[0] == "note_on" else -1
                open_counts[event[1:3]] = open_counts.get(event[1:3], 0) + step
                assert open_counts[event[1:3]] >= 0
        assert all(count == 0 for count in open_counts.values())

    def test_tempo_track_round_trips(self):
        parsed = read_smf(write_smf(make_score(tempo=60.0)))
        assert parsed["tracks"][0] == [
            (0, ("tempo", 1_000_000)),
            (0, ("end_of_track",)),
        ]


class TestReaderStrictness:
    def test_missing_header_rejected(self):
        with pytest.raises(MidiFormatError):
            read_smf(b"RIFF" + bytes(20))

    # each cut once ended in struct.error or IndexError
    @pytest.mark.parametrize("data", [
        b"MThd" + struct.pack(">I", 6),
        EMPTY_HEADER + b"MTrk\x00\x00",
        EMPTY_HEADER + b"MTrk" + struct.pack(">I", 2) + b"\x00\xff",
        EMPTY_HEADER + b"MTrk" + struct.pack(">I", 4) + b"\x00\xff\x51\x03",
    ], ids=["header", "track length", "meta type", "meta payload"])
    def test_truncation_rejected(self, data):
        with pytest.raises(MidiFormatError, match="^truncated"):
            read_smf(data)

    # one minimal file or track for each fault of the reader
    @pytest.mark.parametrize("data, message", [
        (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480), "unsupported format 0"),
        (b"\x81", "truncated variable-length quantity"),
        (b"\x81\x81\x81\x81\x00", "variable-length quantity longer than 4 bytes"),
        (b"\x00", "truncated event"),
        (b"\x00\xff\x2f\x00\x00", "data after end-of-track"),
        (b"\x00\x90\x3c", "truncated channel event"),
        (b"MThd" + struct.pack(">IHHH", 6, 1, 1, 480) + b"MTrx" + struct.pack(">I", 0),
         "missing MTrk chunk at byte 14"),
    ], ids=["format 0", "vlq cut after 0x81", "five-byte vlq", "delta without event",
            "byte after end-of-track", "note-on cut after its pitch", "misnamed track"])
    def test_each_fault_names_itself(self, data, message):
        if not data.startswith(b"MThd"):
            data = (b"MThd" + struct.pack(">IHHH", 6, 1, 1, 480)
                    + b"MTrk" + struct.pack(">I", len(data)) + data)
        with pytest.raises(MidiFormatError, match="^%s$" % message):
            read_smf(data)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MidiFormatError):
            read_smf(write_smf(make_score()) + b"\x00")

    def test_running_status_rejected(self):
        # two notes-on sharing one status byte: delta 00 then data without status
        payload = bytes.fromhex("00903c64 003e64 00ff2f00".replace(" ", ""))
        data = (
            EMPTY_HEADER
            + TEMPO_TRACK
            + b"MTrk" + struct.pack(">I", len(payload)) + payload
        )
        with pytest.raises(MidiFormatError):
            read_smf(data)

    def test_missing_end_of_track_rejected(self):
        payload = bytes.fromhex("00903c64")
        data = (
            EMPTY_HEADER
            + TEMPO_TRACK
            + b"MTrk" + struct.pack(">I", len(payload)) + payload
        )
        with pytest.raises(MidiFormatError):
            read_smf(data)

    def test_foreign_meta_rejected(self):
        payload = bytes.fromhex("00ff0105416263646500ff2f00")  # text meta
        data = (
            EMPTY_HEADER
            + TEMPO_TRACK
            + b"MTrk" + struct.pack(">I", len(payload)) + payload
        )
        with pytest.raises(MidiFormatError):
            read_smf(data)

    def track(self, payload):
        return (b"MThd" + struct.pack(">IHHH", 6, 1, 1, 480)
                + b"MTrk" + struct.pack(">I", len(payload)) + payload)

    def test_the_reader_takes_exactly_the_channel_events_the_writer_emits(self):
        # 0xA0, a polyphonic key pressure, once read as a control change
        taken = set()
        for status in range(0x80, 0xF0):
            try:
                read_smf(self.track(bytes([0, status, 60, 64]) + bytes.fromhex("00ff2f00")))
                taken.add(status)
            except MidiFormatError as exc:
                assert str(exc) == "unsupported status byte 0x%02X" % status
        assert taken == {status for status in range(0x80, 0xF0)
                         if status & 0xF0 in (0x80, 0x90, 0xB0)}

    def test_the_reader_takes_exactly_the_meta_events_the_writer_emits(self):
        # each at the payload length the writer gives it, and at one more
        taken = set()
        for meta in range(0x80):
            for size in (0, 1, 3, 4):
                event = bytes([0, 0xFF, meta, size]) + bytes(size)
                try:
                    read_smf(self.track(event if meta == 0x2F else
                                        event + bytes.fromhex("00ff2f00")))
                    taken.add((meta, size))
                except MidiFormatError as exc:
                    assert str(exc) == "unsupported meta event 0x%02X" % meta
        assert taken == {(0x01, 0), (0x2F, 0), (0x51, 3)}

    def test_the_writer_emits_the_events_the_reader_takes(self):
        # each channel's note-on, note-off and control, a text event that
        # carries a delta past MAX_VLQ, the tempo and end-of-track
        notes = [MusicalEvent(0.0, 1.0, 60, 100, ch) for ch in range(16)]
        notes.append(MusicalEvent(0.0, 2 * MAX_VLQ / 480, 61, 100, 0))
        data = write_smf(make_score(notes, [ControlEvent(0.0, 11, 64, ch) for ch in range(16)]))
        for ch in range(16):
            for event in ([0x90 | ch, 60, 100], [0x80 | ch, 60, 0], [0xB0 | ch, 11, 64]):
                assert bytes(event) in data
        for meta in (b"\xff\x01\x00", b"\xff\x51\x03", b"\xff\x2f\x00"):
            assert meta in data


def _parent_write_smf(score):
    """The writer as it was before one pair of tables held the event grammar:
    the oracle the writer's bytes are held to."""
    ppq = score.ppq
    tempo_us = round_half_up(60_000_000.0 / score.tempo_bpm)
    header = b"MThd" + struct.pack(">IHHH", 6, 1, 2, ppq)
    tempo_track = b"\x00\xff\x51\x03" + tempo_us.to_bytes(3, "big") + b"\x00\xff\x2f\x00"
    events = []
    for note in score.notes:
        on = ticks(note.onset_s, score.tempo_bpm, ppq)
        off = max(ticks(note.onset_s + note.duration_s, score.tempo_bpm, ppq), on + 1)
        events.append((on, 2, note.pitch, bytes([0x90 | (note.channel & 0x0F), note.pitch,
                                                 note.velocity])))
        events.append((off, 0, note.pitch, bytes([0x80 | (note.channel & 0x0F), note.pitch, 0])))
    for control in score.controls:
        tick = ticks(control.time_s, score.tempo_bpm, ppq)
        events.append((tick, 1, control.controller,
                       bytes([0xB0 | (control.channel & 0x0F), control.controller, control.value])))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    parts = []
    cursor = 0
    for tick, _, _, payload in events:
        delta = tick - cursor
        while delta > MAX_VLQ:
            parts.append(encode_vlq(MAX_VLQ) + b"\xff\x01\x00")
            delta -= MAX_VLQ
        parts.append(encode_vlq(delta))
        parts.append(payload)
        cursor = tick
    parts.append(b"\x00\xff\x2f\x00")
    note_track = b"".join(parts)

    def chunk(payload):
        return b"MTrk" + struct.pack(">I", len(payload)) + payload

    return header + chunk(tempo_track) + chunk(note_track)


# onsets up to 3,000 s, past MAX_VLQ ticks at the fastest clock; durations
# under a millisecond, shorter than half a tick at all but the fastest
differential_notes = st.builds(
    MusicalEvent,
    onset_s=st.floats(0.0, 20.0) | st.floats(0.0, 3000.0),
    duration_s=st.floats(0.0, 3.0) | st.floats(0.0, 0.001),
    pitch=st.integers(0, 127),
    velocity=st.integers(1, 127),
    channel=st.integers(0, 15),
)


class TestWriterMatchesTheGrammarWrittenOut:
    @given(st.lists(differential_notes, max_size=24), st.lists(control_strategy, max_size=10),
           st.sampled_from([4.0, 1000.0]) | st.floats(4.0, 1000.0),
           st.sampled_from([24, 32767]) | st.integers(24, 32767))
    @example([MusicalEvent(0.0, 0.1, 60, 90, 0), MusicalEvent(3000.0, 1.0, 62, 90, 0)], [],
             1000.0, 32767)
    @settings(max_examples=100, deadline=None)
    def test_same_bytes(self, notes, controls, tempo, ppq):
        score = make_score(notes, controls, tempo, ppq)
        assert write_smf(score) == _parent_write_smf(score)
