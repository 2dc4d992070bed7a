"""Seeded inputs for the benchmark workloads, and the ground truth to check against.

- ``film90``: the 90 s 640x480 ``Cmono`` Y4M acceptance film, built exactly
  like the ``film_path`` fixture of ``tests/test_acceptance.py``.  It is the
  README's reference film, so ``--seed`` does not change it; its SHA-256 is
  pinned in ``FILM90_SHA256`` so that drift of this copy shows.
- ``rgb_channels``: headerless 640x480 RGB24 footage plus a JSON sidecar.
  Each frame is a seeded tinted level with seeded uniform texture on top.
- ``curve_long``: a 24 fps ``curves.csv`` of 8-bit quantized plateaus, ramps,
  rising steps and attack-decays.  A fixed set of pieces, each with a fixed
  length and shape, keeps the analysis cost the same across seeds; the
  seed's variant (``seed % CURVE_VARIANTS``) orders the pieces and draws
  their levels.

Every generator writes its files and returns an ``Input`` that carries the
facts a correct program must reproduce.  For film90 and every curve_long
variant that includes the SHA-256 of each artifact, pinned from the seed
code, so that any change to the output bytes fails the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lumascore.composition import SplitMix64

FILM90_SHA256 = "5137debc0f7595fd6998d5080c4b0607b1de1e9974825eaba5da734269a3b25a"
FILM90_ARTIFACTS = {
    "analysis.json": "cccdcd717562ce710d75e87c7716805f18c69d429801516b47d02e9952d5aa52",
    "curves.csv": "22e0b0163360a9789dda3855dc98edbbb79bcab530903516bb8d6dbbd6c96284",
    "plot.svg": "0784959e1d441914cd22c13c54b57142161da591f551b3321103b76e53655a63",
    "score.mid": "0021b160c0907bc0386671f62095d8412a9e5dbb5349c15851393337d778163a",
}
FILM90_SECONDS = 90
FILM_FPS, FILM_W, FILM_H = 24, 640, 480
# film90 cuts whose brightness jumps by at least 0.2
FILM90_JUMPS_S = (10.0, 42.0, 58.0, 62.0)

RGB_W, RGB_H, RGB_FPS = 640, 480, 24
RGB_SECONDS = 8
RGB_CHANNELS = ("luma", "red", "green", "blue", "contrast_rms", "contrast_spread")

CURVE_FPS = 24
# (kind, seconds, shape): shape is the rise of a ramp, the number of levels
# of rising steps, and the time constant in seconds of a decay.  The variant
# shuffles this list and draws where each piece starts.
CURVE_PIECES = (
    ("plateau", 75, None), ("ramp", 60, 0.5), ("steps", 45, 3), ("decay", 30, 4.0),
    ("plateau", 25, None), ("steps", 65, 5), ("ramp", 20, -0.4), ("decay", 40, 6.0),
)
CURVE_VARIANTS = 8
# variant -> artifact SHA-256s of the seed code
CURVE_LONG_ARTIFACTS = {
    0: {
        "analysis.json": "cecf08fc899a5c0c1f888c2a3ccb5542212cbcd19491fa0c8019f26f9ad4b623",
        "plot.svg": "6fe097bb38f9409c142feebfe59d29e8b8e5f632ac804a60a522239a2bacb551",
        "score.mid": "b765971c4a63dbd6cdbecc0ba94a1368d2bf4ded6b6f3db543d2f5020b688bb2",
    },
    1: {
        "analysis.json": "8556f25aadc0dcf0ba5a1c3ab3a9d58c37b5d2e0c12eb5ff1cd739fad5613e6d",
        "plot.svg": "29cbbf11354af838c13bf7f115a50a10c6e4eb10391c6916dad30bb8f41e507f",
        "score.mid": "010bef10a8d312f8952e6977b925eba4b4bb97ce391cb31ae1e44989fd8183f0",
    },
    2: {
        "analysis.json": "0f0dd87aef0a216439ce19db490958789cf56ed764ff197d07b513f5bbcdaa3d",
        "plot.svg": "963d730a0602390d83eafa7a014dd25b9082dd03137c6252707f1d23777c4e25",
        "score.mid": "2055b1b434e8c636040ad315e0033355a0b30cdab5fee16e7ec30014eddadaac",
    },
    3: {
        "analysis.json": "1e44539661f54f439ae3d8932c821288340ace13333b2c2411c040c7bb5664c3",
        "plot.svg": "89d2469e4c87ba14d86b4642d505bf6b242c2383fbb746ad8cd9480db603a3a9",
        "score.mid": "0faae882db7e3fcc4f5bdc877d624fb17055d20582dcb8a699e1941353eb8dbe",
    },
    4: {
        "analysis.json": "857955c3800833293daebd92cd05f2e68c7077c48ae3c6f07b625bc0e5547583",
        "plot.svg": "166d6f889296b6408cc3a8407e40731bf90b38722a2b1af6dc227fe08df43bf3",
        "score.mid": "dd9f554e4490304848cdb2afb3ce2e603b9547f3cdefe4fcf21ab2b203833e3c",
    },
    5: {
        "analysis.json": "69d106c43057bf4ab3a2bd335d3d4dc119a355937bed564cd680679c51c6096e",
        "plot.svg": "749485f1c730d84af4546518b30e1dd069100f8f5163eb8dc5cd33200d1a6a5d",
        "score.mid": "56842cd23d26906724dfb97fb31372e8c87d903ec6d0e2e017772419700c6cf5",
    },
    6: {
        "analysis.json": "d033866064a0eab51adab6fcc0fd63a42947daad6cee3d921224305877bd18e2",
        "plot.svg": "02ec741f0fe89be2b46b08cbd5b931fcfc0b1eb7891016724758998bc0d086e1",
        "score.mid": "f2a008ea7a7389cca669bcff866ebdc7b1d055fcc3a5d6087bf873d22145abc4",
    },
    7: {
        "analysis.json": "f207aaf1767c6d74fecbce7df423726bf61f2c3c954e789331cf8ecf504fe0e2",
        "plot.svg": "f416ea93f2b0a4d4b5536632e0f10a59a9223f1714fa1a25073651c33de6d457",
        "score.mid": "6d5de6093d335d4a33fcac25ca3ec0b85768bb184e480e57c969feaa139cae9d",
    },
}
MIN_JUMP = 0.2

# six-decimal CSV rounding plus float noise
CSV_TOLERANCE = 1e-6
# one segmentation block at the default 0.5 s minimum segment length
BOUNDARY_TOLERANCE_S = 0.5
ARTIFACTS = {
    "film90": ("analysis.json", "curves.csv", "plot.svg", "score.mid"),
    "rgb_channels": ("curves.csv",),
    "curve_long": ("analysis.json", "plot.svg", "score.mid"),
}


@dataclass
class Input:
    """A generated input: the path the program reads and what it must yield."""

    path: Path
    duration_s: float
    fps: int
    bytes: int
    sha256: str
    # per-column values the extracted curves must carry (before CSV rounding)
    expected_columns: dict[str, np.ndarray] = field(default_factory=dict)
    # times where the brightness jumps; analysis must put a boundary near each
    jumps_s: tuple[float, ...] = ()
    # artifact name -> the SHA-256 a correct run gives, where pinned
    digests: dict[str, str] | None = None


def unit_noise(seed: int, n: int) -> np.ndarray:
    rng = SplitMix64(seed)
    return np.array([rng.next_unit() for _ in range(n)])


def film90_values() -> np.ndarray:
    """Per-frame 8-bit gray levels of the acceptance film."""
    fps = FILM_FPS
    n = FILM90_SECONDS * fps
    means = np.empty(n)

    def span(t0, t1):
        return slice(int(t0 * fps), int(t1 * fps))

    means[span(0, 10)] = 0.20
    means[span(10, 18)] = 0.85
    t = np.arange(12 * fps) / fps
    means[span(18, 30)] = 0.15 + 0.70 * np.exp(-t / 3.0)
    means[span(30, 42)] = np.linspace(0.15, 0.80, 12 * fps)
    ramp = np.linspace(0.30, 0.75, 12 * fps)
    jitter = (unit_noise(501, 12 * fps) - 0.5) * 0.18
    means[span(42, 54)] = np.clip(ramp + jitter, 0.0, 1.0)
    means[span(54, 58)] = 0.70
    means[span(58, 62)] = 0.50
    means[span(62, 66)] = 0.30
    means[span(66, 78)] = 0.2 + 0.6 * unit_noise(502, 12 * fps)
    means[span(78, 90)] = np.linspace(0.80, 0.10, 12 * fps)
    return np.clip(np.floor(means * 255.0 + 0.5), 0, 255).astype(np.uint8)


def gray_y4m_chunks(values: np.ndarray, width: int, height: int, fps: int):
    """Header and frames of a ``Cmono`` Y4M whose frame k is flat at values[k]."""
    yield b"YUV4MPEG2 W%d H%d F%d:1 Ip A1:1 Cmono\n" % (width, height, fps)
    for v in values:
        yield b"FRAME\n" + bytes([int(v)]) * (width * height)


def write_chunks(path: Path, chunks) -> str:
    """Write ``chunks`` to ``path`` and sync it; returns their SHA-256.

    The sync keeps write-back of a fresh input from competing with the
    measured runs for the processors."""
    digest = hashlib.sha256()
    with open(path, "wb") as out:
        for chunk in chunks:
            out.write(chunk)
            digest.update(chunk)
        out.flush()
        os.fsync(out.fileno())
    return digest.hexdigest()


def film90(path: Path) -> Input:
    """Write the acceptance film to ``path``."""
    values = film90_values()
    sha = write_chunks(path, gray_y4m_chunks(values, FILM_W, FILM_H, FILM_FPS))
    return Input(path, float(FILM90_SECONDS), FILM_FPS, path.stat().st_size, sha,
                 {"luma": values / 255.0}, FILM90_JUMPS_S, FILM90_ARTIFACTS)


_REC601 = np.array([0.299, 0.587, 0.114]) / 255.0


def _frame_truth(frame: np.ndarray) -> tuple[float, ...]:
    """The six channel values of one HxWx3 frame, computed per pixel."""
    luma = frame.reshape(-1, 3).astype(np.float64) @ _REC601
    n = len(luma)
    lo, hi = (5 * n + 99) // 100 - 1, (95 * n + 99) // 100 - 1
    ranked = np.partition(luma, (lo, hi))
    red, green, blue = (int(frame[..., c].sum(dtype=np.int64)) / (255.0 * n) for c in range(3))
    return (float(luma.mean()), red, green, blue,
            float(luma.std()), float(ranked[hi] - ranked[lo]))


def rgb_channels(path: Path, seed: int, seconds: int = RGB_SECONDS) -> Input:
    """Write RGB24 footage and its sidecar; levels cut every 1-3 s."""
    rng = np.random.default_rng(seed)
    n = seconds * RGB_FPS
    truth = np.empty((n, len(RGB_CHANNELS)))

    def frames():
        level = 0.5
        next_cut = 0
        for k in range(n):
            if k == next_cut:
                level = rng.uniform(0.15, 0.85)
                tint = rng.uniform(0.7, 1.0, size=3)
                amp = int(rng.integers(8, 96))
                next_cut += int(rng.integers(RGB_FPS, 3 * RGB_FPS))
            level = min(0.9, max(0.1, level + rng.normal(0.0, 0.01)))
            texture = rng.integers(-amp, amp + 1, size=(RGB_H, RGB_W, 3), dtype=np.int16)
            base = np.round(level * 255.0 * tint).astype(np.int16)
            frame = np.clip(base + texture, 0, 255).astype(np.uint8)
            truth[k] = _frame_truth(frame)
            yield frame.tobytes()

    sha = write_chunks(path, frames())
    sidecar = json.dumps({"width": RGB_W, "height": RGB_H, "fps_num": RGB_FPS, "fps_den": 1})
    Path(str(path) + ".json").write_text(sidecar)
    columns = {name: truth[:, i] for i, name in enumerate(RGB_CHANNELS)}
    return Input(path, n / RGB_FPS, RGB_FPS, path.stat().st_size + len(sidecar), sha, columns)


def _start(rng: SplitMix64, previous: float, lo: float, hi: float) -> tuple[float, bool]:
    """A draw in [lo, hi], and whether it jumps at least MIN_JUMP from
    ``previous``; it does whenever [lo, hi] reaches that far."""
    if lo > previous - MIN_JUMP and hi < previous + MIN_JUMP:
        return lo + (hi - lo) * rng.next_unit(), False
    while True:
        value = lo + (hi - lo) * rng.next_unit()
        if abs(value - previous) >= MIN_JUMP:
            return value, True


def curve_long_values(seed: int, pieces=CURVE_PIECES) -> tuple[np.ndarray, tuple[float, ...]]:
    """Quantized 24 fps curve values of the seed's variant, as the CSV
    carries them, and the times where one piece jumps to the next."""
    rng = SplitMix64(seed % CURVE_VARIANTS)
    pieces = list(pieces)
    for i in range(len(pieces) - 1, 0, -1):
        j = int(rng.next_unit() * (i + 1))
        pieces[i], pieces[j] = pieces[j], pieces[i]
    parts = []
    jumps = []
    previous = -1.0
    elapsed = 0
    for kind, seconds, shape in pieces:
        n = seconds * CURVE_FPS
        if kind == "plateau":
            start, jumped = _start(rng, previous, 0.1, 0.9)
            piece = np.full(n, start)
        elif kind == "ramp":
            start, jumped = _start(rng, previous, max(0.05, 0.05 - shape), min(0.95, 0.95 - shape))
            piece = np.linspace(start, start + shape, n)
        elif kind == "steps":
            start, jumped = _start(rng, previous, 0.05, 0.5)
            piece = np.repeat(np.linspace(start, start + 0.45, shape), -(-n // shape))[:n]
        else:
            start, jumped = _start(rng, previous, 0.55, 0.7)
            piece = start - 0.5 + 0.5 * np.exp(-np.arange(n) / CURVE_FPS / shape)
        if elapsed and jumped:
            jumps.append(float(elapsed))
        parts.append(piece)
        previous = float(piece[-1])
        elapsed += seconds
    codes = np.floor(np.concatenate(parts) * 255.0 + 0.5)
    values = np.array([float("%.6f" % (code / 255.0)) for code in codes])
    return values, tuple(jumps)


def curve_long(path: Path, seed: int, pieces=CURVE_PIECES) -> Input:
    """Write the seed's variant of the curve; its artifacts are pinned for
    the benchmark's own pieces."""
    values, jumps = curve_long_values(seed, pieces)
    lines = ["time_s,luma"] + ["%.6f,%.6f" % (i / CURVE_FPS, v) for i, v in enumerate(values)]
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    digests = CURVE_LONG_ARTIFACTS[seed % CURVE_VARIANTS] if pieces == CURVE_PIECES else None
    return Input(path, len(values) / CURVE_FPS, CURVE_FPS, len(data),
                 hashlib.sha256(data).hexdigest(), {"luma": values}, jumps, digests)


def generate(name: str, workdir: Path, seed: int) -> Input:
    """Build the input of workload ``name`` under ``workdir``."""
    if name == "film90":
        return film90(workdir / "film90.y4m")
    if name == "rgb_channels":
        return rgb_channels(workdir / ("rgb-%d.rgb" % seed), seed)
    if name == "curve_long":
        return curve_long(workdir / ("curves-%d.csv" % seed), seed)
    raise ValueError("unknown workload %r" % name)


def check(workload: str, inp: Input, artifacts: dict[str, bytes]) -> list[str]:
    """What is wrong with one run's artifacts, judged against the input's truth."""
    if tuple(sorted(artifacts)) != ARTIFACTS[workload]:
        return ["artifacts %s, expected %s" % (sorted(artifacts), list(ARTIFACTS[workload]))]
    checks = {"curves.csv": lambda data: _check_csv(inp, data),
              "analysis.json": lambda data: _check_report(inp, data),
              "score.mid": _check_smf,
              "plot.svg": _check_svg}
    problems = []
    for name, data in sorted(artifacts.items()):
        problems.extend("%s: %s" % (name, p) for p in checks[name](data))
        if inp.digests is not None and hashlib.sha256(data).hexdigest() != inp.digests[name]:
            problems.append("%s: bytes differ from the pinned SHA-256 %s"
                            % (name, inp.digests[name]))
    return problems


def _check_csv(inp: Input, data: bytes) -> list[str]:
    lines = data.decode("ascii").splitlines()
    if lines[0].split(",") != ["time_s", *inp.expected_columns]:
        return ["header %r" % lines[0]]
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    n = len(next(iter(inp.expected_columns.values())))
    if table.shape != (n, 1 + len(inp.expected_columns)):
        return ["shape %s, expected %d rows" % (table.shape, n)]
    expected = [np.arange(n) / inp.fps, *inp.expected_columns.values()]
    problems = []
    for i, (name, column) in enumerate(zip(lines[0].split(","), expected)):
        error = np.abs(table[:, i] - column)
        if error.max() > CSV_TOLERANCE:
            row = int(error.argmax())
            problems.append("%s row %d is %r, expected %r"
                            % (name, row, table[row, i], column[row]))
    return problems


def _check_report(inp: Input, data: bytes) -> list[str]:
    doc = json.loads(data)
    rate = doc["rate_hz"]
    segments = doc["segments"]
    samples = len(doc["channels"][0]["values"])
    edges = [seg["start_s"] for seg in segments] + [segments[-1]["end_s"]]
    problems = []
    if edges[0] != 0.0 or abs(edges[-1] * rate - samples) > 1e-6:
        problems.append("segments span %g..%g s of %d samples" % (edges[0], edges[-1], samples))
    if any(seg["end_s"] != after["start_s"] for seg, after in zip(segments, segments[1:])):
        problems.append("segments are not contiguous")
    for jump in inp.jumps_s:
        if min(abs(t - jump) for t in edges) > BOUNDARY_TOLERANCE_S:
            problems.append("no boundary within %g s of the cut at %g s"
                            % (BOUNDARY_TOLERANCE_S, jump))
    return problems


def _check_smf(data: bytes) -> list[str]:
    if data[:4] != b"MThd" or len(data) < 14:
        return ["no MThd header"]
    length, _, tracks, _ = struct.unpack(">IHHH", data[4:14])
    pos = 8 + length
    found = 0
    while pos + 8 <= len(data) and data[pos:pos + 4] == b"MTrk":
        size = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        if not data[pos + 8:pos + 8 + size].endswith(b"\xff\x2f\x00"):
            return ["track %d has no end-of-track event" % found]
        found += 1
        pos += 8 + size
    if pos != len(data) or found != tracks:
        return ["%d of %d tracks parse, %d of %d bytes" % (found, tracks, pos, len(data))]
    return []


def _check_svg(data: bytes) -> list[str]:
    root = ElementTree.fromstring(data)
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != ns + "svg" or root.find(ns + "polyline") is None:
        return ["no svg root with a polyline"]
    return []
