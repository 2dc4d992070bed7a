"""Shape classification of curve segments and mapping to playing archetypes.

Each segment is tested against three envelope families (line, exponential,
optimal staircase); the winner under BIC, together with transient presence
and a granularity measure, picks one of eight musical archetypes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .curveprep import ROUGHNESS_SCALE, residual_rms
from .segmentation import Segment

BIC_EPS = 1e-12
RRMSE_RANGE_FLOOR = 0.05
TAU_GRID_LO = 1.0 / 50.0  # grid bounds as fractions of the body duration
TAU_GRID_HI = 5.0
STAIRCASE_BLOCK = 64  # piece ends per cost block of the staircase DP
STAIRCASE_MAX_LEVELS = 6
MOTIF_EPSILON = 0.25  # feature distance within which a gesture joins a motif


class ShapeKind(Enum):
    LINEAR_RISE = "linear_rise"
    LINEAR_DECAY = "linear_decay"
    EXPONENTIAL_RISE = "exponential_rise"
    EXPONENTIAL_DECAY = "exponential_decay"
    PLATEAU = "plateau"
    STAIRCASE = "staircase"
    CHAOTIC = "chaotic"


class Archetype(Enum):
    CHORD_RESONANCE = "chord_resonance"
    CHORD_ARPEGGIO = "chord_arpeggio"
    CHORD_HELD = "chord_held"
    ARPEGGIO_DETACHED = "arpeggio_detached"
    TREMOLO_SCRATCH = "tremolo_scratch"
    GRANULAR_TEXTURE = "granular_texture"
    CRESCENDO_HELD = "crescendo_held"
    DIMINUENDO_HELD = "diminuendo_held"


@dataclass(frozen=True)
class TransientInfo:
    onset_idx: int
    amplitude: float


@dataclass(frozen=True)
class LinearFit:
    intercept: float
    slope_per_s: float
    sse: float


@dataclass(frozen=True)
class ExpFit:
    """Least squares fit of offset + scale * exp(-t / tau_s)."""

    offset: float
    scale: float
    tau_s: float = field(metadata={"range": "(0, inf)"})
    sse: float
    degenerate: bool = False


@dataclass(frozen=True)
class StaircaseFit:
    levels: tuple[float, ...]
    # measured from the start of the body the staircase was fitted to
    step_times_s: tuple[float, ...] = field(metadata={"items": "(0, inf)", "increasing": True})
    sse: float


FitRecord = LinearFit | ExpFit | StaircaseFit


@dataclass
class ClassifyParams:
    """Classification thresholds, each with the range a config may set."""

    flat: float = field(default=0.03, metadata={"range": "(0, 1)"})
    transient: float = field(default=0.15, metadata={"range": "(0, 1)"})
    transient_window_s: float = field(default=0.2, metadata={"range": "(0, inf)"})
    granular: float = field(default=0.4, metadata={"range": "(0, 1)"})
    chaotic_rough: float = field(default=0.6, metadata={"range": "(0, 1)"})
    fit_rrmse: float = field(default=0.35, metadata={"range": "(0, 1)"})


@dataclass
class Gesture:
    segment: Segment
    kind: ShapeKind
    transient: TransientInfo | None
    granularity: float
    fit: FitRecord
    mean_brightness: float
    archetype: Archetype
    motif_id: int | None = None


def detect_transient(samples: np.ndarray, rate: float, params: ClassifyParams) -> TransientInfo | None:
    """Report a sharp initial rise within the opening window, if any."""
    y = np.asarray(samples, dtype=np.float64)
    if len(y) < 2:
        return None
    # the window is capped before it is made an integer, so a huge one fits
    window = min(len(y), math.floor(min(params.transient_window_s * rate + 1e-9, len(y))) + 1)
    head = y[:window]
    onset = int(np.argmax(head))
    rise = float(head[onset] - y[0])
    if rise >= params.transient:
        return TransientInfo(onset, rise)
    return None


def body_start(n: int, transient: TransientInfo | None) -> int:
    """Where the body of an `n`-sample segment starts: after its transient, if
    that leaves two samples, else at its start."""
    if transient is not None and n - (transient.onset_idx + 1) >= 2:
        return transient.onset_idx + 1
    return 0


def fit_linear(samples: np.ndarray, rate: float) -> LinearFit:
    y = np.asarray(samples, dtype=np.float64)
    n = len(y)
    if n < 2:
        raise ValueError("linear fit needs at least 2 samples")
    if np.ptp(y) == 0.0:
        # a constant is its own fit; the normal equations would round it
        return LinearFit(float(y[0]), 0.0, 0.0)
    t = np.arange(n, dtype=np.float64) / rate
    tm = t.mean()
    ym = y.mean()
    vtt = float(((t - tm) ** 2).sum())
    slope = float(((t - tm) * (y - ym)).sum()) / vtt if vtt > 0 else 0.0
    intercept = ym - slope * tm
    resid = y - intercept - slope * t
    return LinearFit(intercept, slope, float((resid * resid).sum()))


def make_tau_grid(duration_s: float, size: int = 64) -> np.ndarray:
    """Log-spaced decay-time candidates spanning [T/50, 5T]."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return np.geomspace(duration_s * TAU_GRID_LO, duration_s * TAU_GRID_HI, size)


def fit_exponential(samples: np.ndarray, rate: float, tau_grid: np.ndarray | None = None) -> ExpFit:
    """Grid search over tau with a closed-form solve for offset and scale.

    Constant input leaves tau unidentifiable; the fit then degrades to the
    straight-line solution and is flagged so model selection can skip it.
    """
    y = np.asarray(samples, dtype=np.float64)
    n = len(y)
    if n < 3:
        raise ValueError("exponential fit needs at least 3 samples")
    if tau_grid is None:
        tau_grid = make_tau_grid((n - 1) / rate)
    if float(y.max() - y.min()) < 1e-12:
        return _degenerate_exp(y, rate, tau_grid)
    t = np.arange(n, dtype=np.float64) / rate
    basis = np.exp(-t[None, :] / np.asarray(tau_grid)[:, None])
    spans = basis.max(axis=1) - basis.min(axis=1)
    se = basis.sum(axis=1)
    see = (basis * basis).sum(axis=1)
    sy = float(y.sum())
    sey = basis @ y
    det = n * see - se * se
    usable = (spans > 1e-12) & (det > 1e-12)
    if not bool(usable.any()):
        return _degenerate_exp(y, rate, tau_grid)
    scale = np.where(usable, (n * sey - se * sy) / np.where(usable, det, 1.0), 0.0)
    offset = (sy - scale * se) / n
    resid = y[None, :] - offset[:, None] - scale[:, None] * basis
    sse = (resid * resid).sum(axis=1)
    sse = np.where(usable, sse, np.inf)
    best = int(np.argmin(sse))  # first minimum, so ties pick the smallest tau
    return ExpFit(float(offset[best]), float(scale[best]), float(tau_grid[best]),
                  float(sse[best]))


def _degenerate_exp(y: np.ndarray, rate: float, tau_grid: np.ndarray) -> ExpFit:
    linear = fit_linear(y, rate)
    return ExpFit(linear.intercept, 0.0, float(tau_grid[0]), linear.sse, degenerate=True)


def fit_staircase(samples: np.ndarray, rate: float,
                  max_levels: int = STAIRCASE_MAX_LEVELS) -> StaircaseFit:
    """Exact optimal piecewise-constant fit, level count chosen by BIC."""
    y = np.asarray(samples, dtype=np.float64)
    n = len(y)
    if n < 2 * max_levels:
        raise ValueError("staircase fit needs at least %d samples" % (2 * max_levels))
    cy = np.concatenate(([0.0], np.cumsum(y)))
    cyy = np.concatenate(([0.0], np.cumsum(y * y)))
    pos = np.arange(n + 1, dtype=np.float64)

    # dp[k][j]: best cost of splitting y[:j] into k constant pieces
    dp = np.full((max_levels + 1, n + 1), np.inf)
    back = np.zeros((max_levels + 1, n + 1), dtype=np.int64)
    dp[1][1:] = np.maximum(0.0, cyy[1:] - cy[1:] * cy[1:] / pos[1:])
    # the ends j of the last piece go in blocks of STAIRCASE_BLOCK; a block
    # holds the cost of every piece y[i:j], one row per end j and one column
    # per start i >= 1, and serves every level count
    for j0 in range(2, n + 1, STAIRCASE_BLOCK):
        j1 = min(j0 + STAIRCASE_BLOCK, n + 1)
        length = pos[j0:j1, None] - pos[None, 1:j1 - 1]
        s = cy[j0:j1, None] - cy[None, 1:j1 - 1]
        cost = cyy[j0:j1, None] - cyy[None, 1:j1 - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(s, s, out=s)
            np.divide(s, length, out=s)
        np.subtract(cost, s, out=cost)
        np.maximum(0.0, cost, out=cost)
        # empty and reversed pieces (i >= j) all start at i >= j0
        cost[:, j0 - 1:][length[:, j0 - 1:] <= 0] = np.inf
        rows = np.arange(j1 - j0)
        for k in range(2, max_levels + 1):
            # starts i run from k - 1, so ends j < k see only +inf and stay
            # infeasible; s is free scratch space by now
            cand = np.add(dp[k - 1][k - 1:j1 - 1], cost[:, k - 2:], out=s[:, k - 2:])
            pick = np.argmin(cand, axis=1)  # first minimum, as a scan would
            dp[k][j0:j1] = cand[rows, pick]
            back[k][j0:j1] = pick + (k - 1)
    # the first of equal scores wins, so ties keep the fewer levels
    best_m = min(range(2, max_levels + 1), key=lambda m: _bic(dp[m][n], n, 2 * m - 1))
    edges = [n]
    j = n
    for k in range(best_m, 1, -1):
        j = int(back[k][j])
        edges.append(j)
    edges.append(0)
    edges.reverse()
    # report levels and error from the chosen pieces directly; the running
    # sums used for the search carry more rounding than a zero-error fit
    levels = []
    sse = 0.0
    for a, b in zip(edges, edges[1:]):
        piece = y[a:b]
        mean = float(piece.mean())
        levels.append(mean)
        sse += float(((piece - mean) ** 2).sum())
    step_times = tuple(e / rate for e in edges[1:-1])
    return StaircaseFit(tuple(levels), step_times, sse)


def _bic(sse: float, n: int, k: int) -> float:
    return n * math.log(sse / n + BIC_EPS) + k * math.log(n)


def _is_rising(levels: tuple[float, ...]) -> bool:
    return all(b >= a for a, b in zip(levels, levels[1:]))


def _kind_of(fit: FitRecord) -> ShapeKind:
    if isinstance(fit, LinearFit):
        return ShapeKind.LINEAR_RISE if fit.slope_per_s >= 0 else ShapeKind.LINEAR_DECAY
    if isinstance(fit, ExpFit):
        # y = offset + scale * exp(-t/tau) rises exactly when scale < 0
        return ShapeKind.EXPONENTIAL_RISE if fit.scale < 0 else ShapeKind.EXPONENTIAL_DECAY
    return ShapeKind.STAIRCASE


def classify(
    smoothed: np.ndarray,
    raw: np.ndarray,
    rate: float,
    params: ClassifyParams | None = None,
    segment: Segment | None = None,
) -> Gesture:
    """Classify one segment given its smoothed and raw sample slices."""
    if params is None:
        params = ClassifyParams()
    smoothed = np.asarray(smoothed, dtype=np.float64)
    raw = np.asarray(raw, dtype=np.float64)
    n = len(smoothed)
    if n < 2:
        raise ValueError("classification needs at least 2 samples")
    if segment is None:
        segment = Segment(0, n)

    transient = detect_transient(smoothed, rate, params)
    start = body_start(n, transient)
    body = smoothed[start:]
    nb = len(body)
    value_range = float(body.max() - body.min())
    # roughness of the sustained body; a transient jump is its own feature
    # and must not read as grain
    resid_rms = residual_rms(raw[start:], smoothed[start:])
    granularity = min(1.0, resid_rms / ROUGHNESS_SCALE)
    # a rough segment is chaotic when its smoothed range fails to clear twice
    # the residual's uniform-equivalent peak-to-peak span (the span saturates
    # with the roughness score, the noise itself does not)
    rough = (granularity > params.chaotic_rough
             and value_range < 2.0 * resid_rms * math.sqrt(12.0))

    linear = fit_linear(body, rate)

    def verdict(candidates: list[tuple[FitRecord, int]]) -> tuple[ShapeKind, FitRecord]:
        """The kind and fit the candidates give: min keeps the first of equal
        BIC scores; chaotic when no template explains the body, or the
        segment is rough; a flat body is a plateau with the line."""
        winner = min(candidates, key=lambda c: _bic(c[0].sse, nb, c[1]))[0]
        rrmse = math.sqrt(winner.sse / nb) / max(value_range, RRMSE_RANGE_FLOOR)
        if rough or rrmse > params.fit_rrmse:
            return ShapeKind.CHAOTIC, winner
        if value_range < params.flat:
            return ShapeKind.PLATEAU, linear
        return _kind_of(winner), winner

    # candidates with their BIC parameter counts, in tie-break order
    candidates: list[tuple[FitRecord, int]] = [(linear, 2)]
    kind, fit = verdict(candidates)
    # a plateau with the line alone stays one, whatever else is fitted: a fit
    # that beats the line's BIC has the larger k log n, so the smaller SSE and
    # an rrmse no larger, which keeps the segment from turning chaotic
    if kind is not ShapeKind.PLATEAU:
        if nb >= 3:
            exp = fit_exponential(body, rate)
            if not exp.degenerate:
                candidates.append((exp, 3))
        if nb >= 2 * STAIRCASE_MAX_LEVELS:
            stair = fit_staircase(body, rate)
            # a non-monotone staircase is not a staircase
            if _is_rising(stair.levels) or _is_rising(stair.levels[::-1]):
                candidates.append((stair, 2 * len(stair.levels) - 1))
        kind, fit = verdict(candidates)

    archetype = _archetype_for(kind, transient, granularity, fit, params)
    return Gesture(
        segment=segment,
        kind=kind,
        transient=transient,
        granularity=granularity,
        fit=fit,
        mean_brightness=float(raw.mean()),
        archetype=archetype,
    )


# the archetypes of a body struck by a transient
_STRUCK = {
    ShapeKind.LINEAR_DECAY: Archetype.CHORD_RESONANCE,
    ShapeKind.EXPONENTIAL_DECAY: Archetype.CHORD_ARPEGGIO,
    ShapeKind.PLATEAU: Archetype.CHORD_HELD,
}


def _archetype_for(
    kind: ShapeKind,
    transient: TransientInfo | None,
    granularity: float,
    fit: FitRecord,
    params: ClassifyParams,
) -> Archetype:
    if kind is ShapeKind.CHAOTIC:
        return Archetype.GRANULAR_TEXTURE
    if transient is not None and kind in _STRUCK:
        return _STRUCK[kind]
    if kind is ShapeKind.STAIRCASE and _is_rising(fit.levels):
        return Archetype.ARPEGGIO_DETACHED
    if kind in (ShapeKind.LINEAR_RISE, ShapeKind.EXPONENTIAL_RISE):
        if granularity >= params.granular:
            return Archetype.TREMOLO_SCRATCH
        return Archetype.CRESCENDO_HELD
    return Archetype.DIMINUENDO_HELD


def _fit_slope(fit: FitRecord, duration_s: float) -> float:
    """Overall per-second trend of the fitted envelope."""
    if isinstance(fit, LinearFit):
        return fit.slope_per_s
    if isinstance(fit, ExpFit):
        return fit.scale * (math.exp(-duration_s / fit.tau_s) - 1.0) / duration_s
    return (fit.levels[-1] - fit.levels[0]) / duration_s


def _features(gesture: Gesture, rate: float) -> tuple[float, ...]:
    duration = (gesture.segment.end_idx - gesture.segment.start_idx) / rate
    slope = _fit_slope(gesture.fit, duration)
    tau = 0.0
    if isinstance(gesture.fit, ExpFit) and gesture.kind in (
        ShapeKind.EXPONENTIAL_RISE, ShapeKind.EXPONENTIAL_DECAY
    ):
        tau = min(1.0, gesture.fit.tau_s / duration)
    return (math.copysign(min(1.0, abs(slope) * duration), slope), tau, gesture.granularity,
            0.0 if gesture.transient is None else gesture.transient.amplitude,
            math.log(duration) / math.log(60.0))


def assign_motifs(gestures: list[Gesture], rate: float) -> None:
    """Greedy online clustering of gestures into recurring motifs.

    A gesture joins the earliest motif of the same kind whose first member
    lies within MOTIF_EPSILON of it in feature space; otherwise it founds a new
    motif.  Ids count up from 0 in order of first appearance.
    """
    representatives: list[tuple[ShapeKind, tuple[float, ...]]] = []
    for gesture in gestures:
        vec = _features(gesture, rate)
        for motif_id, (kind, ref) in enumerate(representatives):
            # math.dist, not np.linalg.norm: a BLAS dot product's bits depend
            # on the kernel the machine picks
            if kind is gesture.kind and math.dist(vec, ref) <= MOTIF_EPSILON:
                gesture.motif_id = motif_id
                break
        else:
            gesture.motif_id = len(representatives)
            representatives.append((gesture.kind, vec))
