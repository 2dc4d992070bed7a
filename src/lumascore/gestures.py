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

from .curveprep import ROUGHNESS_SCALE
from .segmentation import Segment

BIC_EPS = 1e-12
RRMSE_RANGE_FLOOR = 0.05
TAU_GRID_LO = 1.0 / 50.0  # grid bounds as fractions of the body duration
TAU_GRID_HI = 5.0
STAIRCASE_BLOCK = 64  # piece ends per cost block of the staircase DP


class TooFewSamples(ValueError):
    pass


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
    tau_s: float
    sse: float
    degenerate: bool = False


@dataclass(frozen=True)
class StaircaseFit:
    levels: tuple[float, ...]
    step_times_s: tuple[float, ...]
    sse: float


FitRecord = LinearFit | ExpFit | StaircaseFit


@dataclass
class ClassifyParams:
    flat: float = 0.03
    transient: float = 0.15
    transient_window_s: float = 0.2
    granular: float = 0.4
    chaotic_rough: float = 0.6
    fit_rrmse: float = 0.35
    tau_grid_size: int = 64
    staircase_max_levels: int = 6


@dataclass
class Gesture:
    segment: Segment
    kind: ShapeKind
    transient: TransientInfo | None
    granularity: float
    fit: FitRecord
    fit_rrmse: float
    mean_brightness: float
    archetype: Archetype
    motif_id: int | None = None


def detect_transient(samples: np.ndarray, rate: float, params: ClassifyParams) -> TransientInfo | None:
    """Report a sharp initial rise within the opening window, if any."""
    y = np.asarray(samples, dtype=np.float64)
    if len(y) < 2:
        return None
    window = min(len(y), int(math.floor(params.transient_window_s * rate + 1e-9)) + 1)
    head = y[:window]
    onset = int(np.argmax(head))
    rise = float(head[onset] - y[0])
    if rise >= params.transient:
        return TransientInfo(onset, rise)
    return None


def fit_linear(samples: np.ndarray, rate: float) -> LinearFit:
    y = np.asarray(samples, dtype=np.float64)
    n = len(y)
    if n < 2:
        raise TooFewSamples("linear fit needs at least 2 samples")
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
        raise TooFewSamples("exponential fit needs at least 3 samples")
    if tau_grid is None:
        tau_grid = make_tau_grid((n - 1) / rate if n > 1 else 1.0 / rate)
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


def fit_staircase(samples: np.ndarray, rate: float, max_levels: int = 6) -> StaircaseFit:
    """Exact optimal piecewise-constant fit, level count chosen by BIC."""
    y = np.asarray(samples, dtype=np.float64)
    n = len(y)
    if n < 2 * max_levels:
        raise TooFewSamples(
            "staircase fit needs at least %d samples" % (2 * max_levels)
        )
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
    best_m = 2
    best_bic = math.inf
    logn = math.log(n)
    for m in range(2, max_levels + 1):
        bic = n * math.log(dp[m][n] / n + BIC_EPS) + (2 * m - 1) * logn
        if bic < best_bic:
            best_bic = bic
            best_m = m
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


def _fit_params(fit: FitRecord) -> int:
    if isinstance(fit, LinearFit):
        return 2
    if isinstance(fit, ExpFit):
        return 3
    return 2 * len(fit.levels) - 1


def _bic(sse: float, n: int, k: int) -> float:
    return n * math.log(sse / n + BIC_EPS) + k * math.log(n)


def _monotone(levels: tuple[float, ...]) -> bool:
    rising = all(b >= a for a, b in zip(levels, levels[1:]))
    falling = all(b <= a for a, b in zip(levels, levels[1:]))
    return rising or falling


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
        raise TooFewSamples("classification needs at least 2 samples")
    if segment is None:
        segment = Segment(0, n)

    transient = detect_transient(smoothed, rate, params)
    body_start = 0
    if transient is not None and n - (transient.onset_idx + 1) >= 2:
        body_start = transient.onset_idx + 1
    body = smoothed[body_start:]
    nb = len(body)
    value_range = float(body.max() - body.min())

    candidates: list[tuple[float, int, FitRecord]] = []
    linear = fit_linear(body, rate)
    candidates.append((_bic(linear.sse, nb, 2), 0, linear))
    if nb >= 3:
        exp = fit_exponential(body, rate, make_tau_grid((nb - 1) / rate, params.tau_grid_size))
        if not exp.degenerate:
            candidates.append((_bic(exp.sse, nb, 3), 1, exp))
    if nb >= 2 * params.staircase_max_levels:
        stair = fit_staircase(body, rate, params.staircase_max_levels)
        candidates.append((_bic(stair.sse, nb, _fit_params(stair)), 2, stair))
    candidates.sort(key=lambda item: (item[0], item[1]))

    winner = candidates[0][2]
    if isinstance(winner, StaircaseFit) and not _monotone(winner.levels):
        # a non-monotone staircase is not a staircase; take the runner-up
        for _, _, fit in candidates[1:]:
            if not isinstance(fit, StaircaseFit):
                winner = fit
                break
        else:
            winner = linear

    kind = ShapeKind.PLATEAU if value_range < params.flat else _kind_of(winner)
    # roughness of the sustained body; a transient jump is its own feature
    # and must not read as grain
    body_resid = raw[body_start:] - smoothed[body_start:]
    resid_rms = math.sqrt(float(np.mean(body_resid * body_resid)))
    granularity = min(1.0, resid_rms / ROUGHNESS_SCALE)
    rrmse = math.sqrt(winner.sse / nb) / max(value_range, RRMSE_RANGE_FLOOR)
    # chaotic when no template explains the body, or the segment is rough
    # and its smoothed range fails to clear twice the residual's
    # uniform-equivalent peak-to-peak span (the span saturates with the
    # roughness score, the noise itself does not)
    if rrmse > params.fit_rrmse or (
        granularity > params.chaotic_rough
        and value_range < 2.0 * resid_rms * math.sqrt(12.0)
    ):
        kind = ShapeKind.CHAOTIC

    fit = linear if kind is ShapeKind.PLATEAU else winner
    archetype = _archetype_for(kind, transient, granularity, fit, params)
    return Gesture(
        segment=segment,
        kind=kind,
        transient=transient,
        granularity=granularity,
        fit=fit,
        fit_rrmse=rrmse,
        mean_brightness=float(raw.mean()),
        archetype=archetype,
    )


def _archetype_for(
    kind: ShapeKind,
    transient: TransientInfo | None,
    granularity: float,
    fit: FitRecord,
    params: ClassifyParams,
) -> Archetype:
    if kind is ShapeKind.CHAOTIC:
        return Archetype.GRANULAR_TEXTURE
    if transient is not None:
        if kind is ShapeKind.LINEAR_DECAY:
            return Archetype.CHORD_RESONANCE
        if kind is ShapeKind.EXPONENTIAL_DECAY:
            return Archetype.CHORD_ARPEGGIO
        if kind is ShapeKind.PLATEAU:
            return Archetype.CHORD_HELD
    if kind is ShapeKind.STAIRCASE and isinstance(fit, StaircaseFit) and _is_rising(fit.levels):
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
        if fit.tau_s <= 0 or duration_s <= 0:
            return 0.0
        return fit.scale * (math.exp(-duration_s / fit.tau_s) - 1.0) / duration_s
    if len(fit.levels) < 2 or duration_s <= 0:
        return 0.0
    return (fit.levels[-1] - fit.levels[0]) / duration_s


_KIND_INDEX = {kind: i for i, kind in enumerate(ShapeKind)}


def _features(gesture: Gesture, rate: float) -> np.ndarray:
    duration = (gesture.segment.end_idx - gesture.segment.start_idx) / rate
    vec = np.zeros(len(ShapeKind) + 5)
    vec[_KIND_INDEX[gesture.kind]] = 1.0
    slope = _fit_slope(gesture.fit, duration)
    vec[len(ShapeKind)] = math.copysign(min(1.0, abs(slope) * duration), slope)
    if isinstance(gesture.fit, ExpFit) and gesture.kind in (
        ShapeKind.EXPONENTIAL_RISE, ShapeKind.EXPONENTIAL_DECAY
    ):
        vec[len(ShapeKind) + 1] = min(1.0, gesture.fit.tau_s / duration)
    vec[len(ShapeKind) + 2] = gesture.granularity
    if gesture.transient is not None:
        vec[len(ShapeKind) + 3] = gesture.transient.amplitude
    vec[len(ShapeKind) + 4] = math.log(duration) / math.log(60.0)
    return vec


def assign_motifs(gestures: list[Gesture], rate: float, epsilon: float = 0.25) -> None:
    """Greedy online clustering of gestures into recurring motifs.

    A gesture joins the earliest motif of the same kind whose first member
    lies within ``epsilon`` of it in feature space; otherwise it founds a new
    motif.  Ids count up from 0 in order of first appearance.
    """
    representatives: list[tuple[ShapeKind, np.ndarray]] = []
    for gesture in gestures:
        vec = _features(gesture, rate)
        for motif_id, (kind, ref) in enumerate(representatives):
            if kind is gesture.kind and float(np.linalg.norm(vec - ref)) <= epsilon:
                gesture.motif_id = motif_id
                break
        else:
            gesture.motif_id = len(representatives)
            representatives.append((gesture.kind, vec))
