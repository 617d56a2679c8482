"""Temporal evolution: recurrence timescales, autocorrelation, revival detection.

The autocorrelation is A(t) = <J,gamma,t | J,gamma> = sum_n P_n
exp(+i e_n omega t); its complex conjugate corresponds to the opposite phase
convention and |A| is identical either way.  hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CoherentState
from .errors import DomainError, ResolutionError
from .spectrum import SpectrumModel

__all__ = [
    "Timescales",
    "timescales",
    "TimeSeries",
    "default_time_grid",
    "autocorrelation",
    "RevivalEvent",
    "detect_revivals",
    "distinct_fractions",
]


@dataclass(frozen=True)
class Timescales:
    """Classical and revival periods of the levels e_n = n (c + b (n + 1)) at n0:

    T_cl = 2 pi / (omega |c + b (2 n0 + 1)|), from the slope de/dn at n0;
    T_rev = 2 pi / (omega |b|), from the curvature 2b, or None at b = 0
    (a linear spectrum has no revival).
    """

    t_classical: float
    t_revival: float | None


def timescales(model: SpectrumModel, n0: float) -> Timescales:
    """Classical and revival periods at wavepacket centre n0."""
    if n0 < 0:
        raise DomainError(f"n0 must be >= 0, got {n0}")
    c, b = model.coefficients
    slope = c + b * (2.0 * n0 + 1.0)
    if slope == 0.0:
        raise DomainError(f"spectrum of {model!r} is flat at n0={n0}")
    t_revival = 2.0 * math.pi / (model.omega * abs(b)) if b != 0.0 else None
    return Timescales(2.0 * math.pi / (model.omega * abs(slope)), t_revival)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled complex autocorrelation with the state's timescales."""

    times: np.ndarray
    values: np.ndarray
    t_classical: float
    t_revival: float | None

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def default_time_grid(
    model: SpectrumModel,
    n0: float,
    samples_per_tcl: int = 20,
    horizon_revivals: float = 1.1,
    horizon_classical: float = 10.0,
) -> np.ndarray:
    """Uniform grid: samples_per_tcl points per T_cl out to horizon_revivals
    T_rev (or horizon_classical T_cl when no revival time exists)."""
    for name, value in (
        ("samples_per_tcl", samples_per_tcl),
        ("horizon_revivals", horizon_revivals),
        ("horizon_classical", horizon_classical),
    ):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    ts = timescales(model, n0)
    dt = ts.t_classical / samples_per_tcl
    if ts.t_revival is not None:
        name, value, horizon = "horizon_revivals", horizon_revivals, horizon_revivals * ts.t_revival
    else:
        name, value, horizon = "horizon_classical", horizon_classical, horizon_classical * ts.t_classical
    n_samples = int(math.floor(horizon / dt)) + 1
    if n_samples < 2:
        raise DomainError(f"{name}={value} ends before the first time step, T_cl/{samples_per_tcl}")
    return np.arange(n_samples) * dt


_NOT_UNIFORM = "needs a uniform time grid, t_i = t_0 + i dt to float rounding"


def _uniform_step(t: np.ndarray) -> float | None:
    """The step dt when t_i = t_0 + i dt holds to float rounding, else None.

    The tolerance, 8 eps of the largest |t|, admits grids built by
    ``np.arange(m) * dt``, ``np.linspace`` or a shift of either, and moves each
    phase by no more than its own rounding.
    """
    dt = (t[-1] - t[0]) / (len(t) - 1)
    deviation = np.max(np.abs(t - (t[0] + np.arange(len(t)) * dt)))
    scale = max(abs(t[0]), abs(t[-1]))
    return float(dt) if deviation <= 8.0 * np.finfo(float).eps * scale else None


def autocorrelation(state: CoherentState, t_grid: np.ndarray | None = None) -> TimeSeries:
    """Evaluate A(t) over a grid (the default grid when none is given).

    On a uniform grid the M samples are cut into K blocks of B = ceil(sqrt(M)):
    A[kB + b] = sum_n (P_n exp(i w e_n t_kB)) exp(i w e_n b dt), one matrix
    product over about 2 sqrt(M) N phase factors. Each block start t_kB is a
    grid value, so rounding does not accumulate from block to block. Any other
    grid raises DomainError.
    """
    n0 = state.mean_n()
    if t_grid is None:
        t_grid = default_time_grid(state.model, n0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise DomainError("time grid must be a 1-d array with at least 2 samples")
    finite = np.isfinite(t_grid)
    if not finite.all():
        i = int(finite.argmin())
        raise DomainError(f"t_grid must hold finite times, got {t_grid[i]} at index {i}")
    dt = _uniform_step(t_grid)
    if dt is None:
        raise DomainError(f"autocorrelation {_NOT_UNIFORM}")
    phases = state.e_values * state.model.omega
    block = math.isqrt(len(t_grid) - 1) + 1
    starts = state.weights * np.exp(1j * np.outer(t_grid[::block], phases))
    steps = np.exp(1j * np.outer(np.arange(block) * dt, phases))
    values = (starts @ steps.T).ravel()[: len(t_grid)]
    ts = timescales(state.model, n0)
    return TimeSeries(t_grid, values, ts.t_classical, ts.t_revival)


@dataclass(frozen=True)
class RevivalEvent:
    """A local maximum of |A|^2, optionally identified as p/q of T_rev."""

    time: float
    amplitude_sq: float
    p: int | None = None
    q: int | None = None

    @property
    def label(self) -> str:
        return f"{self.p}/{self.q}" if self.p is not None else ""


def detect_revivals(
    series: TimeSeries, threshold: float, q_max: int
) -> list[RevivalEvent]:
    """Locate |A|^2 peaks above threshold and label fractional revival times.

    Peaks are found on a 5-point moving average (so the classical-period
    carrier cannot mask envelope maxima) and refined on the raw samples.  A
    peak earns the label p/q (coprime, q <= q_max) when it lies within
    max(2 dt, T_cl/3) of p/q * T_rev; the T_cl/3 floor is what admits
    quarter-revival peaks, which physically sit a quarter classical period
    away from the exact fraction.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must be in (0, 1), got {threshold}")
    if q_max < 1:
        raise DomainError(f"q_max must be >= 1, got {q_max}")
    if _uniform_step(series.times) is None:
        raise DomainError(f"detect_revivals {_NOT_UNIFORM}")
    dt = series.dt
    if dt > series.t_classical / 10.0:
        raise ResolutionError(
            f"grid step {dt:g} gives fewer than 10 samples per classical "
            f"period {series.t_classical:g}"
        )
    a2 = series.abs2
    if len(a2) < 7:
        return []  # no sample lies 3 or more from both ends
    smooth = np.convolve(a2, np.full(5, 0.2), mode="same")
    # local maxima of the smoothed series, leaving out the first/last two
    # samples, which the zero padding contaminates; each is refined to the
    # largest raw sample within 2 of it (the first one on ties)
    mid = smooth[2:-2]
    centres = np.flatnonzero((mid > smooth[1:-3]) & (mid >= smooth[3:-1])) + 2
    cand = centres - 2 + np.argmax(a2[centres[:, None] + np.arange(-2, 3)], axis=1)
    cand = cand[(a2[cand] >= threshold) & (cand > 2) & (cand < len(a2) - 3)]
    peaks: list[int] = []
    for j in cand.tolist():
        # adjacent smoothed maxima refining into near-identical raw samples
        # are one physical peak; keep the stronger
        if peaks and j - peaks[-1] <= 3:
            if a2[j] > a2[peaks[-1]]:
                peaks[-1] = j
            continue
        peaks.append(j)
    times = series.times[peaks]
    p = np.zeros(len(peaks), dtype=int)
    q = np.zeros(len(peaks), dtype=int)
    t_rev = series.t_revival
    if t_rev is not None:
        # nearest coprime p/q within tol; q ascending, then p ascending, and a
        # later fraction wins only when strictly nearer. One q at a time keeps
        # the distance table at (peaks x p) however large q_max is.
        tol = max(2.0 * dt, series.t_classical / 3.0)
        horizon = float(series.times[-1])
        best = np.full(len(peaks), math.inf)
        rows = np.arange(len(peaks))
        for qq in range(1, q_max + 1):
            pp = np.arange(1, int(math.ceil(horizon / t_rev * qq)) + 2)
            pp = pp[np.gcd(pp, qq) == 1]
            if not pp.size:
                continue
            d = np.abs(times[:, None] - pp / qq * t_rev)
            d[d > tol] = math.inf
            k = np.argmin(d, axis=1)
            dk = d[rows, k]
            nearer = dk < best
            best[nearer] = dk[nearer]
            p[nearer] = pp[k[nearer]]
            q[nearer] = qq
    events = [
        RevivalEvent(time=t, amplitude_sq=float(a2[j]), p=num or None, q=den or None)
        for t, j, num, den in zip(times.tolist(), peaks, p.tolist(), q.tolist())
    ]
    events.sort(key=lambda ev: ev.time)
    return events


def distinct_fractions(events: list[RevivalEvent]) -> set[tuple[int, int]]:
    """Set of distinct (p, q) labels among detected events."""
    return {(ev.p, ev.q) for ev in events if ev.p is not None}
