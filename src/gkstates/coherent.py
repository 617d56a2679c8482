"""Gazeau-Klauder coherent-state construction.

A state |J, gamma> has coefficients c_n = J^(n/2) e^(-i gamma e_n) /
(N(J) sqrt(rho_n)) with rho_n the running product of the dimensionless
levels e_1 ... e_n and N^2(J) = sum_n J^n / rho_n.  All weights are carried
as logarithms; exponentiation happens once, after a max subtraction.

Every series sum_n x^n / rho_n -- the normalisation, the overlap of two
states (at x = sqrt(J_a J_b)) and 0F1 -- runs over quadratic levels
e_n = n (c + b (n + 1)), b >= 0, and is given by the two coefficients
(c, b): a model's own, and (b0 - 2, 1) for 0F1(b0; z).  It is taken over the
window that _series_window certifies around its largest term;
stats.moment_sweep certifies its (J x n) table by the same test, _kept.
The largest term sits at the mode, the largest n with e_n <= x: the root of
a n + b n^2 = x with a = c + b, confirmed on the block of levels the window
is cut from.  A root of 2^53 or more raises the component cap's
ConvergenceError.  ln t_mode, a sum over ln e_1 .. ln e_mode, is only taken
where a norm is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DomainError,
    ModelMismatchError,
    TruncatedSpectrumError,
)
from .spectrum import SpectrumModel, _quadratic_levels

__all__ = [
    "CoherentState",
    "log_rho_sequence",
    "log_rho_closed",
    "log_normalization_sq",
    "build_state",
    "overlap",
    "continuity_gap",
]

# Truncation rule: the window around the largest term t_mode ends on each
# side where a geometric bound puts the rest of the series below 1e-18 t_mode
# (the probability this drops is far below the 1e-15 budget), and it holds
# at most 5000 components.
_TAIL_LOG = 18.0 * math.log(10.0)
_MAX_COMPONENTS = 5000


def _require_constructible(model: SpectrumModel) -> None:
    if model.n_max_valid is not None:
        raise TruncatedSpectrumError(
            f"{model!r} has a truncated spectrum (n_max={model.n_max_valid}); "
            "Gazeau-Klauder states are only built over unbounded spectra"
        )


def _require_argument(J: float) -> None:
    if not J >= 0:
        raise DomainError(f"J must be >= 0, got {J}")
    if not math.isfinite(J):
        raise DomainError(f"J must be finite, got {J}")


class _Window(NamedTuple):
    """Terms t_n = x^n / rho_n of a series over n = n_lo .. n_hi."""

    n: np.ndarray  # the quantum numbers n_lo .. n_hi
    e: np.ndarray  # their levels e_n
    log_terms: np.ndarray  # ln(t_n / t_mode) <= 0, t_mode the largest term
    mode: int  # the largest n with e_n <= x
    x: float
    c: float
    b: float

    def log_peak(self) -> float:
        """ln t_mode = mode ln x - ln rho_mode."""
        if not self.mode:
            return 0.0
        log_rho = np.log(_quadratic_levels(self.c, self.b, np.arange(1, self.mode + 1))).sum()
        return self.mode * math.log(self.x) - float(log_rho)

    def log_sum(self) -> float:
        """ln sum_n t_n."""
        return self.log_peak() + math.log(np.exp(self.log_terms).sum())


def _first_span(variance: float) -> int:
    """Levels read on each side of the mode at first: ten standard deviations
    of the terms and a margin, which reaches the 1e-18 cut of every built-in
    spectrum in one pass."""
    return min(16 + int(10.0 * math.sqrt(variance)), _MAX_COMPONENTS)


def _kept(run: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Whether each term ln(t / t_mode) = run is kept, run holding the running
    sums of the log-ratios ``steps`` away from the mode (elementwise).

    The levels increase, so the ratio s of a step (x / e_(n+1) up, e_n / x
    down) bounds every later one, and the term t_n it starts from sums with
    all beyond it to at most t_n / (1 - s).  A side ends at the first step
    where that bound is below 1e-18 t_mode: the last term kept and everything
    dropped after it both stay below the cut.
    """
    return np.exp(run - steps + _TAIL_LOG) + np.exp(steps) >= 1.0


def _cut(steps: np.ndarray) -> tuple[np.ndarray, bool]:
    """ln(t_n / t_mode) for n stepping away from the mode by the log-ratios
    ``steps``, out to the last term kept (see _kept), and whether the side
    ended there."""
    run = np.cumsum(steps)
    keep = _kept(run, steps)
    if keep.all():
        return run, False
    stop = int(keep.argmin())
    return run[:stop], True


def _series_window(c: float, b: float, x: float) -> _Window:
    """The terms of sum_n x^n / rho_n over the levels e_n = n (c + b (n + 1)),
    rho_n = e_1 ... e_n, that carry all but 1e-18 of its largest term on
    either side (x >= 0, b >= 0).

    e_1 = c + 2b > 0 makes every level positive and increasing.  The mode is
    guessed as the root of a n + b n^2 = x, a = c + b, and confirmed by a
    binary search of the block of levels read around the guess.
    """
    c, b = float(c), float(b)  # integer coefficients would give integer levels
    if x == 0.0:
        return _Window(np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1), 0, x, c, b)
    if not c + 2.0 * b > 0.0:
        raise DegenerateSpectrumError(f"e_1 = {c + 2.0 * b} is not positive; rho_n is undefined")
    a = c + b
    h = math.hypot(a, 2.0 * math.sqrt(b) * math.sqrt(x))  # sqrt(a^2 + 4 b x), free of overflow
    root = (h - a) / (2.0 * b) if a < 0.0 else x / (0.5 * (a + h))  # free of cancellation
    if not root < 2.0**53:  # the window, about sqrt(root) wide, is far over the cap
        raise ConvergenceError(
            f"the series at x={x:g} needs more than {_MAX_COMPONENTS} components around its "
            f"peak n={root:.6g}, over the cap of {_MAX_COMPONENTS} components"
        )
    mode, confirmed = int(root), False
    span = _first_span(x / (a + b * (2 * mode + 1)))  # the variance of the terms
    log_x = math.log(x)
    while True:
        lo, hi = max(mode - span, 1), mode + span  # the block holds e_lo .. e_hi
        e = _quadratic_levels(c, b, np.arange(lo, hi + 1))
        if not confirmed:
            mode, confirmed = lo - 1 + int(e.searchsorted(x, side="right")), True
        log_e = np.log(e)
        tail, tail_done = _cut(log_x - log_e[mode - lo + 1 :])
        head, head_done = _cut(log_e[: mode - lo + 1][::-1] - log_x)
        if tail_done and (head_done or lo == 1):  # no term lies below n = 0
            break
        if span == _MAX_COMPONENTS:
            raise ConvergenceError(
                f"the series at x={x:g} needs more than {span} components on one "
                f"side of its peak n={mode}, over the cap of {_MAX_COMPONENTS} components"
            )
        span = min(2 * span, _MAX_COMPONENTS)
    n_lo, n_hi = mode - len(head), mode + len(tail)
    if n_hi - n_lo + 1 > _MAX_COMPONENTS:
        raise ConvergenceError(
            f"the series at x={x:g} needs {n_hi - n_lo + 1} components around its "
            f"peak n={mode}, over the cap of {_MAX_COMPONENTS} components"
        )
    e_window = e[n_lo - lo : n_hi - lo + 1] if n_lo else np.concatenate(([0.0], e[:n_hi]))
    return _Window(
        np.arange(n_lo, n_hi + 1),
        e_window,
        np.concatenate((head[::-1], [0.0], tail)),
        mode,
        x,
        c,
        b,
    )


def log_rho_sequence(model: SpectrumModel, n_max: int) -> np.ndarray:
    """Array of ln rho_n for n = 0 .. n_max (rho_0 = 1)."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    e = model.levels(np.arange(1, n_max + 1))
    if not (e > 0).all():
        i = int(np.argmin(e > 0))
        raise DegenerateSpectrumError(f"e_{i + 1} = {e[i]} is not positive; rho_n is undefined")
    return np.concatenate(([0.0], np.cumsum(np.log(e))))


# B_2k / (2k (2k - 1)), k = 1..4: the Stirling series of ln Gamma(x) past
# (x - 1/2) ln x - x + ln(2 pi) / 2, whose next term is below 1e-21 at x >= 100
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)


def _stirling_rest(x: float) -> float:
    r = 1.0 / x
    r2 = r * r
    return r * (_STIRLING[0] + r2 * (_STIRLING[1] + r2 * (_STIRLING[2] + r2 * _STIRLING[3])))


def log_rho_closed(model: SpectrumModel, n: int) -> float:
    """Closed-form ln rho_n of the levels e_k = k (c + b (k + 1)) for b >= 0:
    rho_n = n! b^n Gamma(a + n) / Gamma(a) with a = c/b + 2, and n! c^n at b = 0.

    For a >= 100, lgamma(a + n) - lgamma(a) would cancel to an absolute error
    of about 1e-16 a ln a, so the Gamma ratio is taken from the Stirling
    series instead, with b a = c + 2b:
    ln(b^n Gamma(a + n) / Gamma(a)) = n ln(c + 2b) + (a + n - 1/2) ln(1 + n/a) - n
    plus the difference of the series' remainders at a + n and a.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    c, b = model.coefficients
    if b < 0:
        raise DomainError(f"no closed-form rho_n for the truncated spectrum of {model!r}")
    a = c / b + 2.0 if b else math.inf
    if a == math.inf:  # b = 0, or so small against c that every level is k c
        if not c > 0:
            raise DegenerateSpectrumError(f"the levels of {model!r} are all 0; rho_n is undefined")
        return math.lgamma(n + 1.0) + n * math.log(c)
    if a < 100.0:
        return math.lgamma(n + 1.0) + n * math.log(b) + math.lgamma(a + n) - math.lgamma(a)
    return (
        math.lgamma(n + 1.0)
        + n * math.log(c + 2.0 * b)
        + (a + n - 0.5) * math.log1p(n / a)
        - n
        + (_stirling_rest(a + n) - _stirling_rest(a))
    )


def log_normalization_sq(model: SpectrumModel, J: float) -> float:
    """ln N^2(J) = ln sum_n J^n / rho_n by direct series summation."""
    _require_constructible(model)
    _require_argument(J)
    return _series_window(*model.coefficients, J).log_sum()


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Immutable Gazeau-Klauder state |J, gamma> over a spectrum model.

    Component i is the level n[i] of the certified window: log_weights[i]
    holds ln P_n = ln(J^n / (N^2(J) rho_n)) and e_values[i] its level e_n.
    The phase of the n-th coefficient is exp(-i e_n (gamma + omega t)) and is
    generated on demand rather than stored.
    """

    model: SpectrumModel
    J: float
    gamma: float
    n: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)
    e_values: np.ndarray = field(repr=False)
    log_norm_sq: float

    @property
    def truncation_n(self) -> int:
        """Number of retained components."""
        return len(self.log_weights)

    @property
    def weights(self) -> np.ndarray:
        """Probabilities P_n of each retained component."""
        return np.exp(self.log_weights)

    def mean_n(self) -> float:
        """Mean excitation number <n>."""
        return float(np.dot(self.weights, self.n))

    def coefficients(self, time: float = 0.0) -> np.ndarray:
        """Complex expansion coefficients c_n at evolution time t."""
        mag = np.exp(0.5 * self.log_weights)
        phase = -self.e_values * (self.gamma + self.model.omega * time)
        return mag * np.exp(1j * phase)


def build_state(model: SpectrumModel, J: float, gamma: float = 0.0) -> CoherentState:
    """Construct |J, gamma> over the certified window (omitted mass < 1e-15)."""
    _require_constructible(model)
    _require_argument(J)
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma}")
    window = _series_window(*model.coefficients, J)
    lse = math.log(np.exp(window.log_terms).sum())  # ln(N^2 / t_mode)
    return CoherentState(
        model=model,
        J=float(J),
        gamma=float(gamma),
        n=window.n,
        log_weights=window.log_terms - lse,
        e_values=window.e,
        log_norm_sq=window.log_peak() + lse,
    )


def overlap(state_a: CoherentState, state_b: CoherentState) -> complex:
    """<b|a> = sum_n sqrt(P_n^a P_n^b) exp(-i (gamma_a - gamma_b) e_n).

    sqrt(P_n^a P_n^b) is the n-th term of the normalisation series at
    x = sqrt(J_a J_b) over N(J_a) N(J_b), so the sum runs over that series'
    own window.  Hermitian in its arguments: overlap(a, b) == conj(overlap(b, a)).
    """
    if state_a.model != state_b.model:
        raise ModelMismatchError(
            f"cannot overlap states on different models: "
            f"{state_a.model!r} vs {state_b.model!r}"
        )
    window = _series_window(*state_a.model.coefficients, math.sqrt(state_a.J * state_b.J))
    log_scale = window.log_peak() - 0.5 * (state_a.log_norm_sq + state_b.log_norm_sq)
    mag = np.exp(window.log_terms + log_scale)
    dgamma = state_a.gamma - state_b.gamma
    return complex(np.sum(mag * np.exp(-1j * dgamma * window.e)))


def continuity_gap(state_a: CoherentState, state_b: CoherentState) -> float:
    """Squared state distance 2 (1 - Re <b|a>); vanishes as labels coincide."""
    return 2.0 * (1.0 - overlap(state_a, state_b).real)
