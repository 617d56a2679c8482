"""Special-function kernel: confluent 0F1, modified Bessel K.

Everything here is a pure function of its arguments.  The 0F1 series is
the coherent-state series of the quadratic levels (c, b) = (b - 2, 1),
summed in log space over its certified window, so that large arguments
(z of order 1e5 and beyond) never overflow intermediate terms; ln K_nu is
evaluated for a whole array of x at once from its integral representation
(DLMF 10.32.9)

    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt

by the trapezoidal rule on one t-grid shared by every x, each row of the
integrand shifted by its own log-peak.  The rule converges exponentially
for this integrand, and every result is certified against the rule of
twice the step, whose samples are the even-indexed ones.
"""

from __future__ import annotations

import math

import numpy as np

from .coherent import _series_window
from .errors import ConvergenceError, DomainError

__all__ = [
    "log_hyp0f1",
    "log_bessel_k",
]


def log_hyp0f1(b: float, z: float) -> float:
    """ln 0F1(b; z) for b > 0, z >= 0.

    0F1(b; z) = sum_k z^k / ((b)_k k!) is the series sum_k z^k / rho_k over
    the levels d_k = k (b - 1 + k), the quadratic (c, b) = (b - 2, 1), summed
    over its certified window.
    """
    if not b > 0:
        raise DomainError(f"hyp0f1 requires b > 0, got {b}")
    if not 0 <= z < math.inf:
        raise DomainError(f"hyp0f1 requires finite z >= 0, got {z}")
    return _series_window(b - 2.0, 1.0, z).log_sum()


# The t-grid ends where the widest integrand is 60 nats below its peak.
_DROP = 60.0
# The step is a third of the narrowest peak width (x cosh t*)^(-1/2), and at
# most 1/8: exp(-x cosh t) is bounded only in the strip |Im t| < pi/2.
_STEPS_PER_WIDTH = 3.0
_MAX_STEP = 0.125
# |S_h - S_2h| <= _REL_TOL S_h certifies a row; h is halved until every
# row is certified, and the rule is tried at no more than _MAX_STEPS steps.
_REL_TOL = 1e-11
_MAX_STEPS = 6
# Rows are summed in blocks of about this many grid cells (128 KB of float64),
# so peak memory does not grow with the number of x.
_BLOCK_CELLS = 1 << 14


def _log_cosh(u: np.ndarray) -> np.ndarray:
    # |u| + log1p(exp(-2|u|)) - log 2, stable for any magnitude
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)


def _log_integrand(nu: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return _log_cosh(nu * t) - x * np.cosh(t)


def _grid_end(nu: float, x: np.ndarray, t_star: np.ndarray, peak: np.ndarray) -> float:
    """The largest, over the rows, t > t* where the integrand is _DROP nats
    below its peak (or further).

    Past t* the log-integrand falls ever faster, so a Newton step taken from
    a point right of the drop point lands between the two and never crosses
    it. The starting point is bracketed by doubling the distance from t*, and
    a step that would cross anyway is not taken: each row ends at a point
    already shown to lie past its drop.
    """
    target = peak - _DROP
    dist = np.ones_like(x)
    while True:  # ends by t ~ 710 at the latest, where cosh(t) = inf
        short = _log_integrand(nu, x, t_star + dist) > target
        if not short.any():
            break
        dist[short] *= 2.0
    end = t_star + dist
    for _ in range(6):  # every step is safe; stopping early only lengthens the grid
        slope = nu * np.tanh(nu * end) - x * np.sinh(end)  # < 0 past t*
        step = end - (_log_integrand(nu, x, end) - target) / slope
        end = np.where(_log_integrand(nu, x, step) <= target, step, end)
    return float(end.max())


def _trapezoid(nu: float, x: np.ndarray, peak: np.ndarray, h: float, t_end: float):
    """exp(-peak) K_nu(x) per row by the step-h rule, or None when a row's
    step-h and step-2h sums differ by more than _REL_TOL."""
    t = h * np.arange(int(math.ceil(t_end / h)) + 1)
    cosh_t = np.cosh(t)
    log_cosh_nut = _log_cosh(nu * t)
    rows = max(1, _BLOCK_CELLS // len(t))
    out = np.empty_like(x)
    for lo in range(0, len(x), rows):
        block = slice(lo, lo + rows)
        vals = np.multiply(x[block, None], cosh_t)
        np.subtract(log_cosh_nut, vals, out=vals)
        vals -= peak[block, None]
        np.exp(vals, out=vals)
        half_first = 0.5 * vals[:, 0]  # the sample at t = 0 has weight 1/2
        s_h = h * (vals.sum(axis=1) - half_first)
        s_2h = 2.0 * h * (vals[:, ::2].sum(axis=1) - half_first)
        if not np.all(np.abs(s_h - s_2h) <= _REL_TOL * s_h):
            return None
        out[block] = s_h
    return out


def log_bessel_k(nu: float, x):
    """ln K_nu(x) for x > 0, a float or a 1-d array; symmetric in the sign of nu.

    Row i of the integrand is shifted by its log at t* = asinh(nu / x_i),
    which is within ln 2 of its peak, so no row over- or underflows. Raises
    ConvergenceError rather than return a row the step-2h sum does not certify.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"bessel_k takes a scalar or 1-d x, got shape {xs.shape}")
    flat = np.atleast_1d(xs)
    bad = ~(np.isfinite(flat) & (flat > 0))
    if bad.any():
        raise DomainError(f"bessel_k requires finite x > 0, got {flat[bad][0]}")
    nu = abs(float(nu))
    if not math.isfinite(nu):
        raise DomainError(f"bessel_k requires a finite order, got {nu}")
    if flat.size == 0:
        return np.empty(0)
    t_star = np.arcsinh(nu / flat)
    scale = np.hypot(flat, nu)  # x cosh t*
    peak = _log_cosh(nu * t_star) - scale
    h = min(_MAX_STEP, float(scale.max()) ** -0.5 / _STEPS_PER_WIDTH)
    with np.errstate(over="ignore", invalid="ignore"):  # cosh(t) = inf far out is harmless
        t_end = _grid_end(nu, flat, t_star, peak)
        for _ in range(_MAX_STEPS):
            total = _trapezoid(nu, flat, peak, h, t_end)
            if total is not None:
                out = peak + np.log(total)
                return out if xs.ndim else float(out[0])
            h *= 0.5
    raise ConvergenceError(
        f"K_{nu}: trapezoidal sums at steps {4 * h} and {2 * h} still differ by more than "
        f"{_REL_TOL} of their value"
    )
