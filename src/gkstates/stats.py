"""Weighting distribution, moments, Mandel Q, and the measure-moment check.

Every model's levels are e_n = n (c + b (n + 1)), and the closed forms are
keyed by (c, b): for b > 0 they are ratios of confluent 0F1 values at
a = c/b + 2 and z = J/b, and at b = 0 the Poisson limit <n> = Var(n) = J/c.
Everything also has a direct series route through the state weights, and
the two are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import (
    _kept,
    _require_argument,
    _require_constructible,
    _series_window,
    log_rho_sequence,
)
from .errors import ConvergenceError, DomainError
from .specfun import log_bessel_k, log_hyp0f1
from .spectrum import SpectrumModel

__all__ = [
    "WeightingDistribution",
    "distribution",
    "moment_sweep",
    "mean_closed_form",
    "variance_closed_form",
    "mandel_q",
    "mandel_q_closed_form",
    "solve_j",
    "MeasureMoment",
    "verify_measure_moments",
]


@dataclass(frozen=True, eq=False)
class WeightingDistribution:
    """Normalised excitation-number distribution P_n with its summary moments."""

    probs: np.ndarray
    mean: float
    variance: float
    mandel_q: float


def distribution(model: SpectrumModel, J: float) -> WeightingDistribution:
    """P_n = J^n / (N^2(J) rho_n) with moments by direct summation.

    probs is indexed by n from 0; levels below the state's window hold exact
    zeros.  The weights are build_state's, without its norm N^2(J).
    """
    _require_constructible(model)
    _require_argument(J)
    window = _series_window(*model.coefficients, J)
    lse = math.log(np.exp(window.log_terms).sum())
    weights, n = np.exp(window.log_terms - lse), window.n
    probs = np.zeros(int(n[-1]) + 1)
    probs[int(n[0]) :] = weights
    mean = math.fsum((weights * n).tolist())
    var = math.fsum((weights * (n - mean) ** 2).tolist())
    q = (var - mean) / mean if mean > 0 else 0.0
    return WeightingDistribution(probs=probs, mean=mean, variance=var, mandel_q=q)


# Cells of the (J x n) table that moment_sweep holds at a time.
_SWEEP_CELLS = 2**15


def moment_sweep(model: SpectrumModel, Js) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance and Mandel Q of P_n at every J of Js, as three arrays.

    One (J x n) table stands in for a state per J.  Row J is anchored at its
    own mode m, the largest n with e_n <= J, and holds ln(t_n / t_m) as the
    running sums of the log-ratios that _series_window steps by, over the
    band n = m - span .. m + span, two steps wider than the window at
    max(Js).  _kept must end every row inside the band; a row that it does
    not raises ConvergenceError.  The moments are taken about each row's
    mode; a J = 0 row is (0, 0, 0).
    """
    _require_constructible(model)
    Js = np.asarray(Js, dtype=float)
    bad = ~(np.isfinite(Js) & (Js >= 0))
    if bad.any():
        _require_argument(float(Js[bad][0]))
    mean, var, q = np.zeros(Js.shape), np.zeros(Js.shape), np.zeros(Js.shape)
    live = np.flatnonzero(Js > 0)
    if not live.size:
        return mean, var, q
    J = Js[live]
    log_J, j_max = np.log(J), float(J.max())
    window = _series_window(*model.coefficients, j_max)
    n_lo, n_hi, top = int(window.n[0]), int(window.n[-1]), window.mode
    # one step past the window at max(Js) shows where it ends, and a row just
    # below the next level reaches one step further from its mode
    span = max(top - n_lo, n_hi - top) + 2
    e = model.levels(np.arange(1, top + span + 1))
    modes = e.searchsorted(J, side="right")
    log_e = np.log(e)
    rows = max(1, _SWEEP_CELLS // (2 * span + 1))
    for start in range(0, len(J), rows):
        block = slice(start, start + rows)
        mean[live[block]], var[live[block]] = _band_moments(log_e, log_J[block], modes[block], span)
    np.divide(var - mean, mean, out=q, where=mean > 0)
    return mean, var, q


def _band_moments(log_e, log_J, modes, span):
    """(mean, variance) of the rows J over n = mode - span .. mode + span;
    log_e holds ln e_n at index n - 1.  Raises ConvergenceError where _kept
    would carry some row's window past the band."""
    k = np.arange(1, span + 1)
    up = log_J[:, None] - log_e[modes[:, None] + k - 1]  # t_(m+k) / t_(m+k-1) = J / e_(m+k)
    n_down = modes[:, None] - k + 1  # t_(n-1) / t_n = e_n / J
    inside = n_down >= 1  # steps below n = 0 are zeroed and their terms dropped
    down = np.where(inside, log_e[np.maximum(n_down, 1) - 1] - log_J[:, None], 0.0)
    run_up, run_down = np.cumsum(up, axis=1), np.cumsum(down, axis=1)
    # _kept falls along a row, so its last step decides whether the row's window ends inside
    if _kept(run_up[:, -1], up[:, -1]).any() or (
        _kept(run_down[:, -1], down[:, -1]) & (modes > span)
    ).any():
        raise ConvergenceError(
            f"a row of the sweep reaches past its band of {span} components on one side of its peak"
        )
    w_up, w_down = np.exp(run_up, out=run_up), np.exp(run_down, out=run_down)
    w_down *= inside
    powers = np.stack((np.ones(span), k, k * k), axis=1)
    sums = w_up @ powers + w_down @ (powers * (1.0, -1.0, 1.0))
    sums[:, 0] += 1.0  # the mode's own term
    m1, m2 = sums[:, 1] / sums[:, 0], sums[:, 2] / sums[:, 0]
    return modes + m1, m2 - m1 * m1


def _closed_form_logs(model: SpectrumModel, J: float):
    """(c, b, logs) for the closed forms: logs holds ln 0F1(a + k; J/b) for
    k = 0, 1, 2 with a = c/b + 2, or is None at J = 0 and where a overflows
    (b = 0 among them), where each closed form takes its limit."""
    _require_constructible(model)
    _require_argument(J)
    c, b = model.coefficients
    a = c / b + 2.0 if b else math.inf
    if a == math.inf or J == 0.0:
        return c, b, None
    return c, b, tuple(log_hyp0f1(a + k, J / b) for k in (0.0, 1.0, 2.0))


def mean_closed_form(model: SpectrumModel, J: float) -> float:
    """<n> = J/(c + 2b) * 0F1(a + 1; J/b) / 0F1(a; J/b), a = c/b + 2."""
    c, b, logs = _closed_form_logs(model, J)
    if logs is None:
        return J / c if J else 0.0  # Poisson limit, or the vacuum
    lf2, lf3, _ = logs
    return J / (c + 2.0 * b) * math.exp(lf3 - lf2)


def variance_closed_form(model: SpectrumModel, J: float) -> float:
    """(Delta n)^2 = <n>(1-<n>) + J^2/((c + 2b)(c + 3b)) * 0F1(a + 2; J/b)/0F1(a; J/b)."""
    c, b, logs = _closed_form_logs(model, J)
    if logs is None:
        return J / c if J else 0.0
    lf2, lf3, lf4 = logs
    mean = J / (c + 2.0 * b) * math.exp(lf3 - lf2)
    ratio42 = math.exp(lf4 - lf2)
    return mean * (1.0 - mean) + J**2 / ((c + 2.0 * b) * (c + 3.0 * b)) * ratio42


def mandel_q(model: SpectrumModel, J: float) -> float:
    """Q = ((Delta n)^2 - <n>) / <n> from the series distribution; Q(0) = 0."""
    return distribution(model, J).mandel_q


def mandel_q_closed_form(model: SpectrumModel, J: float) -> float:
    """Two-ratio 0F1 form of Q: J/(c + 3b) * F(a + 2)/F(a + 1) - J/(c + 2b) * F(a + 1)/F(a)."""
    c, b, logs = _closed_form_logs(model, J)
    if logs is None:
        return 0.0
    lf2, lf3, lf4 = logs
    return J / (c + 3.0 * b) * math.exp(lf4 - lf3) - J / (c + 2.0 * b) * math.exp(lf3 - lf2)


_SOLVE_J_TOL = 1e-8  # the bisection ends at a bracket on J of a tenth of this


def solve_j(model: SpectrumModel, n0: float) -> float:
    """Invert the strictly increasing mean: find J with <n>(J) = n0.

    Bracketing uses the action identity J = <e> >= e at the target level,
    then plain bisection.
    """
    if not math.isfinite(n0):
        raise DomainError(f"target mean n0 must be finite, got {n0}")
    if n0 < 0:
        raise DomainError(f"target mean must be >= 0, got {n0}")
    if n0 == 0.0:
        return 0.0
    hi = 10.0 * max(1.0, model.e_n(int(math.ceil(n0)) + 1))
    while distribution(model, hi).mean < n0:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(f"target mean {n0} appears unreachable for {model!r}")
    lo = 0.0
    while hi - lo > _SOLVE_J_TOL * 0.1:
        mid = 0.5 * (lo + hi)
        if distribution(model, mid).mean < n0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Resolution-of-unity moment check.
#
# The positive measure reproducing rho_n reduces, after the 0F1 factor of
# w(J) cancels against N^2(J), to
#
#     wtilde(J) = 2 x^(nu/2) K_nu(2 sqrt(x)) / (b Gamma(a)),
#     x = J/b,   a = c/b + 2,   nu = a - 1,
#
# and int_0^inf wtilde(J) J^n dJ must equal rho_n.  The Bessel reduction of
# the underlying Meijer G kernel is checked in the test suite against its
# term-by-term residue series.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureMoment:
    """One row of the measure check: moment order, both sides, relative error."""

    n: int
    lhs: float
    rhs: float
    rel_err: float
    converged: bool


def _log_wtilde(c: float, b: float, J: np.ndarray) -> np.ndarray:
    nu = c / b + 1.0
    x = J / b
    return (
        math.log(2.0)
        + 0.5 * nu * np.log(x)
        + log_bessel_k(nu, 2.0 * np.sqrt(x))
        - math.log(b)
        - math.lgamma(c / b + 2.0)
    )


def _measure_cutoff(c: float, b: float, n_max: int) -> float:
    """Upper integration limit where the n_max integrand is ~1e-20 of its peak."""
    j_hi = b * (n_max + 0.5 * (c / b + 1.0) + 25.0) ** 2
    probe = np.geomspace(max(j_hi * 1e-6, 1e-12), j_hi, 400)
    lg = _log_wtilde(c, b, probe) + n_max * np.log(probe)
    peak = float(lg.max())
    while float(lg[-1]) > peak - 46.0:
        j_hi *= 1.5
        probe = np.geomspace(max(j_hi * 1e-6, 1e-12), j_hi, 400)
        lg = _log_wtilde(c, b, probe) + n_max * np.log(probe)
        peak = max(peak, float(lg.max()))
    return j_hi


# Nodes per Gauss-Legendre panel of the measure check.
_PANEL_ORDER = 20


def _measure_nodes(c: float, b: float, j_hi: float, total_nodes: int):
    """Gauss-Legendre panel nodes on [0, j_hi] with wtilde evaluated once.

    Panel edges are graded quadratically towards J = 0: the integrand varies
    on the sqrt(J) scale (decay ~ exp(-2 sqrt(J/b))), so uniform panels sized
    for the far tail would under-resolve the low moments.
    """
    panels = total_nodes // _PANEL_ORDER
    xs, ws = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    edges = j_hi * np.linspace(0.0, 1.0, panels + 1) ** 2
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights * np.exp(_log_wtilde(c, b, nodes))


def verify_measure_moments(
    model: SpectrumModel, n_max: int = 5, total_nodes: int = 2000
) -> list[MeasureMoment]:
    """Quadrature moments of the reproducing measure against rho_n, n <= n_max."""
    c, b = model.coefficients
    if not b > 0:
        raise DomainError(
            f"the measure check requires b > 0 in e_n = n (c + b (n + 1)), got b = {b} for {model!r}"
        )
    if not 0 <= n_max <= 20:
        raise DomainError(f"n_max must be in [0, 20], got {n_max}")
    if total_nodes < _PANEL_ORDER:
        raise DomainError(
            f"total_nodes must be at least {_PANEL_ORDER}, one {_PANEL_ORDER}-node "
            f"Gauss-Legendre panel; got {total_nodes}"
        )
    j_hi = _measure_cutoff(c, b, n_max)
    nodes, wts = _measure_nodes(c, b, j_hi, total_nodes)
    nodes_c, wts_c = _measure_nodes(c, b, j_hi, max(200, total_nodes // 2))
    log_rho = log_rho_sequence(model, n_max)
    rows = []
    for n in range(n_max + 1):
        lhs = float(np.dot(wts, nodes**n))
        coarse = float(np.dot(wts_c, nodes_c**n))
        rhs = math.exp(log_rho[n])
        rel = abs(lhs - rhs) / rhs
        converged = abs(lhs - coarse) <= 1e-8 * max(abs(lhs), 1e-300)
        rows.append(MeasureMoment(n=n, lhs=lhs, rhs=rhs, rel_err=rel, converged=converged))
    return rows
