"""Special-function kernel: log-gamma, Pochhammer, confluent 0F1, modified Bessel K.

Everything here is a pure function of its arguments.  The 0F1 series is
summed in log space over the certified window of the coherent-state series
kernel, so that large arguments (z of order 1e5 and beyond) never overflow
intermediate terms; K_nu is evaluated from its integral representation

    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt

by panelled Gauss-Legendre quadrature of the log-shifted integrand.
"""

from __future__ import annotations

import math

import numpy as np

from .coherent import _series_window
from .errors import ConvergenceError, DomainError

__all__ = [
    "log_gamma",
    "log_pochhammer",
    "log_hyp0f1",
    "bessel_k",
    "log_bessel_k",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Thin domain-checked wrapper over the C library lgamma, which is accurate
    to a few ulp over the whole range used here.
    """
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_pochhammer(a: float, n: int) -> float:
    """ln (a)_n = ln Gamma(a+n) - ln Gamma(a) for a > 0, n >= 0."""
    if n < 0:
        raise DomainError(f"log_pochhammer requires n >= 0, got {n}")
    if not a > 0:
        raise DomainError(f"log_pochhammer requires a > 0, got {a}")
    return math.lgamma(a + n) - math.lgamma(a)


def log_hyp0f1(b: float, z: float) -> float:
    """ln 0F1(b; z) for b > 0, z >= 0.

    0F1(b; z) = sum_k z^k / ((b)_k k!) is the series sum_k z^k / rho_k over
    the levels d_k = k (b + k - 1), summed over its certified window.
    """
    if not b > 0:
        raise DomainError(f"hyp0f1 requires b > 0, got {b}")
    if not z >= 0:
        raise DomainError(f"hyp0f1 requires z >= 0, got {z}")
    return _series_window(lambda k: k * (b - 1.0 + k), z).log_sum()


# Gauss-Legendre rule reused by every bessel_k call.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _log_cosh(u: np.ndarray) -> np.ndarray:
    # |u| + log1p(exp(-2|u|)) - log 2, stable for any magnitude
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)


def log_bessel_k(nu: float, x: float) -> float:
    """ln K_nu(x) for x > 0; symmetric in the sign of nu."""
    if not x > 0:
        raise DomainError(f"bessel_k requires x > 0, got {x}")
    nu = abs(float(nu))

    def f(t: np.ndarray) -> np.ndarray:
        return -x * np.cosh(t) + _log_cosh(nu * t)

    # Coarse scan for the peak, extended until the integrand has dropped
    # 60 nats below it (e^-60 of peak; the contract only needs 1e-8).
    t_hi = 4.0
    ts = np.arange(0.0, t_hi + 1e-9, 1.0 / 16.0)
    fs = f(ts)
    f_max = float(fs.max())
    while float(fs[-1]) > f_max - 60.0:
        if t_hi > 500.0:
            raise ConvergenceError(f"K_{nu}({x}): integrand fails to decay")
        block = np.arange(t_hi, t_hi + 4.0 + 1e-9, 1.0 / 16.0)
        fs = f(block)
        f_max = max(f_max, float(fs.max()))
        t_hi += 4.0

    prev = None
    panels = max(4, int(math.ceil(t_hi / 0.5)))
    while panels <= 4096:
        edges = np.linspace(0.0, t_hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        tt = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.exp(f(tt) - f_max)
        total = float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))
        if prev is not None and abs(total - prev) <= 1e-11 * abs(total):
            return f_max + math.log(total)
        prev = total
        panels *= 2
    raise ConvergenceError(f"K_{nu}({x}): quadrature did not stabilise")


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, K_nu(x), x > 0."""
    lv = log_bessel_k(nu, x)
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf
