"""Reference position-space functions, independent of gkstates.wavefunctions.

- ``modified_hermite``: the deformed Hermite polynomial as explicit monomial
  coefficients from the Rodrigues ladder.  Its float64 monomial sums cancel
  more with every order, so it serves the low orders only.
- ``gegenbauer_psi``: scipy's Gegenbauer polynomial C_n^(lam)(m rho) with the
  closed-form norm.  C_n^(lam) itself overflows float64 at upsilon = 0.01
  (lam = 5000.5) for the orders of a state near n0 = 300.
- ``_simpson``: composite Simpson quadrature on a uniform grid.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import eval_gegenbauer, gammaln


def modified_hermite(n: int, mu: float) -> np.ndarray:
    """Deformed Hermite polynomial H_n(rho; mu), coefficients in ascending powers.

    Realises the Rodrigues form
        (-1)^n (1-(mu rho)^2)^(-1/mu^2) d^n/drho^n (1-(mu rho)^2)^(1/mu^2 + n)
    through the equivalent polynomial ladder
        p_0 = 1,  p_{k+1} = (1 - mu^2 rho^2) p_k' - 2 mu^2 (s - k) rho p_k,
    with s = 1/mu^2 + n; the weight-factor powers cancel step by step, so
    H_n = (-1)^n p_n exactly.  Degree n, parity (-1)^n.
    """
    mu2 = mu**2
    s = 1.0 / mu2 + n
    p = np.array([1.0])
    weight = np.array([1.0, 0.0, -mu2])
    for k in range(n):
        dp = npoly.polyder(p)
        term = npoly.polymul(weight, dp) if len(p) > 1 else np.zeros(1)
        p = npoly.polyadd(term, npoly.polymul(np.array([0.0, -2.0 * mu2 * (s - k)]), p))
    coeffs = ((-1) ** n) * p
    # enforce exact parity: odd/even cross terms are identically zero
    coeffs[(n % 2) ^ 1 :: 2] = 0.0
    return coeffs


def _simpson(values: np.ndarray, h: float) -> float:
    if len(values) % 2 == 0:
        raise ValueError("composite Simpson requires an odd number of samples")
    w = np.ones(len(values))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, values)) * h / 3.0


def _weight_root(m: float, rho: np.ndarray) -> np.ndarray:
    return np.exp(np.log1p(-((m * rho) ** 2)) / (2.0 * m**2))


def rodrigues_psi(n: int, m: float, rho: np.ndarray) -> np.ndarray:
    """H_n(rho; m) times the weight root, Simpson-normalised on 40001 points."""
    hw = (1.0 - 1e-6) / m
    fine = np.linspace(-hw, hw, 40001)
    coeffs = modified_hermite(n, m)
    norm_sq = _simpson((npoly.polyval(fine, coeffs) * _weight_root(m, fine)) ** 2, fine[1] - fine[0])
    return npoly.polyval(rho, coeffs) * _weight_root(m, rho) / math.sqrt(norm_sq)


def gegenbauer_psi(n: int, m: float, rho: np.ndarray) -> np.ndarray:
    """sqrt(m w(m rho) / h_n) C_n^(lam)(m rho), lam = 1/m^2 + 1/2 (DLMF 18.3)."""
    lam = 1.0 / m**2 + 0.5
    log_hn = (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + gammaln(n + 2.0 * lam)
        - gammaln(n + 1.0)
        - math.log(n + lam)
        - 2.0 * gammaln(lam)
    )
    return eval_gegenbauer(n, lam, m * rho) * _weight_root(m, rho) * math.sqrt(m) * math.exp(-0.5 * log_hn)
