"""Position-space eigenfunctions of the quasi-harmonic oscillator.

The eigenfunctions live on the dimensionless coordinate rho = x sqrt(2 alpha)
inside the mass singularity, |rho| < 1/m:

    psi_n(rho) = N_n * H_n(rho; m) * (1 - (m rho)^2)^(1/(2 m^2)),

where m is the weight deformation tied to the oscillator parameters (see
weight_deformation).  The deformed Hermite polynomial H_n(rho; m) is the
Gegenbauer polynomial C_n^(lam)(m rho) with lam = 1/m^2 + 1/2 (DLMF 18.3,
18.9), so every psi_n comes from one three-term recurrence of orthonormal
Gegenbauer polynomials times the square root of their weight; the norms
N_n are closed-form, and psi_n is orthonormal on (-1/m, 1/m) whatever grid
samples it.  In the m -> 0 limit the weight factor tends to exp(-rho^2/2)
and H_n reduces to the ordinary Hermite polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CoherentState
from .errors import DomainError, GridError
from .spectrum import QuasiHarmonic, SpectrumModel

__all__ = [
    "weight_deformation",
    "GridSpec",
    "default_grid",
    "residual_grid",
    "eigenfunction",
    "hamiltonian_residual",
    "coherent_density",
]


def weight_deformation(model: SpectrumModel) -> float:
    """Deformation m entering H_n(rho; m) and the weight (1-(m rho)^2)^(1/2m^2).

    The singularity parameter of the Hamiltonian is lambda = m sqrt(2 alpha),
    i.e. m = lambda/sqrt(2 alpha).  Requiring the model spectrum
    E_n = alpha[(n+1/2) + upsilon^2 n(n+1)] to be the exact eigenvalues of
    that Hamiltonian fixes m^2 = 2 upsilon^2: the operator's true spectrum
    carries m^2/2 per n(n+1), so identifying m with 2 upsilon instead would
    leave an O(upsilon^2) defect in the eigenvalue equation.
    """
    if not isinstance(model, QuasiHarmonic):
        raise DomainError("position-space eigenfunctions exist for the quasi-harmonic model only")
    if model.upsilon == 0.0:
        raise DomainError("upsilon = 0 has no mass singularity; use a small upsilon instead")
    return math.sqrt(2.0) * model.upsilon


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform grid strictly inside the singular interval (-1/m, 1/m)."""

    points: np.ndarray
    margin: float  # distance left between the end points and the singularity

    def __post_init__(self):
        if len(self.points) < 3:
            raise GridError("grid needs at least 3 points")

    @property
    def h(self) -> float:
        return float(self.points[1] - self.points[0])


def default_grid(model: SpectrumModel, n_points: int = 4001, margin_rel: float = 1e-6) -> GridSpec:
    """Default sampling grid: n_points across (-1/m, 1/m), margin 1e-6 of the half-width."""
    m = weight_deformation(model)
    if n_points % 2 == 0:
        raise GridError("n_points must be odd (composite Simpson quadrature)")
    if not math.isfinite(margin_rel):
        raise DomainError(f"margin_rel must be finite, got {margin_rel}")
    hw = 1.0 / m
    margin = margin_rel * hw
    return GridSpec(points=np.linspace(-hw + margin, hw - margin, n_points), margin=margin)


_RESIDUAL_STEP = 5e-4  # the target grid step of residual_grid


def residual_grid(model: SpectrumModel) -> GridSpec:
    """Float64 grid for the finite-difference residual check.

    At the step ~5e-4 the h^4 truncation error of the 4th-order stencils
    falls below their rounding noise.  The end points stay 50 steps inside
    the singular points, where t = 1 - (m rho)^2 ~ 100 m h >= ~1e-4: there the
    stencils still resolve the weight factor t^(1/(2 m^2)) when its exponent
    is below 1 (upsilon > 1/2).
    """
    m = weight_deformation(model)
    hw = 1.0 / m
    n_points = min(2_000_001, max(2001, int(math.ceil(2.0 * hw / _RESIDUAL_STEP)) + 1))
    margin = 100.0 * hw / (n_points - 1)
    return GridSpec(points=np.linspace(-hw + margin, hw - margin, n_points), margin=margin)


def _log_weight_root(model: QuasiHarmonic, rho: np.ndarray) -> np.ndarray:
    """ln (1-(m rho)^2)^(1/(2 m^2)), the log of the weight factor of psi_n."""
    m = weight_deformation(model)
    arg = -((m * rho) ** 2)
    if np.any(arg <= -1.0):
        raise GridError("grid touches or crosses the singular points rho = +-1/m")
    return np.log1p(arg) / (2.0 * m**2)


_RESCALE_AT = 1e100


def _psi_sum(model: QuasiHarmonic, rho: np.ndarray, coefficients, n_lo: int = 0) -> np.ndarray:
    """sum_k coefficients[k] psi_{n_lo + k}(rho), two recurrence rows at a time.

    With x = m rho and lam = 1/m^2 + 1/2, psi_n = sqrt(m w(x)) q_n(x), where
    w = (1 - x^2)^(lam - 1/2) and q_n are the orthonormal Gegenbauer
    polynomials: q_0 = 1/sqrt(h_0), h_0 = sqrt(pi) Gamma(lam+1/2)/Gamma(lam+1),
    and x q_n = b_{n+1} q_{n+1} + b_n q_{n-1} with
    b_n^2 = n (n+2 lam-1) / (4 (n+lam) (n+lam-1)).  Near the turning point of
    a high order the weight underflows float64 while q_n overflows it, so the
    rows and the sum run in scaled form, psi_n = exp(log_scale) * row_n: the
    rows start at 1 with log_scale = ln psi_0, and once a row passes
    _RESCALE_AT its size is folded into log_scale point by point.  A value
    lost to underflow is then below _RESCALE_AT * 1e-308 = 1e-208.
    """
    if n_lo < 0:
        raise DomainError(f"quantum number must be >= 0, got {n_lo}")
    m = weight_deformation(model)
    lam = 1.0 / m**2 + 0.5
    x = m * rho
    log_h0 = 0.5 * math.log(math.pi) + math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0)
    log_scale = _log_weight_root(model, rho) + 0.5 * (math.log(m) - log_h0)
    row = np.ones_like(x)
    prev = np.zeros_like(x)
    size = np.empty_like(x)
    coefficients = np.asarray(coefficients)
    acc = np.zeros(len(x), dtype=np.result_type(x, coefficients))
    b = 0.0
    for n in range(n_lo + len(coefficients)):
        if n:
            b_next = math.sqrt(n * (n + 2.0 * lam - 1.0) / (4.0 * (n + lam) * (n + lam - 1.0)))
            prev, row = row, (x * row - b * prev) / b_next
            b = b_next
            if np.abs(row, out=size).max() > _RESCALE_AT:
                np.maximum(np.maximum(size, np.abs(prev)), 1.0, out=size)
                row /= size
                prev /= size
                acc /= size
                log_scale += np.log(size)
        if n >= n_lo:
            acc += coefficients[n - n_lo] * row
    return acc * np.exp(log_scale)


def eigenfunction(n: int, model: SpectrumModel, grid: GridSpec | None = None) -> np.ndarray:
    """Sampled psi_n on the grid, orthonormal on (-1/m, 1/m) by closed-form norms."""
    weight_deformation(model)
    if grid is None:
        grid = default_grid(model)
    return _psi_sum(model, grid.points, [1.0], n_lo=n)


def hamiltonian_residual(n: int, model: SpectrumModel, grid: GridSpec | None = None) -> float:
    """Relative L2 defect of the finite-difference eigenvalue equation.

    Applies the oscillator Hamiltonian -- in rho coordinates
    (alpha/2)[-t d^2/drho^2 + 2 m^2 rho d/drho + rho^2/t], t = 1-(m rho)^2,
    the image of (1/4)[-(1-(lambda x)^2) d^2/dx^2 + 2 lambda^2 x d/dx
    + 4 alpha^2 x^2/(1-(lambda x)^2)] under rho = x sqrt(2 alpha) -- to the
    sampled psi_n with centred 4th-order float64 stencils and returns
    ||H psi - E_n psi||_2 / ||psi||_2 over the interior points.
    """
    m = weight_deformation(model)
    if grid is None:
        grid = residual_grid(model)
    if len(grid.points) < 2000:
        raise GridError(f"residual grid too coarse ({len(grid.points)} points, need >= 2000)")
    rho = grid.points
    h = grid.h
    psi = _psi_sum(model, rho, [1.0], n_lo=n)
    mid = psi[2:-2]
    d1 = (8.0 * (psi[3:-1] - psi[1:-3]) - (psi[4:] - psi[:-4])) / (12.0 * h)
    d2 = (16.0 * (psi[3:-1] + psi[1:-3]) - (psi[4:] + psi[:-4]) - 30.0 * mid) / (12.0 * h**2)
    ri = rho[2:-2]
    ti = 1.0 - (m * ri) ** 2
    h_psi = (model.alpha / 2.0) * (-ti * d2 + 2.0 * m**2 * ri * d1 + ri**2 / ti * mid)
    res = h_psi - model.energy(n) * mid
    num = math.sqrt(float(np.sum(res**2)) * h)
    den = math.sqrt(float(np.sum(mid**2)) * h)
    if not (math.isfinite(num) and den > 0):
        raise GridError("residual blew up near the boundary; increase the grid margin")
    return num / den


def coherent_density(
    state: CoherentState, grid: GridSpec | None = None, time: float = 0.0
) -> np.ndarray:
    """Position density |sum_n c_n(t) psi_n(rho)|^2 of an evolving state."""
    model = state.model
    weight_deformation(model)
    if not math.isfinite(time):
        raise DomainError(f"time must be finite, got {time}")
    if grid is None:
        grid = default_grid(model)
    amplitude = _psi_sum(model, grid.points, state.coefficients(time), n_lo=int(state.n[0]))
    return np.abs(amplitude) ** 2
