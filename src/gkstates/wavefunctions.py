"""Position-space eigenfunctions of the quasi-harmonic oscillator.

The eigenfunctions live on the dimensionless coordinate rho = x sqrt(2 alpha)
inside the mass singularity, |rho| < 1/m:

    psi_n(rho) = N_n * H_n(rho; m) * (1 - (m rho)^2)^(1/(2 m^2)),

where H_n is the deformed Hermite polynomial generated by the Rodrigues
ladder below and m is the weight deformation tied to the oscillator
parameters (see weight_deformation).  In the m -> 0 limit the weight factor
tends to exp(-rho^2/2) and H_n reduces to the ordinary Hermite polynomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .coherent import CoherentState
from .errors import DomainError, GridError
from .spectrum import QuasiHarmonic, SpectrumModel

__all__ = [
    "PolynomialRep",
    "modified_hermite",
    "weight_deformation",
    "GridSpec",
    "default_grid",
    "residual_grid",
    "eigenfunction",
    "hamiltonian_residual",
    "coherent_density",
]


@dataclass(frozen=True)
class PolynomialRep:
    """Dense real polynomial, coefficients in ascending powers."""

    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return npoly.polyval(x, np.asarray(self.coeffs))

    def derivative(self) -> "PolynomialRep":
        return PolynomialRep(tuple(npoly.polyder(np.asarray(self.coeffs))))


def modified_hermite(n: int, mu: float, dtype=np.float64) -> PolynomialRep:
    """Deformed Hermite polynomial H_n(rho; mu) as explicit coefficients.

    Realises the Rodrigues form
        (-1)^n (1-(mu rho)^2)^(-1/mu^2) d^n/drho^n (1-(mu rho)^2)^(1/mu^2 + n)
    through the equivalent polynomial ladder
        p_0 = 1,  p_{k+1} = (1 - mu^2 rho^2) p_k' - 2 mu^2 (s - k) rho p_k,
    with s = 1/mu^2 + n; the weight-factor powers cancel step by step, so
    H_n = (-1)^n p_n exactly.  Degree n, parity (-1)^n.
    """
    if n < 0:
        raise DomainError(f"polynomial order must be >= 0, got {n}")
    if not mu > 0:
        raise DomainError(f"deformation mu must be positive, got {mu}")
    mu2 = dtype(mu) ** 2
    s = dtype(1.0) / mu2 + n
    p = np.array([1.0], dtype=dtype)
    weight = np.array([1.0, 0.0, -mu2], dtype=dtype)
    for k in range(n):
        dp = npoly.polyder(p)
        term = npoly.polymul(weight, dp) if len(p) > 1 else np.zeros(1, dtype=dtype)
        p = npoly.polyadd(term, npoly.polymul(np.array([0.0, -2.0 * mu2 * (s - k)], dtype=dtype), p))
    coeffs = ((-1) ** n) * p
    # enforce exact parity: odd/even cross terms are identically zero
    coeffs[(n % 2) ^ 1 :: 2] = 0.0
    return PolynomialRep(tuple(coeffs))


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
    hw = 1.0 / m
    margin = margin_rel * hw
    return GridSpec(points=np.linspace(-hw + margin, hw - margin, n_points), margin=margin)


def residual_grid(model: SpectrumModel, h_target: float = 2e-5) -> GridSpec:
    """Fine grid for the finite-difference residual check.

    The step is ~2e-5 (balancing h^2 truncation against rounding noise in the
    second difference) and the boundary margin keeps the local weight factor
    t = 1 - (m rho)^2 above ~1000 h, where the centred stencil is still
    trustworthy even for weight exponents < 2.
    """
    m = weight_deformation(model)
    hw = 1.0 / m
    n_points = min(2_000_001, int(math.ceil(2.0 * hw / h_target)) + 1)
    h0 = 2.0 * hw / (n_points - 1)
    t_min = max(2e-6, 1000.0 * h0)
    margin = t_min / (2.0 * m)
    # extended-precision points: double-precision position jitter would feed
    # straight into the second difference at this step size
    pts = np.linspace(
        np.longdouble(-hw + margin), np.longdouble(hw - margin), n_points, dtype=np.longdouble
    )
    return GridSpec(points=pts, margin=margin)


def _simpson(values: np.ndarray, h: float) -> float:
    if len(values) % 2 == 0:
        raise GridError("composite Simpson requires an odd number of samples")
    w = np.ones(len(values))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, values)) * h / 3.0


def _weight_power(model: QuasiHarmonic, rho: np.ndarray, dtype=np.float64):
    m = dtype(weight_deformation(model))
    arg = -((m * rho) ** 2)
    if np.any(arg <= -1.0):
        raise GridError("grid touches or crosses the singular points rho = +-1/m")
    s = dtype(1.0) / (2.0 * m**2)
    return np.exp(s * np.log1p(arg))


def eigenfunction(n: int, model: SpectrumModel, grid: GridSpec | None = None) -> np.ndarray:
    """Sampled psi_n on the grid, normalised so Simpson(|psi_n|^2) = 1."""
    if not isinstance(model, QuasiHarmonic):
        raise DomainError("eigenfunctions exist for the quasi-harmonic model only")
    if n < 0:
        raise DomainError(f"quantum number must be >= 0, got {n}")
    if grid is None:
        grid = default_grid(model)
    rho = grid.points
    m = weight_deformation(model)
    values = modified_hermite(n, m)(rho) * _weight_power(model, rho)
    norm_sq = _simpson(values**2, grid.h)
    if not (norm_sq > 0 and math.isfinite(norm_sq)):
        raise GridError(f"normalisation integral ill-conditioned (got {norm_sq})")
    return values / math.sqrt(norm_sq)


def hamiltonian_residual(n: int, model: SpectrumModel, grid: GridSpec | None = None) -> float:
    """Relative L2 defect of the finite-difference eigenvalue equation.

    Applies the oscillator Hamiltonian -- in rho coordinates
    (alpha/2)[-t d^2/drho^2 + 2 m^2 rho d/drho + rho^2/t], t = 1-(m rho)^2,
    the image of (1/4)[-(1-(lambda x)^2) d^2/dx^2 + 2 lambda^2 x d/dx
    + 4 alpha^2 x^2/(1-(lambda x)^2)] under rho = x sqrt(2 alpha) -- to the
    sampled psi_n with centred 2nd-order stencils and returns
    ||H psi - E_n psi||_2 / ||psi||_2 over the interior points.

    The arithmetic runs in extended precision: at the step sizes needed to
    push the h^2 truncation error below 1e-6, double-precision rounding in
    the second difference would dominate the residual.
    """
    if not isinstance(model, QuasiHarmonic):
        raise DomainError("residual check exists for the quasi-harmonic model only")
    if n < 0:
        raise DomainError(f"quantum number must be >= 0, got {n}")
    if grid is None:
        grid = residual_grid(model)
    if len(grid.points) < 2000:
        raise GridError(f"residual grid too coarse ({len(grid.points)} points, need >= 2000)")
    ld = np.longdouble
    if np.finfo(ld).eps > 1e-18:
        warnings.warn(
            "numpy.longdouble is not extended precision on this platform; "
            "the residual floor rises to ~3e-6 at the default step",
            stacklevel=2,
        )
    rho = np.asarray(grid.points, dtype=ld)
    h = rho[1] - rho[0]
    m = ld(weight_deformation(model))
    t = ld(1.0) - (m * rho) ** 2
    psi = modified_hermite(n, float(m), dtype=ld)(rho) * _weight_power(model, rho, dtype=ld)
    d2 = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
    d1 = (psi[2:] - psi[:-2]) / (2.0 * h)
    ti, ri, pi = t[1:-1], rho[1:-1], psi[1:-1]
    h_psi = (ld(model.alpha) / 2.0) * (-ti * d2 + 2.0 * m**2 * ri * d1 + ri**2 / ti * pi)
    res = h_psi - ld(model.energy(n)) * pi
    num = math.sqrt(float(np.sum(res**2) * h))
    den = math.sqrt(float(np.sum(pi**2) * h))
    if not (math.isfinite(num) and den > 0):
        raise GridError("residual blew up near the boundary; increase the grid margin")
    return num / den


def coherent_density(
    state: CoherentState, grid: GridSpec | None = None, time: float = 0.0
) -> np.ndarray:
    """Position density |sum_n c_n(t) psi_n(rho)|^2 of an evolving state."""
    model = state.model
    if not isinstance(model, QuasiHarmonic):
        raise DomainError("position densities exist for the quasi-harmonic model only")
    if state.truncation_n > 1000:
        raise DomainError(
            f"state carries {state.truncation_n} components; densities are "
            "intended for desk-scale J"
        )
    if grid is None:
        grid = default_grid(model)
    acc = np.zeros(len(grid.points), dtype=complex)
    for n, c in zip(state.n.tolist(), state.coefficients(time)):
        acc += c * eigenfunction(n, model, grid)
    return np.abs(acc) ** 2
