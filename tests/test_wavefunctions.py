"""Deformed Hermite polynomials, eigenfunctions and the operator residual."""

import math

import numpy as np
import pytest

from gkstates import (
    DomainError,
    GridError,
    GridSpec,
    Morse,
    QuasiHarmonic,
    build_state,
    coherent_density,
    default_grid,
    eigenfunction,
    hamiltonian_residual,
    modified_hermite,
    residual_grid,
    weight_deformation,
)
from gkstates.wavefunctions import _simpson


def rodrigues_oracle(n, mu):
    """Independent symbolic Rodrigues evaluation (sympy)."""
    import sympy as sp

    r = sp.symbols("r")
    mu_exact = sp.nsimplify(mu)
    s = sp.Rational(1) / mu_exact**2 + n
    f = (1 - (mu_exact * r) ** 2) ** s
    expr = (-1) ** n * sp.diff(f, r, n) / (1 - (mu_exact * r) ** 2) ** (s - n)
    poly = sp.Poly(sp.expand(sp.cancel(sp.powsimp(expr))), r)
    return [float(poly.coeff_monomial(r**k)) for k in range(n + 1)]


def test_modified_hermite_low_orders():
    assert list(modified_hermite(0, 0.3).coeffs) == [1.0]
    mu = 0.3
    p1 = modified_hermite(1, mu)
    assert p1.coeffs[0] == 0.0
    assert math.isclose(p1.coeffs[1], 2.0 * (1.0 + mu**2), rel_tol=1e-14)


@pytest.mark.parametrize("n,mu", [(2, 0.5), (3, 0.25), (4, 1.0)])
def test_modified_hermite_vs_rodrigues_oracle(n, mu):
    got = modified_hermite(n, mu).coeffs
    want = rodrigues_oracle(n, mu)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def test_modified_hermite_small_mu_limit():
    # H_3 = 8 x^3 - 12 x
    got = modified_hermite(3, 1e-4).coeffs
    assert abs(got[1] + 12.0) <= 1e-3 * 12.0
    assert abs(got[3] - 8.0) <= 1e-3 * 8.0


@pytest.mark.parametrize("n", range(13))
def test_modified_hermite_parity_and_degree(n):
    p = modified_hermite(n, 0.4)
    assert p.degree == n
    coeffs = np.asarray(p.coeffs)
    assert np.all(coeffs[(n % 2) ^ 1 :: 2] == 0.0)  # exact parity
    assert coeffs[n] != 0.0


def test_weight_deformation_dictionary():
    # the weight deformation squares to 2 upsilon^2 (spectrum coefficient
    # upsilon^2 = m^2/2), not (2 upsilon)^2
    m = weight_deformation(QuasiHarmonic(upsilon=0.5))
    assert math.isclose(m**2, 2 * 0.5**2, rel_tol=1e-15)
    with pytest.raises(DomainError):
        weight_deformation(QuasiHarmonic(upsilon=0.0))
    with pytest.raises(DomainError):
        weight_deformation(Morse(mu=1.0))


def test_ground_state_positive_even_normalised():
    model = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    grid = default_grid(model)
    psi0 = eigenfunction(0, model, grid)
    assert np.all(psi0 > 0.0)
    assert np.max(np.abs(psi0 - psi0[::-1])) < 1e-12
    assert abs(_simpson(psi0**2, grid.h) - 1.0) <= 1e-10


@pytest.mark.parametrize("ups", [0.1, 0.2, 0.5])
def test_orthonormality(ups):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    grid = default_grid(model)
    funcs = [eigenfunction(n, model, grid) for n in range(9)]
    for i in range(9):
        for j in range(i, 9):
            inner = _simpson(funcs[i] * funcs[j], grid.h)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8


def test_small_mu_matches_constant_mass_oscillator():
    # upsilon tiny: psi_n -> Hermite_n(rho) exp(-rho^2/2) / sqrt(2^n n! sqrt(pi))
    model = QuasiHarmonic(alpha=1.0, upsilon=5e-5)
    hw = 12.0  # compare on a window where the harmonic functions live
    grid = GridSpec(points=np.linspace(-hw, hw, 4001), margin=0.0)
    for n in range(7):
        psi = eigenfunction(n, model, grid)
        herm = np.polynomial.hermite.hermval(grid.points, [0.0] * n + [1.0])
        ref = herm * np.exp(-grid.points**2 / 2.0)
        ref /= math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        # sign convention of both families is positive leading coefficient
        assert np.max(np.abs(psi - ref)) < 1e-3


@pytest.mark.parametrize("ups,n", [(0.1, 0), (0.1, 5), (0.2, 5), (0.5, 3), (0.5, 10)])
def test_hamiltonian_residual_small(ups, n):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    assert hamiltonian_residual(n, model) < 1e-6


def test_hamiltonian_residual_alpha_scaling():
    # the residual norm carries energy units: it scales linearly with alpha
    base = hamiltonian_residual(1, QuasiHarmonic(alpha=1.0, upsilon=0.2))
    scaled = hamiltonian_residual(1, QuasiHarmonic(alpha=2.5, upsilon=0.2))
    assert scaled < 2.5e-6
    assert scaled / 2.5 == pytest.approx(base, rel=1e-3)


def test_residual_second_order_convergence():
    # coarse, truncation-dominated grids: halving h divides the defect by ~4
    model = QuasiHarmonic(alpha=1.0, upsilon=0.2)
    m = weight_deformation(model)
    hw = 1.0 / m

    def grid_of(npts):
        margin = 1e-4 * hw
        return GridSpec(points=np.linspace(-hw + margin, hw - margin, npts), margin=margin)

    r_coarse = hamiltonian_residual(3, model, grid_of(2001))
    r_fine = hamiltonian_residual(3, model, grid_of(4001))
    assert r_coarse / r_fine == pytest.approx(4.0, rel=0.05)


def test_residual_grid_guards():
    model = QuasiHarmonic(alpha=1.0, upsilon=0.2)
    with pytest.raises(GridError):
        hamiltonian_residual(0, model, GridSpec(points=np.linspace(-1, 1, 999), margin=0.0))
    m = weight_deformation(model)
    touching = np.linspace(-1.0 / m, 1.0 / m, 4001)  # hits the singular points
    with pytest.raises(GridError):
        eigenfunction(0, model, GridSpec(points=touching, margin=0.0))
    assert len(residual_grid(model).points) >= 2000


def test_coherent_density_vacuum_and_norm():
    model = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    grid = default_grid(model)
    st0 = build_state(model, 0.0)
    dens = coherent_density(st0, grid)
    psi0 = eigenfunction(0, model, grid)
    assert np.max(np.abs(dens - psi0**2)) < 1e-12
    st = build_state(model, 5.9)
    for t in (0.0, 0.37, 11.0):
        dens_t = coherent_density(st, grid, time=t)
        assert abs(_simpson(dens_t, grid.h) - 1.0) <= 1e-6


def test_coherent_density_pairs_each_coefficient_with_its_level():
    # the window of this state starts at n = 1, not 0
    model = QuasiHarmonic(alpha=1.0, upsilon=1.0)
    grid = default_grid(model)
    st = build_state(model, 1000.0)
    assert st.n[0] > 0
    ref = sum(c * eigenfunction(int(n), model, grid) for n, c in zip(st.n, st.coefficients(0.3)))
    assert np.max(np.abs(coherent_density(st, grid, time=0.3) - np.abs(ref) ** 2)) < 1e-12


def test_coherent_density_full_revival():
    model = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    grid = default_grid(model)
    st = build_state(model, 5.9, gamma=0.4)
    t_rev = 2 * math.pi / 0.1**2
    d0 = coherent_density(st, grid, time=0.0)
    d1 = coherent_density(st, grid, time=t_rev)
    assert np.max(np.abs(d1 - d0)) < 1e-6


def test_coherent_density_rejects_morse():
    st = build_state(Morse(mu=1.0), 4.0)
    with pytest.raises(DomainError):
        coherent_density(st)
