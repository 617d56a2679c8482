"""Deformed Hermite polynomials, eigenfunctions and the operator residual."""

import math
import warnings

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
    residual_grid,
    solve_j,
    weight_deformation,
)
from position_oracles import _simpson, gegenbauer_psi, modified_hermite, rodrigues_psi


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
    assert list(modified_hermite(0, 0.3)) == [1.0]
    mu = 0.3
    p1 = modified_hermite(1, mu)
    assert p1[0] == 0.0
    assert math.isclose(p1[1], 2.0 * (1.0 + mu**2), rel_tol=1e-14)


@pytest.mark.parametrize("n,mu", [(2, 0.5), (3, 0.25), (4, 1.0)])
def test_modified_hermite_vs_rodrigues_oracle(n, mu):
    got = modified_hermite(n, mu)
    want = rodrigues_oracle(n, mu)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


def test_modified_hermite_small_mu_limit():
    # H_3 = 8 x^3 - 12 x
    got = modified_hermite(3, 1e-4)
    assert abs(got[1] + 12.0) <= 1e-3 * 12.0
    assert abs(got[3] - 8.0) <= 1e-3 * 8.0


@pytest.mark.parametrize("n", range(13))
def test_modified_hermite_parity_and_degree(n):
    coeffs = modified_hermite(n, 0.4)
    assert len(coeffs) == n + 1
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


@pytest.mark.parametrize("ups", [0.1, 0.2, 0.5])
def test_eigenfunction_matches_rodrigues_oracle(ups):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    m = weight_deformation(model)
    grid = default_grid(model)
    for n in range(13):
        ref = rodrigues_psi(n, m, grid.points)
        assert np.max(np.abs(eigenfunction(n, model, grid) - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("ups", [0.1, 0.2, 0.5])
def test_eigenfunction_matches_gegenbauer_closed_form(ups):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    m = weight_deformation(model)
    grid = default_grid(model)
    for n in range(41):
        ref = gegenbauer_psi(n, m, grid.points)
        assert np.max(np.abs(eigenfunction(n, model, grid) - ref)) <= 1e-12 * np.max(np.abs(ref))


# Near the turning point of these orders psi_0 underflows float64 (about
# e^-(n+1/2)) while the polynomial overflows it, so the rows must run scaled.
@pytest.mark.parametrize("n", [800, 1000])
def test_high_order_eigenfunction_is_normalised_where_the_weight_underflows(n):
    model = QuasiHarmonic(alpha=1.0, upsilon=0.01)
    grid = default_grid(model, n_points=40001)
    psi = eigenfunction(n, model, grid)
    assert abs(_simpson(psi**2, grid.h) - 1.0) <= 1e-8


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


# upsilon = 1: psi_n ~ t^(1/4) near +-1/m, where its slope is unbounded
@pytest.mark.parametrize("ups,n", [(0.1, 0), (0.1, 5), (0.2, 5), (0.5, 3), (0.5, 10), (1.0, 10)])
def test_hamiltonian_residual_small(ups, n):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    assert hamiltonian_residual(n, model) < 1e-6


def test_hamiltonian_residual_alpha_scaling():
    # the residual norm carries energy units: it scales linearly with alpha
    base = hamiltonian_residual(1, QuasiHarmonic(alpha=1.0, upsilon=0.2))
    scaled = hamiltonian_residual(1, QuasiHarmonic(alpha=2.5, upsilon=0.2))
    assert scaled < 2.5e-6
    assert scaled / 2.5 == pytest.approx(base, rel=1e-3)


def test_residual_fourth_order_convergence():
    # coarse, truncation-dominated grids: halving h divides the defect by ~16
    model = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    m = weight_deformation(model)
    hw = 1.0 / m

    def grid_of(npts):
        margin = 1e-4 * hw
        return GridSpec(points=np.linspace(-hw + margin, hw - margin, npts), margin=margin)

    r_coarse = hamiltonian_residual(10, model, grid_of(2001))
    r_fine = hamiltonian_residual(10, model, grid_of(4001))
    assert r_coarse / r_fine == pytest.approx(16.0, rel=0.05)


def test_residual_is_float64_and_platform_independent():
    model = QuasiHarmonic(alpha=1.0, upsilon=0.2)
    assert residual_grid(model).points.dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hamiltonian_residual(3, model) < 1e-6


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


# States past the range of monomial coefficients: components up to n = 1292.
DENSITY_STATES = [(0.1, 40), (0.1, 60), (0.2, 60), (0.1, 200), (0.01, 300), (0.01, 1000)]


@pytest.mark.parametrize("ups,n0", DENSITY_STATES)
def test_coherent_density_integrates_to_one(ups, n0):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    grid = default_grid(model)
    st = build_state(model, solve_j(model, n0))
    for t in (0.0, 11.0):
        assert abs(_simpson(coherent_density(st, grid, time=t), grid.h) - 1.0) <= 1e-8


def test_coherent_density_past_a_thousand_components():
    model = QuasiHarmonic(alpha=1.0, upsilon=0.01)
    grid = default_grid(model, n_points=16001)
    st = build_state(model, solve_j(model, 8000))
    assert st.truncation_n > 1000
    assert abs(_simpson(coherent_density(st, grid), grid.h) - 1.0) <= 1e-10


# gegenbauer_psi overflows at upsilon = 0.01, so those states are checked by
# their integrals above only.
@pytest.mark.parametrize("ups,n0", DENSITY_STATES[:4])
def test_coherent_density_matches_oracle_series(ups, n0):
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    m = weight_deformation(model)
    grid = default_grid(model)
    st = build_state(model, solve_j(model, n0))
    psi = np.array(
        [rodrigues_psi(n, m, grid.points) if n <= 12 else gegenbauer_psi(n, m, grid.points) for n in st.n]
    )
    for t in (0.0, 11.0):
        ref = np.abs(st.coefficients(t) @ psi) ** 2
        assert np.max(np.abs(coherent_density(st, grid, time=t) - ref)) <= 1e-10 * np.max(ref)


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
    # an explicit quasi-harmonic grid, so that no grid builder can raise first
    model = QuasiHarmonic(upsilon=0.2)
    grid = residual_grid(model)
    morse = Morse(mu=1.0)
    with pytest.raises(DomainError, match="quasi-harmonic model only"):
        coherent_density(build_state(morse, 4.0), grid)
    for fn in (eigenfunction, hamiltonian_residual):
        with pytest.raises(DomainError, match="quasi-harmonic model only"):
            fn(2, morse, grid)
        with pytest.raises(DomainError, match="quantum number must be >= 0, got -1"):
            fn(-1, model, grid)
