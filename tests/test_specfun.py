"""Special-function kernel against independent oracles (mpmath, scipy.quad)."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from gkstates import (
    ConvergenceError,
    DomainError,
    QuasiHarmonic,
    log_bessel_k,
    log_hyp0f1,
    specfun,
)
from gkstates.stats import _measure_cutoff, _measure_nodes
from measure_oracles import bessel_k


def brute_force_0f1(b, z, terms=200):
    """Independent oracle: plain partial sums at 50-digit precision."""
    mp.mp.dps = 50
    total = mp.mpf(0)
    term = mp.mpf(1)
    for k in range(terms):
        total += term
        term *= mp.mpf(z) / ((mp.mpf(b) + k) * (k + 1))
    return total


def test_hyp0f1_trivial():
    assert math.exp(log_hyp0f1(7.0, 0.0)) == 1.0
    # 0F1(3/2; x^2/4) = sinh(x)/x at x=1
    assert math.isclose(math.exp(log_hyp0f1(1.5, 0.25)), math.sinh(1.0), rel_tol=1e-13)


def test_hyp0f1_large_argument_vs_brute_force():
    ref = brute_force_0f1(102.0, 590.0)
    got = math.exp(log_hyp0f1(102.0, 590.0))
    assert abs(got - float(ref)) <= 1e-12 * float(ref)


# b < 1 puts the root of the levels' quadratic, (b - 1) n + n^2 = z, on its
# negative-a branch; at z = 1e-40 the other form divides by zero
@pytest.mark.parametrize(
    "b,z", [(2.5, 1.0), (102.0, 2490.0), (3.0, 459.0), (402.0, 2e5), (0.5, 1e-40), (0.5, 30.0)]
)
def test_log_hyp0f1_vs_mpmath(b, z):
    mp.mp.dps = 40
    ref = mp.log(mp.hyp0f1(b, z))
    assert abs(log_hyp0f1(b, z) - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))


def test_hyp0f1_monotone_in_z():
    zs = np.linspace(0.0, 50.0, 25)
    vals = [math.exp(log_hyp0f1(4.5, z)) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_hyp0f1_domain_and_convergence():
    with pytest.raises(DomainError):
        log_hyp0f1(-1.0, 2.0)
    with pytest.raises(DomainError):
        log_hyp0f1(2.0, -1.0)
    with pytest.raises(DomainError, match="finite z"):
        log_hyp0f1(2.0, math.inf)


def test_bessel_k_half_order():
    # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    x = 2.0
    assert math.isclose(bessel_k(0.5, x), math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel_tol=1e-10)


def test_bessel_k_order_symmetry():
    assert math.isclose(bessel_k(-3.0, 1.0), bessel_k(3.0, 1.0), rel_tol=1e-12)


def test_bessel_k_vs_quadrature_oracle():
    # independent adaptive quadrature of the defining integral
    nu, x = 5.0, 10.0
    ref, err = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
        0.0,
        12.0,
        epsabs=1e-18,
        epsrel=1e-12,
    )
    assert err < 1e-12 * ref
    assert abs(bessel_k(nu, x) - ref) <= 1e-8 * ref


@pytest.mark.parametrize("nu,x", [(0.0, 0.3), (2.25, 7.0), (26.0, 3.0), (26.0, 40.0), (101.0, 15.0)])
def test_bessel_k_vs_mpmath(nu, x):
    mp.mp.dps = 30
    ref = float(mp.besselk(nu, x))
    assert abs(bessel_k(nu, x) - ref) <= 1e-9 * ref


@pytest.mark.parametrize("nu,x", [(401.0, 0.05), (101.0, 0.026), (2.0, 1000.0), (0.0, 5000.0)])
def test_log_bessel_k_where_k_leaves_the_float_range(nu, x):
    # K_nu(x) over- or underflows float64 here; its log does not
    mp.mp.dps = 30
    ref = float(mp.log(mp.besselk(nu, x)))
    assert abs(ref) > 709.0
    assert abs(log_bessel_k(nu, x) - ref) <= 1e-13 * abs(ref)


def test_bessel_k_decreasing_in_x():
    xs = np.geomspace(0.1, 30.0, 15)
    vals = [bessel_k(2.0, x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)
    for bad in ([1.0, 0.0], [2.0, math.nan], [math.inf], [[1.0]]):
        with pytest.raises(DomainError):
            log_bessel_k(1.0, np.array(bad))
    for bad_order in (math.nan, math.inf):
        with pytest.raises(DomainError):
            log_bessel_k(bad_order, 1.0)


def measure_node_sets(u):
    """The x = 2 sqrt(J)/u of both node sets verify_measure_moments uses."""
    c, b = QuasiHarmonic(upsilon=u).coefficients
    j_hi = _measure_cutoff(c, b, 5)
    return [2.0 * np.sqrt(_measure_nodes(c, b, j_hi, total)[0]) / u for total in (2000, 1000)]


@pytest.mark.parametrize("u", [0.1, 0.2, 0.5, 1.0])
def test_log_bessel_k_array_over_the_measure_nodes(u):
    nu = 1.0 + 1.0 / u**2
    mp.mp.dps = 30
    for x in measure_node_sets(u):
        got = log_bessel_k(nu, x)
        assert got.shape == x.shape
        # the smallest x have the widest integrands and set the grid's end
        some = np.unique(np.r_[0:10, 0 : len(x) : 5, len(x) - 1])
        scalar = np.array([log_bessel_k(nu, float(x[i])) for i in some])
        assert np.max(np.abs(got[some] - scalar)) <= 1e-12
        few = np.unique(np.r_[0:3, np.linspace(0, len(x) - 1, 9).astype(int)])
        ref = np.array([float(mp.log(mp.besselk(nu, float(x[i])))) for i in few])
        assert np.max(np.abs(got[few] - ref)) <= 1e-10


def test_log_bessel_k_blocks_do_not_change_rows(monkeypatch):
    x = measure_node_sets(0.2)[1]
    whole = log_bessel_k(26.0, x)
    monkeypatch.setattr(specfun, "_BLOCK_CELLS", 1000)
    np.testing.assert_allclose(log_bessel_k(26.0, x), whole, rtol=1e-15, atol=1e-15)


def test_log_bessel_k_halves_a_coarse_step(monkeypatch):
    x = np.array([0.3, 3.0, 15.0])
    fine = log_bessel_k(2.25, x)
    monkeypatch.setattr(specfun, "_STEPS_PER_WIDTH", 3.0 / 16)
    monkeypatch.setattr(specfun, "_MAX_STEP", 2.0)
    assert np.max(np.abs(log_bessel_k(2.25, x) - fine)) <= 1e-13
    # a step the 2h sum cannot certify is an error, never a value
    monkeypatch.setattr(specfun, "_MAX_STEPS", 2)
    with pytest.raises(ConvergenceError):
        log_bessel_k(2.25, x)


def test_log_bessel_k_grid_end_is_bracketed():
    # an unbracketed Newton solve from t* = 0 overshoots to t ~ 130 here
    x = np.array([0.3])
    t_star = np.zeros(1)
    peak = -x
    t_end = specfun._grid_end(0.0, x, t_star, peak)
    root = math.acosh(1.0 + 60.0 / 0.3)  # -0.3 cosh t reaches peak - 60 here
    assert root - 1e-12 <= t_end <= root + 0.1
