"""Distribution moments, Mandel Q, the mean inversion and the measure check."""

import math

import mpmath as mp
import numpy as np
import pytest

from gkstates import (
    DomainError,
    Morse,
    QuasiHarmonic,
    distribution,
    log_rho_sequence,
    mandel_q,
    mandel_q_closed_form,
    mean_closed_form,
    solve_j,
    variance_closed_form,
    verify_measure_moments,
)
from measure_oracles import validate_bessel_reduction

UPS_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
J_GRID = np.geomspace(0.1, 500.0, 12)


def mpmath_moments(ups, J):
    """Independent oracle: 40-digit series moments of P_n."""
    mp.mp.dps = 40
    log_rho = mp.mpf(0)
    terms = []
    for n in range(600):
        if n > 0:
            log_rho += mp.log(mp.mpf(n) * (1 + mp.mpf(ups) ** 2 * (n + 1)))
        terms.append(mp.e ** (n * mp.log(J) - log_rho))
    norm = mp.fsum(terms)
    probs = [t / norm for t in terms]
    mean = mp.fsum(n * p for n, p in enumerate(probs))
    second = mp.fsum(n * n * p for n, p in enumerate(probs))
    return float(mean), float(second - mean**2)


def test_distribution_vacuum():
    d = distribution(QuasiHarmonic(upsilon=0.3), 0.0)
    assert d.probs.tolist() == [1.0]
    assert d.mean == 0.0 and d.variance == 0.0 and d.mandel_q == 0.0


def test_distribution_morse_poisson():
    d = distribution(Morse(mu=2.0), 4.0)  # lambda = J/mu^2 = 1
    assert abs(d.mean - 1.0) <= 1e-13
    assert abs(d.variance - 1.0) <= 1e-12


def test_distribution_mean_vs_oracle():
    d = distribution(QuasiHarmonic(alpha=1.0, upsilon=0.1), 5.9)
    mean_ref, var_ref = mpmath_moments(0.1, 5.9)
    assert abs(d.mean - mean_ref) <= 1e-12 * mean_ref
    assert abs(d.variance - var_ref) <= 1e-11 * var_ref


@pytest.mark.parametrize("ups", UPS_GRID)
def test_closed_forms_match_series(ups):
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    for J in J_GRID:
        d = distribution(m, float(J))
        assert abs(mean_closed_form(m, J) - d.mean) <= 1e-10 * max(1.0, d.mean)
        assert abs(variance_closed_form(m, J) - d.variance) <= 1e-9 * max(1.0, d.variance)
        assert abs(mandel_q_closed_form(m, J) - d.mandel_q) <= 1e-9 * max(1.0, abs(d.mandel_q))


def test_closed_form_trivial_limits():
    m = QuasiHarmonic(upsilon=0.2)
    assert mean_closed_form(m, 0.0) == 0.0
    assert variance_closed_form(m, 0.0) == 0.0
    # Poisson limit at upsilon = 0
    m0 = QuasiHarmonic(upsilon=0.0)
    assert mean_closed_form(m0, 7.0) == 7.0
    assert variance_closed_form(m0, 7.0) == 7.0
    assert mandel_q_closed_form(m0, 7.0) == 0.0


def test_mean_strictly_increasing_in_j():
    for ups in UPS_GRID:
        m = QuasiHarmonic(upsilon=ups)
        means = [mean_closed_form(m, float(J)) for J in J_GRID]
        assert all(b > a for a, b in zip(means, means[1:]))


def test_sub_poissonian_everywhere():
    for ups in UPS_GRID:
        m = QuasiHarmonic(upsilon=ups)
        for J in np.geomspace(0.1, 500.0, 20):
            assert mandel_q(m, float(J)) < 0.0


def test_mean_exceeds_variance():
    for ups in UPS_GRID:
        m = QuasiHarmonic(upsilon=ups)
        for J in J_GRID:
            d = distribution(m, float(J))
            assert d.mean > d.variance


def test_mandel_q_morse_is_zero():
    samples = [(0.5, 1.0), (0.5, 10.0), (1.0, 5.0), (1.0, 50.0), (2.0, 4.0),
               (2.0, 40.0), (3.0, 18.0), (3.0, 90.0), (4.0, 16.0), (1.5, 12.0)]
    for mu, J in samples:
        assert abs(mandel_q(Morse(mu=mu), J)) <= 1e-12


def test_mandel_q_conventions():
    assert mandel_q(QuasiHarmonic(upsilon=0.3), 0.0) == 0.0
    assert mandel_q(QuasiHarmonic(upsilon=0.1), 5.9) < 0.0
    with pytest.raises(DomainError):
        mandel_q(QuasiHarmonic(upsilon=0.1), -1.0)


def test_solve_j_round_trip():
    for model, n0 in [
        (QuasiHarmonic(upsilon=0.1), 5.0),
        (QuasiHarmonic(upsilon=1.0), 20.0),
        (Morse(mu=1.0), 12.0),
        (Morse(mu=0.5), 500.0),  # brackets J = 1252.5 and 2502.5: windows far from n = 0
        (Morse(mu=0.5), 1000.0),
    ]:
        J = solve_j(model, n0)
        assert abs(distribution(model, J).mean - n0) <= 1e-8


def test_solve_j_morse_closed_form():
    # Poisson mean J/mu^2 -> J = n0 mu^2
    assert abs(solve_j(Morse(mu=3.0), 2.0) - 18.0) <= 1e-6
    assert solve_j(Morse(mu=3.0), 0.0) == 0.0


def test_measure_rhs_identity():
    # Gamma closed form of the moments equals rho_n itself
    for ups in (0.2, 0.5):
        m = QuasiHarmonic(upsilon=ups)
        log_rho = log_rho_sequence(m, 20)
        b = 2.0 + 1.0 / ups**2
        for n in range(21):
            closed = (
                math.lgamma(n + 1.0)
                + 2.0 * n * math.log(ups)
                + math.lgamma(b + n)
                - math.lgamma(b)
            )
            assert abs(closed - log_rho[n]) <= 1e-12 * max(1.0, abs(log_rho[n]))


def test_bessel_reduction_validation():
    rows = validate_bessel_reduction()
    assert len(rows) == 3
    for row in rows:
        assert row.rel_err <= 1e-8


def test_bessel_reduction_vs_mpmath_meijerg():
    mp.mp.dps = 30
    for nu, x in [(5.5, 4.0), (2.25, 9.0)]:
        ref = float(mp.meijerg([[], []], [[0, nu], []], x))
        mine = 2.0 * x ** (0.5 * nu) * float(mp.besselk(nu, 2 * math.sqrt(x)))
        assert abs(mine - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("ups", [0.2, 0.5])
def test_measure_moments(ups):
    rows = verify_measure_moments(QuasiHarmonic(upsilon=ups), n_max=5)
    assert rows[0].n == 0 and abs(rows[0].lhs - 1.0) <= 1e-6
    for row in rows:
        assert row.converged
        assert row.rel_err < 1e-6
    if ups == 0.5:
        assert abs(rows[1].rhs - 1.5) <= 1e-12  # rho_1 = e_1 = 1.5


def test_measure_moments_domain():
    with pytest.raises(DomainError):
        verify_measure_moments(Morse(mu=1.0))
    with pytest.raises(DomainError):
        verify_measure_moments(QuasiHarmonic(upsilon=0.0))


@pytest.mark.parametrize("nodes", [0, -40, 19])
def test_measure_moments_need_one_panel(nodes):
    with pytest.raises(DomainError, match=f"at least 20, one 20-node Gauss-Legendre panel; got {nodes}"):
        verify_measure_moments(QuasiHarmonic(upsilon=0.5), total_nodes=nodes)
    # one panel is enough to run
    assert len(verify_measure_moments(QuasiHarmonic(upsilon=0.5), n_max=1, total_nodes=20)) == 2

