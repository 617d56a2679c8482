"""Distribution moments, Mandel Q, the mean inversion and the measure check."""

import hashlib
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies

from gkstates import (
    ConvergenceError,
    DomainError,
    MathewsLakshmanan,
    Morse,
    QuasiHarmonic,
    TruncatedSpectrumError,
    distribution,
    log_rho_sequence,
    mandel_q,
    mandel_q_closed_form,
    mean_closed_form,
    moment_sweep,
    solve_j,
    variance_closed_form,
    verify_measure_moments,
)
from measure_oracles import validate_bessel_reduction
from test_coherent import QuadraticSpectrum

UPS_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
J_GRID = np.geomspace(0.1, 500.0, 12)


def mpmath_moments(model, J):
    """Independent oracle: 40-digit mean and variance of P_n, J > 0, summed
    past the peak until the terms fall below 1e-45 of it."""
    with mp.workdps(40):
        c, b = (mp.mpf(v) for v in model.coefficients)
        J = mp.mpf(J)
        terms, n, peak = [mp.mpf(1)], 0, None
        while peak is None or terms[-1] >= peak * mp.mpf(10) ** -45:
            n += 1
            e = n * (c + b * (n + 1))
            if peak is None and e > J:
                peak = terms[-1]  # t_n / t_(n-1) = J / e_n < 1 from here on
            terms.append(terms[-1] * J / e)
        norm = mp.fsum(terms)
        mean = mp.fsum(k * t for k, t in enumerate(terms)) / norm
        var = mp.fsum((k - mean) ** 2 * t for k, t in enumerate(terms)) / norm
        return float(mean), float(var)


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
    mean_ref, var_ref = mpmath_moments(QuasiHarmonic(upsilon=0.1), 5.9)
    assert abs(d.mean - mean_ref) <= 1e-12 * mean_ref
    assert abs(d.variance - var_ref) <= 1e-11 * var_ref


# (model, --j-grid, rows checked): the README recipe's last row J = 30 = e_24
# is a tie of the mode rule; the windows of J = 1985 and J = 498.75 reach one
# step further below or above their modes than the window at max(Js) does;
# J = 1855 and J = 288.75 are where the variance as fsum(P n^2) - <n>^2 was worst.
SWEEP_ROWS = [
    (QuasiHarmonic(upsilon=0.1), (0.0, 30.0, 301), (0.1, 5.9, 17.3, 30.0)),
    (QuasiHarmonic(upsilon=0.1), (0.0, 2000.0, 401), (5.0, 1855.0, 2000.0)),
    (QuasiHarmonic(upsilon=0.2), (0.0, 2000.0, 401), (1985.0,)),
    (Morse(mu=0.5), (0.0, 500.0, 401), (1.25, 288.75, 500.0)),
    (Morse(mu=1.0), (0.0, 500.0, 401), (498.75,)),
]


@pytest.mark.parametrize("model, grid, rows", SWEEP_ROWS)
def test_moments_vs_mpmath(model, grid, rows):
    Js = np.linspace(grid[0], grid[1], grid[2])
    mean, var, q = moment_sweep(model, Js)
    for J in rows:
        (i,) = np.flatnonzero(Js == J)
        mean_ref, var_ref = mpmath_moments(model, J)
        d = distribution(model, J)
        for got_mean, got_var in ((mean[i], var[i]), (d.mean, d.variance)):
            assert abs(got_mean - mean_ref) <= 2e-15 * mean_ref
            assert abs(got_var - var_ref) <= 4e-15 * var_ref
        assert q[i] == (var[i] - mean[i]) / mean[i]


@strategies.composite
def sweep_case(draw):
    """A model and a J grid from 0, shuffled, with some of its points repeated."""
    kind = draw(strategies.sampled_from(("quasiharmonic", "morse", "mathews-lakshmanan")))
    if kind == "morse":
        model = Morse(mu=draw(strategies.floats(0.3, 4.0)))
    elif kind == "quasiharmonic":
        model = QuasiHarmonic(upsilon=draw(strategies.one_of(strategies.just(0.0),
                                                             strategies.floats(0.01, 2.0))))
    else:
        model = MathewsLakshmanan(lambda_tilde=draw(strategies.floats(-8.0, -2e-4)))
    grid = np.linspace(0.0, draw(strategies.floats(1e-3, 500.0)), draw(strategies.integers(2, 40)))
    repeats = draw(strategies.lists(strategies.integers(0, len(grid) - 1), max_size=8))
    Js = np.concatenate((grid, grid[repeats]))
    return model, Js[draw(strategies.permutations(range(len(Js))))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_case())
def test_moment_sweep_rows_equal_distribution(case):
    model, Js = case
    mean, var, q = moment_sweep(model, Js)
    for J, row in zip(Js, zip(mean, var, q)):
        d = distribution(model, float(J))
        if J == 0.0:
            assert row == (0.0, 0.0, 0.0)
            continue
        assert abs(row[0] - d.mean) <= 2e-15 * d.mean
        assert abs(row[1] - d.variance) <= 1e-14 * d.variance
        assert abs(row[2] - d.mandel_q) <= 1e-14 * (d.variance + d.mean) / d.mean


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    strategies.floats(0.01, 10.0),
    strategies.one_of(strategies.just(0.0), strategies.floats(1e-6, 10.0)),
    strategies.lists(strategies.floats(0.0, 1.0), min_size=1, max_size=20),
    strategies.floats(1e-3, 1e4),
)
def test_moment_sweep_band_holds_every_quadratic_row(c, b, fractions, j_top):
    # the band, two steps wider than the window at max(Js), holds the window
    # of every row (moment_sweep raises otherwise); the Poisson window at
    # mean J/c = 2e4 holds about 2700 components.  Where P_1 ~ J/e_1 is near
    # the rounding of ln P_1 (J ~ 1e-15), the two routes' means differ by up
    # to 4e-15 of their value.
    model = QuadraticSpectrum(c, b)
    Js = np.array(fractions) * min(j_top, 2e4 * c)
    mean, var, q = moment_sweep(model, Js)
    for J, row in zip(Js, zip(mean, var, q)):
        if J == 0.0:
            assert row == (0.0, 0.0, 0.0)
            continue
        d = distribution(model, float(J))
        assert abs(row[0] - d.mean) <= 1e-14 * d.mean
        assert abs(row[1] - d.variance) <= 1e-14 * d.variance
        assert abs(row[2] - d.mandel_q) <= 1e-14 * (d.variance + d.mean) / d.mean


def test_moment_sweep_names_the_component_cap():
    # the Poisson window at J = 1e5 needs about 6000 components, over the cap
    with pytest.raises(ConvergenceError, match=r"needs \d+ components around its peak n=100000, over the cap of 5000"):
        moment_sweep(QuasiHarmonic(upsilon=0.0), [1e5])


@pytest.mark.parametrize("J, message", [
    (-1.0, "J must be >= 0, got -1.0"),
    (math.nan, "J must be >= 0, got nan"),
    (-math.inf, "J must be >= 0, got -inf"),
    (math.inf, "J must be finite, got inf"),
])
def test_moment_sweep_domain(J, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        moment_sweep(QuasiHarmonic(upsilon=0.1), [0.0, 3.0, J, 5.0])


def test_moment_sweep_without_positive_j():
    for Js in ([], [0.0, 0.0]):
        assert [a.tolist() for a in moment_sweep(Morse(mu=2.0), Js)] == [[0.0] * len(Js)] * 3
    with pytest.raises(TruncatedSpectrumError):  # the model is checked all the same
        moment_sweep(MathewsLakshmanan(lambda_tilde=0.1), [0.0])


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


# Bit patterns that solve_j and distribution keep whatever way the peak is
# found: the figures calibration points, the wide-state solves, the README's
# level-tie row
# (J = 30 = e_24 at upsilon = 0.1), a window far from n = 0 (Morse mu = 0.5,
# J = 300) and the widest Poisson window of the benchmark (J = 3000).
SOLVE_J_BITS = [
    (QuasiHarmonic(upsilon=0.1), 5, "0x1.564218d1dd334p+2"),
    (QuasiHarmonic(upsilon=0.1), 10, "0x1.6623a12f04002p+3"),
    (QuasiHarmonic(upsilon=0.1), 15, "0x1.188748e162998p+4"),
    (QuasiHarmonic(upsilon=0.1), 20, "0x1.85f3688ff5532p+4"),
    (QuasiHarmonic(upsilon=0.2), 5, "0x1.97e4d0227ffffp+2"),
    (QuasiHarmonic(upsilon=0.2), 10, "0x1.d6e417650d19cp+3"),
    (QuasiHarmonic(upsilon=0.2), 15, "0x1.90ad81594e66ap+4"),
    (QuasiHarmonic(upsilon=0.2), 20, "0x1.2ae3a29da3f66p+5"),
    (QuasiHarmonic(upsilon=0.5), 5, "0x1.ab77b2516a400p+3"),
    (QuasiHarmonic(upsilon=0.5), 10, "0x1.383bf25e77400p+5"),
    (QuasiHarmonic(upsilon=0.5), 15, "0x1.34b1655d96b00p+6"),
    (QuasiHarmonic(upsilon=0.5), 20, "0x1.ff3bfdbb38590p+6"),
    (QuasiHarmonic(upsilon=1.0), 5, "0x1.3050883c5f000p+5"),
    (QuasiHarmonic(upsilon=1.0), 10, "0x1.f65236b08b7a0p+6"),
    (QuasiHarmonic(upsilon=1.0), 15, "0x1.07184097dd480p+8"),
    (QuasiHarmonic(upsilon=1.0), 20, "0x1.c29a24d1c39a2p+8"),
    (QuasiHarmonic(upsilon=0.1), 200, "0x1.2d99f3a708b91p+9"),
    (Morse(mu=0.5), 200, "0x1.8ffffffffbdc0p+5"),
    (MathewsLakshmanan(lambda_tilde=-0.5), 200, "0x1.411ab8288ba66p+13"),
    (QuasiHarmonic(upsilon=0.1), 500, "0x1.77f760cd1ac8ap+11"),
    (Morse(mu=0.5), 500, "0x1.f3fffffffe318p+6"),
    (MathewsLakshmanan(lambda_tilde=-0.5), 500, "0x1.eda7af360e3cdp+15"),
    (QuasiHarmonic(upsilon=0.1), 1000, "0x1.5839eecf4286ap+13"),
    (Morse(mu=0.5), 1000, "0x1.f3ffffffffa1ap+7"),
    (MathewsLakshmanan(lambda_tilde=-0.5), 1000, "0x1.eaf7abe6b4e26p+17"),
]
DISTRIBUTION_BITS = [
    (QuasiHarmonic(upsilon=0.1), 30.0, 75,
     "fb518c9852afa8c41b67abfeeebc6cc3dda976727169d9300ae247b32bf91e64",
     "0x1.7dd7b9852b7d3p+4", "0x1.41268e7d5e6b5p+4"),
    (Morse(mu=0.5), 300.0, 1536,
     "a809a79289b14a6ba798dffa25d1d581f6bcab3b58bc16d0c77d2ead9dd7611b",
     "0x1.2bfffffffffffp+10", "0x1.2c00000000003p+10"),
    (QuasiHarmonic(upsilon=0.0), 3000.0, 3525,
     "78c3500275bc382476162b6d6f3a175da4f68dd9b642792293c266a572faa7f1",
     "0x1.76ffffffffffep+11", "0x1.76ffffffffffap+11"),
]


def test_solve_j_and_distribution_keep_their_bits():
    for model, n0, bits in SOLVE_J_BITS:
        assert solve_j(model, n0).hex() == bits, (model, n0)
    for model, J, size, probs_sha256, mean, variance in DISTRIBUTION_BITS:
        d = distribution(model, J)
        assert len(d.probs) == size
        assert hashlib.sha256(d.probs.tobytes()).hexdigest() == probs_sha256
        assert (d.mean.hex(), d.variance.hex()) == (mean, variance)


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


def test_measure_moments_hold_for_every_b_above_zero():
    # Mathews-Lakshmanan at lambda_tilde = -0.08 has the levels of upsilon = 0.2
    rows = verify_measure_moments(MathewsLakshmanan(lambda_tilde=-0.08), n_max=5)
    for row in rows:
        assert row.converged
        assert row.rel_err < 1e-6


def test_measure_moments_domain():
    with pytest.raises(DomainError, match=r"requires b > 0 .* got b = 0\.0 for Morse"):
        verify_measure_moments(Morse(mu=1.0))
    with pytest.raises(DomainError):
        verify_measure_moments(QuasiHarmonic(upsilon=0.0))


@pytest.mark.parametrize("nodes", [0, -40, 19])
def test_measure_moments_need_one_panel(nodes):
    with pytest.raises(DomainError, match=f"at least 20, one 20-node Gauss-Legendre panel; got {nodes}"):
        verify_measure_moments(QuasiHarmonic(upsilon=0.5), total_nodes=nodes)
    # one panel is enough to run
    assert len(verify_measure_moments(QuasiHarmonic(upsilon=0.5), n_max=1, total_nodes=20)) == 2

