"""Coherent-state construction: rho, normalisation, weights, overlaps."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies

from gkstates import (
    ConvergenceError,
    DegenerateSpectrumError,
    DomainError,
    ModelMismatchError,
    Morse,
    MathewsLakshmanan,
    QuasiHarmonic,
    SpectrumModel,
    TruncatedSpectrumError,
    autocorrelation,
    build_state,
    continuity_gap,
    distribution,
    log_normalization_sq,
    log_rho_closed,
    log_rho_sequence,
    mandel_q_closed_form,
    mean_closed_form,
    overlap,
    variance_closed_form,
)
from gkstates.coherent import _series_window


class DegenerateSpectrum(SpectrumModel):
    alpha = 1.0
    n_max_valid = None

    @property
    def ground_energy(self):
        return 0.0

    def _e_raw(self, n):
        return np.where(n <= 1, 0.0, n)


def test_rho_zero_is_one():
    for model in (QuasiHarmonic(upsilon=0.3), Morse(mu=2.0)):
        assert log_rho_sequence(model, 0)[0] == 0.0


def test_rho_direct_substitution():
    # e_1 = 1.5, e_2 = 3.5 at ups = 0.5 -> rho_2 = 5.25
    m = QuasiHarmonic(alpha=1.0, upsilon=0.5)
    assert math.isclose(log_rho_sequence(m, 2)[2], math.log(5.25), rel_tol=1e-14)
    # Morse: rho_n = n! mu^(2n); mu=2, n=3 -> 3! * 4^3 = 384
    assert math.isclose(log_rho_sequence(Morse(mu=2.0), 3)[3], math.log(384.0), rel_tol=1e-14)


@pytest.mark.parametrize("ups", [1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0])
def test_rho_closed_form_matches_product(ups):
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    seq = log_rho_sequence(m, 200)
    for n in (0, 1, 2, 10, 50, 137, 200):
        assert abs(log_rho_closed(m, n) - seq[n]) <= 1e-12 * max(1.0, abs(seq[n]))


def test_rho_closed_form_morse():
    m = Morse(mu=0.7)
    seq = log_rho_sequence(m, 60)
    for n in (0, 1, 7, 60):
        assert abs(log_rho_closed(m, n) - seq[n]) <= 1e-12 * max(1.0, abs(seq[n]))


def test_rho_closed_form_mathews_lakshmanan():
    m = MathewsLakshmanan(lambda_tilde=-0.08)
    seq = log_rho_sequence(m, 200)
    for n in (0, 1, 2, 10, 50, 137, 200):
        assert abs(log_rho_closed(m, n) - seq[n]) <= 1e-12 * max(1.0, abs(seq[n]))
    with pytest.raises(DomainError):
        log_rho_closed(MathewsLakshmanan(lambda_tilde=0.1), 3)


def test_rho_closed_form_where_upsilon_squared_underflows():
    # upsilon^2 = 0 in float64: the levels are n, so rho_n = n!
    assert log_rho_closed(QuasiHarmonic(upsilon=1e-200), 3) == math.lgamma(4.0)


def test_rho_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        log_rho_sequence(DegenerateSpectrum(), 3)
    with pytest.raises(DegenerateSpectrumError):  # mu^2 underflows to 0
        log_rho_closed(Morse(mu=1e-200), 3)


class QuadraticSpectrum(SpectrumModel):
    """e_n = n (c + b (n + 1)) for any c > 0 and b >= 0."""

    alpha = 1.0

    def __init__(self, c, b):
        self._coefficients = (c, b)

    @property
    def coefficients(self):
        return self._coefficients


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    strategies.floats(0.01, 10.0),
    strategies.one_of(strategies.just(0.0), strategies.floats(1e-6, 10.0)),
    strategies.integers(1, 3000),
    strategies.sampled_from(("inside", "level", "below", "above")),
    strategies.floats(0.0, 1.0),
)
def test_peak_search_finds_the_largest_level_not_above_x(c, b, k, where, fraction):
    # x at a random point below e_k, at e_k itself, or one ulp either side
    model = QuadraticSpectrum(c, b)
    e = model.levels(np.arange(1, k + 2))
    x = {"inside": fraction * e[k - 1], "level": e[k - 1],
         "below": np.nextafter(e[k - 1], -np.inf), "above": np.nextafter(e[k - 1], np.inf)}[where]
    largest = int((e <= x).sum())  # e_(k+1) > x: the levels increase
    assert _series_window(c, b, float(x)).mode == largest


def brute_force_log_norm_sq(model, J, n_terms=400):
    mp.mp.dps = 50
    total = mp.mpf(0)
    log_rho_n = mp.mpf(0)
    for n in range(n_terms):
        if n > 0:
            log_rho_n += mp.log(model.e_n(n))
        total += mp.e ** (n * mp.log(J) - log_rho_n) if J > 0 else (1 if n == 0 else 0)
    return float(mp.log(total))


def test_normalization_trivial_and_morse():
    assert log_normalization_sq(QuasiHarmonic(upsilon=0.1), 0.0) == 0.0
    # Morse: N^2 = exp(J/mu^2)
    assert math.isclose(log_normalization_sq(Morse(mu=1.0), 3.0), 3.0, rel_tol=1e-13)
    assert math.isclose(log_normalization_sq(Morse(mu=2.0), 10.0), 2.5, rel_tol=1e-13)


@pytest.mark.parametrize("ups,J", [(0.1, 5.9), (0.1, 24.9), (0.5, 130.3), (1.0, 459.0)])
def test_normalization_vs_brute_force(ups, J):
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    got = log_normalization_sq(m, J)
    ref = brute_force_log_norm_sq(m, J)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_build_state_vacuum():
    st = build_state(QuasiHarmonic(upsilon=0.1), 0.0, 0.0)
    assert st.truncation_n == 1
    assert st.weights[0] == 1.0


def test_build_state_truncation_and_normalisation():
    st = build_state(QuasiHarmonic(upsilon=0.1), 5.9, 0.0)
    assert st.truncation_n >= 30
    assert abs(st.weights.sum() - 1.0) <= 1e-12
    # tail mass below the retained components is negligible
    assert st.weights[-1] < 1e-15


def test_morse_weights_are_poisson():
    lam = 4.0
    st = build_state(Morse(mu=1.0), 4.0, 1.3)
    n = np.arange(st.truncation_n)
    poisson = np.exp(-lam + n * math.log(lam) - [math.lgamma(k + 1) for k in n])
    assert np.max(np.abs(st.weights - poisson)) < 1e-14


def test_wide_morse_state_is_poisson_over_its_window():
    # Poisson mean J/mu^2 = 5010; the window starts far above n = 0
    st = build_state(Morse(mu=0.5), 1252.5)
    assert st.n[0] > 4000
    assert abs(st.mean_n() - 5010.0) <= 1e-9 * 5010.0
    # lgamma(n + 1) ~ 3.7e4 limits the reference to about 1e-11 relative
    log_poisson = np.array([-5010.0 + n * math.log(5010.0) - math.lgamma(n + 1.0) for n in st.n])
    assert np.allclose(st.weights, np.exp(log_poisson), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("J", [1.0, 5.0, 20.0])
def test_small_upsilon_limit_is_poisson(J):
    st = build_state(QuasiHarmonic(alpha=1.0, upsilon=1e-6), J, 0.0)
    n = np.arange(st.truncation_n)
    poisson = np.exp(-J + n * math.log(J) - np.array([math.lgamma(k + 1) for k in n]))
    total_variation = 0.5 * np.sum(np.abs(st.weights - poisson))
    assert total_variation < 1e-4


@pytest.mark.parametrize(
    "model,J",
    [
        (QuasiHarmonic(upsilon=0.1), 5.9),
        (QuasiHarmonic(upsilon=1.0), 459.0),
        (Morse(mu=2.0), 4.0),
        (MathewsLakshmanan(lambda_tilde=-0.02), 11.0),
    ],
)
def test_action_identity(model, J):
    # sum_n P_n e_n = J
    st = build_state(model, J, 0.0)
    mean_e = float(np.dot(st.weights, st.e_values))
    assert abs(mean_e - J) <= 1e-12 * J


def test_truncated_spectrum_rejected():
    with pytest.raises(TruncatedSpectrumError):
        build_state(MathewsLakshmanan(lambda_tilde=0.1), 1.0, 0.0)


def test_peak_past_2_53_names_the_component_cap():
    # the Poisson series converges for every x; at J = 1e30 its largest term
    # lies at n = 1e30, past 2^53, and its window is about 2e16 components wide
    with pytest.raises(ConvergenceError, match=r"peak n=1e\+30, over the cap of 5000 components") as err:
        build_state(QuasiHarmonic(upsilon=0.0), 1e30)
    assert str(err.value).startswith("the series at x=1e+30 needs more than 5000 components")


def test_wide_window_names_the_component_cap():
    # the Poisson window at J = 1e5 needs about 6000 components (+-9.5 sigma),
    # over the 5000-component cap, although the radius of convergence is infinite
    with pytest.raises(ConvergenceError, match=r"needs (\d+) components .* cap of 5000") as err:
        build_state(QuasiHarmonic(upsilon=0.0), 1e5)
    message = str(err.value)
    assert 5900 <= int(re.search(r"needs (\d+)", message).group(1)) <= 6100
    assert "radius" not in message


def test_gamma_must_be_finite():
    with pytest.raises(DomainError):
        build_state(QuasiHarmonic(upsilon=0.1), 1.0, math.inf)


def test_overlap_self_is_one():
    st = build_state(QuasiHarmonic(upsilon=0.1), 5.9, 0.7)
    val = overlap(st, st)
    assert abs(val - 1.0) <= 1e-12


def test_overlap_full_period_phase():
    # with 1/ups^2 integer, shifting gamma by 2 pi / ups^2 multiplies every
    # coefficient phase by a multiple of 2 pi
    m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    a = build_state(m, 5.9, 0.0)
    b = build_state(m, 5.9, 2.0 * math.pi / 0.1**2)
    assert abs(abs(overlap(a, b)) - 1.0) <= 1e-9


def brute_force_overlap(model, Ja, ga, Jb, gb, n_terms=400):
    mp.mp.dps = 40
    total = mp.mpc(0)
    log_rho_n = mp.mpf(0)
    for n in range(n_terms):
        if n > 0:
            log_rho_n += mp.log(model.e_n(n))
        mag = mp.e ** (0.5 * n * (mp.log(Ja) + mp.log(Jb)) - log_rho_n)
        total += mag * mp.e ** (-1j * (ga - gb) * mp.mpf(model.e_n(n)))
    log_norm = 0.5 * (
        brute_force_log_norm_sq(model, Ja) + brute_force_log_norm_sq(model, Jb)
    )
    return complex(total / mp.e**log_norm)


def test_overlap_cross_values_vs_brute_force():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    a = build_state(m, 5.9, 0.0)
    b = build_state(m, 24.9, 0.0)
    got = overlap(a, b)
    ref = brute_force_overlap(m, 5.9, 0.0, 24.9, 0.0)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < got.real < 1.0
    assert abs(got - ref) <= 1e-10


def test_overlap_hermitian_and_bounded():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.2)
    a = build_state(m, 6.9, 0.3)
    b = build_state(m, 15.3, -1.1)
    assert overlap(a, b) == pytest.approx(overlap(b, a).conjugate(), abs=1e-14)
    for Ja, Jb, ga, gb in [(1.0, 2.0, 0.0, 0.5), (6.9, 6.9, 0.1, 2.0), (0.0, 3.0, 0.0, 1.0)]:
        val = overlap(build_state(m, Ja, ga), build_state(m, Jb, gb))
        assert abs(val) <= 1.0 + 1e-12


def test_overlap_model_mismatch():
    a = build_state(QuasiHarmonic(upsilon=0.1), 1.0, 0.0)
    b = build_state(QuasiHarmonic(upsilon=0.2), 1.0, 0.0)
    with pytest.raises(ModelMismatchError):
        overlap(a, b)


def test_continuity_gap():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    st = build_state(m, 5.9, 0.0)
    assert continuity_gap(st, st) == pytest.approx(0.0, abs=1e-12)
    near = build_state(m, 5.9 + 1e-6, 0.0)
    assert continuity_gap(st, near) < 1e-6
    far = build_state(m, 100.0, 2.0)
    assert 0.0 <= continuity_gap(st, far) <= 4.0


def j_values(j_max):
    # from 1e-300 up: below that P_1 = J / e_1 is subnormal and <e_n> loses digits
    return strategies.one_of(strategies.just(0.0), strategies.floats(1e-300, j_max))


@strategies.composite
def model_and_j(draw):
    """A model and J."""
    kind = draw(strategies.sampled_from(("quasiharmonic", "morse", "mathews-lakshmanan")))
    if kind == "morse":
        mu = draw(strategies.floats(0.01, 4.0))
        # the Poisson window at mean J/mu^2 = 2e4 holds about 2700 components
        return Morse(mu=mu), draw(j_values(min(1e3, 2e4 * mu * mu)))
    u = draw(strategies.one_of(strategies.just(0.0), strategies.floats(1e-5, 2.0)))
    if kind == "quasiharmonic":
        return QuasiHarmonic(upsilon=u), draw(j_values(1e3))
    return MathewsLakshmanan(lambda_tilde=-2.0 * u * u), draw(j_values(1e3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model_and_j())
def test_window_is_normalised_and_drops_under_1e_15(case):
    model, J = case
    state = build_state(model, J)
    p = state.weights
    assert abs(math.fsum(p) - 1.0) <= 1e-12
    assert abs(math.fsum(p * state.e_values) - J) <= 1e-12 * J
    if J == 0.0:
        return
    lo, hi = int(state.n[0]), int(state.n[-1])
    outside = [*range(lo), *range(hi + 1, hi + 201 + (hi - lo))]
    dropped = math.fsum(
        math.exp(n * math.log(J) - log_rho_closed(model, n) - state.log_norm_sq) for n in outside
    )
    assert dropped <= 1e-15


# ---------------------------------------------------------------------------
# The Gazeau-Klauder axioms as properties over (model, J, gamma, t).

GAMMAS = strategies.floats(-math.pi, math.pi)
AXIOM_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@AXIOM_SETTINGS
@given(model_and_j(), GAMMAS, strategies.floats(0.01, 1.0))
def test_evolution_shifts_gamma(case, gamma, t_max):
    # temporal stability: exp(-iHt)|J, gamma> = |J, gamma + omega t>, so the
    # blocked autocorrelation is the overlap with the shifted state
    model, J = case
    state = build_state(model, J, gamma)
    t = np.linspace(0.0, t_max, 9)
    shifted = [overlap(state, build_state(model, J, gamma + model.omega * tk)) for tk in t]
    assert np.max(np.abs(autocorrelation(state, t).values - shifted)) <= 1e-12


@AXIOM_SETTINGS
@given(model_and_j(), GAMMAS, strategies.floats(0.1, 100.0))
def test_autocorrelation_starts_at_one_inside_the_unit_disc(case, gamma, t_max):
    model, J = case
    values = autocorrelation(build_state(model, J, gamma), np.linspace(0.0, t_max, 257)).values
    assert abs(abs(values[0]) - 1.0) <= 1e-12
    assert np.max(np.abs(values)) <= 1.0 + 1e-12


@AXIOM_SETTINGS
@given(model_and_j(), GAMMAS, strategies.floats(1e-4, 1e-1))
def test_continuity_gap_closes_as_delta_squared(case, gamma, s):
    # gap = sum_n P_n 2 (1 - cos(delta e_n)) lies between
    # delta^2 <e^2> - delta^4 <e^4> / 12 and delta^2 <e^2>
    model, J = case
    state = build_state(model, J, gamma)
    e2 = math.fsum(state.weights * state.e_values**2)
    e4 = math.fsum(state.weights * state.e_values**4)
    if e2 == 0.0:
        assert abs(continuity_gap(state, build_state(model, J, gamma + s))) <= 1e-12
        return
    near = build_state(model, J, gamma + s / math.sqrt(e2))
    delta = near.gamma - gamma  # the shift the state really carries
    gap = continuity_gap(state, near)
    upper = delta * delta * e2
    assert upper - upper * upper * (e4 / e2 / e2) / 12.0 - 1e-11 <= gap <= upper + 1e-11


@AXIOM_SETTINGS
@given(model_and_j())
def test_series_moments_match_their_closed_forms(case):
    model, J = case
    d = distribution(model, J)
    mean = mean_closed_form(model, J)
    variance = variance_closed_form(model, J)
    q = mandel_q_closed_form(model, J)
    # the closed-form variance and Q are differences of terms of size <n>^2
    # and <n>, and each term carries the ~1e-12 rounding of its 0F1 log ratio
    assert abs(d.mean - mean) <= 1e-10 * max(1.0, mean)
    assert abs(d.variance - variance) <= 1e-9 * max(1.0, variance) + 1e-11 * mean**2
    assert abs(d.mandel_q - q) <= 1e-9 * max(1.0, abs(q)) + 1e-11 * mean

