"""Spectrum models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from gkstates import (
    DomainError,
    MathewsLakshmanan,
    Morse,
    QuasiHarmonic,
    SpectrumRangeError,
    timescales,
)

ALL_MODELS = [
    QuasiHarmonic(alpha=1.0, upsilon=0.1),
    QuasiHarmonic(alpha=2.0, upsilon=0.5),
    Morse(mu=1.0),
    Morse(mu=2.0, alpha=1.5),
    MathewsLakshmanan(alpha=1.0, lambda_tilde=-0.08),
]


def test_e_n_direct_substitution():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.2)
    assert math.isclose(m.e_n(5), 5 * (1 + 0.04 * 6), rel_tol=1e-15)  # 6.2
    assert Morse(mu=1.0).e_n(3) == 3.0
    for model in ALL_MODELS:
        assert model.e_n(0) == 0.0


def test_energy_values():
    assert QuasiHarmonic(alpha=1.0, upsilon=0.1).energy(0) == 0.5
    # alpha=2, ups=0.5: 2[(2.5) + 0.25*6] = 8
    assert math.isclose(QuasiHarmonic(alpha=2.0, upsilon=0.5).energy(2), 8.0, rel_tol=1e-15)
    # harmonic limit
    assert math.isclose(QuasiHarmonic(alpha=1.0, upsilon=0.0).energy(7), 7.5, rel_tol=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_monotonicity(model):
    levels = [model.e_n(n) for n in range(200)]
    assert all(b > a for a, b in zip(levels, levels[1:]))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_levels_match_e_n(model):
    n = np.arange(200)
    assert model.levels(n).tolist() == [model.e_n(k) for k in range(200)]


def test_levels_validate_the_range():
    with pytest.raises(SpectrumRangeError):
        QuasiHarmonic().levels(np.array([3, -1]))
    ml = MathewsLakshmanan(alpha=1.0, lambda_tilde=0.1)
    with pytest.raises(SpectrumRangeError):
        ml.levels(np.arange(ml.n_max_valid + 2))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_energy_consistency(model):
    # E_n - E_0 = omega * e_n
    for n in (1, 3, 17, 120):
        lhs = model.energy(n) - model.energy(0)
        rhs = model.omega * model.e_n(n)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_mathews_lakshmanan_matches_quasiharmonic():
    ups = 0.37
    ml = MathewsLakshmanan(alpha=1.0, lambda_tilde=-2 * ups**2)
    qh = QuasiHarmonic(alpha=1.0, upsilon=ups)
    for n in range(120):
        a, b = ml.e_n(n), qh.e_n(n)
        assert abs(a - b) <= 1e-15 * max(1.0, abs(b))


def test_truncated_spectrum_bound():
    ml = MathewsLakshmanan(alpha=1.0, lambda_tilde=0.1)
    assert ml.n_max_valid == 9  # e_10 - e_9 = 1 - 10 lambda_tilde = 0
    # the bound is exactly the last strictly increasing level
    levels = [ml.e_n(n) for n in range(ml.n_max_valid + 1)]
    assert all(b > a for a, b in zip(levels, levels[1:]))
    with pytest.raises(SpectrumRangeError):
        ml.e_n(ml.n_max_valid + 1)


def test_negative_n_rejected():
    with pytest.raises(SpectrumRangeError):
        QuasiHarmonic().e_n(-1)


def test_parameter_validation():
    with pytest.raises(DomainError):
        QuasiHarmonic(alpha=0.0)
    with pytest.raises(DomainError):
        QuasiHarmonic(upsilon=-0.1)
    with pytest.raises(DomainError):
        Morse(mu=0.0)
    with pytest.warns(UserWarning):
        QuasiHarmonic(upsilon=2.5)
    with pytest.warns(UserWarning):
        Morse(mu=5.0)


@pytest.mark.parametrize("lambda_tilde,n_max", [(0.3, 3), (0.07, 14), (1.5, 0)])
def test_truncation_keeps_every_increasing_level(lambda_tilde, n_max):
    # e_n - e_(n-1) = 1 - lambda_tilde n: 0.3 keeps e_3 = 1.2 > e_2 = 1.1
    assert MathewsLakshmanan(lambda_tilde=lambda_tilde).n_max_valid == n_max


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    strategies.one_of(
        strategies.floats(1e-4, 10.0),
        strategies.integers(1, 10_000).map(lambda k: 1.0 / k),
    )
)
def test_truncation_is_the_last_increasing_level(lambda_tilde):
    ml = MathewsLakshmanan(lambda_tilde=lambda_tilde)
    n_max = ml.n_max_valid
    e = ml._e_raw(np.arange(n_max + 2))
    assert (np.diff(e[: n_max + 1]) > 0).all()
    assert e[n_max + 1] - e[n_max] <= 1e-12 * max(1.0, e[n_max])


# ---------------------------------------------------------------------------
# Levels and timescales stay bitwise those of the per-model formulas that the
# (c, b) form replaced: e_n, and T_r = 2 pi r! / (omega |d^r e/dn^r|).


def _per_model_level(model, n):
    if isinstance(model, QuasiHarmonic):
        return n * (1.0 + model.upsilon**2 * (n + 1.0))
    if isinstance(model, Morse):
        return n * model.mu**2
    return n * (1.0 - 0.5 * model.lambda_tilde * (n + 1.0))


def _per_model_derivatives(model, n):
    """(de/dn, d^2e/dn^2) at n."""
    if isinstance(model, QuasiHarmonic):
        u2 = model.upsilon**2
        return 1.0 + u2 * (2.0 * n + 1.0), 2.0 * u2
    if isinstance(model, Morse):
        return model.mu**2, 0.0
    return 1.0 - 0.5 * model.lambda_tilde * (2.0 * n + 1.0), -model.lambda_tilde


@strategies.composite
def models(draw):
    alpha = draw(strategies.floats(1e-2, 1e2))
    kind = draw(strategies.sampled_from(("quasiharmonic", "morse", "mathews-lakshmanan")))
    if kind == "quasiharmonic":
        return QuasiHarmonic(alpha=alpha, upsilon=draw(strategies.floats(0.0, 2.0)))
    if kind == "morse":
        return Morse(alpha=alpha, mu=draw(strategies.floats(0.0, 4.0, exclude_min=True)))
    return MathewsLakshmanan(alpha=alpha, lambda_tilde=draw(strategies.floats(-8.0, 1.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models(), strategies.one_of(strategies.just(0.0), strategies.floats(0.1, 1e4)))
def test_levels_and_timescales_match_the_per_model_formulas(model, n0):
    n_max = model.n_max_valid
    n = np.arange(20_000 if n_max is None else min(n_max + 1, 20_000))
    assert model.levels(n).tobytes() == np.asarray(_per_model_level(model, n), dtype=float).tobytes()
    for k in (0, len(n) // 2, len(n) - 1):
        assert model.e_n(k) == _per_model_level(model, k)
        assert model.energy(k) == model.ground_energy + model.omega * _per_model_level(model, k)
    d1, d2 = _per_model_derivatives(model, n0)
    if d1 == 0.0:
        with pytest.raises(DomainError):
            timescales(model, n0)
        return
    ts = timescales(model, n0)
    assert ts.t_classical == 2.0 * math.pi * 1 / (model.omega * abs(d1))
    assert ts.t_revival == (None if d2 == 0.0 else 2.0 * math.pi * 2 / (model.omega * abs(d2)))
