"""Spectrum models."""

import math

import numpy as np
import pytest

from gkstates import (
    DomainError,
    MathewsLakshmanan,
    Morse,
    QuasiHarmonic,
    SpectrumRangeError,
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
    assert ml.n_max_valid == 9  # floor(1/0.1 - 1)
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
