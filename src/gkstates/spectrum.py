"""Energy-spectrum models.

Each model exposes the dimensionless levels e_n (e_0 = 0, strictly
increasing over the valid range) together with the physical energies
E_n = E_0 + omega * e_n, where omega is the model's energy scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import SpectrumRangeError, DomainError

__all__ = [
    "SpectrumModel",
    "QuasiHarmonic",
    "Morse",
    "MathewsLakshmanan",
]


def _quadratic_levels(c, b, n):
    """e_n = n (c + b (n + 1)) for a number or, elementwise, for an integer array."""
    # at b = 0, n * c equals n * (c + b * (n + 1.0)) to the bit in one array
    # operation instead of four
    return n * (c + b * (n + 1.0)) if b else n * c


class SpectrumModel:
    """Base class: a parameterised rule n -> (E_n, e_n), e_n = n (c + b (n + 1))."""

    alpha: float

    @property
    def omega(self) -> float:
        """Energy scale relating E_n and e_n; fixed to alpha for built-ins."""
        return self.alpha

    @property
    def ground_energy(self) -> float:
        raise NotImplementedError

    @property
    def coefficients(self) -> tuple[float, float]:
        """(c, b) of the quadratic levels e_n = n (c + b (n + 1))."""
        raise NotImplementedError

    @property
    def n_max_valid(self) -> int | None:
        """Largest valid quantum number, or None for an unbounded spectrum (b >= 0).

        The step e_n - e_(n-1) = c + 2 b n is positive for n < c / (-2b), but the
        computed levels can tie below that bound: at near-ties such as
        lambda_tilde = 1/k, and over whole runs of levels once n passes about
        3e8 (7238 levels at lambda_tilde = 1e-10).  The bound is therefore the
        last computed step that still increases, found by bisection.
        """
        c, b = self.coefficients
        if b >= 0:
            return None
        top = c / (-2.0 * b)
        if top == math.inf:
            raise DomainError(
                f"the levels of {self!r} increase up to n = c / (-2b) = {c:g} / {-2.0 * b:g}, "
                "which overflows a float"
            )
        lo, hi = 0, math.ceil(top)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._e_raw(mid) > self._e_raw(mid - 1):
                lo = mid
            else:
                hi = mid
        return lo

    def _e_raw(self, n):
        """e_n for a number or, elementwise, for an integer array."""
        return _quadratic_levels(*self.coefficients, n)

    def validate_n(self, n: int) -> None:
        if n < 0:
            raise SpectrumRangeError(f"quantum number must be >= 0, got {n}")
        bound = self.n_max_valid
        if bound is not None and n > bound:
            raise SpectrumRangeError(
                f"n={n} beyond the valid range (n_max={bound}) of {self!r}"
            )

    def e_n(self, n: int) -> float:
        """Dimensionless level e_n = (E_n - E_0) / omega."""
        self.validate_n(n)
        return self._e_raw(n)

    def levels(self, n: np.ndarray) -> np.ndarray:
        """Dimensionless levels e_n over an integer array of quantum numbers."""
        n = np.asarray(n)
        if n.size:
            lo, hi = int(n.min()), int(n.max())
            self.validate_n(hi if lo >= 0 else lo)  # one check, one n_max_valid
        return np.asarray(self._e_raw(n), dtype=float)

    def energy(self, n: int) -> float:
        """Physical energy E_n = E_0 + omega * e_n."""
        self.validate_n(n)
        return self.ground_energy + self.omega * self._e_raw(n)


def _check_parameters(model: SpectrumModel) -> None:
    """Every parameter of a model must be finite, and alpha positive."""
    for f in fields(model):
        value = getattr(model, f.name)
        if not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")
    if not model.alpha > 0:
        raise DomainError(f"alpha must be positive, got {model.alpha}")


@dataclass(frozen=True)
class QuasiHarmonic(SpectrumModel):
    """Nonlinear oscillator with mass profile 2/(1-(lambda x)^2) in a quadratic trap.

    Parameters
    ----------
    alpha : float
        Energy scale (harmonic frequency); omega = alpha.
    upsilon : float
        Dimensionless nonlinearity strength, >= 0.  upsilon = 0 recovers the
        constant-mass harmonic oscillator.

    The dimensionless levels are e_n = n [1 + upsilon^2 (n+1)].
    """

    alpha: float = 1.0
    upsilon: float = 0.1

    def __post_init__(self):
        _check_parameters(self)
        if self.upsilon < 0:
            raise DomainError(f"upsilon must be >= 0, got {self.upsilon}")
        if self.upsilon > 2:
            warnings.warn(
                f"upsilon={self.upsilon} is outside the tested range [0, 2]",
                stacklevel=3,
            )

    @property
    def ground_energy(self) -> float:
        return 0.5 * self.alpha

    @property
    def coefficients(self) -> tuple[float, float]:
        return 1.0, self.upsilon**2


@dataclass(frozen=True)
class Morse(SpectrumModel):
    """Morse-like oscillator with exponentially decaying mass profile.

    Linear dimensionless spectrum e_n = n mu^2; the natural energy scale is
    unity (E_n = e_n), kept as an explicit alpha for uniformity.
    """

    mu: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        _check_parameters(self)
        if not self.mu > 0:
            raise DomainError(f"mu must be positive, got {self.mu}")
        if self.mu > 4:
            warnings.warn(
                f"mu={self.mu} is outside the tested range (0, 4]", stacklevel=3
            )

    @property
    def ground_energy(self) -> float:
        return 0.0

    @property
    def coefficients(self) -> tuple[float, float]:
        return self.mu**2, 0.0


@dataclass(frozen=True)
class MathewsLakshmanan(SpectrumModel):
    """Mathews-Lakshmanan oscillator, mass profile (1 + lambda x^2)^(-1).

    e_n = n [1 - (lambda_tilde/2)(n+1)].  For lambda_tilde < 0 this coincides
    with QuasiHarmonic at upsilon^2 = -lambda_tilde/2; for lambda_tilde > 0
    the spectrum increases only up to a finite n and is truncated there.
    """

    alpha: float = 1.0
    lambda_tilde: float = -0.02

    def __post_init__(self):
        _check_parameters(self)

    @property
    def ground_energy(self) -> float:
        return 0.5 * self.alpha

    @property
    def coefficients(self) -> tuple[float, float]:
        return 1.0, -0.5 * self.lambda_tilde
