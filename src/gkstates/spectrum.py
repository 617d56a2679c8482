"""Energy-spectrum models and the generic shape-invariance chain engine.

Each model exposes the dimensionless levels e_n (e_0 = 0, strictly
increasing over the valid range) together with the physical energies
E_n = E_0 + omega * e_n, where omega is the model's energy scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidChainError, SpectrumRangeError, DomainError

__all__ = [
    "SpectrumModel",
    "QuasiHarmonic",
    "Morse",
    "MathewsLakshmanan",
    "ShapeInvarianceChain",
    "si_energy",
    "standard_chain",
]


class SpectrumModel:
    """Base class: a parameterised rule n -> (E_n, e_n)."""

    alpha: float

    @property
    def omega(self) -> float:
        """Energy scale relating E_n and e_n; fixed to alpha for built-ins."""
        return self.alpha

    @property
    def ground_energy(self) -> float:
        raise NotImplementedError

    @property
    def n_max_valid(self) -> int | None:
        """Largest valid quantum number, or None for an unbounded spectrum."""
        return None

    def _e_raw(self, n):
        """e_n for a number or, elementwise, for an integer array."""
        raise NotImplementedError

    def e_n_derivative(self, n: float, order: int) -> float:
        raise NotImplementedError

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
            self.validate_n(int(n.min()))
            self.validate_n(int(n.max()))
        return np.asarray(self._e_raw(n), dtype=float)

    def energy(self, n: int) -> float:
        """Physical energy E_n = E_0 + omega * e_n."""
        self.validate_n(n)
        return self.ground_energy + self.omega * self._e_raw(n)


def _check_alpha(alpha: float) -> None:
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")


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
        _check_alpha(self.alpha)
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

    def _e_raw(self, n: float) -> float:
        return n * (1.0 + self.upsilon**2 * (n + 1.0))

    def e_n_derivative(self, n: float, order: int) -> float:
        u2 = self.upsilon**2
        if order == 1:
            return 1.0 + u2 * (2.0 * n + 1.0)
        if order == 2:
            return 2.0 * u2
        return 0.0


@dataclass(frozen=True)
class Morse(SpectrumModel):
    """Morse-like oscillator with exponentially decaying mass profile.

    Linear dimensionless spectrum e_n = n mu^2; the natural energy scale is
    unity (E_n = e_n), kept as an explicit alpha for uniformity.
    """

    mu: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not self.mu > 0:
            raise DomainError(f"mu must be positive, got {self.mu}")
        if self.mu > 4:
            warnings.warn(
                f"mu={self.mu} is outside the tested range (0, 4]", stacklevel=3
            )

    @property
    def ground_energy(self) -> float:
        return 0.0

    def _e_raw(self, n: float) -> float:
        return n * self.mu**2

    def e_n_derivative(self, n: float, order: int) -> float:
        return self.mu**2 if order == 1 else 0.0


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
        _check_alpha(self.alpha)

    @property
    def ground_energy(self) -> float:
        return 0.5 * self.alpha

    @property
    def n_max_valid(self) -> int | None:
        if self.lambda_tilde <= 0:
            return None
        # largest n keeping e_{n+1} > e_n: steps shrink by lambda_tilde each level
        return int(math.floor(1.0 / self.lambda_tilde - 1.0))

    def _e_raw(self, n: float) -> float:
        return n * (1.0 - 0.5 * self.lambda_tilde * (n + 1.0))

    def e_n_derivative(self, n: float, order: int) -> float:
        if order == 1:
            return 1.0 - 0.5 * self.lambda_tilde * (2.0 * n + 1.0)
        if order == 2:
            return -self.lambda_tilde
        return 0.0


@dataclass(frozen=True)
class ShapeInvarianceChain:
    """Algebraic spectrum generator E_n = E_0 + sum_i R(alpha_i).

    Parameters
    ----------
    remainder : callable
        alpha -> R(alpha), the level spacing contributed at parameter alpha.
    param_map : callable
        alpha -> f(alpha), advancing the potential parameter along the chain.
    alpha_1 : float
        Initial parameter value.
    ground_energy : float
        E_0 added on top of the accumulated remainders.
    """

    remainder: Callable[[float], float]
    param_map: Callable[[float], float]
    alpha_1: float
    ground_energy: float = 0.0


def si_energy(chain: ShapeInvarianceChain, n: int) -> float:
    """E_0 + sum_{i=1}^{n} R(alpha_i) with alpha_{i+1} = f(alpha_i)."""
    if n < 0:
        raise SpectrumRangeError(f"quantum number must be >= 0, got {n}")
    total = chain.ground_energy
    a = chain.alpha_1
    for i in range(1, n + 1):
        r = chain.remainder(a)
        if not r > 0:
            raise InvalidChainError(
                f"remainder R(alpha_{i}={a}) = {r} is not positive; "
                "chain does not generate an increasing spectrum"
            )
        total += r
        a = chain.param_map(a)
    return total


def standard_chain(model: SpectrumModel) -> ShapeInvarianceChain:
    """Chain whose accumulated energies reproduce a built-in model's E_n.

    The parameter walks the level index (alpha_i = i) and the remainder is
    the exact level spacing E_n - E_{n-1} of the model.
    """
    if isinstance(model, QuasiHarmonic):
        a, u2 = model.alpha, model.upsilon**2
        return ShapeInvarianceChain(
            remainder=lambda i: a * (1.0 + 2.0 * u2 * i),
            param_map=lambda i: i + 1.0,
            alpha_1=1.0,
            ground_energy=model.ground_energy,
        )
    if isinstance(model, Morse):
        r = model.alpha * model.mu**2
        return ShapeInvarianceChain(
            remainder=lambda i: r,
            param_map=lambda i: i + 1.0,
            alpha_1=1.0,
            ground_energy=model.ground_energy,
        )
    if isinstance(model, MathewsLakshmanan):
        a, lt = model.alpha, model.lambda_tilde
        return ShapeInvarianceChain(
            remainder=lambda i: a * (1.0 - lt * i),
            param_map=lambda i: i + 1.0,
            alpha_1=1.0,
            ground_energy=model.ground_energy,
        )
    raise DomainError(f"no standard chain for model {model!r}")
