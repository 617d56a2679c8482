"""The G-kernel oracle of the measure check.

The reproducing measure of the quasi-harmonic states is the Meijer G kernel
G^{2,0}_{0,2}(x | -; 0, nu), which the measure check evaluates through its
Bessel reduction 2 x^(nu/2) K_nu(2 sqrt(x)). Here the kernel is summed
residue by residue instead, so the reduction and the K_nu kernel are
checked against an independent evaluation.
"""

import math
from dataclasses import dataclass

from gkstates import DomainError, log_bessel_k


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, K_nu(x), x > 0."""
    lv = log_bessel_k(nu, x)
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ReductionCheck:
    """Comparison of the Bessel-reduced kernel with its residue-series value."""

    nu: float
    x: float
    reduced: float
    series: float
    rel_err: float


def _g_kernel_series(nu: float, x: float) -> float:
    """G^{2,0}_{0,2}(x | -; 0, nu) summed residue by residue (nu non-integer).

    Equals (pi/sin(pi nu)) [ sum_k x^k/(k! Gamma(k+1-nu))
                             - x^nu sum_k x^k/(k! Gamma(k+1+nu)) ].
    """
    if abs(nu - round(nu)) < 1e-9:
        raise DomainError("residue series requires non-integer nu")

    def side(offset: float) -> float:
        total = 0.0
        term_ln = 0.0  # ln of x^k/k!
        for k in range(0, 400):
            g = math.gamma(k + 1.0 + offset)
            contrib = math.exp(term_ln) / g
            total += contrib
            if k > 2 and abs(contrib) < 1e-20 * max(1e-300, abs(total)):
                break
            term_ln += math.log(x) - math.log(k + 1.0)
        return total

    s1 = side(-nu)
    s2 = side(+nu)
    return math.pi / math.sin(math.pi * nu) * (s1 - x**nu * s2)


_DEFAULT_REDUCTION_POINTS = ((5.5, 4.0), (2.25, 9.0), (10.5, 6.25))


def validate_bessel_reduction(
    points: tuple[tuple[float, float], ...] = _DEFAULT_REDUCTION_POINTS,
) -> list[ReductionCheck]:
    """Check G^{2,0}_{0,2}(x | -; 0, nu) = 2 x^(nu/2) K_nu(2 sqrt(x)) pointwise.

    The left side is evaluated by its Mellin-Barnes residue series, the right
    side through the trapezoidal K_nu kernel; agreement at a few points
    certifies the reduction used by the measure check.
    """
    rows = []
    for nu, x in points:
        series = _g_kernel_series(nu, x)
        reduced = 2.0 * x ** (0.5 * nu) * bessel_k(nu, 2.0 * math.sqrt(x))
        rel = abs(series - reduced) / max(abs(series), 1e-300)
        rows.append(ReductionCheck(nu=nu, x=x, reduced=reduced, series=series, rel_err=rel))
    return rows
