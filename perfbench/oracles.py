"""Correctness checks for benchmark tasks, run outside the timed span.

Every check compares the program's output with invariants and with oracles
written here from the closed forms, using scipy and numpy only; nothing in
this module calls gkstates. Tolerances are stated per check and leave room
for a change of rounding (a new summation order, a new kernel), not for a
change of value.

Closed forms used:
  - levels: quasi-harmonic e_n = n (1 + u^2 (n+1)); Mathews-Lakshmanan with
    lambda_tilde < 0 is the same with u^2 = -lambda_tilde/2; Morse e_n = n mu^2.
  - ln rho_n = ln n! + n ln u^2 + ln Gamma(b+n) - ln Gamma(b), b = 2 + 1/u^2
    (ln n! + n ln mu^2 for Morse, ln n! at u = 0).
  - P_n = J^n / (N^2 rho_n); A(t) = sum_n P_n exp(i e_n omega t).
  - psi_n(rho) = sqrt(m) q_n(m rho) (1 - (m rho)^2)^(1/(2 m^2)), q_n the
    orthonormal Gegenbauer polynomials of index lam = 1/m^2 + 1/2 and
    m = sqrt(2) u: the deformed Hermite polynomials are Gegenbauer
    polynomials in m rho, and the weight (1-x^2)^(lam-1/2) is psi_0^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import gammaln


class CheckFailed(Exception):
    """A task's output violates an invariant or disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, ref: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    value, ref = float(value), float(ref)
    err = abs(value - ref)
    _require(err <= rel * abs(ref) + abs_tol,
             f"{what}: got {value!r}, expected {ref!r} (|diff| {err:.3g})")


@dataclass(frozen=True)
class Levels:
    """The spectrum of one model, evaluated from its closed form."""

    kind: str
    alpha: float
    u2: float = 0.0  # quasi-harmonic form
    mu2: float = 0.0  # Morse form

    @classmethod
    def from_params(cls, p: dict) -> "Levels":
        if p["model"] == "morse":
            return cls("morse", p["alpha"], mu2=p["mu"] ** 2)
        if p["model"] == "mathews-lakshmanan":
            if p["lambda_tilde"] > 0:
                raise CheckFailed("no oracle for a truncated Mathews-Lakshmanan spectrum")
            return cls("qh", p["alpha"], u2=-0.5 * p["lambda_tilde"])
        return cls("qh", p["alpha"], u2=p["upsilon"] ** 2)

    @property
    def ground(self) -> float:
        return 0.0 if self.kind == "morse" else 0.5 * self.alpha

    def e(self, n):
        n = np.asarray(n, dtype=float)
        if self.kind == "morse":
            return n * self.mu2
        return n * (1.0 + self.u2 * (n + 1.0))

    def de(self, n: float, order: int) -> float:
        if self.kind == "morse":
            return self.mu2 if order == 1 else 0.0
        return 1.0 + self.u2 * (2.0 * n + 1.0) if order == 1 else 2.0 * self.u2

    def log_rho(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if self.kind == "morse":
            return gammaln(n + 1.0) + n * math.log(self.mu2)
        if self.u2 == 0.0:
            return gammaln(n + 1.0)
        b = 2.0 + 1.0 / self.u2
        return gammaln(n + 1.0) + n * math.log(self.u2) + gammaln(b + n) - gammaln(b)

    def timescales(self, mean: float) -> tuple[float, float | None]:
        t_cl = 2.0 * math.pi / (self.alpha * abs(self.de(mean, 1)))
        d2 = self.de(mean, 2)
        t_rev = None if d2 == 0.0 else 4.0 * math.pi / (self.alpha * abs(d2))
        return t_cl, t_rev


def oracle_probs(lv: Levels, J: float) -> np.ndarray:
    """P_n out to where the terms fall 60 nats below the peak."""
    if J == 0.0:
        return np.ones(1)
    n_max = 256
    while True:
        n = np.arange(n_max + 1, dtype=float)
        lt = n * math.log(J) - lv.log_rho(n)
        peak = int(np.argmax(lt))
        if peak < n_max and lt[-1] < lt[peak] - 60.0:
            w = np.exp(lt - lt[peak])
            return w / math.fsum(w)
        n_max *= 2


def oracle_mean(lv: Levels, J: float) -> float:
    p = oracle_probs(lv, J)
    return math.fsum(p * np.arange(len(p)))


def oracle_solve(lv: Levels, n0: float) -> float:
    """J with oracle mean n0, to a few ulp."""
    hi = max(1.0, float(lv.e(n0 + 1.0)))
    while oracle_mean(lv, hi) < n0:
        hi *= 2.0
    return brentq(lambda J: oracle_mean(lv, J) - n0, 0.0, hi, xtol=1e-14 * hi, rtol=1e-15)


def _state_probs(p: dict, lv: Levels) -> tuple[np.ndarray, float]:
    J = p["J"] if "J" in p else oracle_solve(lv, p["n0"])
    return oracle_probs(lv, J), J


def _autocorr(lv: Levels, probs: np.ndarray, t: np.ndarray) -> np.ndarray:
    phases = lv.e(np.arange(len(probs))) * lv.alpha
    return np.exp(1j * np.outer(t, phases)) @ probs


# ---------------------------------------------------------------------------
# Output parsing


def _csv(text: str, header: list[str], rows: slice | list[int] | None = None):
    lines = text.split("\n")
    _require(lines[-1] == "", "output does not end with a newline")
    lines = lines[:-1]
    _require(bool(lines) and lines[0] == ",".join(header),
             f"header {lines[0] if lines else ''!r}, expected {','.join(header)!r}")
    body = lines[1:]
    picked = body if rows is None else [body[i] for i in rows]
    return len(body), [line.split(",") for line in picked]


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def _spread_rows(count: int, k: int = 20) -> list[int]:
    return sorted(set(np.linspace(0, count - 1, min(k, count)).round().astype(int).tolist()))


# ---------------------------------------------------------------------------
# Per-command checks. Each takes the task parameters and the captured output.


def check_spectrum(p: dict, out: str) -> None:
    lv = Levels.from_params(p)
    n_max = int(p.get("n_max", 20))
    count, rows = _csv(out, ["n", "e_n", "energy"])
    _require(count == n_max + 1, f"{count} rows, expected {n_max + 1}")
    n = _floats(rows, 0)
    e_ref = lv.e(n)
    for col, ref, what in ((1, e_ref, "e_n"), (2, lv.ground + lv.alpha * e_ref, "energy")):
        got = _floats(rows, col)
        err = np.abs(got - ref)
        _require(bool(np.all(err <= 1e-13 * np.abs(ref) + 1e-300)),
                 f"{what} differs from the closed form by up to {err.max():.3g}")


def _check_probs(probs: np.ndarray, ref: np.ndarray) -> None:
    _close(math.fsum(probs), 1.0, 0.0, "sum of P_n", abs_tol=1e-12)
    tail = math.fsum(ref[len(probs):]) if len(ref) > len(probs) else 0.0
    _require(tail < 1e-14, f"truncation drops tail mass {tail:.3g}")
    k = min(len(probs), len(ref))
    err = np.abs(probs[:k] - ref[:k])
    bad = err > 1e-7 * ref[:k] + 1e-14 * ref.max()
    _require(not bad.any(),
             f"P_n differs from the oracle at n={int(np.argmax(bad))} (|diff| up to {err.max():.3g})")


def check_dist(p: dict, out: str) -> None:
    lv = Levels.from_params(p)
    count, rows = _csv(out, ["n", "P_n"])
    _require(np.array_equal(_floats(rows, 0), np.arange(count)), "n column is not 0..N")
    probs = _floats(rows, 1)
    ref, J = _state_probs(p, lv)
    _check_probs(probs, ref)
    mean = math.fsum(probs * np.arange(count))
    if "n0" in p:
        _close(mean, p["n0"], 1e-7, "mean", abs_tol=1e-7)
    elif lv.kind == "qh" and lv.u2 == 0.0:
        _close(mean, J, 1e-9, "Poisson mean", abs_tol=1e-12)
    else:
        _close(mean, oracle_mean(lv, J), 1e-9, "mean", abs_tol=1e-12)


def _moments(lv: Levels, J: float) -> tuple[float, float]:
    p = oracle_probs(lv, J)
    n = np.arange(len(p), dtype=float)
    mean = math.fsum(p * n)
    return mean, math.fsum(p * (n - mean) ** 2)


def check_moments(p: dict, out: str) -> None:
    lv = Levels.from_params(p)
    if "j_grid" in p:
        start, stop, num = p["j_grid"]
        count, rows = _csv(out, ["J", "mean", "variance", "mandel_q"])
        _require(count == int(num), f"{count} rows, expected {int(num)}")
        Js = _floats(rows, 0)
        _require(bool(np.allclose(Js, np.linspace(start, stop, int(num)), rtol=1e-15, atol=0)),
                 "J column is not the requested grid")
        for i, J in enumerate(Js):
            mean, var = _moments(lv, J)
            got_mean, got_var, got_q = (float(x) for x in rows[i][1:])
            _close(got_mean, mean, 1e-9, f"mean at J={J}", abs_tol=1e-12)
            _close(got_var, var, 1e-8, f"variance at J={J}", abs_tol=1e-12)
            if mean > 0:
                q_ref = (var - mean) / mean
                _close(got_q, q_ref, 0.0, f"Mandel Q at J={J}", abs_tol=1e-8 * (var + mean) / mean)
        return
    lines = out.split("\n")
    _require(len(lines) == 3 and lines[2] == "", "summary is not one header and one row")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    J = oracle_solve(lv, p["n0"]) if "n0" in p else p["J"]
    mean, var = _moments(lv, J)
    if "n0" in p:
        _close(float(row["mean"]), p["n0"], 1e-7, "mean", abs_tol=1e-7)
    _close(float(row["mean"]), mean, 1e-7, "mean", abs_tol=1e-7)
    _close(float(row["variance"]), var, 1e-6, "variance", abs_tol=1e-9)
    t_cl, t_rev = lv.timescales(float(row["mean"]))
    _close(float(row["t_classical"]), t_cl, 1e-9, "T_cl")
    if t_rev is not None:
        _close(float(row["t_revival"]), t_rev, 1e-9, "T_rev")


def check_solve_j(p: dict, out: str) -> None:
    lv = Levels.from_params(p)
    _require(out.endswith("\n") and out.count("\n") == 1, "output is not one line")
    J = float(out)
    _close(oracle_mean(lv, J), p["n0"], 1e-7, "oracle mean at the returned J", abs_tol=1e-7)


def _series_setup(p: dict):
    lv = Levels.from_params(p)
    probs, _ = _state_probs(p, lv)
    mean = math.fsum(probs * np.arange(len(probs)))
    t_cl, t_rev = lv.timescales(mean)
    return lv, probs, t_cl, t_rev


def check_autocorr(p: dict, out: str) -> None:
    lv, probs, t_cl, t_rev = _series_setup(p)
    dt = t_cl / p.get("samples_per_tcl", 20)
    horizon = p.get("tmax_rev", 1.1) * t_rev if t_rev is not None else p.get("tmax_cl", 10.0) * t_cl
    expected = int(math.floor(horizon / dt)) + 1
    count = out.count("\n") - 1
    _require(abs(count - expected) <= 1, f"{count} samples, expected {expected}")
    _, rows = _csv(out, ["t", "tau", "tau_cl", "re_A", "im_A", "abs2_A"], _spread_rows(count))
    data = np.array([[float(x) for x in r] for r in rows])
    t = data[:, 0]
    _close(data[0, 5], 1.0, 0.0, "|A(0)|^2", abs_tol=1e-12)
    idx = np.array(_spread_rows(count))
    _require(bool(np.allclose(t, idx * dt, rtol=1e-9, atol=0)), "sample times are not i*T_cl/20")
    _require(bool(np.allclose(data[:, 1], t / (t_rev or t_cl), rtol=1e-9, atol=0)), "tau column")
    _require(bool(np.allclose(data[:, 2], t / t_cl, rtol=1e-9, atol=0)), "tau_cl column")
    ref = _autocorr(lv, probs, t)
    err = np.abs(data[:, 3] + 1j * data[:, 4] - ref)
    _require(bool(err.max() <= 1e-8), f"A(t) differs from the oracle by up to {err.max():.3g}")
    err2 = np.abs(data[:, 5] - np.abs(ref) ** 2)
    _require(bool(err2.max() <= 1e-8), f"|A|^2 differs from the oracle by up to {err2.max():.3g}")


def check_revivals(p: dict, out: str) -> None:
    lv, probs, t_cl, t_rev = _series_setup(p)
    dt = t_cl / p.get("samples_per_tcl", 20)
    tol = max(2.0 * dt, t_cl / 3.0)
    q_max = int(p.get("q_max", 4))
    threshold = p.get("threshold", 0.2)
    _, rows = _csv(out, ["time", "tau", "abs2", "p", "q"])
    _require(bool(rows), "no revival events")
    times = _floats(rows, 0)
    _require(bool(np.all(np.diff(times) > 0)), "events are not in time order")
    _require(bool(np.allclose(_floats(rows, 1), times / (t_rev or t_cl), rtol=1e-9, atol=0)),
             "tau column")
    abs2 = _floats(rows, 2)
    _require(bool(abs2.min() >= threshold), "an event lies below the threshold")
    ref = np.abs(_autocorr(lv, probs, times)) ** 2
    err = np.abs(abs2 - ref)
    _require(bool(err.max() <= 1e-8), f"event |A|^2 differs from the oracle by up to {err.max():.3g}")
    for r, t in zip(rows, times):
        if r[3] == "":
            continue
        pp, qq = int(r[3]), int(r[4])
        _require(t_rev is not None and 1 <= qq <= q_max and math.gcd(pp, qq) == 1,
                 f"bad label {pp}/{qq}")
        _require(abs(t - pp / qq * t_rev) <= tol * (1 + 1e-9),
                 f"event at t={t} is {abs(t - pp / qq * t_rev):.3g} from {pp}/{qq} T_rev (tol {tol:.3g})")


def _grid(p: dict, m: float) -> np.ndarray:
    hw = 1.0 / m
    margin = p.get("grid_margin", 1e-6) * hw
    return np.linspace(-hw + margin, hw - margin, int(p.get("grid_points", 4001)))


def _psi(n_max: int, m: float, rho: np.ndarray) -> np.ndarray:
    """Orthonormal psi_0 .. psi_n_max on ``rho``, shape (n_max + 1, len(rho)).

    Three-term recurrence of the orthonormal Gegenbauer polynomials times
    the square root of their weight, which stays bounded at any n:
    x q_n = b_{n+1} q_{n+1} + b_n q_{n-1}, b_n^2 = n (n+2 lam-1) / (4 (n+lam) (n+lam-1)).
    """
    lam = 1.0 / m**2 + 0.5
    x = m * rho
    out = np.empty((n_max + 1, len(x)))
    log_h0 = 0.5 * math.log(math.pi) + gammaln(lam + 0.5) - gammaln(lam + 1.0)
    out[0] = np.exp(0.5 / m**2 * np.log1p(-x * x) - 0.5 * log_h0 + 0.5 * math.log(m))
    b_prev = 0.0
    for k in range(n_max):
        n = k + 1
        b = math.sqrt(n * (n + 2 * lam - 1) / (4.0 * (n + lam) * (n + lam - 1)))
        out[n] = (x * out[k] - (b_prev * out[k - 1] if k else 0.0)) / b
        b_prev = b
    return out


def _position_rows(p: dict, out: str):
    m = math.sqrt(2.0) * p["upsilon"]
    count, rows = _csv(out, ["rho", "value"])
    data = np.array([[float(x) for x in r] for r in rows])
    _require(bool(np.allclose(data[:, 0], _grid(p, m), rtol=0, atol=1e-12)), "rho grid")
    return m, data[:, 0], data[:, 1]


def check_eigenfunction(p: dict, out: str) -> None:
    m, rho, val = _position_rows(p, out)
    ref = _psi(int(p["n"]), m, rho)[-1]
    err = np.abs(val - ref)
    _require(bool(err.max() <= 1e-7 * np.abs(ref).max()),
             f"psi_n differs from the Gegenbauer oracle by up to {err.max():.3g}")
    _close(simpson(val * val, x=rho), 1.0, 0.0, "Simpson norm", abs_tol=1e-9)


def check_density(p: dict, out: str) -> None:
    m, rho, val = _position_rows(p, out)
    _require(bool(val.min() >= 0.0), "negative density")
    _close(simpson(val, x=rho), 1.0, 0.0, "Simpson integral of the density", abs_tol=1e-6)
    lv = Levels.from_params(p)
    probs, _ = _state_probs(p, lv)
    n = np.arange(len(probs))
    coeff = np.sqrt(probs) * np.exp(-1j * lv.e(n) * (p.get("gamma", 0.0) + lv.alpha * p.get("time", 0.0)))
    idx = _spread_rows(len(rho), 21)
    ref = np.abs(coeff @ _psi(len(probs) - 1, m, rho[idx])) ** 2
    err = np.abs(val[idx] - ref)
    _require(bool(err.max() <= 1e-6 * val.max()),
             f"density differs from the Gegenbauer series by up to {err.max():.3g}")


def check_verify_measure(p: dict, out: str) -> None:
    lv = Levels.from_params(p)
    n_max = int(p.get("n_max_moment", 5))
    count, rows = _csv(out, ["n", "lhs", "rhs", "rel_err", "converged"])
    _require(count == n_max + 1, f"{count} rows, expected {n_max + 1}")
    for i, r in enumerate(rows):
        n, lhs, rhs, rel = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        _require(n == i, "n column")
        _close(rhs, math.exp(float(lv.log_rho(n))), 1e-12, f"rho_{n}")
        _close(rel, abs(lhs - rhs) / rhs, 1e-6, f"rel_err at n={n}", abs_tol=1e-18)
        _require(rel < 1e-6, f"moment {n} rel_err {rel:.3g} >= 1e-6")
        _require(r[4] == "true", f"moment {n} not converged")


def check_hamiltonian_residual(p: dict, value: float) -> None:
    _require(math.isfinite(value) and 0.0 < value < 1e-6,
             f"residual {value!r} not in (0, 1e-6)")


CHECKS = {
    "spectrum": check_spectrum,
    "dist": check_dist,
    "moments": check_moments,
    "solve-j": check_solve_j,
    "autocorr": check_autocorr,
    "revivals": check_revivals,
    "eigenfunction": check_eigenfunction,
    "density": check_density,
    "verify-measure": check_verify_measure,
    "hamiltonian_residual": check_hamiltonian_residual,
}
