"""Acceptance gate: each criterion at its stated tolerance, one line per criterion.

Criterion 1 checks the calibration table of (upsilon, n0, J) operating points
behind the weighting-distribution figures.  The tabulated J values fix the
*peak* of P_n at n0, not its mean:

- P_n / P_{n-1} = J / e_n with e_n increasing, so the mode is the largest n
  with e_n <= J and depends on J alone;
- with the levels continued to e(x) = x [1 + u^2 (x+1)], ln P_n - ln P_{n-1}
  = ln J - ln e(n) changes sign at e^-1(J), so the continuum peak is
  x* = e^-1(J) - 1/2; the table follows J = e(n0 + 1/2) to three significant
  figures, and x* lies within 2% of n0 on every row;
- the mean cannot also sit at n0: e is strictly convex for u > 0 and the
  action identity gives <e_n> = J, so Jensen's inequality bounds
  e(<n>) < J, i.e. <n> < x* + 1/2.  The means run 0.2-0.5 above n0.

The criterion therefore asserts the peak (exact argmax and continuum peak
within 2%) and the Jensen bound on the closed-form mean; the mean itself is
checked against the series by criterion 5 and through <e_n> = J by
criterion 6.
"""

import math
import time

import numpy as np

from gkstates import (
    GridSpec,
    Morse,
    QuasiHarmonic,
    autocorrelation,
    build_state,
    detect_revivals,
    distinct_fractions,
    distribution,
    eigenfunction,
    hamiltonian_residual,
    log_hyp0f1,
    log_normalization_sq,
    log_rho_closed,
    log_rho_sequence,
    mandel_q_closed_form,
    mean_closed_form,
    solve_j,
    variance_closed_form,
    verify_measure_moments,
)
from gkstates.wavefunctions import default_grid
from measure_oracles import validate_bessel_reduction
from position_oracles import _simpson

CALIBRATION = {
    0.1: [(5, 5.9), (10, 11.7), (15, 18.0), (20, 24.9)],
    0.2: [(5, 6.9), (10, 15.3), (15, 25.7), (20, 38.1)],
    0.5: [(5, 14.3), (10, 40.6), (15, 79.3), (20, 130.3)],
    1.0: [(5, 41.0), (10, 131.0), (15, 271.0), (20, 459.0)],
}

UPS_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
J_GRID = np.geomspace(0.1, 500.0, 20)
MORSE_SAMPLES = [(0.5, 1.0), (0.5, 10.0), (1.0, 5.0), (1.0, 50.0), (2.0, 4.0),
                 (2.0, 40.0), (3.0, 18.0), (3.0, 90.0), (4.0, 16.0), (1.5, 12.0)]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _mode(model, J):
    """Largest n with e_n <= J: the argmax of P_n by the ratio P_n/P_{n-1} = J/e_n."""
    n = 0
    while model.e_n(n + 1) <= J:
        n += 1
    return n


def _level(ups, x):
    """Quasi-harmonic level e(x) = x [1 + u^2 (x+1)], continued to real x."""
    return x * (1.0 + ups**2 * (x + 1.0))


def _continuum_peak(ups, J):
    """x* = e^-1(J) - 1/2, with the positive root of u^2 x^2 + (1+u^2) x = J."""
    b = 1.0 + ups**2
    return 2.0 * J / (b + math.sqrt(b * b + 4.0 * ups**2 * J)) - 0.5


def test_criterion_1_calibration_table():
    t0 = time.perf_counter()
    failures = []
    rows = []
    for ups, pairs in CALIBRATION.items():
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        for n0, J in pairs:
            peak = int(np.argmax(distribution(model, J).probs))
            mode = _mode(model, J)
            x_star = _continuum_peak(ups, J)
            rel = abs(x_star - n0) / n0
            mean = mean_closed_form(model, J)
            rows.append(f"{mean:.3f}({mean - n0:+.2f})")
            if peak != n0 or mode != n0:
                failures.append(f"ups={ups} J={J}: argmax P_n={peak}, ratio rule={mode}, n0={n0}")
            if rel > 0.02:
                failures.append(f"ups={ups} J={J}: continuum peak {x_star:.4f} vs n0={n0} ({rel:.1%})")
            e_mean = _level(ups, mean)
            if not e_mean < J:
                failures.append(f"ups={ups} J={J}: e(<n>)={e_mean:.6g} >= J (<n>={mean:.6f})")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(
        1,
        ok,
        f"{len(failures)} violations over 16 calibration pairs (argmax P_n == n0, "
        f"continuum peak within 2%, e(<n>) < J); <n>(<n>-n0): {' '.join(rows)}, "
        f"{elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert not failures, (
        "tabulated J values must put the peak of P_n at n0 (argmax exactly, "
        "continuum peak e^-1(J) - 1/2 within 2%, i.e. J ~ e(n0 + 1/2)) and keep the "
        "mean under the Jensen bound e(<n>) < <e_n> = J: " + "; ".join(failures)
    )


def test_criterion_2_full_revival():
    t0 = time.perf_counter()
    worst = 0.0
    for ups in (0.1, 0.2, 0.5, 1.0):
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        state = build_state(model, solve_j(model, 20.0))
        t_rev = 2.0 * math.pi / ups**2
        a2 = autocorrelation(state, np.array([0.0, t_rev])).abs2[1]
        worst = max(worst, abs(a2 - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"max |1-|A(T_rev)|^2| = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_3_fractional_revivals():
    t0 = time.perf_counter()
    counts = {}
    for ups, n0 in [(0.1, 5), (0.1, 10), (0.1, 15), (0.1, 20), (1.0, 20)]:
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        state = build_state(model, solve_j(model, float(n0)))
        series = autocorrelation(state)
        events = detect_revivals(series, threshold=0.2, q_max=4)
        counts[(ups, n0)] = len(distinct_fractions(events))
        if (ups, n0) == (0.1, 20):
            tol = max(2.0 * series.dt, series.t_classical / 3.0)
            for target in (0.5, 1.0 / 3.0, 0.25):
                hits = [
                    ev for ev in events
                    if ev.p is not None and abs(ev.time - target * series.t_revival) <= tol
                ]
                assert hits, f"no event near tau={target}"
    seq = [counts[(0.1, k)] for k in (5, 10, 15, 20)]
    trend_ok = all(b >= a for a, b in zip(seq, seq[1:]))
    ups_ok = counts[(1.0, 20)] <= counts[(0.1, 20)]
    elapsed = time.perf_counter() - t0
    ok = trend_ok and ups_ok and elapsed < 30.0
    _report(
        3,
        ok,
        f"tau=1/2,1/3,1/4 events present; distinct-fraction counts {seq} "
        f"(ups=1: {counts[(1.0, 20)]}), {elapsed:.2f}s",
    )
    assert trend_ok and ups_ok
    assert elapsed < 30.0


def test_criterion_4_sub_poissonian():
    t0 = time.perf_counter()
    worst_q = -math.inf
    for ups in UPS_GRID:
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        for J in J_GRID:
            worst_q = max(worst_q, distribution(model, float(J)).mandel_q)
    worst_morse = 0.0
    for mu, J in MORSE_SAMPLES:
        worst_morse = max(worst_morse, abs(distribution(Morse(mu=mu), J).mandel_q))
    elapsed = time.perf_counter() - t0
    ok = worst_q < 0.0 and worst_morse <= 1e-12 and elapsed < 1.0
    _report(
        4,
        ok,
        f"max Q on grid = {worst_q:.3e} (<0), max |Q_Morse| = {worst_morse:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert worst_q < 0.0
    assert worst_morse <= 1e-12
    assert elapsed < 1.0


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for ups in UPS_GRID:
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        seq = log_rho_sequence(model, 200)
        for n in (1, 7, 50, 200):
            worst = max(worst, abs(log_rho_closed(model, n) - seq[n]) / max(1.0, abs(seq[n])))
        b = 2.0 + 1.0 / ups**2
        for J in J_GRID:
            series_ln = log_normalization_sq(model, float(J))
            closed_ln = log_hyp0f1(b, float(J) / ups**2)
            worst = max(worst, abs(series_ln - closed_ln) / max(1.0, abs(series_ln)))
            d = distribution(model, float(J))
            worst = max(worst, abs(mean_closed_form(model, float(J)) - d.mean) / max(1.0, d.mean))
            worst = max(
                worst,
                abs(variance_closed_form(model, float(J)) - d.variance) / max(1.0, d.variance),
            )
            worst = max(
                worst,
                abs(mandel_q_closed_form(model, float(J)) - d.mandel_q)
                / max(1.0, abs(d.mandel_q)),
            )
    ok = worst <= 1e-9
    _report(5, ok, f"worst closed-form/series disagreement = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_6_action_identity():
    worst = 0.0
    count = 0

    def check(model, J):
        nonlocal worst, count
        st = build_state(model, float(J))
        worst = max(worst, abs(float(np.dot(st.weights, st.e_values)) - J) / J)
        count += 1

    for ups, pairs in CALIBRATION.items():
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        for n0, J in pairs:
            check(model, J)  # calibration-table states
            check(model, solve_j(model, float(n0)))  # mean-inverted states
    for ups in UPS_GRID:
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        for J in J_GRID:
            check(model, J)
    for mu, J in MORSE_SAMPLES:
        check(Morse(mu=mu), J)
    ok = worst <= 1e-12
    _report(6, ok, f"max |<e> - J|/J over {count} states = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_7_eigenfunction_verification():
    t0 = time.perf_counter()
    worst_res = 0.0
    for ups in (0.1, 0.2, 0.5):
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        for n in range(11):
            worst_res = max(worst_res, hamiltonian_residual(n, model))
    worst_orth = 0.0
    for ups in (0.1, 0.2, 0.5):
        model = QuasiHarmonic(alpha=1.0, upsilon=ups)
        grid = default_grid(model)
        funcs = [eigenfunction(n, model, grid) for n in range(9)]
        for i in range(9):
            for j in range(i, 9):
                inner = _simpson(funcs[i] * funcs[j], grid.h)
                worst_orth = max(worst_orth, abs(inner - (1.0 if i == j else 0.0)))
    model = QuasiHarmonic(alpha=1.0, upsilon=5e-5)
    grid = GridSpec(points=np.linspace(-12.0, 12.0, 4001), margin=0.0)
    worst_sup = 0.0
    for n in range(7):
        psi = eigenfunction(n, model, grid)
        herm = np.polynomial.hermite.hermval(grid.points, [0.0] * n + [1.0])
        ref = herm * np.exp(-grid.points**2 / 2.0)
        ref /= math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        worst_sup = max(worst_sup, float(np.max(np.abs(psi - ref))))
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-6 and worst_orth < 1e-8 and worst_sup < 1e-3 and elapsed < 60.0
    _report(
        7,
        ok,
        f"residual {worst_res:.2e}, orthonormality defect {worst_orth:.2e}, "
        f"harmonic-limit sup {worst_sup:.2e}, {elapsed:.1f}s",
    )
    assert worst_res < 1e-6
    assert worst_orth < 1e-8
    assert worst_sup < 1e-3
    assert elapsed < 60.0


def test_criterion_8_measure_moments():
    t0 = time.perf_counter()
    checks = validate_bessel_reduction()
    reduction_ok = all(c.rel_err <= 1e-8 for c in checks)
    assert reduction_ok, "Bessel-K reduction failed its 3-point validation"
    worst = 0.0
    for ups in (0.2, 0.5):
        rows = verify_measure_moments(QuasiHarmonic(alpha=1.0, upsilon=ups), n_max=5)
        worst = max(worst, max(r.rel_err for r in rows))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(
        8,
        ok,
        f"reduction validated at 3 points; worst moment defect {worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_9_morse_temporal_stability():
    mu = 1.3
    state = build_state(Morse(mu=mu), 7.0)
    period = 2.0 * math.pi / mu**2
    t = np.linspace(0.0, period, 10_001)
    base = np.abs(autocorrelation(state, t).values)
    worst = 0.0
    for k in (1, 2, 3):
        shifted = np.abs(autocorrelation(state, t + k * period).values)
        worst = max(worst, float(np.max(np.abs(shifted - base))))
    ok = worst < 1e-10
    _report(9, ok, f"max ||A(t+kP)|-|A(t)|| over 3 periods = {worst:.2e}")
    assert worst < 1e-10
