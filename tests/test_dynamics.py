"""Timescales, autocorrelation series and revival detection."""

import math
from dataclasses import replace
from math import gcd

import numpy as np
import pytest

from gkstates import (
    DomainError,
    Morse,
    QuasiHarmonic,
    ResolutionError,
    RevivalEvent,
    autocorrelation,
    build_state,
    default_time_grid,
    detect_revivals,
    distinct_fractions,
    solve_j,
    timescales,
)
from gkstates.dynamics import _uniform_step


def _direct_sum(state, t):
    """Reference A(t) = sum_n P_n exp(i w e_n t), one exponential per (t, n)."""
    return np.exp(1j * np.outer(t, state.e_values * state.model.omega)) @ state.weights


def _reference_revivals(series, threshold, q_max):
    """The per-sample peak search and per-fraction labelling loop that
    detect_revivals replaced with array operations."""
    dt = series.dt
    a2 = series.abs2
    smooth = np.convolve(a2, np.full(5, 0.2), mode="same")
    peaks = []
    for i in range(2, len(smooth) - 2):
        if not (smooth[i] > smooth[i - 1] and smooth[i] >= smooth[i + 1]):
            continue
        lo = max(0, i - 2)
        j = lo + int(np.argmax(a2[lo : min(len(a2), i + 3)]))
        if a2[j] < threshold or j <= 2 or j >= len(a2) - 3:
            continue
        if peaks and j - peaks[-1] <= 3:
            if a2[j] > a2[peaks[-1]]:
                peaks[-1] = j
            continue
        peaks.append(j)
    events = []
    t_rev = series.t_revival
    tol = max(2.0 * dt, series.t_classical / 3.0)
    horizon = float(series.times[-1])
    for j in peaks:
        t_peak = float(series.times[j])
        p = q = None
        if t_rev is not None:
            best = math.inf
            for qq in range(1, q_max + 1):
                for pp in range(1, int(math.ceil(horizon / t_rev * qq)) + 2):
                    if gcd(pp, qq) != 1:
                        continue
                    d = abs(t_peak - pp / qq * t_rev)
                    if d <= tol and d < best:
                        best, p, q = d, pp, qq
        events.append(RevivalEvent(time=t_peak, amplitude_sq=float(a2[j]), p=p, q=q))
    events.sort(key=lambda ev: ev.time)
    return events


def test_timescales_quasiharmonic():
    ts = timescales(QuasiHarmonic(alpha=1.0, upsilon=0.1), 5.0)
    assert math.isclose(ts.t_classical, 2 * math.pi / 1.11, rel_tol=1e-12)
    assert math.isclose(ts.t_revival, 200 * math.pi, rel_tol=1e-12)
    assert ts.t_classical < ts.t_revival


def test_timescales_linear_spectra():
    ts = timescales(QuasiHarmonic(alpha=1.0, upsilon=0.0), 7.0)
    assert ts.t_revival is None
    morse = timescales(Morse(mu=1.0), 3.0)
    assert math.isclose(morse.t_classical, 2 * math.pi, rel_tol=1e-12)
    assert morse.t_revival is None


def test_timescales_domain():
    with pytest.raises(DomainError):
        timescales(QuasiHarmonic(), -1.0)


def test_autocorrelation_at_zero():
    st = build_state(QuasiHarmonic(upsilon=0.1), 5.9)
    series = autocorrelation(st)
    assert series.values[0] == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)


def test_autocorrelation_conjugate_symmetry():
    st = build_state(QuasiHarmonic(upsilon=0.2), 6.9)
    t = np.linspace(0.5, 30.0, 7)
    fwd = autocorrelation(st, t).values
    bck = autocorrelation(st, -t).values
    assert np.max(np.abs(fwd - np.conj(bck))) < 1e-13


def test_morse_classical_periodicity():
    mu = 1.3
    st = build_state(Morse(mu=mu), 7.0)
    period = 2 * math.pi / mu**2
    t = np.linspace(0.0, period, 10_001)
    base = np.abs(autocorrelation(st, t).values)
    for k in (1, 2, 3):
        shifted = np.abs(autocorrelation(st, t + k * period).values)
        assert np.max(np.abs(shifted - base)) < 1e-10
    assert abs(autocorrelation(st, np.array([0.0, period])).abs2[1] - 1.0) <= 1e-12


@pytest.mark.parametrize("ups", [0.1, 0.2, 0.5, 1.0])
def test_full_revival(ups):
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    st = build_state(m, solve_j(m, 20.0))
    t_rev = 2 * math.pi / ups**2
    vals = autocorrelation(st, np.array([0.0, t_rev, 2 * t_rev, 3 * t_rev])).abs2
    assert np.all(np.abs(vals[1:] - 1.0) <= 1e-9)


def test_autocorrelation_generic_time_vs_oracle():
    # independent 40-digit evaluation of sum_n P_n exp(i e_n t) at awkward t
    import mpmath as mp

    mp.mp.dps = 40
    ups, J, t = 0.2, 15.3, 7.7193
    model = QuasiHarmonic(alpha=1.0, upsilon=ups)
    st = build_state(model, J)
    got = autocorrelation(st, np.array([0.0, t])).values[1]
    log_rho = mp.mpf(0)
    terms = []
    for n in range(400):
        if n > 0:
            log_rho += mp.log(mp.mpf(n) * (1 + mp.mpf(ups) ** 2 * (n + 1)))
        terms.append(mp.e ** (n * mp.log(J) - log_rho))
    norm = mp.fsum(terms)
    ref = complex(
        mp.fsum(
            (w / norm) * mp.e ** (1j * mp.mpf(n) * (1 + mp.mpf(ups) ** 2 * (n + 1)) * t)
            for n, w in enumerate(terms)
        )
    )
    assert abs(got - ref) <= 1e-11


def test_detect_revivals_morse():
    mu = 1.0
    st = build_state(Morse(mu=mu), 9.0)
    series = autocorrelation(st)
    events = detect_revivals(series, threshold=0.5, q_max=4)
    t_cl = 2 * math.pi / mu**2
    assert len(events) >= 9
    for k, ev in enumerate(events, start=1):
        assert abs(ev.time - k * t_cl) <= 2 * series.dt
        assert ev.amplitude_sq == pytest.approx(1.0, abs=1e-6)
        assert ev.p is None  # no revival time for a linear spectrum


def test_detect_revivals_fractions():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    st = build_state(m, solve_j(m, 20.0))
    series = autocorrelation(st)
    events = detect_revivals(series, threshold=0.2, q_max=4)
    fracs = distinct_fractions(events)
    assert {(1, 2), (1, 3), (1, 4)} <= fracs
    tol = max(2 * series.dt, series.t_classical / 3.0)
    for target in (0.5, 1 / 3, 0.25):
        close = [
            ev
            for ev in events
            if abs(ev.time - target * series.t_revival) <= tol and ev.p is not None
        ]
        assert close, f"no labelled event near tau={target}"
    # amplitudes are measured series values, not assumptions
    half = [ev for ev in events if (ev.p, ev.q) == (1, 2)]
    assert half and half[0].amplitude_sq == pytest.approx(1.0, abs=1e-9)


def test_fraction_count_trends():
    counts = {}
    for n0 in (5, 10, 15, 20):
        m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
        st = build_state(m, solve_j(m, float(n0)))
        events = detect_revivals(autocorrelation(st), threshold=0.2, q_max=4)
        counts[n0] = len(distinct_fractions(events))
    seq = [counts[k] for k in (5, 10, 15, 20)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    m1 = QuasiHarmonic(alpha=1.0, upsilon=1.0)
    st1 = build_state(m1, solve_j(m1, 20.0))
    events1 = detect_revivals(autocorrelation(st1), threshold=0.2, q_max=4)
    assert len(distinct_fractions(events1)) <= counts[20]


def test_detect_revivals_resolution_guard():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    st = build_state(m, 5.9)
    coarse = default_time_grid(m, st.mean_n(), samples_per_tcl=5)
    series = autocorrelation(st, coarse)
    with pytest.raises(ResolutionError):
        detect_revivals(series, threshold=0.2, q_max=4)


def test_detect_revivals_parameter_validation():
    st = build_state(QuasiHarmonic(upsilon=0.1), 5.9)
    series = autocorrelation(st)
    with pytest.raises(DomainError):
        detect_revivals(series, threshold=0.0, q_max=4)
    with pytest.raises(DomainError):
        detect_revivals(series, threshold=0.2, q_max=0)


def test_default_grid_shape():
    m = QuasiHarmonic(alpha=1.0, upsilon=0.1)
    grid = default_time_grid(m, 5.0)
    ts = timescales(m, 5.0)
    assert grid[0] == 0.0
    assert grid[-1] <= 1.1 * ts.t_revival < grid[-1] + ts.t_classical / 20 + 1e-9
    # linear spectrum: horizon in classical periods
    grid_m = default_time_grid(Morse(mu=1.0), 4.0)
    assert grid_m[-1] <= 10 * 2 * math.pi


@pytest.mark.parametrize(
    "ups, n0, tol",
    [(0.01, 200, 1e-9), (0.005, 300, 1e-8)],  # 228,822 and 893,222 samples
)
def test_blocked_autocorrelation_matches_direct_sum(ups, n0, tol):
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    st = build_state(m, solve_j(m, float(n0)))
    series = autocorrelation(st)
    # the direct sum's own phase rounding, |w e_n t| eps, sets the tolerance
    idx = np.linspace(0, len(series.times) - 1, 2001).round().astype(int)
    err = np.abs(series.values[idx] - _direct_sum(st, series.times[idx]))
    assert err.max() <= tol


@pytest.mark.parametrize("warp", ["power", "jitter"])
def test_non_uniform_grid_is_rejected(warp):
    st = build_state(QuasiHarmonic(upsilon=0.1), 24.9)
    t = np.linspace(0.0, 350.0, 3001)
    if warp == "power":
        t = t**1.5
    else:
        t[1::2] += 1e-9  # far above rounding, far below any plotting scale
    assert _uniform_step(t) is None
    with pytest.raises(DomainError, match="uniform time grid"):
        autocorrelation(st, t)


def test_uniform_grid_ending_at_the_revival_time():
    ups = 0.01
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    st = build_state(m, solve_j(m, 200.0))
    t_rev = 2 * math.pi / ups**2
    t = np.linspace(0.0, t_rev, 20_001)
    assert _uniform_step(t) is not None and t[-1] == t_rev
    assert abs(autocorrelation(st, t).abs2[-1] - 1.0) <= 1e-9


def test_uniform_step_admits_rounded_grids():
    dt = 2 * math.pi / 1.11 / 20
    for t in (np.arange(228_822) * dt, np.linspace(0.5, 30.0, 7), -np.linspace(0.5, 30.0, 7),
              np.linspace(0.0, 2 * math.pi, 10_001) + 3 * 2 * math.pi):
        assert _uniform_step(t) is not None
    warped = np.arange(1000) * dt
    warped[10:] = warped[10:] ** 1.02
    assert _uniform_step(warped) is None


def test_detect_revivals_rejects_a_non_uniform_grid():
    series = _qh_series(0.1, 20)
    t = series.times.copy()
    t[10:] = t[10:] ** 1.02  # finer than T_cl/10 at the start, so only uniformity fails
    with pytest.raises(DomainError, match="detect_revivals needs a uniform time grid"):
        detect_revivals(replace(series, times=t), threshold=0.2, q_max=4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_autocorrelation_rejects_a_non_finite_time(bad):
    st = build_state(QuasiHarmonic(upsilon=0.1), 5.9)
    with pytest.raises(DomainError, match=f"t_grid must hold finite times, got {bad} at index 1"):
        autocorrelation(st, [0.0, bad, 2.0])


def _qh_series(ups, n0):
    m = QuasiHarmonic(alpha=1.0, upsilon=ups)
    return autocorrelation(build_state(m, solve_j(m, float(n0))))


def _synthetic_series(a2, t_classical, t_revival):
    """A TimeSeries with |A|^2 = a2 on the grid t_i = i."""
    base = autocorrelation(build_state(QuasiHarmonic(upsilon=0.1), 5.9), np.arange(3.0))
    times = np.arange(len(a2), dtype=float)
    return replace(base, times=times, values=np.sqrt(a2).astype(complex),
                   t_classical=t_classical, t_revival=t_revival)


def _edge_and_merge_series():
    rng = np.random.default_rng(11)
    a2 = rng.uniform(0.0, 0.3, 400)
    # maxima within 2 samples of either end, pairs 1-3 samples apart of either
    # order of strength, a plateau (argmax ties) and a peak at t = 93, which
    # is 3 from both 3/8 and 2/5 of T_rev = 240 (a labelling tie)
    spikes = {1: 0.9, 2: 0.95, 4: 0.8, 93: 0.9, 150: 0.7, 151: 0.8, 200: 0.8, 202: 0.7,
              250: 0.6, 253: 0.9, 300: 0.9, 304: 0.85, 330: 0.75, 331: 0.75,
              396: 0.9, 397: 0.95, 398: 0.99}
    for j, v in spikes.items():
        a2[j] = v
    return a2


@pytest.mark.parametrize(
    "case",
    ["criterion-3", "u0.02-n0100", "morse", "synthetic-edges", "synthetic-ties"],
)
def test_detect_revivals_matches_reference_loop(case):
    if case == "criterion-3":
        runs = [(_qh_series(u, n0), 0.2, 4)
                for u, n0 in [(0.1, 5), (0.1, 10), (0.1, 15), (0.1, 20), (1.0, 20)]]
    elif case == "u0.02-n0100":
        runs = [(_qh_series(0.02, 100), 0.1, 8)]
    elif case == "morse":
        runs = [(autocorrelation(build_state(Morse(mu=1.0), 9.0)), 0.5, 4)]
    elif case == "synthetic-edges":
        series = _synthetic_series(_edge_and_merge_series(), 10.0, 240.0)
        runs = [(series, 0.5, 8), (series, 0.1, 8), (series, 0.5, 1)]
    else:
        # rounded noise: many smoothed maxima 2-3 samples apart and equal raw values
        a2 = np.round(np.random.default_rng(5).uniform(0.0, 1.0, 2000), 1)
        runs = [(_synthetic_series(a2, 10.0, 1500.0), 0.3, 8),
                (_synthetic_series(a2, 10.0, None), 0.3, 8)]
    for series, threshold, q_max in runs:
        got = detect_revivals(series, threshold, q_max)
        ref = _reference_revivals(series, threshold, q_max)
        assert got == ref
        assert ref  # every case has events to compare


def test_detect_revivals_short_and_negative_time_series():
    rng = np.random.default_rng(3)
    # fewer than 7 samples leave no peak candidate 3 or more from both ends
    for length in range(2, 9):
        series = _synthetic_series(rng.uniform(0.5, 1.0, length), 10.0, 240.0)
        assert detect_revivals(series, 0.1, 4) == _reference_revivals(series, 0.1, 4)
    # a grid ending before -T_rev has no p/q candidates at all
    series = _synthetic_series(_edge_and_merge_series(), 10.0, 240.0)
    series = replace(series, times=series.times - 1000.0)
    got = detect_revivals(series, 0.5, 8)
    assert got and all(ev.p is None for ev in got)
    assert got == _reference_revivals(series, 0.5, 8)
