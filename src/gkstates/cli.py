"""Command-line interface.

Every subcommand is fully deterministic: no environment variables, no
randomness, fixed field order, LF line endings, '.' decimal separator and
17 significant digits for CSV floats, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .coherent import build_state
from .dynamics import autocorrelation, default_time_grid, detect_revivals, timescales
from .errors import DomainError, GKStatesError
from .spectrum import MathewsLakshmanan, Morse, QuasiHarmonic
from .stats import distribution, solve_j, verify_measure_moments
from .wavefunctions import GridSpec, coherent_density, default_grid, eigenfunction

_MODEL_CHOICES = ("quasiharmonic", "morse", "mathews-lakshmanan")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_rows(args, header: list[str], columns: list) -> None:
    """Write a table given as equal-length columns (arrays or sequences);
    no columns at all writes the header alone."""
    arrays = [np.asarray(col) for col in columns]
    cells = [a.tolist() for a in arrays]
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in zip(*cells)]
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        return
    # one %-template per table; '%.17g' and '%d' print what _fmt prints for
    # floats and ints, and any other column (None, bools, text) goes
    # through _fmt cell by cell. No cell can hold a comma or a quote.
    specs = []
    for i, a in enumerate(arrays):
        if a.dtype.kind == "f":
            specs.append("%.17g")
        elif a.dtype.kind in "iu":
            specs.append("%d")
        else:
            specs.append("%s")
            cells[i] = [_fmt(v) for v in cells[i]]
    template = ",".join(specs) + "\n"
    body = "".join([template % row for row in zip(*cells)])
    _write_text(args.out, ",".join(header) + "\n" + body)


def _emit_summary(args, payload: dict) -> None:
    if args.format == "json":
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        return
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                flat[f"{key}_{k2}"] = v2
        else:
            flat[key] = value
    _emit_rows(args, list(flat.keys()), [[v] for v in flat.values()])


def _build_model(args):
    if args.model == "quasiharmonic":
        return QuasiHarmonic(alpha=args.alpha, upsilon=args.upsilon)
    if args.model == "morse":
        return Morse(mu=args.mu, alpha=args.alpha)
    return MathewsLakshmanan(alpha=args.alpha, lambda_tilde=args.lambda_tilde)


def _model_dict(model) -> dict:
    if isinstance(model, QuasiHarmonic):
        return {"kind": "quasiharmonic", "alpha": model.alpha, "upsilon": model.upsilon}
    if isinstance(model, Morse):
        return {"kind": "morse", "alpha": model.alpha, "mu": model.mu}
    return {
        "kind": "mathews-lakshmanan",
        "alpha": model.alpha,
        "lambda_tilde": model.lambda_tilde,
    }


def _resolve_j(args, model) -> float:
    if args.n0 is not None:
        return solve_j(model, args.n0)
    return args.J


def _tau_pair(t: np.ndarray, t_cl: float, t_rev: float | None):
    tau_cl = t / t_cl
    tau = t / t_rev if t_rev is not None else tau_cl
    return tau, tau_cl


# --------------------------------------------------------------------------


def _cmd_spectrum(args) -> None:
    model = _build_model(args)
    n = np.arange(args.n_max + 1)
    e = model.levels(n)
    _emit_rows(args, ["n", "e_n", "energy"], [n, e, model.ground_energy + model.omega * e])


def _cmd_dist(args) -> None:
    model = _build_model(args)
    dist = distribution(model, _resolve_j(args, model))
    _emit_rows(args, ["n", "P_n"], [np.arange(len(dist.probs)), dist.probs])


def _cmd_moments(args) -> None:
    model = _build_model(args)
    if args.j_grid is not None:
        start, stop, count = args.j_grid
        if count < 2 or stop <= start or start < 0:
            raise DomainError(f"bad --j-grid {args.j_grid}; need 0 <= start < stop, count >= 2")
        rows = []
        for J in np.linspace(start, stop, int(count)):
            d = distribution(model, float(J))
            rows.append((float(J), d.mean, d.variance, d.mandel_q))
        _emit_rows(args, ["J", "mean", "variance", "mandel_q"], list(zip(*rows)))
        return
    J = _resolve_j(args, model)
    dist = distribution(model, J)
    ts = timescales(model, dist.mean)
    payload = {
        "model": _model_dict(model),
        "J": J,
        "gamma": args.gamma,
        "mean": dist.mean,
        "variance": dist.variance,
        "mandel_q": dist.mandel_q,
        "t_classical": ts.t_classical,
    }
    if args.n0 is not None:
        payload["n0"] = args.n0
    if ts.t_revival is not None:
        payload["t_revival"] = ts.t_revival
    _emit_summary(args, payload)


def _cmd_solve_j(args) -> None:
    model = _build_model(args)
    J = solve_j(model, args.n0)
    if args.format == "json":
        _write_text(args.out, json.dumps({"J": J}, indent=2) + "\n")
    else:
        _write_text(args.out, _fmt(J) + "\n")


def _cmd_autocorr(args) -> None:
    model = _build_model(args)
    state = build_state(model, _resolve_j(args, model), args.gamma)
    grid = default_time_grid(
        model,
        state.mean_n(),
        samples_per_tcl=args.samples_per_tcl,
        horizon_revivals=args.tmax_rev,
        horizon_classical=args.tmax_cl,
    )
    series = autocorrelation(state, grid)
    tau, tau_cl = _tau_pair(series.times, series.t_classical, series.t_revival)
    columns = [series.times, tau, tau_cl, series.values.real, series.values.imag, series.abs2]
    _emit_rows(args, ["t", "tau", "tau_cl", "re_A", "im_A", "abs2_A"], columns)


def _cmd_revivals(args) -> None:
    model = _build_model(args)
    state = build_state(model, _resolve_j(args, model), args.gamma)
    grid = default_time_grid(
        model,
        state.mean_n(),
        samples_per_tcl=args.samples_per_tcl,
        horizon_revivals=args.tmax_rev,
        horizon_classical=args.tmax_cl,
    )
    series = autocorrelation(state, grid)
    events = detect_revivals(series, args.threshold, args.q_max)
    denom = series.t_revival if series.t_revival is not None else series.t_classical
    rows = [(ev.time, ev.time / denom, ev.amplitude_sq, ev.p, ev.q) for ev in events]
    _emit_rows(args, ["time", "tau", "abs2", "p", "q"], list(zip(*rows)))


def _grid_from_args(args, model) -> GridSpec:
    return default_grid(model, n_points=args.grid_points, margin_rel=args.grid_margin)


def _cmd_eigenfunction(args) -> None:
    model = _build_model(args)
    grid = _grid_from_args(args, model)
    values = eigenfunction(args.n, model, grid)
    _emit_rows(args, ["rho", "value"], [grid.points, values])


def _cmd_density(args) -> None:
    model = _build_model(args)
    state = build_state(model, _resolve_j(args, model), args.gamma)
    grid = _grid_from_args(args, model)
    values = coherent_density(state, grid, time=args.time)
    _emit_rows(args, ["rho", "value"], [grid.points, values])


def _cmd_verify_measure(args) -> None:
    model = _build_model(args)
    moments = verify_measure_moments(model, n_max=args.n_max_moment, total_nodes=args.nodes)
    rows = [(r.n, r.lhs, r.rhs, r.rel_err, r.converged) for r in moments]
    _emit_rows(args, ["n", "lhs", "rhs", "rel_err", "converged"], list(zip(*rows)))


# --------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=_MODEL_CHOICES, default="quasiharmonic")
    p.add_argument("--alpha", type=float, default=1.0, help="energy scale (default 1)")
    p.add_argument("--upsilon", type=float, default=0.1, help="quasi-harmonic nonlinearity")
    p.add_argument("--mu", type=float, default=1.0, help="Morse nonlinearity")
    p.add_argument("--lambda-tilde", dest="lambda_tilde", type=float, default=-0.02)


def _add_state_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--J", type=float, help="coherent-state action parameter")
    group.add_argument("--n0", type=float, help="target mean excitation (J solved for)")
    if sweep:
        group.add_argument(
            "--j-grid",
            dest="j_grid",
            type=float,
            nargs=3,
            metavar=("START", "STOP", "COUNT"),
            help="emit a (J, mean, variance, mandel_q) table over a uniform J grid",
        )
    else:
        p.set_defaults(j_grid=None)
    p.add_argument("--gamma", type=float, default=0.0, help="angle parameter")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")


def _add_time_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples-per-tcl", type=int, default=20)
    p.add_argument("--tmax-rev", type=float, default=1.1, help="horizon in units of T_rev")
    p.add_argument("--tmax-cl", type=float, default=10.0, help="horizon in T_cl when no T_rev")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-points", type=int, default=4001)
    p.add_argument("--grid-margin", type=float, default=1e-6, help="relative boundary margin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkstates",
        description=(
            "Gazeau-Klauder coherent states of position-dependent-mass "
            "oscillators: spectra, statistics, revival dynamics, eigenfunctions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="dimensionless and physical spectrum table")
    _add_model_flags(p)
    p.add_argument("--n-max", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dist", help="weighting distribution P_n")
    _add_model_flags(p)
    _add_state_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("moments", help="mean, variance, Mandel Q and timescales")
    _add_model_flags(p)
    _add_state_flags(p, sweep=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("solve-j", help="invert the mean: J with <n>(J) = n0")
    _add_model_flags(p)
    p.add_argument("--n0", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_solve_j)

    p = sub.add_parser("autocorr", help="autocorrelation time series")
    _add_model_flags(p)
    _add_state_flags(p)
    _add_time_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_autocorr)

    p = sub.add_parser("revivals", help="detected revival/fractional-revival events")
    _add_model_flags(p)
    _add_state_flags(p)
    _add_time_flags(p)
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--q-max", type=int, default=4)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_revivals)

    p = sub.add_parser("eigenfunction", help="sampled position-space eigenfunction")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_eigenfunction)

    p = sub.add_parser("density", help="position density of an evolving state")
    _add_model_flags(p)
    _add_state_flags(p)
    p.add_argument("--time", type=float, default=0.0)
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("verify-measure", help="resolution-of-unity moment check")
    _add_model_flags(p)
    p.add_argument("--n-max-moment", type=int, default=5)
    p.add_argument("--nodes", type=int, default=2000)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_measure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (GKStatesError, ValueError, OverflowError) as exc:
        print(f"gkstates: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
