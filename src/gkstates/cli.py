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
import warnings

import numpy as np

from . import __version__
from .coherent import build_state
from .dynamics import autocorrelation, default_time_grid, detect_revivals, timescales
from .errors import DomainError, GKStatesError
from .spectrum import MathewsLakshmanan, Morse, QuasiHarmonic
from .stats import distribution, moment_sweep, solve_j, verify_measure_moments
from .wavefunctions import GridSpec, coherent_density, default_grid, eigenfunction

# cli name -> (model class, its parameters in the order the summary lists them)
_MODELS = {
    "quasiharmonic": (QuasiHarmonic, ("alpha", "upsilon")),
    "morse": (Morse, ("alpha", "mu")),
    "mathews-lakshmanan": (MathewsLakshmanan, ("alpha", "lambda_tilde")),
}


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
    cls, params = _MODELS[args.model]
    return cls(**{name: getattr(args, name) for name in params})


def _resolve_j(args, model) -> float:
    if args.n0 is not None:
        return solve_j(model, args.n0)
    return args.J


def _series(args):
    """The autocorrelation of the state the flags describe, on its default
    time grid, with the unit of tau: T_rev when the spectrum has one, else T_cl."""
    model = _build_model(args)
    state = build_state(model, _resolve_j(args, model), args.gamma)
    grid = default_time_grid(model, state.mean_n(), samples_per_tcl=args.samples_per_tcl,
                             horizon_revivals=args.tmax_rev, horizon_classical=args.tmax_cl)
    series = autocorrelation(state, grid)
    return series, series.t_revival if series.t_revival is not None else series.t_classical


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
        if not (0 <= start < stop < math.inf and count.is_integer() and count >= 2):
            raise DomainError(f"bad --j-grid {args.j_grid}; need finite 0 <= START < STOP "
                              "and an integral COUNT >= 2")
        Js = np.linspace(start, stop, int(count))
        _emit_rows(args, ["J", "mean", "variance", "mandel_q"], [Js, *moment_sweep(model, Js)])
        return
    J = _resolve_j(args, model)
    dist = distribution(model, J)
    ts = timescales(model, dist.mean)
    payload = {
        "model": {"kind": args.model, **{k: getattr(model, k) for k in _MODELS[args.model][1]}},
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
    series, unit = _series(args)
    t, values = series.times, series.values
    columns = [t, t / unit, t / series.t_classical, values.real, values.imag, series.abs2]
    _emit_rows(args, ["t", "tau", "tau_cl", "re_A", "im_A", "abs2_A"], columns)


def _cmd_revivals(args) -> None:
    series, unit = _series(args)
    events = detect_revivals(series, args.threshold, args.q_max)
    rows = [(ev.time, ev.time / unit, ev.amplitude_sq, ev.p, ev.q) for ev in events]
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


def _flag(*names, **options):
    return names, options


# Flags as data. Every command takes the model flags first and the output
# flags last; a list among its own flags holds flags of which exactly one
# must be given.
_MODEL_FLAGS = [
    _flag("--model", choices=tuple(_MODELS), default="quasiharmonic"),
    _flag("--alpha", type=float, default=1.0, help="energy scale (default 1)"),
    _flag("--upsilon", type=float, default=0.1, help="quasi-harmonic nonlinearity"),
    _flag("--mu", type=float, default=1.0, help="Morse nonlinearity"),
    _flag("--lambda-tilde", dest="lambda_tilde", type=float, default=-0.02),
]
_OUTPUT_FLAGS = [
    _flag("--format", choices=("csv", "json"), default="csv"),
    _flag("--out", default="-", help="output path ('-' for stdout)"),
]
_J = _flag("--J", type=float, help="coherent-state action parameter")
_N0 = _flag("--n0", type=float, help="target mean excitation (J solved for)")
_GAMMA = _flag("--gamma", type=float, default=0.0, help="angle parameter")
_TIME_FLAGS = [
    _flag("--samples-per-tcl", type=int, default=20),
    _flag("--tmax-rev", type=float, default=1.1, help="horizon in units of T_rev"),
    _flag("--tmax-cl", type=float, default=10.0, help="horizon in T_cl when no T_rev"),
]
_GRID_FLAGS = [
    _flag("--grid-points", type=int, default=4001),
    _flag("--grid-margin", type=float, default=1e-6, help="relative boundary margin"),
]

# name -> (handler, help, its own flags), in the order --help lists them
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "dimensionless and physical spectrum table",
                 [_flag("--n-max", type=int, default=20)]),
    "dist": (_cmd_dist, "weighting distribution P_n", [[_J, _N0], _GAMMA]),
    "moments": (_cmd_moments, "mean, variance, Mandel Q and timescales", [
        [_J, _N0, _flag("--j-grid", dest="j_grid", type=float, nargs=3,
                        metavar=("START", "STOP", "COUNT"),
                        help="emit a (J, mean, variance, mandel_q) table over a uniform J grid")],
        _GAMMA,
    ]),
    "solve-j": (_cmd_solve_j, "invert the mean: J with <n>(J) = n0",
                [_flag("--n0", type=float, required=True)]),
    "autocorr": (_cmd_autocorr, "autocorrelation time series", [[_J, _N0], _GAMMA, *_TIME_FLAGS]),
    "revivals": (_cmd_revivals, "detected revival/fractional-revival events", [
        [_J, _N0], _GAMMA, *_TIME_FLAGS,
        _flag("--threshold", type=float, default=0.2), _flag("--q-max", type=int, default=4),
    ]),
    "eigenfunction": (_cmd_eigenfunction, "sampled position-space eigenfunction",
                      [_flag("--n", type=int, required=True), *_GRID_FLAGS]),
    "density": (_cmd_density, "position density of an evolving state",
                [[_J, _N0], _GAMMA, _flag("--time", type=float, default=0.0), *_GRID_FLAGS]),
    "verify-measure": (_cmd_verify_measure, "resolution-of-unity moment check", [
        _flag("--n-max-moment", type=int, default=5), _flag("--nodes", type=int, default=2000),
    ]),
}


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
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*_MODEL_FLAGS, *flags, *_OUTPUT_FLAGS):
            if isinstance(flag, list):
                group = p.add_mutually_exclusive_group(required=True)
                for names, options in flag:
                    group.add_argument(*names, **options)
            else:
                names, options = flag
                p.add_argument(*names, **options)
        p.set_defaults(func=handler)
    return parser


# Built once per process; parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # every call reports its warnings, not only the first
        try:
            args.func(args)
        except (GKStatesError, ValueError, OverflowError) as exc:
            error = str(exc)  # not exc: its traceback would keep the failed call's frames alive
    for warning in caught:  # one line each, free of the install path
        print(f"gkstates: warning: {warning.message}", file=sys.stderr)
    if error is None:
        return 0
    print(f"gkstates: error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
