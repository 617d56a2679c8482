"""CLI surface: schemas, determinism, exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gkstates import cli


def run_process(*args: str) -> subprocess.CompletedProcess:
    """`python -m gkstates *args` in a fresh interpreter."""
    cmd = [sys.executable, "-m", "gkstates", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`gkstates *args` through cli.main in this process, reported as run_process
    reports it; tests that are about the process itself use run_process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def read_csv(text: str):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def test_help():
    # a real `python -m gkstates`, so __main__ and the entry point run
    cp = run_process("--help")
    assert cp.returncode == 0, cp.stderr
    assert "Gazeau-Klauder" in cp.stdout


def test_unknown_flag_is_usage_error():
    cp = run_cli("moments", "--no-such-flag")
    assert cp.returncode == 2


def test_missing_state_flag_is_usage_error():
    cp = run_cli("dist", "--model", "morse")
    assert cp.returncode == 2


def test_domain_error_exit_code():
    cp = run_cli("dist", "--J", "-5")
    assert cp.returncode == 1
    assert "error" in cp.stderr


def test_spectrum_table():
    cp = run_cli("spectrum", "--model", "quasiharmonic", "--upsilon", "0.1", "--n-max", "4")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["n", "e_n", "energy"]
    assert len(rows) == 5
    assert float(rows[0][2]) == 0.5  # ground energy alpha/2


# sha256 of the spectrum CSVs as first written by the per-model level formulas;
# the levels are products and sums of floats with no exp or log, so the bytes
# are the same on every IEEE-754 platform.
SPECTRUM_DIGESTS = {
    "--upsilon 0.1 --n-max 200": "a0a78fb9d04e22d922b51d979482aac014dca62df3d9fab16377a37d8c5ea14b",
    "--upsilon 0.5 --n-max 200": "fc9c8105a2f6dccc55035f52025821209b0adf70c5689af60d2168268cb3e048",
    "--model morse --mu 0.7 --n-max 200": "6310fa7a2ccede4ce8af14a350664cbd91229cb81d4cdc513b3d5a3f167b68d5",
    "--model mathews-lakshmanan --lambda-tilde -0.08 --n-max 200": (
        "af01c6721f229407f7ff5606b05322f6a03cec9aac829eeac25f7139870f4e87"
    ),
    "--model mathews-lakshmanan --lambda-tilde 0.1 --n-max 9": (
        "61770a7bd612d8bec8252a913186fc9eae005deecb3e023eeeac2a023e568ac1"
    ),
}


@pytest.mark.parametrize("flags", SPECTRUM_DIGESTS)
def test_spectrum_bytes_are_pinned(flags, capsys):
    assert cli.main(["spectrum", *flags.split()]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SPECTRUM_DIGESTS[flags]


def test_moments_morse_json():
    cp = run_cli("moments", "--model", "morse", "--mu", "2", "--J", "4", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["model"]["kind"] == "morse"
    assert math.isclose(payload["mean"], 1.0, abs_tol=1e-12)
    assert math.isclose(payload["variance"], 1.0, abs_tol=1e-12)
    assert abs(payload["mandel_q"]) <= 1e-12
    assert "t_revival" not in payload  # linear spectrum: absent field omitted


def test_dist_sums_to_one():
    cp = run_cli("dist", "--model", "quasiharmonic", "--upsilon", "0.2", "--n0", "10")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["n", "P_n"]
    total = sum(float(r[1]) for r in rows)
    assert abs(total - 1.0) <= 1e-12


def test_dist_rows_start_at_zero_for_a_window_far_from_it():
    # the Poisson window at J = 3000 starts near n = 2500; the rows below it are zeros
    cp = run_cli("dist", "--upsilon", "0", "--J", "3000")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert abs(math.fsum(float(r[1]) for r in rows) - 1.0) <= 1e-12
    assert abs(math.fsum(int(r[0]) * float(r[1]) for r in rows) - 3000.0) <= 1e-9 * 3000.0


def test_autocorr_full_revival(tmp_path: Path):
    out = tmp_path / "auto.csv"
    cp = run_cli(
        "autocorr", "--model", "quasiharmonic", "--upsilon", "0.1",
        "--n0", "5", "--tmax-rev", "1.1", "--format", "csv", "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out.read_text())
    assert header == ["t", "tau", "tau_cl", "re_A", "im_A", "abs2_A"]
    best = min(rows, key=lambda r: abs(float(r[1]) - 1.0))
    assert abs(float(best[5]) - 1.0) <= 1e-9  # |A|^2 = 1 at tau = 1


def test_solve_j_inverts_the_mean():
    cp = run_cli("solve-j", "--model", "quasiharmonic", "--upsilon", "1", "--n0", "20")
    assert cp.returncode == 0, cp.stderr
    J = float(cp.stdout.strip())
    cp2 = run_cli(
        "moments", "--model", "quasiharmonic", "--upsilon", "1",
        "--J", str(J), "--format", "json",
    )
    mean = json.loads(cp2.stdout)["mean"]
    assert abs(mean - 20.0) <= 1e-6


def test_solve_j_morse_value():
    cp = run_cli("solve-j", "--model", "morse", "--mu", "3", "--n0", "2")
    assert abs(float(cp.stdout.strip()) - 18.0) <= 1e-6


def test_revivals_report():
    cp = run_cli(
        "revivals", "--model", "quasiharmonic", "--upsilon", "0.1",
        "--n0", "20", "--threshold", "0.2", "--q-max", "4",
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["time", "tau", "abs2", "p", "q"]
    labels = {(r[3], r[4]) for r in rows if r[3] != ""}
    assert {("1", "2"), ("1", "3"), ("1", "4")} <= labels


def test_eigenfunction_output():
    cp = run_cli("eigenfunction", "--upsilon", "0.2", "--n", "2", "--grid-points", "801")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["rho", "value"]
    assert len(rows) == 801


def test_density_normalised(tmp_path: Path):
    out = tmp_path / "dens.csv"
    cp = run_cli(
        "density", "--upsilon", "0.1", "--J", "5.9", "--time", "0.25",
        "--grid-points", "2001", "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out.read_text())
    assert header == ["rho", "value"]
    rho = [float(r[0]) for r in rows]
    val = [float(r[1]) for r in rows]
    h = rho[1] - rho[0]
    w = [1.0] * len(val)
    w[1:-1:2] = [4.0] * len(w[1:-1:2])
    w[2:-1:2] = [2.0] * len(w[2:-1:2])
    integral = sum(a * b for a, b in zip(w, val)) * h / 3.0
    assert abs(integral - 1.0) <= 1e-6


def test_verify_measure_json():
    cp = run_cli(
        "verify-measure", "--upsilon", "0.5", "--n-max-moment", "3", "--format", "json",
    )
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert [m["n"] for m in payload] == [0, 1, 2, 3]
    assert all(m["rel_err"] < 1e-6 and m["converged"] is True for m in payload)


@pytest.mark.parametrize("nodes", ["0", "-40", "19"])
def test_verify_measure_rejects_less_than_one_panel(nodes):
    cp = run_cli("verify-measure", "--upsilon", "0.5", "--nodes", nodes)
    assert cp.returncode == 1
    assert f"gkstates: error: total_nodes must be at least 20, one 20-node Gauss-Legendre panel; got {nodes}" in cp.stderr


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--samples-per-tcl", "0", "samples_per_tcl must be finite and positive, got 0"),
        ("--samples-per-tcl", "-3", "samples_per_tcl must be finite and positive, got -3"),
        ("--tmax-rev", "0", "horizon_revivals must be finite and positive, got 0.0"),
        ("--tmax-rev", "-1", "horizon_revivals must be finite and positive, got -1.0"),
        ("--tmax-cl", "0", "horizon_classical must be finite and positive, got 0.0"),
        ("--tmax-rev", "1e-6", "horizon_revivals=1e-06 ends before the first time step, T_cl/20"),
    ],
)
def test_time_grid_arguments_are_named_when_invalid(flag, value, named):
    cp = run_cli("autocorr", "--n0", "5", flag, value)
    assert cp.returncode == 1
    assert cp.stderr == f"gkstates: error: {named}\n"


_BAD_J_GRID = "; need finite 0 <= START < STOP and an integral COUNT >= 2"


@pytest.mark.parametrize(
    "argv,named",
    [
        ("spectrum --upsilon nan", "upsilon must be finite, got nan"),
        ("eigenfunction --n 2 --upsilon nan", "upsilon must be finite, got nan"),
        ("spectrum --upsilon inf", "upsilon must be finite, got inf"),
        ("spectrum --model morse --mu inf", "mu must be finite, got inf"),
        (
            "spectrum --model mathews-lakshmanan --lambda-tilde nan",
            "lambda_tilde must be finite, got nan",
        ),
        ("spectrum --alpha inf", "alpha must be finite, got inf"),
        ("density --J 5.9 --time nan", "time must be finite, got nan"),
        ("eigenfunction --n 2 --grid-margin nan", "margin_rel must be finite, got nan"),
        ("solve-j --n0 nan", "target mean n0 must be finite, got nan"),
        ("solve-j --n0 inf", "target mean n0 must be finite, got inf"),
        ("dist --J inf", "J must be finite, got inf"),
        ("moments --j-grid 0 30 2.7", "bad --j-grid [0.0, 30.0, 2.7]" + _BAD_J_GRID),
        ("moments --j-grid 0 30 1e400", "bad --j-grid [0.0, 30.0, inf]" + _BAD_J_GRID),
        ("moments --j-grid 0 nan 5", "bad --j-grid [0.0, nan, 5.0]" + _BAD_J_GRID),
        ("moments --j-grid 0 inf 5", "bad --j-grid [0.0, inf, 5.0]" + _BAD_J_GRID),
        (
            "spectrum --model mathews-lakshmanan --lambda-tilde 1e-310 --n-max 2",
            "the levels of MathewsLakshmanan(alpha=1.0, lambda_tilde=1e-310) increase up to "
            "n = c / (-2b) = 1 / 1e-310, which overflows a float",
        ),
    ],
)
def test_non_finite_and_fractional_inputs_are_named(argv, named, capsys):
    assert cli.main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gkstates: error: {named}\n"


def test_one_parser_serves_many_calls(monkeypatch, capsys):
    # main() parses with the parser built at import; flags of one call must
    # not leak into the next, and a usage error must not spoil the parser
    def no_second_parser():
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(cli, "build_parser", no_second_parser)
    calls = [
        ["moments", "--j-grid", "0", "40", "5"],
        ["moments", "--J", "5", "--format", "json"],
        ["moments", "--J", "5", "--n0", "3"],  # usage error: exit 2
        ["dist", "--n0", "5"],
        ["revivals", "--model", "morse", "--J", "9", "--threshold", "0.5"],
        ["solve-j", "--n0", "3"],
    ]
    for argv in calls:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = run_process(*argv)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


@pytest.mark.parametrize(
    "flags,warning",
    [
        ("--upsilon 3", "upsilon=3.0 is outside the tested range [0, 2]"),
        ("--model morse --mu 5", "mu=5.0 is outside the tested range (0, 4]"),
    ],
)
def test_model_warning_is_one_line_on_every_call(flags, warning, capsys):
    argv = ["spectrum", "--n-max", "1", *flags.split()]
    expected = f"gkstates: warning: {warning}\n"
    for _ in range(2):  # a repeated warning is printed again
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == expected
    fresh = run_cli(*argv)
    assert (fresh.returncode, fresh.stderr) == (0, expected)


def test_moments_sweep_table():
    cp = run_cli("moments", "--upsilon", "0.2", "--j-grid", "0", "40", "5")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["J", "mean", "variance", "mandel_q"]
    assert len(rows) == 5
    assert cp.stdout.splitlines()[1] == "0,0,0,0"  # the vacuum row is exact
    means = [float(r[1]) for r in rows]
    assert means == sorted(means)  # mean grows with J
    assert all(float(r[1]) >= float(r[2]) for r in rows)  # mean >= variance


def test_moments_sweep_excludes_point_flags():
    cp = run_cli("moments", "--upsilon", "0.2", "--j-grid", "0", "40", "5", "--J", "3")
    assert cp.returncode == 2


def test_byte_identical_reruns(tmp_path: Path):
    args = [
        "autocorr", "--model", "quasiharmonic", "--upsilon", "0.2",
        "--n0", "10", "--samples-per-tcl", "20",
    ]
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert run_process(*args, "--out", str(out1)).returncode == 0
    assert run_process(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    j1 = run_process("moments", "--upsilon", "0.2", "--n0", "10", "--format", "json").stdout
    j2 = run_process("moments", "--upsilon", "0.2", "--n0", "10", "--format", "json").stdout
    assert j1 == j2


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _reference_table(fmt: str, header: list[str], columns: list) -> str:
    """The row-by-row writer that the one-template writer replaced."""
    rows = list(zip(*columns))
    if fmt == "json":
        plain = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
        return json.dumps([dict(zip(header, row)) for row in plain], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_cell(v) for v in row])
    return buf.getvalue()


TABLE_COMMANDS = [
    ["spectrum", "--upsilon", "0.2", "--n-max", "12"],
    ["spectrum", "--model", "morse", "--mu", "0.7", "--n-max", "-1"],
    ["dist", "--upsilon", "0.2", "--n0", "10"],
    ["moments", "--upsilon", "0.2", "--j-grid", "0", "40", "5"],
    ["autocorr", "--upsilon", "0.5", "--J", "14.3"],
    ["revivals", "--upsilon", "0.1", "--n0", "20"],
    ["revivals", "--model", "morse", "--J", "9", "--threshold", "0.5"],
    ["revivals", "--upsilon", "0.1", "--J", "0.01"],
    ["revivals", "--n0", "20", "--tmax-rev", "0.3", "--threshold", "0.99"],  # no events
    ["eigenfunction", "--n", "3", "--grid-points", "101"],
    ["density", "--upsilon", "0.1", "--J", "5.9", "--grid-points", "201"],
    ["verify-measure", "--upsilon", "1", "--n-max-moment", "2", "--nodes", "500"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda a: "-".join(a[:3]))
def test_table_writer_matches_reference(argv, fmt, tmp_path, monkeypatch):
    tables = []
    writer = cli._emit_rows

    def spy(args, header, columns):
        tables.append((header, columns))
        writer(args, header, columns)

    monkeypatch.setattr(cli, "_emit_rows", spy)
    out = tmp_path / "out"
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
    (header, columns), = tables
    assert out.read_text() == _reference_table(fmt, header, columns)


_MIXED_HEADER = ["float", "int", "objects", "bools"]
_MIXED = [
    np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-17]),
    np.arange(-3, 5),
    [None, True, False, 7, 2.5, None, -0.0, 10**20],
    [True, False, True, True, False, False, True, False],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_mixed_cells(fmt, tmp_path):
    out = tmp_path / "out"
    cli._emit_rows(argparse.Namespace(format=fmt, out=str(out)), _MIXED_HEADER, _MIXED)
    assert out.read_text() == _reference_table(fmt, _MIXED_HEADER, _MIXED)
    # numpy scalars inside a list column are formatted cell by cell
    columns = [[np.True_, np.int64(3), None, np.float64(0.1)], [1, 2, 3, 4]]
    if fmt == "csv":
        cli._emit_rows(argparse.Namespace(format=fmt, out=str(out)), ["a", "b"], columns)
        assert out.read_text() == _reference_table(fmt, ["a", "b"], columns)


def test_moments_summary_csv_still_fails():
    # the flattened summary holds the model kind, a string that the CSV cell
    # formatter rejects; the benchmark counts this failure, so it stays
    cp = run_cli("moments", "--upsilon", "0.2", "--J", "5")
    assert cp.returncode == 1
    assert "could not convert string to float: 'quasiharmonic'" in cp.stderr
