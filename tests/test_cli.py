"""CLI surface: schemas, determinism, exit codes."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "gkstates", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def read_csv(text: str):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def test_help():
    cp = run_cli("--help")
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
    assert all(c["rel_err"] <= 1e-8 for c in payload["reduction_check"])
    assert all(m["rel_err"] < 1e-6 for m in payload["moments"])


def test_moments_sweep_table():
    cp = run_cli("moments", "--upsilon", "0.2", "--j-grid", "0", "40", "5")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["J", "mean", "variance", "mandel_q"]
    assert len(rows) == 5
    means = [float(r[1]) for r in rows]
    assert means == sorted(means)  # mean grows with J
    assert all(float(r[1]) >= float(r[2]) for r in rows)  # mean >= variance


def test_moments_sweep_excludes_point_flags():
    cp = run_cli("moments", "--upsilon", "0.2", "--j-grid", "0", "40", "5", "--J", "3")
    assert cp.returncode == 2


def test_si_chain_matches_model():
    cp = run_cli("si-chain", "--model", "morse", "--mu", "2", "--n-max", "6")
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(cp.stdout)
    assert header == ["n", "si_energy", "model_energy", "abs_diff"]
    assert all(float(r[3]) <= 1e-12 for r in rows)


def test_byte_identical_reruns(tmp_path: Path):
    args = [
        "autocorr", "--model", "quasiharmonic", "--upsilon", "0.2",
        "--n0", "10", "--samples-per-tcl", "20",
    ]
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    j1 = run_cli("moments", "--upsilon", "0.2", "--n0", "10", "--format", "json").stdout
    j2 = run_cli("moments", "--upsilon", "0.2", "--n0", "10", "--format", "json").stdout
    assert j1 == j2
