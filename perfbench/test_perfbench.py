"""Tests of the benchmark itself: inputs, checks and tracing."""

import json
import signal
from pathlib import Path
from time import perf_counter

import pytest

import oracles
import run
import workloads
from tracing import Tracer, wrapped_attributes
from worker import SpeedProbe, Worker, execute, load_program

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    def argv(seed):
        return [t.label for t in workloads.workload_pass(workload, seed)]

    assert argv(0) == argv(0)
    assert argv(7) == argv(7)
    assert argv(7) != argv(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_defects_run_on_every_seed(workload):
    pinned = [d for d in workloads.load_known_defects()
              if d["workload"] == workload and "argv" in d]
    for seed in (0, 1, 2):
        tasks = workloads.workload_pass(workload, seed)
        argvs = [list(t.argv) for t in tasks if t.argv is not None]
        for defect in pinned:
            assert defect["argv"] in argvs
        tagged = {t.known_defect for t in tasks} - {None}
        assert tagged == {d["id"] for d in workloads.load_known_defects()
                          if d["workload"] == workload}


def _scale_peak_row(text, col, factor):
    lines = text.split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    peak = max(range(len(rows)), key=lambda i: float(rows[i][col]))
    rows[peak][col] = repr(float(rows[peak][col]) * factor)
    return "\n".join([lines[0]] + [",".join(r) for r in rows] + [""])


@pytest.mark.parametrize("task, perturb", [
    (workloads.cli_task("dist", upsilon=0.2, n0=10), lambda out: _scale_peak_row(out, 1, 1.01)),
    (workloads.cli_task("solve-j", upsilon=0.1, n0=20), lambda out: repr(float(out) * 1.01) + "\n"),
    (workloads.cli_task("autocorr", upsilon=0.5, J=14.3), lambda out: _scale_peak_row(out, 3, 1.01)),
])
def test_perturbed_output_is_flagged(task, perturb):
    gk = load_program()
    seconds, output, failure, _ = execute(gk, task)
    assert failure is None
    assert run.check(task, output, None) is None
    reason = run.check(task, perturb(output), None)
    assert reason is not None and reason.startswith("check:")


def test_failed_call_is_reported_not_raised():
    gk = load_program()
    task = workloads.cli_task("dist", upsilon=0, J=1e5)
    _, _, failure, _ = execute(gk, task)
    assert failure.startswith("exit 1:")
    assert run.check(task, "", failure) == failure


def test_tracing_wrappers_are_removed_and_self_times_add_up():
    gk = load_program()
    original = gk.cli.solve_j
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            # every binding of a function gets the same wrapper
            assert gk.cli.solve_j is gk.stats.solve_j is gk.solve_j is not original
            for task_id, task in enumerate([workloads.cli_task("dist", upsilon=0.2, n0=5),
                                            workloads.cli_task("moments", upsilon=0.2, n0=5)]):
                tracer.task = task_id
                execute(gk, task, tracer)
            raise RuntimeError("leave the block by an exception")
    assert wrapped_attributes() == []
    assert gk.cli.solve_j is gk.stats.solve_j is gk.solve_j is original
    assert tracer.e_n_calls > 0
    metrics = tracer.layer_metrics([0, 1])
    assert metrics["stats.solve_j.calls"] == 2
    assert metrics["stats.solve_j.distribution_calls"] > 20
    assert metrics["cli.errors"] == 1  # the moments CSV summary defect
    for gap in tracer.task_gaps().values():
        assert gap < run.SELF_SUM_TOL


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = set(run.PER_LAYER) | {"trace.untraced_ok_tasks_per_s",
                                   "trace.traced_ok_tasks_per_s", "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == traced
    assert set(oracles.CHECKS) >= {t.kind for w in workloads.WORKLOADS
                                   for t in workloads.workload_pass(w, 0)}


def test_worker_runs_tasks_and_exits():
    with Worker() as worker:
        task_id, seconds, output, failure, _, kernel_s = worker.call(
            "run", workloads.cli_task("solve-j", upsilon=0.1, n0=20))
        assert failure is None and seconds > 0 and kernel_s > 0
        assert run.check(workloads.cli_task("solve-j", upsilon=0.1, n0=20), output, None) is None
        assert worker.call("peak_rss_mb") > 0
    assert worker._proc.returncode == 0


def test_speed_probe_samples_during_a_task_and_leaves_itself_out():
    previous = signal.getsignal(signal.SIGALRM)
    try:
        probe = SpeedProbe()
        with probe:
            start, wall = probe.clock(), perf_counter()
            while perf_counter() - wall < 0.35:
                pass
            timed, wall = probe.clock() - start, perf_counter() - wall
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    during = probe.samples[1:-1]
    assert len(during) >= 2  # besides the timings before and after the task
    assert wall - timed >= 0.9 * sum(during)
    assert probe.kernel_s > 0
