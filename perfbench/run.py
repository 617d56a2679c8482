#!/usr/bin/env python3
"""gkstates benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run is a closed loop with one client: each task starts only
after the previous one has returned. The seed gives one pass of tasks; the
run repeats it in rounds (at least MIN_ROUNDS) while the timed task time
stays within ``--seconds``, checks every output outside the timed span, and
prints one JSON object as the last line of standard output.

Each task's time is the median over the rounds of its timings, each scaled
to the speed of a reference host: the worker times a fixed kernel around and
during every task (``worker.SpeedProbe``), and a timing is multiplied by
REFERENCE_S over that kernel's mean time. The wall-clock figures are kept in
the details line next to the scaled ones.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the pass
untraced and then traced (``tracing.Tracer``), each for half of
``--seconds``, and reports per-layer metrics per pass plus the tracing
overhead; the spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

from worker import (SRC, ProgramMissing, Worker, WorkerError,  # noqa: E402
                    reference_kernel, require_source)

SETUP_RUNS = 7
# Time of the reference kernel (worker.reference_kernel) on the host the
# benchmark was calibrated on, a 2-vCPU Intel Xeon VM. Every task time is
# scaled to that speed by the kernel's mean time around and during the task
# (worker.SpeedProbe).
REFERENCE_S = 2.4e-3
# Rounds of the pass each run makes at least, so that every task has a
# median of three timings or more.
MIN_ROUNDS = 3
# Largest |sum of self times - root span| tolerated per task, in seconds.
SELF_SUM_TOL = 1e-6

# Per-layer metric name -> (key in Tracer.layer_metrics or harness, unit).
PER_LAYER = {
    "cli.self_ms": ("cli.self_ms", "ms/pass"),
    "cli.bytes_out": ("bytes_out", "B/pass"),
    "spectrum.e_n.calls": ("e_n_calls", "count/pass"),
    "coherent.build_state.calls": ("coherent.build_state.calls", "count/pass"),
    "coherent.build_state.self_ms": ("coherent.build_state.self_ms", "ms/pass"),
    "coherent.components": ("coherent.build_state.size", "count/pass"),
    "stats.distribution.calls": ("stats.distribution.calls", "count/pass"),
    "stats.distribution.self_ms": ("stats.distribution.self_ms", "ms/pass"),
    "stats.solve_j.calls": ("stats.solve_j.calls", "count/pass"),
    "stats.solve_j.self_ms": ("stats.solve_j.self_ms", "ms/pass"),
    "stats.solve_j.distribution_calls": ("stats.solve_j.distribution_calls", "count/pass"),
    "dynamics.autocorrelation.calls": ("dynamics.autocorrelation.calls", "count/pass"),
    "dynamics.autocorrelation.self_ms": ("dynamics.autocorrelation.self_ms", "ms/pass"),
    "dynamics.autocorr.sample_components": ("dynamics.autocorrelation.size", "count/pass"),
    "dynamics.detect_revivals.self_ms": ("dynamics.detect_revivals.self_ms", "ms/pass"),
    "dynamics.revivals.peaks": ("dynamics.detect_revivals.size", "count/pass"),
    "wavefunctions.coherent_density.self_ms": ("wavefunctions.coherent_density.self_ms", "ms/pass"),
    "wavefunctions.eigenfunction.self_ms": ("wavefunctions.eigenfunction.self_ms", "ms/pass"),
    "wavefunctions.hamiltonian_residual.self_ms":
        ("wavefunctions.hamiltonian_residual.self_ms", "ms/pass"),
    "wavefunctions.density.components": ("wavefunctions.coherent_density.size", "count/pass"),
    "wavefunctions.residual.grid_points": ("wavefunctions.hamiltonian_residual.size", "count/pass"),
    "stats.verify_measure_moments.self_ms": ("stats.verify_measure_moments.self_ms", "ms/pass"),
    "specfun.log_bessel_k.calls": ("specfun.log_bessel_k.calls", "count/pass"),
    "specfun.log_bessel_k.self_ms": ("specfun.log_bessel_k.self_ms", "ms/pass"),
    **{f"{layer}.errors": (f"{layer}.errors", "count/pass")
       for layer in ("spectrum", "specfun", "coherent", "stats", "dynamics", "wavefunctions", "cli")},
}


# ---------------------------------------------------------------------------
# Environment


def _openblas(name: str):
    """``openblas_<name>`` from the OpenBLAS library numpy has loaded, or None."""
    import numpy  # noqa: F401  (loads the library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def _openblas_threads() -> int | None:
    """Thread count of this process's OpenBLAS (the worker inherits the same settings)."""
    fn = _openblas("get_num_threads")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def _quiet_own_blas() -> None:
    """One BLAS thread for the checks in this process, so that its idle
    threads do not compete with the worker's on a small machine. The worker
    keeps the thread settings it inherits."""
    fn = _openblas("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Running tasks


def check(task, output, failure) -> str | None:
    """None when the task passed, else the reason it failed."""
    from oracles import CHECKS, CheckFailed

    if failure is not None:
        return failure
    try:
        CHECKS[task.kind](task.params, output)
    except CheckFailed as exc:
        return f"check: {exc}"
    except Exception:  # a check that crashes on the output is a failed output
        return "check crashed: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return None


def run_task(worker, task, seen: dict) -> dict:
    """Run ``task`` and check its output.

    ``seen`` maps a task's slot in the pass to its first output and verdict;
    a later round whose output is the same reuses the verdict instead of
    checking it again, and any other output is checked afresh.
    """
    task_id, seconds, output, failure, e_n_calls, ref = worker.call("run", task)
    slot = seen.get(id(task))
    if failure is None and slot is not None and slot[0] == output:
        reason = slot[1]
    else:
        reason = check(task, output, failure)
        if slot is None:
            seen[id(task)] = (output, reason)
    return {"task": task, "task_id": task_id, "seconds": seconds, "e_n_calls": e_n_calls,
            "reference": ref, "scaled": seconds * REFERENCE_S / ref, "reason": reason,
            "bytes_out": len(output) if isinstance(output, str) else 0}


def run_rounds(worker, tasks: list, seconds: float, between=None) -> tuple[list[list[dict]], float]:
    """Rounds of the same ``tasks`` until another round would take the timed
    total past ``seconds``; at least MIN_ROUNDS.

    ``between(timed)`` is called before each round, outside the timed span.
    """
    rounds: list[list[dict]] = []
    seen: dict = {}
    timed = 0.0
    last = 0.0
    while len(rounds) < MIN_ROUNDS or timed + last <= seconds:
        if between is not None:
            between(timed)
        results = [run_task(worker, task, seen) for task in tasks]
        last = sum(r["seconds"] for r in results)
        timed += last
        rounds.append(results)
    return rounds, timed


def task_medians(rounds: list[list[dict]], key: str = "scaled") -> list[float]:
    """Each task's median time over the rounds, in pass order.

    ``key`` is ``"scaled"`` for times at the reference speed (REFERENCE_S)
    or ``"seconds"`` for wall seconds. The median of a task's timings leaves
    out the rounds that a slow or a fast spell of the host caught.
    """
    return [statistics.median(times)
            for times in zip(*([r[key] for r in rd] for rd in rounds))]


def ok_rate(rounds: list[list[dict]], key: str = "scaled") -> float:
    """Tasks that passed their check per second, over a pass timed at its
    tasks' median times."""
    ok_per_round = sum(r["reason"] is None for rd in rounds for r in rd) / len(rounds)
    return ok_per_round / sum(task_medians(rounds, key))


class SetupTimer:
    """Seconds from a fresh interpreter through import and one task.

    Each sample is scaled to the reference speed as task times are, by the
    reference kernel timed in this process just before and just after it.
    The machine's speed drifts over tens of seconds, so the SETUP_RUNS
    samples are spread over the run (``maybe`` between rounds) rather than
    taken back to back; ``setup_s`` is their median.
    """

    def __init__(self, task, seconds: float):
        self.task = task
        self.seconds = seconds
        self.kernel = reference_kernel()
        self.times: list[float] = []
        self.wall_times: list[float] = []
        self.failures: list[str] = []
        self.code = "\n".join([
            "import contextlib, io, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "import gkstates.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    rc = gkstates.cli.main({list(task.argv)!r})",
            "sys.exit(rc)",
        ])

    def once(self) -> None:
        before = self.kernel()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        wall = perf_counter() - start
        self.wall_times.append(wall)
        self.times.append(wall * REFERENCE_S * 2.0 / (before + self.kernel()))
        if proc.returncode != 0:
            self.failures.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def maybe(self, timed: float) -> None:
        """One sample each time the timed total crosses another 1/SETUP_RUNS of the run."""
        while len(self.times) < SETUP_RUNS and timed >= len(self.times) * self.seconds / SETUP_RUNS:
            self.once()

    def finish(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.once()
        return statistics.median(self.times)


def summarise(rounds: list[list[dict]]) -> dict:
    """Counts, failures and latency quantiles of rounds of task results.

    ``task_p50_ms`` is the median over the tasks of a pass of each task's
    median time at the reference speed; ``task_p90_ms`` is taken over every
    wall timing of every round, and only where at least ten samples lie
    beyond it. The ``wall_`` entries are the metrics in wall seconds.
    """
    results = [r for rd in rounds for r in rd]
    attempted = len(results)
    failed = [r for r in results if r["reason"] is not None]
    unexpected = [r for r in failed if r["task"].known_defect is None]
    ms = sorted(r["seconds"] * 1e3 for r in results)
    out = {
        "attempted": attempted,
        "failed": len(failed),
        "unexpected_failures": len(unexpected),
        "failed_frac": len(failed) / attempted,
        "task_p50_ms": statistics.median(task_medians(rounds)) * 1e3,
        "wall_ok_tasks_per_s": ok_rate(rounds, "seconds"),
        "wall_task_p50_ms": statistics.median(task_medians(rounds, "seconds")) * 1e3,
        "reference_ms": statistics.median(r["reference"] for r in results) * 1e3,
        "tasks_ms": [[task["task"].label, round(scaled * 1e3, 3), round(wall * 1e3, 3)]
                     for task, scaled, wall in zip(rounds[0], task_medians(rounds),
                                                   task_medians(rounds, "seconds"))],
        "latency_samples": attempted,
        "task_p90_ms": statistics.quantiles(ms, n=10)[8] if attempted >= 100 else None,
    }
    by_reason = defaultdict(int)
    for r in failed:
        key = (r["task"].known_defect or "UNEXPECTED", r["task"].label
               if r["task"].known_defect is None else r["task"].kind, r["reason"][:200])
        by_reason[key] += 1
    out["failures"] = [{"known_defect": k[0], "task": k[1], "reason": k[2], "count": n}
                       for k, n in sorted(by_reason.items())]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns (metrics, details)."""
    from workloads import WARMUP, load_known_defects, workload_pass

    require_source()
    OUT_DIR.mkdir(exist_ok=True)
    environment_ = environment()
    _quiet_own_blas()
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "environment": environment_,
               "closed_loop": "one client; each task starts after the previous one returns"}
    with Worker() as worker:
        # A failed warm-up task is reported and makes the run incorrect; it
        # does not stop the run.
        details["warmup_failures"] = [f"{task.label}: {r['reason']}" for task in WARMUP[workload]
                                      if (r := run_task(worker, task, {}))["reason"] is not None]
        tasks = workload_pass(workload, seed)
        if trace:
            metrics = _traced(worker, tasks, seconds, details)
        else:
            setup = SetupTimer(WARMUP[workload][0], seconds)
            rounds, timed = run_rounds(worker, tasks, seconds, setup.maybe)
            peak_rss_mb = worker.call("peak_rss_mb")
            setup_s = setup.finish()
            summary = summarise(rounds)
            metrics = {
                "ok_tasks_per_s": (ok_rate(rounds), "1/s"),
                "task_p50_ms": (summary["task_p50_ms"], "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
            details.update(summary, rounds=len(rounds), timed_s=timed,
                           setup_runs_s=setup.times, setup_wall_s=setup.wall_times,
                           setup_failures=setup.failures,
                           round_seconds=[sum(r["seconds"] for r in rd) for rd in rounds])
    details["known_defects"] = {d["id"]: d["symptom"] for d in load_known_defects()
                                if d["workload"] == workload}
    return metrics, details


def _traced(worker, tasks: list, seconds: float, details: dict) -> dict:
    """Rounds of ``tasks`` untraced, then traced; per-layer metrics per traced round."""
    plain, _ = run_rounds(worker, tasks, seconds / 2.0)
    worker.call("trace", True)
    try:
        traced, _ = run_rounds(worker, tasks, seconds / 2.0)
    finally:
        leftover = worker.call("trace", False)
    per_pass = []
    for p in traced:
        layer = worker.call("layer_metrics", [r["task_id"] for r in p])
        layer["bytes_out"] = sum(r["bytes_out"] for r in p)
        layer["e_n_calls"] = sum(r["e_n_calls"] for r in p)
        per_pass.append(layer)
    metrics = {name: (statistics.median(pp.get(key, 0.0) for pp in per_pass), unit)
               for name, (key, unit) in PER_LAYER.items()}
    untraced_rate, traced_rate = ok_rate(plain), ok_rate(traced)
    metrics["trace.untraced_ok_tasks_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ok_tasks_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%")

    max_gap = worker.call("self_sum_gap")
    all_traced = worker.call("layer_metrics", [r["task_id"] for p in traced for r in p])
    details.update(summarise(plain + traced),
                   rounds_untraced=len(plain), rounds_traced=len(traced),
                   max_self_sum_gap_s=max_gap, wrappers_left=leftover,
                   all_functions_per_pass={k: v / len(traced) for k, v in sorted(all_traced.items())})
    if max_gap > SELF_SUM_TOL:
        details["trace_error"] = f"self times miss the root span by {max_gap:.3g} s"
    if leftover:
        details["trace_error"] = f"tracing wrappers left installed: {leftover}"
    meta = {k: details[k] for k in ("workload", "seed", "environment")}
    details["spans"] = worker.call(
        "write_spans", str(OUT_DIR / f"spans-{details['workload']}-seed{details['seed']}.jsonl"), meta)
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        metrics, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ProgramMissing, WorkerError) as exc:  # no result: the run could not be made
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = (details["unexpected_failures"] == 0 and "trace_error" not in details
               and not details["warmup_failures"] and not details.get("setup_failures"))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>14}  {name:<44} {value:>14.6g} {unit}")
    for f in details["failures"]:
        print(f"{args.workload:>14}  failed x{f['count']:<4} [{f['known_defect']}] {f['task']}: {f['reason']}")
    print("details " + json.dumps(details, default=str))
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "details": details}, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
