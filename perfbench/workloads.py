"""Seeded task lists for the benchmark workloads.

A seed gives one pass of a workload, a list of tasks that a run repeats.
Seed 0 uses the parameter sets written out below. Any other seed draws the
seeded parameters from ``numpy.random.default_rng``, so the same seed always
yields the same argv lists. Tasks that reproduce a known defect
(``known_defects.json``) are pinned: they run with the same arguments on every
seed, so the defect shows on every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

WORKLOADS = ("figures", "long-revival", "wide-state", "position-space")

# The paper's calibration table: upsilon -> [(n0, J)], J pinning the mode at n0.
CALIBRATION = {
    0.1: [(5, 5.9), (10, 11.7), (15, 18.0), (20, 24.9)],
    0.2: [(5, 6.9), (10, 15.3), (15, 25.7), (20, 38.1)],
    0.5: [(5, 14.3), (10, 40.6), (15, 79.3), (20, 130.3)],
    1.0: [(5, 41.0), (10, 131.0), (15, 271.0), (20, 459.0)],
}

# Flags whose values describe the model or the state; every other flag is
# passed through as an option of the subcommand.
_MODEL_DEFAULTS = {"model": "quasiharmonic", "alpha": 1.0, "upsilon": 0.1, "mu": 1.0,
                   "lambda_tilde": -0.02}


def fmt_arg(value) -> str:
    """CLI spelling of a number: integral values without a decimal point."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class Task:
    """One closed-loop request: a ``cli.main(argv)`` call or a library call.

    ``params`` holds every model, state and option value the task was built
    from, with the CLI defaults filled in, so that the checks never re-parse
    ``argv``. ``call`` names a public library function for library tasks.
    """

    kind: str
    params: dict = field(hash=False, compare=False)
    argv: tuple[str, ...] | None = None
    call: str | None = None
    known_defect: str | None = None

    @property
    def label(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        args = ", ".join(f"{k}={fmt_arg(v)}" for k, v in sorted(self.params.items()))
        return f"{self.call}({args})"


def cli_task(command: str, **flags) -> Task:
    """A CLI task; keyword names are flag names with '-' spelt '_'."""
    argv = [command]
    for name, value in flags.items():
        argv.append("--" + name.replace("_", "-"))
        if isinstance(value, (list, tuple)):
            argv.extend(fmt_arg(v) for v in value)
        else:
            argv.append(fmt_arg(value))
    params = dict(_MODEL_DEFAULTS)
    # Round-trip through the CLI spelling so params equal what main() parses.
    for name, value in flags.items():
        if isinstance(value, (list, tuple)):
            params[name] = tuple(float(fmt_arg(v)) for v in value)
        elif isinstance(value, str) and name == "model":
            params[name] = value
        else:
            params[name] = float(fmt_arg(value))
    return Task(kind=command, params=params, argv=tuple(argv))


def library_task(call: str, **params) -> Task:
    return Task(kind=call, params=dict(params), call=call)


def load_known_defects() -> list[dict]:
    return json.loads((HERE / "known_defects.json").read_text())["defects"]


def _matches(defect: dict, task: Task) -> bool:
    if task.argv is None:
        return False
    if "argv" in defect:
        return list(task.argv) == defect["argv"]
    return task.argv[0] == defect["command"] and defect["unless_flag"] not in task.argv


def _tag(tasks: list[Task], workload: str, defects: list[dict]) -> list[Task]:
    out = []
    for task in tasks:
        hit = next((d["id"] for d in defects
                    if d["workload"] == workload and _matches(d, task)), None)
        out.append(Task(task.kind, task.params, task.argv, task.call, hit))
    return out


def _round(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


def _qh_level(u: float, n: int) -> float:
    return n * (1.0 + u * u * (n + 1.0))


# ---------------------------------------------------------------------------
# Workloads. ``rng`` is None for seed 0 (the fixed parameter sets).


def _figures(rng) -> list[Task]:
    """README plot recipes at the calibration points, one block per upsilon."""
    if rng is None:
        points = CALIBRATION
    else:
        # Each calibration point moved a little: upsilon by up to 5% on a log
        # scale, n0 by up to one level, J re-centred between e_n0 and e_n0+1
        # as the table's J are. Free draws over [0.1, 1] x [5, 20] changed the
        # cost of a pass by more than the run-to-run noise this benchmark
        # must stay under.
        points = {}
        for u0, pairs0 in CALIBRATION.items():
            u = _round(min(1.0, max(0.1, u0 * math.exp(rng.uniform(-0.05, 0.05)))), 3)
            pairs = []
            for n00, _ in pairs0:
                n0 = min(20, max(5, n00 + int(rng.integers(-1, 2))))
                pairs.append((n0, round(0.5 * (_qh_level(u, n0) + _qh_level(u, n0 + 1)), 1)))
            points[u] = pairs
    tasks = []
    for u, pairs in points.items():
        for n0, J in pairs:
            tasks.append(cli_task("dist", upsilon=u, n0=n0))
            tasks.append(cli_task("moments", upsilon=u, n0=n0))
            tasks.append(cli_task("autocorr", upsilon=u, J=J))
            tasks.append(cli_task("revivals", upsilon=u, J=J, threshold=0.2, q_max=4))
        tasks.append(cli_task("moments", upsilon=u, j_grid=(0, 30, 301)))
        tasks.append(cli_task("spectrum", upsilon=u))
    return tasks


_LONG_REVIVAL_POINTS = ((0.02, 100), (0.025, 120), (0.03, 150))


def _long_revival(rng) -> list[Task]:
    """Few long autocorrelation series: dynamics and CSV emission dominate."""
    tasks = []
    for u, n0 in _LONG_REVIVAL_POINTS:
        if rng is not None:
            # Small jitter around each anchor: the cost scales as 1/u^2, so a
            # free draw over [0.015, 0.03] would swing a pass by 4x, and the
            # middle task sets task_p50_ms.
            u = _round(min(0.03, max(0.015, u * math.exp(rng.uniform(-0.005, 0.005)))), 4)
            n0 = int(min(150, max(80, n0 + int(rng.integers(-1, 2)))))
        tasks.append(cli_task("autocorr", upsilon=u, n0=n0))
        tasks.append(cli_task("revivals", upsilon=u, n0=n0, q_max=8, threshold=0.1))
    return tasks


def _wide_state(rng) -> list[Task]:
    """A few large states through the same series layer as ``figures``."""
    def jitter(x: float, rel: float = 0.01) -> float:
        return x if rng is None else x * (1.0 + rng.uniform(-rel, rel))

    tasks = []
    for n0 in (200, 500, 1000):
        tasks.append(cli_task("solve-j", upsilon=0.1, n0=round(jitter(n0))))
        tasks.append(cli_task("solve-j", model="morse", mu=0.5, n0=round(jitter(n0))))
        tasks.append(cli_task("solve-j", model="mathews-lakshmanan", lambda_tilde=-0.5,
                              n0=round(jitter(n0))))
    tasks.append(cli_task("dist", upsilon=0.05, J=round(jitter(2000.0))))
    tasks.append(cli_task("dist", upsilon=0, J=round(jitter(3000.0))))
    tasks.append(cli_task("dist", upsilon=0, J=1e5))
    tasks.append(cli_task("moments", upsilon=0.1, j_grid=(0, round(jitter(2000.0)), 401)))
    tasks.append(cli_task("moments", model="morse", mu=0.5,
                          j_grid=(0, round(jitter(500.0)), 401)))
    return tasks


def _position_space(rng) -> list[Task]:
    """The only workload that reaches ``wavefunctions`` and ``log_bessel_k``."""
    if rng is None:
        j40, t15, n_eig = 40.0, 1.5, 30
    else:
        j40 = round(40.0 * (1.0 + rng.uniform(-0.05, 0.05)), 1)
        # n0 stays at 20 on every seed: that density task is the middle one
        # of a pass and sets task_p50_ms; the time does not change its cost.
        t15 = round(rng.uniform(1.0, 2.0), 2)
        n_eig = 25 + int(rng.integers(0, 11))
    tasks = [
        cli_task("density", upsilon=0.2, J=j40),
        cli_task("density", upsilon=0.1, n0=20, time=t15),
        cli_task("density", upsilon=0.1, n0=60),
        cli_task("density", upsilon=0.2, n0=60),
        cli_task("eigenfunction", n=n_eig),
    ]
    # The residual and the measure check keep their parameters on every seed:
    # their cost is set by upsilon alone, and u=0.5, n=10 sits 2.5x under the
    # 1e-6 gate.
    for n in (0, 5, 10):
        for u in (0.1, 0.2, 0.5):
            tasks.append(library_task("hamiltonian_residual", n=n, upsilon=u))
    for u in (0.2, 0.5, 1):
        tasks.append(cli_task("verify-measure", upsilon=u))
    return tasks


_BUILDERS = {
    "figures": _figures,
    "long-revival": _long_revival,
    "wide-state": _wide_state,
    "position-space": _position_space,
}

# Small tasks run once before timing so that first-call costs (imports inside
# numpy, allocator growth) stay out of the timed loop. The first entry is also
# the task that ``setup_s`` times in a fresh interpreter.
WARMUP = {
    "figures": [cli_task("autocorr", upsilon=0.2, J=6.9),
                cli_task("revivals", upsilon=0.2, J=6.9),
                cli_task("dist", upsilon=0.2, n0=5),
                cli_task("moments", upsilon=0.2, j_grid=(0, 30, 31)),
                cli_task("spectrum", upsilon=0.2)],
    "long-revival": [cli_task("autocorr", upsilon=0.2, J=6.9),
                     cli_task("revivals", upsilon=0.2, J=6.9, q_max=8, threshold=0.1)],
    "wide-state": [cli_task("solve-j", upsilon=0.1, n0=20),
                   cli_task("dist", upsilon=0, J=30),
                   cli_task("moments", model="morse", mu=0.5, j_grid=(0, 30, 31))],
    "position-space": [cli_task("eigenfunction", n=3),
                       cli_task("density", upsilon=0.5, J=14.3),
                       library_task("hamiltonian_residual", n=0, upsilon=0.5),
                       cli_task("verify-measure", upsilon=1)],
}


def workload_pass(workload: str, seed: int) -> list[Task]:
    """The pass of ``workload`` under ``seed``; a run repeats it."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = None
    if seed != 0:
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    defects = load_known_defects()
    tasks = _tag(_BUILDERS[workload](rng), workload, defects)
    if rng is not None:
        # Every builder lays out the same slots on every seed: put the seed-0
        # task back in each slot that reproduces a defect at fixed arguments.
        exact = {d["id"] for d in defects if "argv" in d}
        base = _tag(_BUILDERS[workload](None), workload, defects)
        tasks = [b if b.known_defect in exact else t for b, t in zip(base, tasks)]
    return tasks
