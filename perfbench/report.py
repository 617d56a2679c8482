#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print one table.

    python3 perfbench/report.py                    # every workload, seed 0
    python3 perfbench/report.py --seeds 0-9        # spread over ten seeds
    python3 perfbench/report.py --trace            # also one traced run each
    python3 perfbench/report.py --seeds 0-9 --trace --write-baseline

Each run is a separate ``run.py`` process, so each workload gets a process of
its own and its peak memory is its own. For every end-to-end metric the
table gives the median over the runs, the quartiles, and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json. It also gives the
rate and the median latency in wall seconds, unscaled, with the median time
of the reference kernel they are scaled by; the share of failed tasks; the
90th percentile latency where at least ten samples lie beyond it; and the
check verdict of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

sys.path.insert(0, str(HERE))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    details = next(json.loads(line[len("details "):]) for line in lines
                   if line.startswith("details "))
    return {"result": json.loads(lines[-1]), "details": details}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", type=_seeds, default=[0], help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"store the table in {BASELINE.relative_to(ROOT)}")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    environment = None
    print(f"{'workload':<15}{'metric':<30}{'unit':<9}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>8}{'bound':>7}")
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, 0)
            environment = environment or run["details"]["environment"]
            res = run["result"]
            print(f"# {workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
            runs.append(run)
        entry = {"runs": len(runs), "seeds": args.seeds,
                 "correct": [r["result"]["correct"] for r in runs]}
        for name in bounds:
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            entry[name] = s
            flag = "" if s["spread"] is None or s["spread"] < bounds[name] / 3 else "  (wide)"
            print(f"{workload:<15}{name:<30}{s['unit']:<9}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['spread']:>8.3f}{bounds[name]:>7.2f}{flag}")
        for key, unit in (("wall_ok_tasks_per_s", "1/s"), ("wall_task_p50_ms", "ms"),
                          ("reference_ms", "ms")):
            s = spread([r["details"][key] for r in runs])
            s["unit"] = unit
            entry[key] = s
            print(f"{workload:<15}{key:<30}{unit:<9}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['spread']:>8.3f}")
        ff = spread([r["details"]["failed_frac"] for r in runs])
        ff["unit"] = "fraction"
        entry["failed_frac"] = ff
        print(f"{workload:<15}{'failed_frac':<30}{'fraction':<9}{ff['median']:>12.5g}"
              f"{ff['q1']:>12.5g}{ff['q3']:>12.5g}")
        p90 = [r["details"]["task_p90_ms"] for r in runs]
        samples = statistics.median(r["details"]["latency_samples"] for r in runs)
        if all(v is not None for v in p90):
            s = spread(p90)
            s["unit"] = "ms"
            entry["task_p90_ms"] = s
            print(f"{workload:<15}{'task_p90_ms':<30}{'ms':<9}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['spread']:>8.3f}   (n={samples:g} tasks per run)")
        else:
            entry["task_p90_ms"] = None
            print(f"{workload:<15}{'task_p90_ms':<30}{'ms':<9}{'n/a':>12}   (n={samples:g} tasks "
                  "per run; p90 needs 100 for ten beyond it)")
        failures = {}
        for r in runs:
            for f in r["details"]["failures"]:
                key = f"[{f['known_defect']}] {f['task']}: {f['reason']}"
                failures[key] = failures.get(key, 0) + f["count"]
        verdict = "all runs correct" if all(entry["correct"]) else "SOME RUNS INCORRECT"
        print(f"{workload:<15}checks: {verdict}; failed tasks by cause:")
        for key, count in sorted(failures.items()):
            print(f"{'':<15}  x{count:<5} {key}")
        entry["failures"] = failures
        if args.trace:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v for k, v in traced["result"]["metrics"].items()}
            entry["per_layer_correct"] = traced["result"]["correct"]
            for name, m in traced["result"]["metrics"].items():
                if m["value"]:
                    print(f"{workload:<15}  {name:<44}{m['value']:>14.6g} {m['unit']}")
        table[workload] = entry
    if args.write_baseline:
        BASELINE.write_text(json.dumps({
            "about": "Numbers of the commit named in environment.commit, from "
                     "`python3 perfbench/report.py " + " ".join(argv or sys.argv[1:]) + "`.",
            "environment": environment, "run_seconds": args.seconds, "workloads": table,
        }, indent=1) + "\n")
    return 0 if all(all(e["correct"]) for e in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
