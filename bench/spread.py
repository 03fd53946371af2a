"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs ``run.py`` once per seed for each workload and prints every
end-to-end metric with its unit and ``failed_frac``; then, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the bound in ``BENCHMARK.json``.
``--seeds 1`` is the one command that runs all four workloads.

    python3 bench/spread.py --seeds 10 [--write bench/baseline.json]

Seeds 0 .. N-1 run on every workload of ``BENCHMARK.json``. The same
statistics are printed for the unscaled times (``unscaled:`` line of
``run.py``), which show what the speed scaling buys. ``--write`` also makes
one traced run per workload (seed 0) and writes everything, with the run
record, to the named JSON file, replacing it.
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


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def field(lines: list[str], prefix: str) -> dict:
    return json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])


def summary(vals: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound, "values": vals}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", default=None)
    args = parser.parse_args()

    baseline = {"run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        correct = True
        for seed in range(args.seeds):
            result, lines = run(workload, seed, spec["run_seconds"], 0)
            correct = correct and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in field(lines, "unscaled: ").items():
                unscaled.setdefault(name, []).append(value)
            print(workload, seed, " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items()),
                  f"failed_frac={result['failed'] / result['attempted']:.4g}", flush=True)
        entry = {"seeds": list(range(args.seeds)), "correct": correct, "metrics": {}, "unscaled": {}}
        for kind, table in (("metrics", values), ("unscaled", unscaled)):
            for name, vals in table.items() if args.seeds >= 2 else ():  # quartiles need two values
                entry[kind][name] = stats = summary(vals, bounds[name])
                if kind == "metrics" and name != "setup_s":
                    worst = max(worst, stats["spread"] / stats["bound"])
                print(f"  {workload:14s} {name:14s} {'' if kind == 'metrics' else 'unscaled '}"
                      f"median={stats['median']:.6g} q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                      f"spread={stats['spread']:.4f} bound={stats['bound']}", flush=True)
        if args.write:
            traced, lines = run(workload, 0, spec["run_seconds"], 1)
            entry["traced_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
            baseline["record"] = {k: v for k, v in field(lines, "run: ").items() if k not in ("workload", "seed")}
        baseline["workloads"][workload] = entry
    if args.seeds >= 2:
        print(f"largest spread / bound (setup_s aside): {worst:.3f}")
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
