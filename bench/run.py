"""exchkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload exact-oracles --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: the median ``setup_s`` of
several fresh interpreters, then ``checks_per_s``, ``verdict_s_p50`` and
``peak_rss_mb`` of a timed run in one more fresh interpreter. ``--trace 1``
runs the workload untraced and then traced, each for half the seconds, and
prints the per-layer metrics of the traced run. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every process this starts runs with the thread variables set to 1 and is
waited for. Outputs (reports of the CLI checks, the span file of a traced
run) go under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-oracles", "mc-paths", "long-paths", "rcd-pipeline")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
DEADLINE = time.monotonic() + 170  # every worker must end before this


class WorkerError(RuntimeError):
    pass


def worker(mode: str, args, seconds: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--out", str(OUT)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_record(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "exchkit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "PYTHONHASHSEED": "0",
        "load": "closed loop, one client, one single-threaded process",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; numbers are not comparable")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "exchkit" / "__init__.py").is_file():
        print(f"error: no exchkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            runs = [worker("timed", args, args.seconds / 2), worker("traced", args, args.seconds / 2)]
            plain, traced = runs
            metrics = traced["layers"]
            metrics["trace.overhead_frac"] = (1 - traced["checks_per_s"] / plain["checks_per_s"], "ratio")
        else:
            setups = [worker("setup", args, 0) for _ in range(SETUP_PROBES)]
            runs = [worker("timed", args, args.seconds)]
            timed = runs[0]
            setups.append(timed)
            metrics = {
                "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
                "checks_per_s": (timed["checks_per_s"], "1/s"),
                "verdict_s_p50": (timed["verdict_s_p50"], "s"),
                "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
            }
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = {r["digest"] for r in runs}
    print("run:", json.dumps(run_record(args)))
    for r in runs:
        print(f"checks: attempted={r['attempted']} failed={r['failed']} "
              f"failed_frac={r['failed'] / r['attempted']:.4g} passes={r['passes']} "
              f"failures={r['failures']}")
        print(f"verdict_s_p50: median of {r['checks']} per-check medians, each over {r['passes']} passes")
        print(f"speed: probe median {r['probe_s_p50']:.5f} s, times scaled by {r['speed_scale']:.4f}")
    if not args.trace:
        unscaled = {"setup_s": statistics.median(s["raw_setup_s"] for s in setups),
                    "checks_per_s": timed["raw_checks_per_s"], "verdict_s_p50": timed["raw_verdict_s_p50"]}
        print("unscaled:", json.dumps(unscaled))
    print("digest:", " ".join(sorted(digests)))
    if args.trace:
        print(f"spans: {traced['spans']} written to {traced['span_file']}")
    print("note: no layer queues work or runs concurrently, so no wait time is recorded")
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
