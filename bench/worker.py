"""One workload in a fresh interpreter: set up, then run checks in a closed loop.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  setup   import exchkit (with the CLI, numpy and click), build the inputs,
          report the time that took, and exit;
  timed   set up, then run whole passes over the workload's checks until
          ``--seconds`` have passed;
  traced  as timed, with every layer wrapped by the span tracer.

One client, single-threaded: each check starts only after the previous one
has returned and been judged. Judging (reading reports, hashing outputs)
happens outside the timed region of a check.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports exchkit, exchkit.cli and click)

# Reference work for the speed probe, and its time at the reference speed.
PROBE_INPUT = np.random.default_rng(0).random(40_000)
PROBE_NOMINAL_S = 0.010
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Time a fixed piece of work in the mix exchkit spends its time on:
    Fraction arithmetic, a Python loop over numpy scalars, tuple-keyed dict
    churn and vectorised numpy calls.

    The collector is off meanwhile and everything the probe allocates is
    freed before it returns, so the collector runs at the same points of the
    checks whether or not a probe ran before them."""
    gc.disable()
    try:
        return _probe_work()
    finally:
        gc.enable()


def _probe_work() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i, i + 1)
    ones = 0.0
    for u in PROBE_INPUT:
        if u < 0.5:
            ones += 1.0
    table = {}
    for i in range(10_000):
        table[(i, i % 7)] = i * i % 13
    np.searchsorted(np.cumsum(PROBE_INPUT % 0.5), PROBE_INPUT)
    return time.perf_counter() - t0


def run_checks(checks, seconds, tracer=None):
    """Whole passes over the checks until ``seconds`` have passed.

    On shared virtual CPUs (2 vCPUs of an Intel Xeon host) the speed drifts
    by 20-40% over seconds to minutes. So every check is bracketed
    by runs of ``probe`` (outside its timed region, at most one per
    ``PROBE_EVERY_S``) and its time is scaled by PROBE_NOMINAL_S over the mean
    of the two probes around it: a time at the reference speed. Each check's
    scaled times are summarised by their median over the passes; then
    ``checks_per_s`` = checks in a pass / sum of those medians, and
    ``verdict_s_p50`` = the median of those medians.
    """
    samples = [[] for _ in checks]  # (seconds, index of the probe before)
    probes = [probe()]
    last_probe = time.perf_counter()
    failures, digests = [], []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, check in enumerate(checks):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            if tracer is not None:
                tracer.begin("check", "bench")
                tracer.count["cli.invocations"] += check.is_cli
            t0 = time.perf_counter()
            try:
                out = check.call()
            except Exception as exc:  # a check that raises has failed; record it and go on
                out = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close()
            samples[i].append((t1 - t0, len(probes) - 1))
            if isinstance(out, Exception):
                ok, text = False, f"{type(out).__name__}: {out}"
            else:
                ok, text = check.judge(out)
            if tracer is not None and check.is_cli:
                tracer.count["cli.errors"] += isinstance(out, Exception) or workloads.cli_error(out)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if passes == 0:
                digests.append(digest)
            elif digest != digests[i]:
                ok = False  # same input, different output within one run
            if not ok:
                failures.append(check.name)
        passes += 1
    probes.append(probe())
    scaled = [
        [d * PROBE_NOMINAL_S * 2 / (probes[k] + probes[k + 1]) for d, k in check_samples]
        for check_samples in samples
    ]
    typical = [statistics.median(s) for s in scaled]
    raw = [statistics.median(d for d, _ in s) for s in samples]
    return {
        "passes": passes,
        "checks": len(checks),
        "attempted": passes * len(checks),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "checks_per_s": len(checks) / sum(typical),
        "verdict_s_p50": statistics.median(typical),
        "raw_checks_per_s": len(checks) / sum(raw),
        "raw_verdict_s_p50": statistics.median(raw),
        "probe_s_p50": statistics.median(probes),
        "speed_scale": PROBE_NOMINAL_S / statistics.median(probes),
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="directory for reports and the span file")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=args.out, prefix="reports-")
    try:
        # master seeds are uint64 Philox keys; fold any seed into range
        checks = workloads.WORKLOADS[args.workload](args.seed % 2**32, args.tiny, scratch)
        setup_s = time.perf_counter() - T0
        if args.mode == "setup":
            speed = statistics.median(probe() for _ in range(5))
            print(json.dumps({"setup_s": setup_s * PROBE_NOMINAL_S / speed, "raw_setup_s": setup_s}))
            return
        tracer = None
        if args.mode == "traced":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        result = run_checks(checks, args.seconds, tracer)
        result["setup_s"] = setup_s * result["speed_scale"]
        result["raw_setup_s"] = setup_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["passes"], result["speed_scale"])
            path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.npz")
            tracer.write(path)
            result["span_file"] = path
            result["spans"] = len(tracer.span_name)
        print(json.dumps(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
