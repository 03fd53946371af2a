"""The benchmark's workloads call exchkit's API and CLI directly; a removed
parameter or option that bench/workloads.py still passes must fail here, not
only in a benchmark run. Every check runs once at tiny sizes and every judge
must accept its output."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [0, 1])
def test_every_tiny_workload_check_is_accepted(workloads, seed, tmp_path):
    rejected = []
    for name, build in workloads.WORKLOADS.items():
        for check in build(seed, True, str(tmp_path)):
            ok, _ = check.judge(check.call())
            if not ok:
                rejected.append(f"{name}: {check.name}")
    assert not rejected, f"judges rejected: {rejected}"
