"""The benchmark's span tracer names exchkit functions by string; a rename or
removal in the library must fail here, not only in a traced benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, attrs in spans.TARGETS.items():
        home = importlib.import_module(f"exchkit.{layer}")
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            found = name in vars(getattr(home, owner, object)) if owner else callable(getattr(home, attr, None))
            if not found:
                missing.append(f"{layer}.{attr}")
    assert not missing, f"bench/spans.py traces names exchkit no longer defines: {missing}"
