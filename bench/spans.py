"""Span tracer for the traced run, wrapped around exchkit's layers from outside.

Each wrapped public function or method records a span (name, start, end,
parent, trace id) in memory; spans are written out when the run ends. A
layer is one module of ``src/exchkit``; a span's self time is its duration
minus the durations of its child spans, and a layer's self time is the sum
over its spans. Nothing in exchkit queues work or runs concurrently, so no
span waits and no wait time is recorded.

``from .x import y`` binds the same function object in several modules
(``mass`` lives in measures, kernels, processes, empirical and convergence;
the checks are bound in cli), so a wrapper replaces every module attribute
that is the original object. Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import exchkit
from exchkit import cli

LAYERS = ("spaces", "measures", "kernels", "processes", "rng", "empirical", "convergence", "config", "cli")
KINDS = {
    "IIDProcess": "iid",
    "GridMixtureProcess": "grid",
    "BetaBernoulliProcess": "beta",
    "PolyaUrnProcess": "polya",
    "MarkovChainProcess": "markov",
}
GENERATORS = tuple(KINDS)

# layer -> wrapped attributes; "Class.method" names are wrapped on the class
TARGETS = {
    "spaces": ("default_compact_family", "default_closed_family", "event_spec", "complement",
               "EventSet.of", "EventSet.cofinite_of", "EventSet.is_subset"),
    "measures": ("mass", "tv_distance", "mix_measures", "is_tight", "is_outer_regular_on", "classify_radon",
                 "ProbMeasure.__init__"),
    "kernels": ("kernel_mass", "product_cylinder_mass", "verify_rcd", "indicator_array", "MarkovKernel.measure"),
    "processes": ("check_exchangeable", "polya_beta_equivalence", "prefix_law", "sample_from_measure",
                  "beta_binomial_pattern_prob", "ProcessGenerator.sample_path",
                  *(f"{g}.prefix_pattern_law" for g in GENERATORS)),
    "rng": ("path_stream", "path_seed_labels"),
    "empirical": ("empirical_measure", "EmpiricalTrace.compute", "estimate_directing_measure",
                  "slln_exchangeable_check", "slln_condiid_check", "correction_factor",
                  "df_product_identity_exact", "df_product_identity_check", "ks_distance_uniform"),
    "convergence": ("empirical_sequence", "a_converges", "family_tight", "extract_convergent_subsequence",
                    "markov_bound_check", "uniform_smallness_check", "construct_rcd_from_empiricals"),
    "config": ("parse_space", "parse_measure", "parse_events", "parse_grid", "parse_generator",
               "read_config_file", "merge_config", "ScenarioConfig.from_strings", "RunReport.to_json",
               "RunReport.to_csv", "resolve_out_path", "atomic_write_text", "emit_report"),
}

# span names whose outermost occurrences are summed into an inclusive time
GROUPS = {
    "processes.oracle": ("processes.check_exchangeable", "processes.polya_beta_equivalence", "processes.prefix_law",
                         *(f"processes.{g}.prefix_pattern_law" for g in GENERATORS)),
    "empirical.df_exact": ("empirical.df_product_identity_exact",),
    "processes.sample": ("processes.ProcessGenerator.sample_path",),
    "kernels.indicator": ("kernels.indicator_array",),
    "kernels.verify_rcd": ("kernels.verify_rcd",),
    "empirical.trace": ("empirical.EmpiricalTrace.compute",),
    "empirical.df_mc": ("empirical.df_product_identity_check",),
    "measures.mass": ("measures.mass",),
    "measures.classify_radon": ("measures.classify_radon",),
    "convergence.family_tight": ("convergence.family_tight",),
    "convergence.extract": ("convergence.extract_convergent_subsequence",),
    "convergence.a_converges": ("convergence.a_converges",),
    "config.parse": ("config.parse_space", "config.parse_measure", "config.parse_events", "config.parse_grid",
                     "config.parse_generator", "config.read_config_file", "config.merge_config",
                     "config.ScenarioConfig.from_strings"),
    "config.emit": ("config.emit_report",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_trace = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, layer, groups, child seconds]
        self.trace_id = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.group_s: defaultdict[str, float] = defaultdict(float)
        self.active: Counter[str] = Counter()
        self.count: Counter[str] = Counter()
        self.paths_seen: set = set()

    def _intern(self, name: str, layer: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self.name_id[name]

    def open(self, nid: int, layer: str, groups: tuple[str, ...]) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_trace.append(self.trace_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        for g in groups:
            self.active[g] += 1
        self.stack.append([idx, layer, groups, 0.0])
        self.span_start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        idx, layer, groups, child = self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        for g in groups:
            self.active[g] -= 1
            if not self.active[g]:
                self.group_s[g] += dur

    def begin(self, name: str, layer: str) -> None:
        """Open a root span for one check, under a new trace id; ``close`` ends it."""
        self.trace_id += 1
        self.count[name] += 1
        self.open(self._intern(name, layer), layer, ())

    def wrap(self, fn, name: str, layer: str, hook=None, post=None):
        """``hook(*args, **kwargs)`` counts work from the inputs and may return
        extra groups for this call; ``post(result)`` counts from the output."""
        tracer, nid = self, self._intern(name, layer)
        groups = tuple(g for g, members in GROUPS.items() if name in members)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count[name] += 1
            extra = hook(*args, **kwargs) if hook is not None else None
            tracer.open(nid, layer, groups + extra if extra else groups)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if post is not None:
                post(result)
            return result

        return wrapper

    # -- counters computed from the inputs --------------------------------

    def _on_sample(self, gen, n, master_seed, path_index=0):
        kind = KINDS[type(gen).__name__]
        self.count["draws"] += n
        self.count[f"draws.{kind}"] += n
        self.paths_seen.add((self.trace_id, master_seed, path_index))
        return (f"sample.{kind}",)

    def _on_pattern_law(self, gen, n):
        self.count["patterns"] += gen.space.num_cells**n

    def _on_df_exact(self, gen, cyl, n, *args, **kwargs):
        self.count["df_exact_cells"] += n**cyl.m * gen.space.num_cells**n

    def _on_mass(self, mu, event):
        self.count["mass_exact"] += mu.mode == "exact"

    def _on_write(self, path, text):
        self.count["bytes_written"] += len(text.encode("utf-8"))

    def _on_emit(self, report, fmt, *args):
        if fmt == "csv":
            self.count["csv_rows"] += len(report.csv_rows)

    def _on_construct(self, report):
        self.count["rcd_paths"] += report.n_paths
        self.count["rcd_paths_ok"] += sum(p.status == "ok" for p in report.paths)

    def install(self) -> None:
        """Wrap every target in every exchkit module that binds it."""
        hooks = {
            "processes.ProcessGenerator.sample_path": self._on_sample,
            "empirical.df_product_identity_exact": self._on_df_exact,
            "measures.mass": self._on_mass,
            "config.atomic_write_text": self._on_write,
            "config.emit_report": self._on_emit,
            **{f"processes.{g}.prefix_pattern_law": self._on_pattern_law for g in GENERATORS},
        }
        posts = {"convergence.construct_rcd_from_empiricals": self._on_construct}
        modules = [m for key, m in sys.modules.items() if key == "exchkit" or key.startswith("exchkit.")]
        for layer, attrs in TARGETS.items():
            home = getattr(exchkit, layer)
            for attr in attrs:
                name = f"{layer}.{attr}"
                owner, _, method = attr.rpartition(".")
                raw = getattr(home, owner).__dict__[method] if owner else getattr(home, attr)
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self.wrap(fn, name, layer, hooks.get(name), posts.get(name))
                if owner:
                    setattr(getattr(home, owner), method, staticmethod(wrapped) if is_static else wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapped)
        for command in cli.main.commands.values():
            command.callback = self.wrap(command.callback, f"cli.{command.name}", "cli")

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, totals divided by the number of passes; times
        are multiplied by ``scale``, the run's factor to the reference speed."""
        c, g = self.count, self.group_s

        def per(value):
            return value / passes

        def per_s(seconds):
            return seconds * scale / passes

        def rate(num, den):
            return num / den if den else 0.0

        def rate_s(num, seconds):
            return num / (seconds * scale) if seconds else 0.0

        out = {
            "processes.oracle_s": (per_s(g["processes.oracle"]), "s/pass"),
            "processes.patterns": (per(c["patterns"]), "count/pass"),
            "processes.patterns_per_s": (rate_s(c["patterns"], g["processes.oracle"]), "1/s"),
            "empirical.df_exact_s": (per_s(g["empirical.df_exact"]), "s/pass"),
            "empirical.df_exact_cells": (per(c["df_exact_cells"]), "count/pass"),
            "processes.sample_s": (per_s(g["processes.sample"]), "s/pass"),
            "processes.paths_sampled": (per(c["processes.ProcessGenerator.sample_path"]), "count/pass"),
            "processes.draws": (per(c["draws"]), "count/pass"),
        }
        for kind in KINDS.values():
            out[f"processes.draws_per_s.{kind}"] = (rate_s(c[f"draws.{kind}"], g[f"sample.{kind}"]), "1/s")
        samples = c["processes.ProcessGenerator.sample_path"]
        out.update({
            "rng.streams": (per(c["rng.path_stream"]), "count/pass"),
            "processes.unique_path_ratio": (rate(len(self.paths_seen), samples), "ratio"),
            "kernels.indicator_calls": (per(c["kernels.indicator_array"]), "count/pass"),
            "kernels.indicator_s": (per_s(g["kernels.indicator"]), "s/pass"),
            "kernels.verify_rcd_s": (per_s(g["kernels.verify_rcd"]), "s/pass"),
            "empirical.trace_s": (per_s(g["empirical.trace"]), "s/pass"),
            "empirical.df_mc_s": (per_s(g["empirical.df_mc"]), "s/pass"),
            "measures.mass_calls": (per(c["measures.mass"]), "count/pass"),
            "measures.mass_s": (per_s(g["measures.mass"]), "s/pass"),
            "measures.mass_exact_frac": (rate(c["mass_exact"], c["measures.mass"]), "ratio"),
            "measures.classify_radon_s": (per_s(g["measures.classify_radon"]), "s/pass"),
            "convergence.family_tight_s": (per_s(g["convergence.family_tight"]), "s/pass"),
            "convergence.extract_s": (per_s(g["convergence.extract"]), "s/pass"),
            "convergence.a_converges_s": (per_s(g["convergence.a_converges"]), "s/pass"),
            "convergence.paths_ok_ratio": (rate(c["rcd_paths_ok"], c["rcd_paths"]), "ratio"),
            "config.parse_s": (per_s(g["config.parse"]), "s/pass"),
            "config.emit_s": (per_s(g["config.emit"]), "s/pass"),
            "config.bytes_written": (per(c["bytes_written"]), "bytes/pass"),
            "config.csv_rows": (per(c["csv_rows"]), "count/pass"),
            "cli.invocations": (per(c["cli.invocations"]), "count/pass"),
            "cli.errors": (per(c["cli.errors"]), "count/pass"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per_s(self.self_s[layer]), "s/pass")
        return out

    def write(self, path: str) -> None:
        """Write every span, with the name and layer tables, to one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            trace=np.frombuffer(self.span_trace, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
