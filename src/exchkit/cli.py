"""Batch experiment harness: generators, checks, and reports from one shell.

Subcommands
-----------
simulate            sample paths, one observation per CSV row
check-exchangeable  exact permutation-invariance of the prefix law, refused
                    (exit 2) beyond 10**8 (permutation, pattern) steps n!*k**n
estimate-mixing     per-path empirical masses along a grid vs latent targets
verify-rcd          kernel masses against long-run frequencies
construct-rcd       build the directing measure per path and verify it
radon-classify      tightness witnesses from the tail and outer regularity;
                    an exact law too slow to compute exits 2

Every setting can come from ``--config FILE`` (flat ``key = value`` lines)
with command-line flags taking precedence. Monte Carlo subcommands refuse to
run without a seed, and refuse (exit 2) more than 10**8 draws: paths times
the path length, which is ``n`` for simulate, ``steps`` for verify-rcd and
the largest ``n_grid`` point for estimate-mixing and construct-rcd. Relative
output names land in ``--out-dir``, else ``$EXCHKIT_OUT_DIR``, else the
working directory.

Exit codes: 0 all checks passed, 1 a check failed, 2 spec or config error,
3 I/O error, 4 internal error (an unexpected exception; a bug, not a verdict).
"""

from __future__ import annotations

import functools
import sys
import time
import traceback
from datetime import datetime, timezone

import click
import numpy as np

from .config import (
    RunReport,
    ScenarioConfig,
    SpecParseError,
    csv_lines,
    emit_report,
    merge_config,
    resolve_out_path,
)
from .convergence import construct_rcd_from_empiricals
from .empirical import slln_exchangeable_checks
from .kernels import verify_rcd
from .measures import classify_radon
from .processes import check_exchangeable
from .rng import path_seed_labels

MIXING_CSV_HEADER = ("scenario", "seed", "n", "event_id", "empirical_mass", "target", "abs_gap")


def _guarded(fn):
    """Map failures to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except SpecParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            # library-level precondition violations are scenario errors
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            # never let a crash pass for a failed check (exit 1)
            click.echo(traceback.format_exc(), err=True)
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)
        sys.exit(code)

    return wrapper


def _emit(cfg: ScenarioConfig, merged, results, passed, started, seeds=(), header=(), rows=()):
    """Write the JSON artifact, and the CSV one for a command with a table
    header, and print the verdict; ``rows`` are finished CSV lines."""
    report = RunReport(
        command=cfg.command,
        config=cfg.echo(),
        seeds=tuple(seeds),
        results=results,
        passed=passed,
        csv_header=tuple(header),
        csv_rows=tuple(rows),
    )
    out_dir = merged.get("out_dir")
    timestamp = datetime.now(timezone.utc).isoformat()
    wall = time.monotonic() - started
    json_path = resolve_out_path(merged.get("json", f"{cfg.command}.json"), out_dir)
    emit_report(report, "json", json_path, timestamp, wall)
    written = [json_path]
    if header:
        csv_path = resolve_out_path(merged.get("csv", f"{cfg.command}.csv"), out_dir)
        emit_report(report, "csv", csv_path, timestamp, wall)
        written.append(csv_path)
    for path in written:
        click.echo(f"wrote {path}")
    click.echo(f"{cfg.command}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _load(command: str, config_path, flags) -> tuple[ScenarioConfig, dict]:
    merged = merge_config(command, flags, config_path)
    return ScenarioConfig.from_strings(command, merged), merged


config_option = click.option(
    "--config", "config_path", default=None, help="flat key = value settings file"
)
out_dir_option = click.option("--out-dir", "out_dir", default=None, help="output directory")
json_option = click.option("--json", default=None, help="JSON report name")
csv_option = click.option("--csv", default=None, help="CSV artifact name")


@click.group()
@click.version_option(package_name="exchkit")
def main() -> None:
    """Simulate exchangeable processes and verify their limit structure."""


@main.command("simulate")
@click.option("--gen", default=None, help="generator spec, e.g. iid:bern:0.3")
@click.option("--n", type=int, default=None, help="observations per path")
@click.option("--paths", type=int, default=None, help="number of paths (default 100)")
@click.option("--seed", type=int, default=None, help="master seed (required)")
@csv_option
@json_option
@out_dir_option
@config_option
@_guarded
def cmd_simulate(config_path, **flags):
    """Sample paths; CSV columns are seed, step, value.

    \f
    A path's lines are built in bulk with object arrays: its seed label, the
    ``,step,`` strings (made once per call) and one ``value\\n`` string per
    distinct cell the path visits. They skip the csv module, which would
    leave every field as it is: each is an integer or a ``master:index``
    label, and neither holds a comma, a quote or a line break.
    """
    started = time.monotonic()
    cfg, merged = _load("simulate", config_path, flags)
    steps = np.array([f",{step}," for step in range(1, cfg.n + 1)], dtype=object)
    rows = []
    seeds = []
    for i in range(cfg.n_paths):
        path = cfg.gen.sample_path(cfg.n, cfg.seed, path_index=i)
        seeds.append(path.seed_label)
        cells, which = np.unique(path.observations, return_inverse=True)
        values = np.array([f"{int(c)}\n" for c in cells], dtype=object)[which]
        rows.extend((path.seed_label + steps + values).tolist())
    results = {"n": cfg.n, "paths": cfg.n_paths, "rows_written": len(rows)}
    return _emit(cfg, merged, results, True, started, seeds=seeds, header=("seed", "step", "value"), rows=rows)


@main.command("check-exchangeable")
@click.option("--gen", default=None, help="generator spec")
@click.option("--n", type=int, default=None, help="prefix length to test")
@json_option
@out_dir_option
@config_option
@_guarded
def cmd_check_exchangeable(config_path, **flags):
    """Exact check: the n-step law is invariant under every permutation."""
    started = time.monotonic()
    cfg, merged = _load("check-exchangeable", config_path, flags)
    res = check_exchangeable(cfg.gen, cfg.n)
    click.echo(
        f"exchangeable={res.exchangeable} max_discrepancy={res.max_discrepancy}"
    )
    return _emit(cfg, merged, res.to_dict(), res.exchangeable, started)


@main.command("estimate-mixing")
@click.option("--gen", default=None, help="generator spec (must be exchangeable)")
@click.option("--events", default=None, help="semicolon-separated event specs")
@click.option("--n-grid", "n_grid", default=None, help="comma-separated prefix lengths")
@click.option("--paths", type=int, default=None)
@click.option("--seed", type=int, default=None, help="master seed (required)")
@click.option("--coverage", type=float, default=None, help="required pass fraction")
@csv_option
@json_option
@out_dir_option
@config_option
@_guarded
def cmd_estimate_mixing(config_path, **flags):
    """Track per-path empirical masses along the grid; compare to targets."""
    started = time.monotonic()
    cfg, merged = _load("estimate-mixing", config_path, flags)
    reports = slln_exchangeable_checks(
        cfg.gen,
        cfg.events,
        n_grid=cfg.n_grid,
        n_paths=cfg.n_paths,
        master_seed=cfg.seed,
        coverage=cfg.coverage,
    )
    # passed=None events carry no per-path target; they stay informational
    passed = all(rep.passed is not False for rep in reports)
    rows = csv_lines(row for rep in reports for row in rep.rows())
    results = {"events": [rep.to_dict() for rep in reports]}
    seeds = path_seed_labels(cfg.seed, cfg.n_paths)
    return _emit(cfg, merged, results, passed, started, seeds=seeds, header=MIXING_CSV_HEADER, rows=rows)


@main.command("verify-rcd")
@click.option("--gen", default=None, help="generator spec with a latent kernel")
@click.option("--events", default=None, help="semicolon-separated event specs")
@click.option("--steps", type=int, default=None, help="observations per path")
@click.option("--paths", type=int, default=None)
@click.option("--seed", type=int, default=None, help="master seed (required)")
@click.option("--coverage", type=float, default=None)
@json_option
@out_dir_option
@config_option
@_guarded
def cmd_verify_rcd(config_path, **flags):
    """Check the latent kernel against per-path long-run frequencies."""
    started = time.monotonic()
    cfg, merged = _load("verify-rcd", config_path, flags)
    kappa = cfg.gen.latent_kernel()
    if kappa is None:
        raise SpecParseError(f"generator {merged['gen']!r} has no latent kernel to verify")
    rep = verify_rcd(
        kappa,
        cfg.gen,
        list(cfg.events),
        n_paths=cfg.n_paths,
        n_steps=cfg.steps,
        master_seed=cfg.seed,
        coverage=cfg.coverage,
    )
    seeds = path_seed_labels(cfg.seed, cfg.n_paths)
    return _emit(cfg, merged, rep.to_dict(), rep.passed, started, seeds=seeds)


@main.command("construct-rcd")
@click.option("--gen", default=None, help="exchangeable generator with a Radon marginal")
@click.option("--events", default=None, help="semicolon-separated event specs")
@click.option("--n-grid", "n_grid", default=None, help="comma-separated prefix lengths")
@click.option("--paths", type=int, default=None)
@click.option("--seed", type=int, default=None, help="master seed (required)")
@click.option("--coverage", type=float, default=None)
@json_option
@out_dir_option
@config_option
@_guarded
def cmd_construct_rcd(config_path, **flags):
    """Extract the directing measure path by path and verify both claims."""
    started = time.monotonic()
    cfg, merged = _load("construct-rcd", config_path, flags)
    rep = construct_rcd_from_empiricals(
        cfg.gen,
        list(cfg.events),
        cfg.n_grid,
        cfg.n_paths,
        master_seed=cfg.seed,
        coverage=cfg.coverage,
    )
    click.echo(
        f"pass_fraction={rep.pass_fraction} not_tight_fraction={rep.not_tight_fraction}"
    )
    seeds = path_seed_labels(cfg.seed, cfg.n_paths)
    return _emit(cfg, merged, rep.to_dict(), rep.passed, started, seeds=seeds)


@main.command("radon-classify")
@click.option("--space", default=None, help="space spec, e.g. countable")
@click.option("--measure", default=None, help="measure spec, e.g. geometric:1/2")
@json_option
@out_dir_option
@config_option
@_guarded
def cmd_radon_classify(config_path, **flags):
    """Certify tightness plus outer regularity on compacts, with witnesses."""
    started = time.monotonic()
    cfg, merged = _load("radon-classify", config_path, flags)
    rep = classify_radon(cfg.measure)
    click.echo(f"tight={rep.tight} outer_regular={rep.outer_regular_on_compacts} radon={rep.radon}")
    return _emit(cfg, merged, rep.to_dict(), rep.radon, started)


if __name__ == "__main__":
    main()
