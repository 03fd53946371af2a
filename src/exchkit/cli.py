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

A command's settings, and the default of each, are its row of
``config.SETTINGS``; each setting is one flag. Every setting can come from
``--config FILE`` (flat ``key = value`` lines) with command-line flags taking
precedence. A flag is read as text, like a file value: ``config`` parses
both and the report echoes them verbatim. Monte Carlo subcommands refuse to run without a seed, and every
command with a ``paths`` setting refuses (exit 2) more than 10**8 draws:
paths times the path length (``n``, ``steps`` or the largest ``n_grid``
point). Relative output names land in ``--out-dir``, else
``$EXCHKIT_OUT_DIR``, else the working directory.

Exit codes: 0 all checks passed, 1 a check failed, 2 spec or config error,
3 I/O error, 4 internal error (an unexpected exception; a bug, not a verdict).
"""

from __future__ import annotations

import sys
import time
import traceback
from datetime import datetime, timezone

import click
import numpy as np

from .config import (
    REQUIRED,
    SETTINGS,
    CsvBody,
    RunReport,
    ScenarioConfig,
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

    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            # spec errors and library-level precondition violations are scenario errors
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            # never let a crash pass for a failed check (exit 1)
            click.echo(traceback.format_exc(), err=True)
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(4)
        sys.exit(code)

    return wrapper


# One flag per setting key: its help. A command's options are the keys of its
# SETTINGS row, so that row is the one place that says what a command takes
# and what each setting defaults to. Every flag is text, parsed by config.
OPTIONS: dict[str, str] = {
    "gen": "generator spec, e.g. iid:bern:0.3",
    "space": "space spec, e.g. countable",
    "measure": "measure spec, e.g. geometric:1/2",
    "events": "semicolon-separated event specs",
    "n": "observations per path, or the prefix length to test",
    "n_grid": "comma-separated prefix lengths",
    "steps": "observations per path",
    "paths": "number of paths",
    "seed": "master seed",
}


@click.group()
@click.version_option(package_name="exchkit")
def main() -> None:
    """Simulate exchangeable processes and verify their limit structure."""


def command(name: str, header: tuple[str, ...] = ()):
    """Register ``run(cfg)`` as subcommand ``name``.

    The subcommand takes one option per key of ``SETTINGS[name]``, plus
    ``--json``, ``--out-dir`` and ``--config``, and ``--csv`` when ``header``
    names the columns of a CSV table. It merges the file and the flags,
    parses them once, runs ``run``, which returns (results, passed), plus
    the CSV body when ``header`` is given, writes the reports and prints the
    verdict. A command with a ``seed`` setting reports one seed label per
    path.
    """

    def option(key, text):
        return click.Option([f"--{key.replace('_', '-')}", key], help=text)

    params = []
    for key, default in SETTINGS[name].items():
        note = "required" if default is REQUIRED else f"default {default}"
        params.append(option(key, f"{OPTIONS[key]} ({note})"))
    if header:
        params.append(option("csv", "CSV artifact name"))
    params += [option("json", "JSON report name"), option("out_dir", "output directory"),
               click.Option(["--config", "config_path"], help="flat key = value settings file")]

    def register(run):
        def callback(config_path, **flags):
            started = time.monotonic()
            cfg = ScenarioConfig.from_strings(merge_config(name, flags, config_path))
            results, passed, *body = run(cfg)
            seeds = path_seed_labels(cfg.seed, cfg.n_paths) if "seed" in SETTINGS[name] else ()
            report = RunReport(name, cfg.echo(), tuple(seeds), results, passed, header, *body)
            timestamp = datetime.now(timezone.utc).isoformat()
            wall = time.monotonic() - started
            formats = ("json", "csv") if header else ("json",)
            out_dir = cfg.raw.get("out_dir")
            written = [resolve_out_path(cfg.raw.get(fmt, f"{name}.{fmt}"), out_dir) for fmt in formats]
            for fmt, path in zip(formats, written):
                emit_report(report, fmt, path, timestamp, wall)
            for path in written:
                click.echo(f"wrote {path}")
            click.echo(f"{name}: {'PASS' if passed else 'FAIL'}")
            return 0 if passed else 1

        main.command(name, help=run.__doc__, params=params)(_guarded(callback))
        return run

    return register


@command("simulate", header=("seed", "step", "value"))
def cmd_simulate(cfg):
    """Sample paths; CSV columns are seed, step, value.

    \f
    Each path's lines are built as one text block, one join over an object
    array of line parts: the path's seed label, the ``,step,`` strings (made
    once per call) and one ``value\\n`` string per distinct cell the path
    visits. No string is made per row, so the CSV body costs about its own
    bytes. The lines skip the csv module, which would leave every field as
    it is: each is an integer or a ``master:index`` label, and neither holds
    a comma, a quote or a line break.
    """
    parts = np.empty((cfg.n, 3), dtype=object)
    parts[:, 1] = [f",{step}," for step in range(1, cfg.n + 1)]
    blocks = []
    for i in range(cfg.n_paths):
        path = cfg.gen.sample_path(cfg.n, cfg.seed, path_index=i)
        cells, which = np.unique(path.observations, return_inverse=True)
        parts[:, 0] = path.seed_label
        parts[:, 2] = np.array([f"{int(c)}\n" for c in cells], dtype=object)[which]
        blocks.append("".join(parts.ravel().tolist()))
    body = CsvBody(tuple(blocks), cfg.n * cfg.n_paths)
    results = {"n": cfg.n, "paths": cfg.n_paths, "rows_written": len(body)}
    return results, True, body


@command("check-exchangeable")
def cmd_check_exchangeable(cfg):
    """Exact check: the n-step law is invariant under every permutation."""
    res = check_exchangeable(cfg.gen, cfg.n)
    click.echo(
        f"exchangeable={res.exchangeable} max_discrepancy={res.max_discrepancy}"
    )
    return res.to_dict(), res.exchangeable


@command("estimate-mixing", header=MIXING_CSV_HEADER)
def cmd_estimate_mixing(cfg):
    """Track per-path empirical masses along the grid; compare to targets."""
    reports = slln_exchangeable_checks(cfg.gen, cfg.events, cfg.n_grid, cfg.n_paths, master_seed=cfg.seed)
    # passed=None events carry no per-path target; they stay informational
    passed = all(rep.passed is not False for rep in reports)
    body = csv_lines(row for rep in reports for row in rep.rows())
    results = {"events": [rep.to_dict() for rep in reports]}
    return results, passed, body


@command("verify-rcd")
def cmd_verify_rcd(cfg):
    """Check the latent kernel against per-path long-run frequencies."""
    rep = verify_rcd(cfg.gen.latent_kernel(), cfg.gen, list(cfg.events), cfg.n_paths, cfg.steps, master_seed=cfg.seed)
    return rep.to_dict(), rep.passed


@command("construct-rcd")
def cmd_construct_rcd(cfg):
    """Extract the directing measure path by path and verify both claims."""
    rep = construct_rcd_from_empiricals(cfg.gen, list(cfg.events), cfg.n_grid, cfg.n_paths, master_seed=cfg.seed)
    click.echo(
        f"pass_fraction={rep.pass_fraction} not_tight_fraction={rep.not_tight_fraction}"
    )
    return rep.to_dict(), rep.passed


@command("radon-classify")
def cmd_radon_classify(cfg):
    """Certify tightness plus outer regularity on compacts, with witnesses."""
    rep = classify_radon(cfg.measure)
    click.echo(f"tight={rep.tight} outer_regular={rep.outer_regular_on_compacts} radon={rep.radon}")
    return rep.to_dict(), rep.radon


if __name__ == "__main__":
    main()
