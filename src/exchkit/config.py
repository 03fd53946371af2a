"""Scenario grammars, flat config files, and deterministic report emission.

Every CLI input is a short textual spec (space, measure, events, generator)
or number. A flag and a config line both hand over text, and
:meth:`ScenarioConfig.from_strings` is the one parser of either, so a bad
value gets one message from both. The same strings are echoed verbatim into
reports, so a published report can be re-run by copying its config block back
into a file.

Config files are flat ``key = value`` lines; ``#`` starts a comment, blank
lines are ignored, later keys win. Command-line flags override file keys.

Reports are JSON with a fixed field order: a check's results are its
:class:`~exchkit.spaces.Record`'s ``to_dict``, keys in field order, and must
be plain JSON (anything else raises). The two volatile fields
(timestamp, wall clock) are emitted as the final two lines of the document
so determinism checks can strip them and compare the rest byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .kernels import _validate_grid, bernoulli_kernel, geometric_kernel
from .measures import ProbMeasure
from .processes import (
    BetaBernoulliProcess,
    GridMixtureProcess,
    IIDProcess,
    MarkovChainProcess,
    PolyaUrnProcess,
    ProcessGenerator,
)
from .spaces import EventSet, SpaceDescriptor, countable, finite

SCHEMA_VERSION = 1
OUT_DIR_ENV = "EXCHKIT_OUT_DIR"
# paths x path length that one Monte Carlo command may sample
_MONTE_CARLO_DRAW_CAP = 10**8
# characters per write of a report's text (1 MiB)
_WRITE_SLICE = 1 << 20


class SpecParseError(ValueError):
    """A textual spec does not follow the documented grammar."""


# ---------------------------------------------------------------------------
# primitive parsers


def parse_number(text: str) -> Fraction:
    """Exact rational from ``1/3``, ``0.25``, or ``2``."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise SpecParseError(f"expected a rational number, got {text!r}") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise SpecParseError(f"expected an integer {what}, got {text!r}") from None


def _positive_int(text: str, key: str, what: str) -> int:
    value = _parse_int(text, what)
    if value < 1:
        raise SpecParseError(f"{key} must be at least 1")
    return value


def _number_list(text: str, expect: int | None = None) -> list[Fraction]:
    vals = [parse_number(v) for v in text.split(",") if v.strip() != ""]
    if not vals:
        raise SpecParseError(f"expected a comma-separated number list, got {text!r}")
    if expect is not None and len(vals) != expect:
        raise SpecParseError(f"expected {expect} numbers, got {len(vals)} in {text!r}")
    return vals


def _by_grammar(kind: str, text: str, parse):
    """``parse()``, with its ValueError as "invalid <kind>" and its None (a
    form the grammar lacks) as "unknown <kind> spec", each naming ``text``."""
    try:
        value = parse()
    except SpecParseError:
        raise
    except ValueError as exc:
        raise SpecParseError(f"invalid {kind} {text!r}: {exc}") from None
    if value is None:
        raise SpecParseError(f"unknown {kind} spec {text!r}")
    return value


def parse_space(text: str) -> SpaceDescriptor:
    """Space grammar: ``finite:<k>`` | ``countable``."""
    head, sep, arg = text.strip().partition(":")

    def parse():
        if head == "countable" and not sep:
            return countable()
        if head == "finite":
            return finite(_parse_int(arg, "cell count"))

    return _by_grammar("space", text, parse)


def parse_measure(space: SpaceDescriptor, text: str) -> ProbMeasure:
    """Measure grammar, interpreted on an explicit space.

    ``uniform`` | ``delta:<j>`` | ``bern:<p>`` | ``geometric:<q>`` |
    ``weights:<w0,w1,...>`` | ``geom-mixture:<w>@<q>;<w>@<q>;...``

    Numbers are exact rationals; a weights list that does not sum to one is
    rejected here, at construction time.
    """
    head, _, arg = text.strip().partition(":")

    def parse():
        if head == "uniform":
            return ProbMeasure.uniform(space)
        if head == "delta":
            return ProbMeasure.delta(space, _parse_int(arg, "cell"))
        if head == "bern":
            return ProbMeasure.bernoulli(space, parse_number(arg))
        if head == "geometric":
            return ProbMeasure.geometric(space, parse_number(arg))
        if head == "weights":
            return ProbMeasure.from_weights(space, _number_list(arg))
        if head == "geom-mixture":
            parts = []
            for chunk in arg.split(";"):
                w, at, q = chunk.partition("@")
                if not at:
                    raise SpecParseError(f"bad mixture part {chunk!r}, want w@q")
                parts.append((parse_number(w), parse_number(q)))
            return ProbMeasure.geometric_mixture(space, parts)

    return _by_grammar("measure", text, parse)


def parse_event(space: SpaceDescriptor, text: str) -> EventSet:
    """Event grammar, identical to the report rendering, so events round-trip:
    ``full`` | ``empty`` | ``cells:<i,j,...>`` | ``not:<i,j,...>``."""
    head, sep, arg = text.strip().partition(":")

    def parse():
        if head == "full" and not sep:
            return EventSet.full(space)
        if head == "empty" and not sep:
            return EventSet.empty(space)
        if head == "cells":
            return EventSet.of(space, [_parse_int(i, "cell") for i in arg.split(",")])
        if head == "not":
            cells = [_parse_int(i, "cell") for i in arg.split(",")]
            return EventSet.cofinite_of(space, cells)

    return _by_grammar("event", text, parse)


def parse_events(space: SpaceDescriptor, text: str) -> tuple[EventSet, ...]:
    """Semicolon-separated list of event specs."""
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise SpecParseError("event list is empty")
    return tuple(parse_event(space, c) for c in chunks)


def parse_grid(text: str) -> tuple[int, ...]:
    """Comma-separated integers under the grid rule of every Monte Carlo check."""
    return _by_grammar("n_grid", text, lambda: _validate_grid([_parse_int(v, "grid point") for v in text.split(",")]))


def parse_generator(text: str) -> ProcessGenerator:
    """Generator grammar; the state space is implied by the form.

    - ``iid:bern:<p>`` coin on two cells, ``iid:geom:<q>`` on the countable
      space, ``iid:uniform:<k>`` on k cells, ``iid:weights:<w0,w1,...>``
    - ``polya:<a>,<b>`` two-color urn, ``a`` initial balls of color 1
    - ``mixture:beta(<a>,<b>):bern`` latent coin bias drawn from Beta(a, b)
    - ``mixture:grid(<t1>,<t2>,...):bern`` or ``...:geom`` uniform prior
      over the listed parameter values
    - ``markov:<p01>,<p10>`` two-state chain started at 0; the intended
      negative control, not exchangeable for asymmetric rows
    """
    text = text.strip()
    head, _, rest = text.partition(":")

    def parse():
        if head == "iid":
            kind, _, arg = rest.partition(":")
            if kind == "bern":
                return IIDProcess(ProbMeasure.bernoulli(finite(2), parse_number(arg)))
            if kind == "geom":
                return IIDProcess(ProbMeasure.geometric(countable(), parse_number(arg)))
            if kind == "uniform":
                return IIDProcess(ProbMeasure.uniform(finite(_parse_int(arg, "cell count"))))
            if kind == "weights":
                ws = _number_list(arg)
                return IIDProcess(ProbMeasure.from_weights(finite(len(ws)), ws))
            raise SpecParseError(f"unknown iid marginal {rest!r}")
        if head == "polya":
            a, b = (_parse_int(v, "urn count") for v in rest.split(","))
            return PolyaUrnProcess(a, b)
        if head == "mixture":
            prior_txt, sep, kind = rest.partition("):")
            if not sep:
                raise SpecParseError(f"mixture needs prior(...):kind, got {text!r}")
            if prior_txt.startswith("beta("):
                if kind != "bern":
                    raise SpecParseError("a beta prior pairs with the bern kind")
                a, b = _number_list(prior_txt[5:], expect=2)
                return BetaBernoulliProcess(a, b)
            if prior_txt.startswith("grid("):
                thetas = _number_list(prior_txt[5:])
                w = Fraction(1, len(thetas))
                prior = tuple((w, t) for t in thetas)
                if kind == "bern":
                    return GridMixtureProcess(prior, bernoulli_kernel(finite(2)))
                if kind == "geom":
                    return GridMixtureProcess(prior, geometric_kernel(countable()))
                raise SpecParseError(f"unknown mixture kind {kind!r}")
            raise SpecParseError(f"unknown prior form {prior_txt!r}")
        if head == "markov":
            p01, p10 = _number_list(rest, expect=2)
            space = finite(2)
            rows = (
                ProbMeasure.from_weights(space, [1 - p01, p01]),
                ProbMeasure.from_weights(space, [p10, 1 - p10]),
            )
            return MarkovChainProcess(ProbMeasure.delta(space, 0), rows)

    return _by_grammar("generator", text, parse)


# ---------------------------------------------------------------------------
# config files and per-command key schemas


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; OSError propagates for the I/O exit path."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise SpecParseError(f"{path}:{lineno}: expected key = value")
            out[key.strip()] = value.strip()
    return out


# marks a setting that has no default: the file or a flag must give it
REQUIRED = None

# Each command's settings, each with the default that fills it when unset.
SETTINGS: dict[str, dict[str, str | None]] = {
    "simulate": {"gen": REQUIRED, "n": REQUIRED, "paths": "100", "seed": REQUIRED},
    "check-exchangeable": {"gen": REQUIRED, "n": REQUIRED},
    "estimate-mixing": {"gen": REQUIRED, "events": REQUIRED, "n_grid": "10,100,1000,10000", "paths": "100",
                        "seed": REQUIRED},
    "verify-rcd": {"gen": REQUIRED, "events": REQUIRED, "steps": "10000", "paths": "100", "seed": REQUIRED},
    # The extraction bisects per-cell mass clusters, so it needs several grid
    # points inside the settled tail; a log-spaced grid starves it.
    "construct-rcd": {"gen": REQUIRED, "events": REQUIRED, "n_grid": "100,1000,4000,6000,8000,10000",
                      "paths": "100", "seed": REQUIRED},
    "radon-classify": {"space": REQUIRED, "measure": REQUIRED},
}


def merge_config(
    command: str, flags: Mapping[str, str | None], config_path: str | None
) -> dict[str, str]:
    """File keys, overridden by flags, with the defaults of the command's
    :data:`SETTINGS` row filled in.

    ``flags`` must carry every key the command accepts, None where unset (as
    click passes every declared option); those keys are the allowed ones.
    Unknown file keys are rejected so a typo cannot silently drop a setting.
    A flag's value is its text as typed, as a file's is; parsing happens
    exactly once, in :meth:`ScenarioConfig.from_strings`.
    """
    merged = read_config_file(config_path) if config_path else {}
    unknown = set(merged) - set(flags)
    if unknown:
        raise SpecParseError(f"unknown config keys for {command}: {', '.join(sorted(unknown))}")
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    for key, default in SETTINGS[command].items():
        merged.setdefault(key, default)
    missing = [key for key, value in merged.items() if value is REQUIRED]
    if missing:
        raise SpecParseError(f"{command} is missing required settings: {', '.join(sorted(missing))}")
    return merged


@dataclass
class ScenarioConfig:
    """One subcommand's resolved inputs, plus the raw strings for the echo."""

    raw: dict[str, str]
    gen: ProcessGenerator | None = None
    space: SpaceDescriptor | None = None
    measure: ProbMeasure | None = None
    events: tuple[EventSet, ...] = ()
    n: int | None = None
    n_grid: tuple[int, ...] = ()
    n_paths: int = 1
    seed: int | None = None
    steps: int | None = None

    @staticmethod
    def from_strings(raw: Mapping[str, str]) -> "ScenarioConfig":
        cfg = ScenarioConfig(raw=dict(raw))
        if "gen" in raw:
            cfg.gen = parse_generator(raw["gen"])
        if "space" in raw:
            cfg.space = parse_space(raw["space"])
        if "measure" in raw:
            if cfg.space is None:
                raise SpecParseError("a measure spec needs a space spec")
            cfg.measure = parse_measure(cfg.space, raw["measure"])
        if "events" in raw:
            host = cfg.gen.space if cfg.gen is not None else cfg.space
            if host is None:
                raise SpecParseError("an events spec needs a generator or space")
            cfg.events = parse_events(host, raw["events"])
        if "n" in raw:
            cfg.n = _positive_int(raw["n"], "n", "sequence length")
        if "n_grid" in raw:
            cfg.n_grid = parse_grid(raw["n_grid"])
        if "paths" in raw:
            cfg.n_paths = _positive_int(raw["paths"], "paths", "path count")
        if "seed" in raw:
            cfg.seed = _parse_int(raw["seed"], "master seed")
            if not 0 <= cfg.seed < 2**64:
                raise SpecParseError("seed must lie in [0, 2**64)")
        if "steps" in raw:
            cfg.steps = _positive_int(raw["steps"], "steps", "step count")
        # a command with a paths setting samples paths x (n, steps or n_grid's top) draws
        length = max(cfg.n or 0, cfg.steps or 0, *cfg.n_grid)
        if "paths" in raw and cfg.n_paths * length > _MONTE_CARLO_DRAW_CAP:
            raise SpecParseError(
                f"{cfg.n_paths} paths of length {length} exceed the cap of "
                f"{_MONTE_CARLO_DRAW_CAP} Monte Carlo draws"
            )
        return cfg

    def echo(self) -> dict[str, str]:
        """The effective settings, sorted by key for a stable report block."""
        return {k: self.raw[k] for k in sorted(self.raw)}


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CsvBody:
    """A CSV table body: ``blocks`` of whole lines, each line ending in a
    newline, holding ``rows`` data rows in all.

    A command builds a few large blocks (one per path, or one per table)
    instead of one string per row, so the body costs about its own bytes.
    ``len`` is the number of data rows, not of blocks.
    """

    blocks: tuple[str, ...] = ()
    rows: int = 0

    def __len__(self) -> int:
        return self.rows


@dataclass
class RunReport:
    """Everything a run produced, ready for deterministic emission.

    ``results`` is the owning check's ``to_dict`` payload, plain JSON.
    ``csv_rows`` is the flat-table view of the same numbers as a
    :class:`CsvBody`, so its length is the data row count; commands without
    a table leave it empty and a CSV emission is then just the header.
    """

    command: str
    config: dict[str, str]
    seeds: tuple[str, ...]
    results: dict
    passed: bool
    csv_header: tuple[str, ...] = ()
    csv_rows: CsvBody = CsvBody()

    def to_json(self, timestamp: str, wall_clock_s: float) -> str:
        body = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "seeds": list(self.seeds),
            "results": self.results,
            "passed": self.passed,
            # volatile fields, deliberately last: each lands on its own
            # line, so byte comparisons drop exactly two lines
            "timestamp": timestamp,
            "wall_clock_s": wall_clock_s,
        }
        return json.dumps(body, indent=2) + "\n"

    def to_csv(self) -> str:
        header = csv_lines([self.csv_header]).blocks if self.csv_header else ()
        return "".join([*header, *self.csv_rows.blocks])


def csv_lines(rows) -> CsvBody:
    """All rows through one csv.writer into a single block of finished CSV
    lines; the csv module quotes the fields and None becomes an empty
    field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    count = 0
    for row in rows:
        writer.writerow(["" if c is None else str(c) for c in row])
        count += 1
    return CsvBody((buf.getvalue(),), count)


def resolve_out_path(filename: str, out_dir: str | None = None) -> str:
    """Relative outputs land in out_dir, else $EXCHKIT_OUT_DIR, else '.'."""
    if os.path.isabs(filename):
        return filename
    base = out_dir or os.environ.get(OUT_DIR_ENV) or "."
    return os.path.join(base, filename)


def atomic_write_text(path: str, text: str) -> None:
    """Write through a sibling temp file and rename; never a partial file.

    The text is written in slices of ``_WRITE_SLICE`` characters, so the
    encoded copy that the text layer makes is one slice, not the whole text."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".exchkit-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start:start + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit_report(
    report: RunReport, fmt: str, path: str, timestamp: str, wall_clock_s: float
) -> None:
    """Write one report artifact; ``fmt`` is ``json`` or ``csv``."""
    if fmt == "json":
        atomic_write_text(path, report.to_json(timestamp, wall_clock_s))
    elif fmt == "csv":
        atomic_write_text(path, report.to_csv())
    else:
        raise SpecParseError(f"unknown report format {fmt!r}")
