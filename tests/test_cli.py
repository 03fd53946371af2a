"""End-to-end CLI tests: exit codes, config merging, deterministic artifacts."""
from __future__ import annotations

import csv
import io
import json
import os
import re
import shlex
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchkit import cli
from exchkit.cli import MIXING_CSV_HEADER, main
from exchkit.config import (REQUIRED, SETTINGS, ScenarioConfig, SpecParseError, atomic_write_text, parse_events,
                            parse_generator, parse_space)
from exchkit.empirical import slln_exchangeable_check
from exchkit.processes import ProcessGenerator

runner = CliRunner()


def stable_lines(text: str) -> str:
    # Drop the two volatile report lines; everything else must be stable.
    return "\n".join(
        line
        for line in text.splitlines()
        if '"timestamp"' not in line and '"wall_clock_s"' not in line
    )


def run_cli(*args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------- simulate


def test_simulate_writes_json_and_csv(tmp_path):
    res = run_cli(
        "simulate", "--gen", "iid:bern:1/2", "--n", "20", "--paths", "3",
        "--seed", "7", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    assert "simulate: PASS" in res.output
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "simulate"
    assert doc["passed"] is True
    assert doc["seeds"] == ["7:0", "7:1", "7:2"]
    assert doc["results"]["rows_written"] == 60
    csv_lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert csv_lines[0] == "seed,step,value"
    assert len(csv_lines) == 61
    first = csv_lines[1].split(",")
    assert first[0] == "7:0" and first[1] == "1" and first[2] in ("0", "1")


def test_simulate_reruns_byte_identically(tmp_path):
    args = (
        "simulate", "--gen", "polya:1,1", "--n", "50", "--paths", "4",
        "--seed", "11", "--out-dir", str(tmp_path),
    )
    run_cli(*args)
    json_a = (tmp_path / "simulate.json").read_text()
    csv_a = (tmp_path / "simulate.csv").read_text()
    run_cli(*args)
    json_b = (tmp_path / "simulate.json").read_text()
    csv_b = (tmp_path / "simulate.csv").read_text()
    assert csv_a == csv_b
    assert stable_lines(json_a) == stable_lines(json_b)


def csv_module_text(header, rows) -> str:
    """The reference CSV: the csv module writing the header and each row's
    fields as strings, None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if c is None else str(c) for c in row])
    return buf.getvalue()


def read_csv(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


SIMULATE_GENS = [
    "iid:bern:1/3",  # finite(2)
    "iid:uniform:5",  # finite(5)
    "mixture:grid(1/40,1/2):geom",  # countable, cells past 9 and 99
    "polya:2,1",
    "markov:1/4,3/4",
    "iid:uniform:12",  # finite(12), cells 10 and 11 take two digits
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIMULATE_GENS), st.integers(1, 80), st.integers(1, 4), st.integers(0, 2**64 - 1))
@example("mixture:grid(1/40,1/2):geom", 80, 3, 0)
@example("iid:uniform:12", 1, 3, 0)  # one row per path
@example("polya:2,1", 20, 12, 5)  # seed labels 5:0 .. 5:11 go from one digit to two
def test_simulate_lines_equal_the_csv_module(spec, n, paths, seed):
    """The prebuilt simulate lines against csv.writer over (label, step,
    value) tuples, byte for byte."""
    gen = parse_generator(spec)
    rows = []
    for i in range(paths):
        path = gen.sample_path(n, seed, path_index=i)
        rows.extend((path.seed_label, step, int(v)) for step, v in enumerate(path.observations, start=1))
    with tempfile.TemporaryDirectory() as out:
        res = run_cli("simulate", "--gen", spec, "--n", str(n), "--paths", str(paths), "--seed", str(seed),
                      "--out-dir", out)
        assert res.exit_code == 0
        assert read_csv(os.path.join(out, "simulate.csv")) == csv_module_text(("seed", "step", "value"), rows)
        assert json.loads(read_csv(os.path.join(out, "simulate.json")))["results"]["rows_written"] == n * paths


ROW_COUNT_RUNS = {
    # 12 paths, so the seed labels go from one digit to two
    "simulate": (("--gen", "polya:2,1", "--n", "30", "--paths", "12", "--seed", "7"), 30 * 12),
    # 4 paths x 3 grid points x 2 events; the scenario label holds a quoted comma
    "estimate-mixing": (("--gen", "mixture:grid(1/4,1/2):geom", "--events", "cells:0;not:0",
                         "--n-grid", "10,100,500", "--paths", "4", "--seed", "5"), 4 * 3 * 2),
}


@pytest.mark.parametrize("command", sorted(ROW_COUNT_RUNS))
def test_report_row_count_is_the_csv_data_line_count(tmp_path, monkeypatch, command):
    """``len(report.csv_rows)``, the count a caller of ``emit_report`` reads,
    is the number of data rows: the CSV's lines after the header and, for
    simulate, the report's ``rows_written``."""
    args, rows = ROW_COUNT_RUNS[command]
    reports = []
    emit_report = cli.emit_report

    def capture(report, *rest):
        reports.append(report)
        emit_report(report, *rest)

    monkeypatch.setattr("exchkit.cli.emit_report", capture)
    assert run_cli(command, *args, "--out-dir", str(tmp_path)).exit_code == 0
    assert len(reports) == 2 and reports[0] is reports[1]
    data_lines = read_csv(tmp_path / f"{command}.csv").count("\n") - 1
    assert len(reports[0].csv_rows) == rows == data_lines
    if command == "simulate":
        assert json.loads(read_csv(tmp_path / "simulate.json"))["results"]["rows_written"] == rows


def test_simulate_holds_about_its_csv_bytes(tmp_path):
    """The traced peak of a simulate run stays within 4x the bytes of the CSV
    it writes: each path's lines are one text block, and the report's text
    and its encoding are the other two copies. One string per row read
    8.6x here."""
    args = ("simulate", "--gen", "polya:2,1", "--n", "10000", "--paths", "50", "--seed", "7",
            "--out-dir", str(tmp_path))
    # a first run keeps imports and first-call set-up out of the trace
    assert run_cli(*args).exit_code == 0
    tracemalloc.start()
    try:
        res = run_cli(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0
    assert peak <= 4 * os.path.getsize(tmp_path / "simulate.csv")


WRITE_TEXTS = {
    "ascii": "0:1,12345,1\n" * 487_500,  # 5.85 MB
    "multibyte": "é,ß,∞\n" * 300_000 + "x",  # slices end inside runs of 2- and 3-byte characters
}


@pytest.mark.parametrize("kind", sorted(WRITE_TEXTS))
def test_atomic_write_text_writes_in_slices(tmp_path, kind):
    """The text is written a slice at a time, and the file holds its UTF-8
    bytes. The 5.85 MB ASCII text peaked at 5.85 MB of traced allocations
    when it was written whole."""
    text, path = WRITE_TEXTS[kind], tmp_path / "out.csv"
    tracemalloc.start()
    try:
        atomic_write_text(str(path), text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == text.encode("utf-8")
    if kind == "ascii":
        assert peak < 2.5e6, f"peak {peak / 1e6:.2f} MB"


def test_json_and_csv_flags_name_the_artifacts(tmp_path):
    res = run_cli(
        "simulate", "--gen", "iid:bern:1/2", "--n", "4", "--paths", "1", "--seed", "0",
        "--json", "run.json", "--csv", "rows.csv", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["config"]["json"] == "run.json"
    assert doc["config"]["csv"] == "rows.csv"
    assert (tmp_path / "rows.csv").read_text().startswith("seed,step,value")


def test_report_keeps_volatile_fields_on_final_lines(tmp_path):
    run_cli(
        "simulate", "--gen", "iid:bern:1/2", "--n", "5", "--paths", "1",
        "--seed", "0", "--out-dir", str(tmp_path),
    )
    lines = (tmp_path / "simulate.json").read_text().splitlines()
    assert '"timestamp"' in lines[-3]
    assert '"wall_clock_s"' in lines[-2]
    assert lines[-1] == "}"


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize("args, kind", [
    (("simulate", "--gen", "zeta:9", "--n", "5", "--seed", "0"), "generator"),
    # a space is finite:<k> or countable; dyadic:<level> is not a form
    (("radon-classify", "--space", "dyadic:3", "--measure", "uniform"), "space"),
], ids=["generator", "space"])
def test_exit_code_two_on_an_unknown_spec(tmp_path, args, kind):
    res = run_cli(*args, "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert f"unknown {kind} spec" in res.stderr


def test_exit_code_two_when_seed_is_missing(tmp_path):
    res = run_cli(
        "simulate", "--gen", "iid:bern:1/2", "--n", "5", "--out-dir", str(tmp_path)
    )
    assert res.exit_code == 2
    assert "missing required settings: seed" in res.stderr


def test_exit_code_three_on_missing_config_file(tmp_path):
    res = run_cli(
        "simulate", "--config", str(tmp_path / "absent.conf"), "--seed", "0"
    )
    assert res.exit_code == 3
    assert "i/o error" in res.stderr


def test_exit_code_one_on_failed_check(tmp_path):
    # Markov control with a delta start: fails exchangeability at n = 2.
    res = run_cli(
        "check-exchangeable", "--gen", "markov:3/4,3/4", "--n", "2",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 1
    assert "exchangeable=False" in res.output
    assert "check-exchangeable: FAIL" in res.output
    doc = json.loads((tmp_path / "check-exchangeable.json").read_text())
    assert doc["passed"] is False


# a small run of each command whose verdict judges frequencies against their bands
BAND_COMMANDS = {
    "verify-rcd": ("--gen", "mixture:grid(1/4,3/4):bern", "--steps", "50"),
    "estimate-mixing": ("--gen", "mixture:grid(1/4,3/4):bern", "--n-grid", "10,50"),
    "construct-rcd": ("--gen", "mixture:grid(1/4,3/4):bern", "--n-grid", "10,50"),
}


def run_with_tol(tmp_path, command, value):
    return run_cli(command, *BAND_COMMANDS[command], "--events", "cells:1", "--paths", "2",
                   "--seed", "0", "--tol", value, "--out-dir", str(tmp_path))


# every frequency is judged against the band its target and n give, so no
# --tol value, finite or not, can replace that band: the flag is unknown


@pytest.mark.parametrize("command", sorted(BAND_COMMANDS))
def test_exit_code_two_on_infinite_tol(tmp_path, command):
    res = run_with_tol(tmp_path, command, "inf")
    assert res.exit_code == 2
    assert "No such option '--tol'" in res.stderr
    assert not list(tmp_path.iterdir())


def test_exit_code_two_on_nan_tol(tmp_path):
    res = run_with_tol(tmp_path, "verify-rcd", "nan")
    assert res.exit_code == 2
    assert "No such option '--tol'" in res.stderr
    assert not list(tmp_path.iterdir())


def test_exit_code_two_on_negative_tol(tmp_path):
    res = run_with_tol(tmp_path, "estimate-mixing", "-1")
    assert res.exit_code == 2
    assert "No such option '--tol'" in res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(BAND_COMMANDS))
def test_the_tol_config_key_is_gone(tmp_path, command):
    conf = tmp_path / "run.conf"
    conf.write_text("tol = 0.05\n")
    res = run_cli(command, *BAND_COMMANDS[command], "--events", "cells:1", "--paths", "2",
                  "--seed", "0", "--config", str(conf), "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert f"unknown config keys for {command}: tol" in res.stderr
    assert list(tmp_path.iterdir()) == [conf]


# every Monte Carlo verdict requires DEFAULT_COVERAGE of the paths; no flag or
# key can lower it, so --coverage is an unknown option and coverage an
# unknown key


def test_exit_code_two_on_coverage_outside_the_unit_interval(tmp_path):
    res = run_cli("verify-rcd", *BAND_COMMANDS["verify-rcd"], "--events", "cells:1",
                  "--seed", "0", "--coverage", "1.5", "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert "No such option '--coverage'" in res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(BAND_COMMANDS))
def test_the_coverage_config_key_is_gone(tmp_path, command):
    conf = tmp_path / "run.conf"
    conf.write_text("coverage = 0.9\n")
    res = run_cli(command, *BAND_COMMANDS[command], "--events", "cells:1", "--paths", "2",
                  "--seed", "0", "--config", str(conf), "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert f"unknown config keys for {command}: coverage" in res.stderr
    assert list(tmp_path.iterdir()) == [conf]


def test_exit_code_two_on_seed_past_64_bits(tmp_path):
    res = run_cli("simulate", "--gen", "iid:bern:1/2", "--n", "5",
                  "--seed", "100000000000000000000000", "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert "seed must lie in [0, 2**64)" in res.stderr


@pytest.mark.parametrize("args", [
    # was exit 0, every row -9223372036854775808
    ("simulate", "--gen", "iid:geom:1e-400", "--n", "5", "--paths", "1"),
    # was exit 4, a TypeError on a cell past int64
    ("estimate-mixing", "--gen", "iid:geom:1e-400", "--events", "cells:0", "--n-grid", "10", "--paths", "2"),
    # was exit 2 on a negative cell count
    ("estimate-mixing", "--gen", "mixture:grid(1e-400,1/2):geom", "--events", "cells:0", "--n-grid", "10",
     "--paths", "4"),
], ids=["simulate", "estimate-mixing iid", "estimate-mixing grid"])
def test_exit_code_two_on_a_geometric_ratio_whose_draws_pass_int64(tmp_path, args):
    # float(1e-400) is 0.0: log1p(-q) = 0, so every draw would be past 2**63 - 1
    res = run_cli(*args, "--seed", "0", "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert "geometric ratio 0 (as a double) draws cells past the int64 range" in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_exit_code_four_on_internal_error(tmp_path, monkeypatch):
    # an unexpected exception is a crash (4), never a failed check (1)
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("exchkit.cli.check_exchangeable", crash)
    res = run_cli("check-exchangeable", "--gen", "polya:2,1", "--n", "3", "--out-dir", str(tmp_path))
    assert res.exit_code == 4
    assert "internal error: RuntimeError: boom" in res.stderr


def test_exit_code_four_on_a_report_value_that_is_not_plain_json(tmp_path, monkeypatch):
    # results reach the report through report_value alone; a Fraction left
    # in them is a bug, not text for a JSON fallback to make
    class Unrendered:
        exchangeable = True
        max_discrepancy = Fraction(0)

        def to_dict(self):
            return {"max_discrepancy": self.max_discrepancy}

    monkeypatch.setattr("exchkit.cli.check_exchangeable", lambda gen, n: Unrendered())
    res = run_cli("check-exchangeable", "--gen", "polya:2,1", "--n", "3", "--out-dir", str(tmp_path))
    assert res.exit_code == 4
    assert "internal error: TypeError" in res.stderr
    assert not (tmp_path / "check-exchangeable.json").exists()


def test_check_exchangeable_passes_on_urn(tmp_path):
    res = run_cli(
        "check-exchangeable", "--gen", "polya:2,1", "--n", "3",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    assert "exchangeable=True" in res.output


def test_check_exchangeable_passes_on_a_rational_beta(tmp_path):
    # a Beta law is exact for every positive rational shape, not only integers
    res = run_cli("check-exchangeable", "--gen", "mixture:beta(1/2,1/2):bern", "--n", "3", "--out-dir", str(tmp_path))
    assert res.exit_code == 0
    assert "exchangeable=True" in res.output


def test_exit_code_two_when_the_oracle_work_exceeds_its_cap(tmp_path):
    # 12! * 2**12 ~ 2e12 (permutation, pattern) steps: refused before enumerating
    res = run_cli(
        "check-exchangeable", "--gen", "polya:1,1", "--n", "12",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "oracle cap" in res.stderr
    assert list(tmp_path.iterdir()) == []


# one draw past the cap on each Monte Carlo command: paths x path length
DRAW_CAP_RUNS = {
    "simulate": ("--n", "1000001", "--paths", "100"),
    "verify-rcd": ("--events", "cells:1", "--steps", "1000001", "--paths", "100"),
    "estimate-mixing": ("--events", "cells:1", "--n-grid", "10,1000001", "--paths", "100"),
    "construct-rcd": ("--events", "cells:1", "--n-grid", "10,1000001", "--paths", "100"),
}


@pytest.mark.parametrize("command", sorted(DRAW_CAP_RUNS))
def test_exit_code_two_past_the_monte_carlo_draw_cap(tmp_path, monkeypatch, command):
    sampled = []
    monkeypatch.setattr(ProcessGenerator, "sample_blocks", lambda self, *a, **kw: sampled.append(1))
    res = run_cli(command, "--gen", "mixture:grid(1/4,3/4):bern", *DRAW_CAP_RUNS[command],
                  "--seed", "0", "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert "100 paths of length 1000001 exceed the cap of 100000000 Monte Carlo draws" in res.stderr
    assert sampled == [] and list(tmp_path.iterdir()) == []


def test_the_draw_cap_admits_exactly_its_draws():
    raw = {"gen": "polya:1,1", "n": "1000000", "paths": "100", "seed": "0"}
    assert ScenarioConfig.from_strings(raw).n_paths == 100
    with pytest.raises(SpecParseError, match="101 paths of length 1000000"):
        ScenarioConfig.from_strings({**raw, "paths": "101"})


# the commands that write a CSV table next to their JSON report
CSV_COMMANDS = {"simulate", "estimate-mixing"}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_each_option_is_a_setting_or_an_output(command):
    # a setting added to the options but not to its SETTINGS row (or the
    # reverse) would lose its default or its required check
    outputs = {"json", "out_dir", "config_path"} | ({"csv"} if command in CSV_COMMANDS else set())
    assert {p.name for p in main.commands[command].params} == set(SETTINGS[command]) | outputs


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_help_states_each_setting_default_or_required(command):
    res = run_cli(command, "--help")
    assert res.exit_code == 0
    # click wraps the help; each option's entry runs up to the next flag
    entries = {e.split()[0]: e for e in " ".join(res.output.split()).split(" --")[1:]}
    for key, default in SETTINGS[command].items():
        note = "required" if default is None else f"default {default}"
        assert entries[key.replace("_", "-")].endswith(f"({note})")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_settings_table_is_the_settings_rows():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | required | defaults |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, required, defaults = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = (
            re.findall(r"`(\w+)`", required),
            {key: value.strip() for key, value in re.findall(r"`(\w+)` = ([^;]+)", defaults)},
        )
    assert table == {
        command: ([k for k, v in row.items() if v is REQUIRED], {k: v for k, v in row.items() if v is not REQUIRED})
        for command, row in SETTINGS.items()
    }


def readme_commands() -> list[list[str]]:
    """The arguments of each ``exchkit`` line of the README's Examples block,
    then of the urn example in the prose after it."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("exchkit ")]
    prose = re.search(r"`(exchkit estimate-mixing\s+--gen polya:2,1[^`]*)`", text).group(1)
    return [shlex.split(line)[1:] for line in [*lines, prose]]


def test_the_readme_examples_run_as_documented(tmp_path):
    # a README that still names a removed flag or key fails here
    commands = readme_commands()
    assert [args[0] for args in commands] == ["simulate", "check-exchangeable", "estimate-mixing", "construct-rcd",
                                              "radon-classify", "estimate-mixing"]
    outputs = []
    for i, args in enumerate(commands):
        res = runner.invoke(main, args, env={"EXCHKIT_OUT_DIR": str(tmp_path / str(i))}, catch_exceptions=False)
        assert res.exit_code < 2, (args, res.stderr)
        outputs.append(res)
    assert "tight=True outer_regular=True radon=True" in outputs[4].output
    witnesses = json.loads((tmp_path / "4" / "radon-classify.json").read_text())["results"]["tight_witnesses"]
    assert witnesses[0] == {"eps": "1/2", "segment_length": 69}
    assert witnesses[-1] == {"eps": "1/1024", "segment_length": 690}
    # the urn has no latent kernel: an informational pass
    assert outputs[5].exit_code == 0 and "estimate-mixing: PASS" in outputs[5].output


def test_the_readme_library_block_runs():
    # its asserts are the documented results
    block = README.read_text(encoding="utf-8").split("## Library at a glance\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "df_product_identity_exact" in block
    exec(compile(block, "README.md", "exec"), {})


def test_every_space_form_in_the_readme_grammar_parses():
    line = next(line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("- space:"))
    forms = re.findall(r"`([^`]+)`", line)
    assert forms
    for form in forms:
        parse_space(re.sub(r"<\w+>", "2", form))


# one value per setting; every length setting holds `length`, with 100 paths
def settings_with_length(command, length):
    values = {"gen": "mixture:grid(1/4,3/4):bern", "events": "cells:1", "seed": "0", "paths": "100",
              "space": "countable", "measure": "geometric:1/2",
              "n": str(length), "steps": str(length), "n_grid": f"10,{length}"}
    return {key: values[key] for key in SETTINGS[command]}


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_the_draw_cap_binds_exactly_the_commands_with_paths(command):
    # 100 paths of 10**6 draws reach the cap of 10**8; a length past the
    # cap on its own binds no command without paths
    assert ScenarioConfig.from_strings(settings_with_length(command, 10**6))
    if "paths" not in SETTINGS[command]:
        assert ScenarioConfig.from_strings(settings_with_length(command, 10**8 + 1))
        return
    with pytest.raises(SpecParseError, match="100 paths of length 1000001 exceed the cap"):
        ScenarioConfig.from_strings(settings_with_length(command, 10**6 + 1))


@pytest.mark.parametrize("args", [
    ("radon-classify", "--space", "finite:100000000", "--measure", "uniform"),
    ("radon-classify", "--space", "finite:65537", "--measure", "uniform"),
    ("check-exchangeable", "--gen", "iid:uniform:100000000", "--n", "1"),
])
def test_exit_code_two_on_a_uniform_law_past_the_cell_cap(tmp_path, args):
    # refused before one Fraction per cell is built, not after minutes
    started = time.monotonic()
    res = run_cli(*args, "--out-dir", str(tmp_path))
    assert time.monotonic() - started < 1
    assert res.exit_code == 2
    assert "cells exceeds the cap of 65536 cells" in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_the_oracle_bound_setting_is_gone(tmp_path):
    res = run_cli(
        "check-exchangeable", "--gen", "polya:1,1", "--n", "3", "--bound", "6",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "--bound" in res.stderr
    conf = tmp_path / "run.conf"
    conf.write_text("gen = polya:1,1\nn = 3\nbound = 6\n")
    res = run_cli("check-exchangeable", "--config", str(conf), "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert "unknown config keys for check-exchangeable: bound" in res.stderr


def test_failed_parse_leaves_no_artifacts(tmp_path):
    run_cli("simulate", "--gen", "zeta:9", "--n", "5", "--seed", "0", "--out-dir", str(tmp_path))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- config files


def test_config_file_supplies_settings(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# scenario\n"
        "gen = iid:bern:1/3\n"
        "n = 8\n"
        "seed = 5\n"
        f"out_dir = {tmp_path}\n"
    )
    res = run_cli("simulate", "--config", str(conf))
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["config"]["gen"] == "iid:bern:1/3"
    assert doc["config"]["n"] == "8"


def test_flags_override_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(f"gen = iid:bern:1/3\nn = 8\nseed = 5\nout_dir = {tmp_path}\n")
    res = run_cli("simulate", "--config", str(conf), "--n", "3")
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["config"]["n"] == "3"
    assert doc["results"]["n"] == 3


# for each numeric setting, a command that takes it and the other settings of a small run
NUMERIC_SETTING_RUNS = {
    "n": ("simulate", {"gen": "iid:bern:1/2", "paths": "1", "seed": "0"}),
    "paths": ("simulate", {"gen": "iid:bern:1/2", "n": "2", "seed": "0"}),
    "seed": ("simulate", {"gen": "iid:bern:1/2", "n": "2", "paths": "1"}),
    "steps": ("verify-rcd", {"gen": "mixture:grid(1/4,3/4):bern", "events": "cells:1", "paths": "2", "seed": "0"}),
    "n_grid": ("estimate-mixing", {"gen": "mixture:grid(1/4,3/4):bern", "events": "cells:1", "paths": "2",
                                   "seed": "0"}),
}


@pytest.mark.parametrize("key", sorted(NUMERIC_SETTING_RUNS))
def test_a_flag_and_a_config_line_read_alike(tmp_path, key):
    # config is the one parser of either source: 03 echoes as typed, and a
    # bad value gets the same message and exit code from both
    command, others = NUMERIC_SETTING_RUNS[key]
    flags = [arg for k, v in others.items() for arg in (f"--{k.replace('_', '-')}", v)]

    def run(source, value):
        out = tmp_path / source / value
        if source == "flag":
            return out, run_cli(command, *flags, f"--{key.replace('_', '-')}", value, "--out-dir", str(out))
        conf = tmp_path / f"{source}-{value}.conf"
        conf.write_text(f"{key} = {value}\n")
        return out, run_cli(command, *flags, "--config", str(conf), "--out-dir", str(out))

    for source in ("flag", "file"):
        out, res = run(source, "03")
        assert res.exit_code < 2, res.stderr
        assert json.loads((out / f"{command}.json").read_text())["config"][key] == "03"
    (flag_out, flag), (file_out, file) = run("flag", "x"), run("file", "x")
    assert flag.exit_code == file.exit_code == 2
    assert flag.stderr == file.stderr and flag.stderr.startswith("error: expected an integer")
    assert not flag_out.exists() and not file_out.exists()


def test_unknown_config_key_is_rejected(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("gen = polya:1,1\nn = 3\nseed = 0\nspeed = 11\n")
    res = run_cli("simulate", "--config", str(conf))
    assert res.exit_code == 2
    assert "unknown config keys" in res.stderr
    assert "speed" in res.stderr


@pytest.mark.parametrize(
    "command, foreign",
    [
        ("simulate", "events"),
        ("check-exchangeable", "seed"),
        ("estimate-mixing", "steps"),
        ("verify-rcd", "n_grid"),
        ("construct-rcd", "csv"),
        ("radon-classify", "gen"),
    ],
)
def test_unknown_config_key_is_rejected_per_command(tmp_path, command, foreign):
    # a key that another command accepts is still unknown to this one
    conf = tmp_path / "run.conf"
    conf.write_text(f"{foreign} = 1\n")
    res = run_cli(command, "--config", str(conf), "--out-dir", str(tmp_path))
    assert res.exit_code == 2
    assert f"unknown config keys for {command}: {foreign}" in res.stderr
    assert list(tmp_path.iterdir()) == [conf]


def test_report_config_block_reproduces_the_run(tmp_path):
    dir_a = tmp_path / "a"
    res = run_cli(
        "simulate", "--gen", "polya:2,3", "--n", "12", "--paths", "2",
        "--seed", "9", "--out-dir", str(dir_a),
    )
    assert res.exit_code == 0
    json_a = (dir_a / "simulate.json").read_text()
    echoed = json.loads(json_a)["config"]
    conf = tmp_path / "replay.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in echoed.items()))
    res2 = run_cli("simulate", "--config", str(conf))
    assert res2.exit_code == 0
    json_b = (dir_a / "simulate.json").read_text()
    assert stable_lines(json_a) == stable_lines(json_b)


def test_out_dir_env_var_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("EXCHKIT_OUT_DIR", str(tmp_path))
    res = run_cli("simulate", "--gen", "iid:bern:1/2", "--n", "4", "--paths", "1", "--seed", "1")
    assert res.exit_code == 0
    assert (tmp_path / "simulate.json").exists()
    assert (tmp_path / "simulate.csv").exists()


# ---------------------------------------------------------------- estimate-mixing


def test_estimate_mixing_csv_table(tmp_path):
    res = run_cli(
        "estimate-mixing", "--gen", "mixture:grid(1/4,3/4):bern",
        "--events", "cells:1", "--n-grid", "10,100,1000", "--paths", "5",
        "--seed", "3", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    lines = (tmp_path / "estimate-mixing.csv").read_text().splitlines()
    assert lines[0] == ",".join(MIXING_CSV_HEADER)
    assert len(lines) == 1 + 5 * 3
    doc = json.loads((tmp_path / "estimate-mixing.json").read_text())
    assert doc["results"]["events"][0]["passed"] is True


def test_estimate_mixing_samples_each_path_once_for_all_events(tmp_path, monkeypatch):
    """Three events share one sampling of the paths; the report and CSV equal
    the three single-event runs joined, and the scenario label, which holds
    a comma, stays quoted."""
    spec, events = "mixture:grid(1/4,1/2):geom", ["cells:0", "cells:1,2", "not:0"]
    args = ["--gen", spec, "--n-grid", "10,100,500", "--paths", "6", "--seed", "5"]
    sampled = []
    sample_blocks = ProcessGenerator.sample_blocks

    def counting(self, n, master_seed, paths):
        sampled.extend(paths)
        return sample_blocks(self, n, master_seed, paths)

    monkeypatch.setattr(ProcessGenerator, "sample_blocks", counting)
    res = run_cli("estimate-mixing", *args, "--events", ";".join(events), "--out-dir", str(tmp_path / "all"))
    assert res.exit_code == 0 and sampled == list(range(6))
    joint_doc = json.loads((tmp_path / "all" / "estimate-mixing.json").read_text())
    joint_csv = read_csv(tmp_path / "all" / "estimate-mixing.csv")

    docs, bodies = [], []
    for k, ev in enumerate(events):
        assert run_cli("estimate-mixing", *args, "--events", ev, "--out-dir", str(tmp_path / str(k))).exit_code == 0
        docs.extend(json.loads((tmp_path / str(k) / "estimate-mixing.json").read_text())["results"]["events"])
        bodies.append(read_csv(tmp_path / str(k) / "estimate-mixing.csv").split("\n", 1)[1])
    assert len(sampled) == 6 + 3 * 6
    assert joint_doc["results"]["events"] == docs
    assert joint_csv == ",".join(MIXING_CSV_HEADER) + "\n" + "".join(bodies)

    gen = parse_generator(spec)
    rows = [
        row
        for ev in parse_events(gen.space, ";".join(events))
        for row in slln_exchangeable_check(gen, ev, n_grid=(10, 100, 500), n_paths=6, master_seed=5).rows()
    ]
    assert joint_csv == csv_module_text(MIXING_CSV_HEADER, rows)
    assert joint_csv.count('\n"mixture(grid=1/4,1/2)",5:') == 3 * 6 * 3


def test_estimate_mixing_urn_is_informational_pass(tmp_path):
    # No per-path latent target: the run reports but cannot fail.
    res = run_cli(
        "estimate-mixing", "--gen", "polya:1,1", "--events", "cells:1",
        "--n-grid", "10,100", "--paths", "4", "--seed", "0",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "estimate-mixing.json").read_text())
    assert doc["results"]["events"][0]["passed"] is None


def test_estimate_mixing_rejects_markov_control(tmp_path):
    res = run_cli(
        "estimate-mixing", "--gen", "markov:3/4,3/4", "--events", "cells:1",
        "--paths", "4", "--seed", "0", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "not exchangeable" in res.stderr


# ---------------------------------------------------------------- verify-rcd


def test_verify_rcd_grid_mixture(tmp_path):
    res = run_cli(
        "verify-rcd", "--gen", "mixture:grid(1/4,3/4):bern",
        "--events", "cells:1;cells:0", "--paths", "20", "--steps", "2000",
        "--seed", "2", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "verify-rcd.json").read_text())
    assert doc["passed"] is True


def test_verify_rcd_requires_latent_kernel(tmp_path):
    res = run_cli(
        "verify-rcd", "--gen", "polya:1,1", "--events", "cells:1",
        "--paths", "4", "--seed", "0", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "no latent kernel" in res.stderr


# ---------------------------------------------------------------- construct-rcd


def test_construct_rcd_uses_tail_dense_default_grid(tmp_path):
    res = run_cli(
        "construct-rcd", "--gen", "polya:1,1", "--events", "cells:1",
        "--paths", "4", "--seed", "0", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    assert "pass_fraction=" in res.output
    doc = json.loads((tmp_path / "construct-rcd.json").read_text())
    assert doc["config"]["n_grid"] == "100,1000,4000,6000,8000,10000"
    assert doc["passed"] is True


# ---------------------------------------------------------------- radon-classify


def test_radon_classify_geometric(tmp_path):
    res = run_cli(
        "radon-classify", "--space", "countable", "--measure", "geometric:1/2",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    assert "tight=True" in res.output
    doc = json.loads((tmp_path / "radon-classify.json").read_text())
    assert doc["passed"] is True
    assert doc["results"]["radon"] is True


def test_radon_classify_report_stays_small(tmp_path):
    # one segment length per epsilon and one line of reason for outer
    # regularity; a table of (compact, eps, witness) triples was 168 KB
    res = run_cli(
        "radon-classify", "--space", "countable", "--measure", "geometric:1/2",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    assert (tmp_path / "radon-classify.json").stat().st_size < 4096


def test_radon_classify_slow_geometric_is_radon(tmp_path):
    # (99/100)**64 ~ 0.53 lies past the 64 default segments, but not past 690 cells
    res = run_cli(
        "radon-classify", "--space", "countable", "--measure", "geometric:1/100",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 0
    results = json.loads((tmp_path / "radon-classify.json").read_text())["results"]
    assert results["radon"] is True
    assert results["tight_witnesses"][-1] == {"eps": "1/1024", "segment_length": 690}


def test_radon_classify_refuses_a_law_past_the_exact_cap(tmp_path):
    # Geom(1/100000) needs 69,315 cells at eps = 1/2; its exact masses stop at cell 60,205
    res = run_cli(
        "radon-classify", "--space", "countable", "--measure", "geometric:1/100000",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "eps = 1/2" in res.stderr and "cell 60205" in res.stderr


def test_radon_classify_refuses_a_subnormal_ratio_past_the_exact_cap(tmp_path):
    # float(q) = 1e-310 is subnormal: the closed-form start overflows every
    # float, so the search starts at the last exact cell and is refused there
    res = run_cli(
        "radon-classify", "--space", "countable", "--measure", "geometric:1e-310",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "eps = 1/2" in res.stderr and "past cell" in res.stderr


def test_radon_classify_rejects_subprobability_weights(tmp_path):
    res = run_cli(
        "radon-classify", "--space", "finite:2", "--measure", "weights:1/2,1/4",
        "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "invalid measure" in res.stderr


def test_radon_classify_names_the_space_as_typed(tmp_path):
    res = run_cli(
        "radon-classify", "--space", "finite:2", "--measure", "delta:5", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "invalid measure 'delta:5': cell index 5 invalid for finite:2" in res.stderr


# ---------------------------------------------------------------- spec round-trips


@pytest.mark.parametrize(
    "spec",
    ["iid:bern:1/2", "polya:3,1", "mixture:beta(2,2):bern", "mixture:grid(1/4,1/2):bern", "markov:1/4,3/4"],
)
def test_generator_specs_echo_verbatim(tmp_path, spec):
    res = run_cli(
        "check-exchangeable", "--gen", spec, "--n", "2", "--out-dir", str(tmp_path)
    )
    assert res.exit_code in (0, 1)
    doc = json.loads((tmp_path / "check-exchangeable.json").read_text())
    assert doc["config"]["gen"] == spec


def test_cli_leaves_no_temp_files(tmp_path):
    run_cli(
        "simulate", "--gen", "iid:bern:1/2", "--n", "5", "--paths", "1",
        "--seed", "0", "--out-dir", str(tmp_path),
    )
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".exchkit-tmp-")]
    assert leftovers == []


def test_far_cell_of_an_exact_geometric_law_exits_2(tmp_path):
    """The exact mass of cell 10**11 under Geom(1/2) is a Fraction of about
    10**11 bits; it is refused at once instead of computed."""
    res = run_cli(
        "construct-rcd", "--gen", "iid:geom:1/2", "--events", "cells:100000000000;not:0,100000000000",
        "--n-grid", "50,200,1000", "--paths", "5", "--seed", "0", "--out-dir", str(tmp_path),
    )
    assert res.exit_code == 2
    assert "cell 100000000000" in res.stderr
