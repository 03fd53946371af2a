"""Kernel images, product-cylinder masses, and the frequency-level verifier."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchkit import (
    BetaBernoulliProcess,
    EventSet,
    IIDProcess,
    PolyaUrnProcess,
    ProbMeasure,
    construct_rcd_from_empiricals,
    countable,
    df_product_identity_check,
    finite,
    markov_bound_check,
    parse_generator,
    uniform_smallness_check,
)
from exchkit.config import SpecParseError, parse_grid
from exchkit.processes import ProcessGenerator
from exchkit.empirical import slln_exchangeable_checks
from exchkit.kernels import (
    _TALLY_CELLS,
    CylinderEvent,
    MarkovKernel,
    _block_counter,
    _cell_index,
    _columns,
    _count_table,
    _frequencies,
    _masses,
    _sampled_paths,
    _validate_grid,
    bernoulli_kernel,
    constant_kernel,
    geometric_kernel,
    indicator_array,
    kernel_mass,
    product_cylinder_mass,
    verify_rcd,
)
from exchkit.rng import _DRAW_BLOCK

F = Fraction


def test_bernoulli_kernel_image():
    kappa = bernoulli_kernel(finite(2))
    mu = kappa.measure(F(1, 3))
    assert mu.atom_mass(0) == F(2, 3)
    assert mu.atom_mass(1) == F(1, 3)


def test_geometric_kernel_image():
    kappa = geometric_kernel(countable())
    assert kappa.measure(F(1, 2)).atom_mass(0) == F(1, 2)


def test_kernel_validates_images():
    with pytest.raises(ValueError):
        bernoulli_kernel(finite(2)).measure(F(3, 2))


def test_kernel_image_space_checked():
    bad = MarkovKernel(finite(3), lambda p: ProbMeasure.bernoulli(finite(2), p))
    with pytest.raises(ValueError):
        bad.measure(F(1, 2))


def test_constant_kernel_ignores_parameter():
    mu = ProbMeasure.uniform(finite(4))
    kappa = constant_kernel(mu)
    assert kappa.measure("anything") is mu
    assert kappa.measure(17) is mu


def test_kernel_mass_shortcut():
    kappa = bernoulli_kernel(finite(2))
    assert kernel_mass(kappa, F(1, 3), EventSet.of(finite(2), [1])) == F(1, 3)


# -- cylinders ----------------------------------------------------------------


def test_cylinder_mass_oracle():
    # Bern(1/3) on ({1}, {0}, {1}): 1/3 * 2/3 * 1/3 = 2/27
    space = finite(2)
    kappa = bernoulli_kernel(space)
    cyl = CylinderEvent(
        (EventSet.of(space, [1]), EventSet.of(space, [0]), EventSet.of(space, [1]))
    )
    assert product_cylinder_mass(kappa, F(1, 3), cyl) == F(2, 27)


def test_cylinder_padding_preserves_mass():
    space = finite(2)
    kappa = bernoulli_kernel(space)
    cyl = CylinderEvent((EventSet.of(space, [1]),))
    for extra in (1, 3, 7):
        padded = CylinderEvent(cyl.events + (EventSet.full(space),) * extra)
        assert product_cylinder_mass(kappa, F(1, 3), padded) == F(1, 3)


def test_cylinder_needs_consistent_spaces():
    with pytest.raises(ValueError):
        CylinderEvent(())
    with pytest.raises(ValueError):
        CylinderEvent((EventSet.full(finite(2)), EventSet.full(finite(3))))


def test_indicator_array_both_representations():
    obs = np.array([0, 3, 1, 3])
    fin = EventSet.of(countable(), [3])
    cof = EventSet.cofinite_of(countable(), [0, 1])
    assert indicator_array(obs, fin).tolist() == [False, True, False, True]
    assert indicator_array(obs, cof).tolist() == [False, True, False, True]


FAR = 10**12


@st.composite
def counting_cases(draw):
    """A path, events on its space (cofinite ones on the countable space), and
    an increasing grid that may stop short of the path's end. On the countable
    space cells and draws reach the bincount's bound and the far cell 10**12,
    so draws land past every named cell and in unnamed far cells."""
    space = draw(st.sampled_from([finite(2), finite(5), countable()]))
    if space.num_cells is None:
        cell = st.one_of(st.integers(0, 7), st.sampled_from([_TALLY_CELLS - 1, _TALLY_CELLS, 70_000, FAR]))
    else:
        cell = st.integers(0, space.num_cells - 1)
    obs = np.array(draw(st.lists(cell, min_size=1, max_size=300)), dtype=np.int64)
    cells = st.frozensets(cell, max_size=4)
    if space.is_countable:
        event = st.builds(EventSet, st.just(space), cells, st.booleans())
    else:
        event = st.builds(EventSet.of, st.just(space), cells)
    events = draw(st.lists(event, min_size=1, max_size=4))
    grid = sorted(draw(st.sets(st.integers(1, len(obs)), min_size=1, max_size=6)))
    return obs, events, grid


@settings(max_examples=200, deadline=None)
@given(counting_cases())
@example((np.array([0, 5, 1, FAR]), [EventSet.full(countable()), EventSet.empty(countable())], [4]))
@example((np.array([3, FAR, 2, 9]), [EventSet.of(countable(), [FAR]), EventSet.cofinite_of(countable(), [1])], [2, 4]))
@example((np.array([0, 1, 1, 0, 1]), [EventSet.of(finite(2), [1]), EventSet.full(finite(2))], [1, 3, 5]))
def test_grid_counts_matches_per_event_cumsum(case):
    obs, events, grid = case
    # the per-event route the count table replaced, kept as the oracle
    idx = np.array(grid) - 1
    oracle = np.array([np.cumsum(indicator_array(obs, ev))[idx] for ev in events]).T
    cols = _columns(events)
    table = _count_table(obs, grid, cols)
    assert table.shape == (len(grid), len(cols) + 1) and table.dtype.kind == "i"
    for p, j in enumerate(cols.tolist()):
        assert np.array_equal(table[:, p], np.cumsum(obs == j)[idx])
    assert not table[:, -1].any()
    cells = _cell_index(events, cols)
    counts = _masses(table, cells, whole=np.array(grid)[:, None])
    assert counts.dtype.kind == "i"
    assert np.array_equal(counts, oracle)
    assert np.array_equal(_frequencies(table, cells, grid), oracle / np.array(grid)[:, None])


def test_grid_counts_rejects_a_grid_past_the_path():
    events = [EventSet.of(finite(2), [1])]
    with pytest.raises(ValueError, match="exceeds the path length"):
        _count_table(np.array([0, 1]), (1, 3), _columns(events))


@st.composite
def counting_blocks(draw):
    """A counting case, its path cut into blocks at random points, and how
    many leading draws to keep."""
    obs, events, grid = draw(counting_cases())
    cuts = sorted(draw(st.sets(st.integers(1, len(obs) - 1), max_size=8))) if len(obs) > 1 else []
    keep = draw(st.integers(0, len(obs)))
    return obs, events, grid, np.split(obs, cuts), keep


@settings(max_examples=200, deadline=None)
@given(counting_blocks())
@example((np.array([0, 1, 1, 0, 1]), [EventSet.of(finite(2), [1])], [2, 3], [np.array([0, 1]), np.array([1, 0, 1])], 3))
@example((np.array([FAR, 0, _TALLY_CELLS]), [EventSet.empty(countable()), EventSet.of(countable(), [FAR])], [1, 3],
          [np.array([FAR]), np.array([0]), np.array([_TALLY_CELLS])], 0))
def test_block_counter_equals_the_one_block_table(case):
    obs, events, grid, blocks, keep = case
    cols = _columns(events)
    table, first = _block_counter(grid, cols)(iter(blocks), keep)
    assert np.array_equal(table, _count_table(obs, grid, cols))
    assert first.dtype == np.int64 and np.array_equal(first, obs[:keep])


def test_block_counter_rejects_a_grid_past_the_blocks():
    count = _block_counter((1, 4), _columns([EventSet.of(finite(2), [1])]))
    with pytest.raises(ValueError, match="exceeds the path length"):
        count([np.array([0, 1]), np.array([1])])


DB = _DRAW_BLOCK


def test_sampled_paths_count_each_block_as_the_whole_path():
    """Grid points on each side of the first two block edges, draws below,
    at and past _TALLY_CELLS and at a far cell, and events that name no cell:
    each path's table, first draws, latent and seed equal those of the whole
    path that sample_path draws."""
    space = countable()
    law = ProbMeasure(space, {0: F(1, 4), 3: F(1, 8), _TALLY_CELLS - 1: F(1, 8), _TALLY_CELLS: F(1, 8),
                              70_000: F(1, 8), FAR: F(1, 4)})
    gen = IIDProcess(law)
    events = [EventSet.of(space, [3, _TALLY_CELLS]), EventSet.cofinite_of(space, [FAR, 0]), EventSet.empty(space),
              EventSet.full(space), EventSet.of(space, [_TALLY_CELLS - 1, 70_000, 5])]
    grid = (1, DB - 1, DB, DB + 1, 2 * DB - 1, 2 * DB, 2 * DB + 1, 2 * DB + 17)
    cols = _columns(events)
    checked, paths = _sampled_paths(gen, events, grid, 2, 9, head=DB + 3)
    assert checked == grid
    for i, (path, table, freqs) in enumerate(paths):
        whole = gen.sample_path(grid[-1], 9, path_index=i)
        assert path.seed == (9, i) and path.latent == whole.latent
        assert np.array_equal(path.observations, whole.observations[:DB + 3])
        assert np.array_equal(table, _count_table(whole.observations, grid, cols))
        assert np.array_equal(freqs, _frequencies(table, _cell_index(events, cols), grid))


# -- the Monte Carlo verifier --------------------------------------------------


def test_verify_rcd_accepts_the_true_kernel():
    gen = BetaBernoulliProcess(1, 1)
    events = [EventSet.of(finite(2), [1]), EventSet.full(finite(2))]
    report = verify_rcd(gen.latent_kernel(), gen, events, n_paths=60, n_steps=4000, master_seed=11)
    assert report.passed
    assert all(r.pass_fraction >= 0.95 for r in report.per_event)


def test_verify_rcd_flags_a_wrong_kernel():
    gen = BetaBernoulliProcess(1, 1)
    wrong = constant_kernel(ProbMeasure.bernoulli(finite(2), F(1, 2)))
    events = [EventSet.of(finite(2), [1])]
    report = verify_rcd(wrong, gen, events, n_paths=60, n_steps=4000, master_seed=11)
    # latent biases are spread over (0,1); a fixed 1/2 target misses most paths
    assert not report.passed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_rcd_rejects_a_kernel_two_bands_off(seed):
    """The true kernel passes and p -> Bern(p + 1/25) fails. 1/25 is about
    two 3-sigma bands at 4000 steps (0.0205 at p = 1/4 and 3/4). Over master
    seeds 0-99, 60 paths each, the true kernel passed 100 times and the
    shifted one 0 times; with every band three times as wide the shifted
    kernel passed 100 times, so this test pins the band's width."""
    gen = parse_generator("mixture:grid(1/4,3/4):bern")
    events = [EventSet.of(finite(2), [1])]
    shifted = MarkovKernel(finite(2), lambda p: ProbMeasure.bernoulli(finite(2), p + F(1, 25)))
    kw = dict(n_paths=60, n_steps=4000, master_seed=seed)
    assert verify_rcd(gen.latent_kernel(), gen, events, **kw).passed
    report = verify_rcd(shifted, gen, events, **kw)
    assert not report.passed
    assert report.per_event[0].pass_fraction <= 1 / 60
    assert set(report.per_event[0].targets) == {0.29, 0.79}


def test_verify_rcd_on_an_event_that_names_no_cell():
    # the whole countable space names no cell: its count table has only the pad
    gen = parse_generator("mixture:grid(1/4,1/2):geom")
    report = verify_rcd(gen.latent_kernel(), gen, [EventSet.full(countable())], n_paths=5, n_steps=100)
    assert report.passed and report.per_event[0].gaps == (0.0,) * 5


def test_verify_rcd_needs_a_realized_latent():
    gen = PolyaUrnProcess(1, 1)
    events = [EventSet.of(finite(2), [1])]
    with pytest.raises(ValueError, match="latent"):
        verify_rcd(bernoulli_kernel(finite(2)), gen, events, n_paths=5, n_steps=10)


def test_verify_rcd_needs_events():
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 2)))
    with pytest.raises(ValueError):
        verify_rcd(gen.latent_kernel(), gen, [], n_paths=5, n_steps=10)


@pytest.mark.parametrize("check", [
    lambda gen: slln_exchangeable_checks(gen, [], n_grid=(10,), n_paths=2),
    lambda gen: verify_rcd(gen.latent_kernel(), gen, [], n_paths=2, n_steps=10),
    lambda gen: construct_rcd_from_empiricals(gen, [], (10, 20), 2),
    lambda gen: uniform_smallness_check(gen, [], [F(1, 4)], (10,), 2),
], ids=["slln_exchangeable_checks", "verify_rcd", "construct_rcd_from_empiricals", "uniform_smallness_check"])
def test_every_monte_carlo_check_refuses_an_empty_event_list(check):
    # one check, in the sampling routine that every Monte Carlo check calls;
    # slln_exchangeable_checks used to return an empty result, checking nothing
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 2)))
    with pytest.raises(ValueError, match="event list must be non-empty"):
        check(gen)


def test_the_grid_rule_refuses_a_non_integer_point():
    # refused, not truncated to 10
    with pytest.raises(ValueError, match="grid points must be integers"):
        _validate_grid((10.7, 100))
    assert _validate_grid([np.int64(10), 100]) == (10, 100)


# every Monte Carlo check, called with its grid (or path length) ``grid``
GRID_CHECKS = {
    "slln_exchangeable_checks": lambda gen, ev, grid: slln_exchangeable_checks(gen, [ev], n_grid=grid, n_paths=2),
    "verify_rcd": lambda gen, ev, grid: verify_rcd(gen.latent_kernel(), gen, [ev], n_paths=2, n_steps=grid[0]),
    "markov_bound_check": lambda gen, ev, grid: markov_bound_check(gen, ev, 1, n_paths=2, n_steps=grid[0]),
    "construct_rcd_from_empiricals": lambda gen, ev, grid: construct_rcd_from_empiricals(gen, [ev], grid, 2),
    "uniform_smallness_check": lambda gen, ev, grid: uniform_smallness_check(gen, [ev], [F(1, 4)], grid, 2),
    "df_product_identity_check": lambda gen, ev, grid: df_product_identity_check(
        gen, CylinderEvent((ev,)), n_grid=grid, n_paths=2),
}


GRID_FAULTS = {
    "non-integer": ((2.5,), "grid points must be integers"),
    "zero": ((0,), "positive lengths"),
    "decreasing": ((20, 10), "strictly increasing"),
}
# the checks that take one path length, not a grid
ONE_LENGTH_CHECKS = {"verify_rcd", "markov_bound_check"}


@pytest.mark.parametrize("check, grid, message", [
    pytest.param(check, *GRID_FAULTS[fault], id=f"{check}-{fault}")
    for fault in GRID_FAULTS for check in sorted(GRID_CHECKS)
    if not (fault == "decreasing" and check in ONE_LENGTH_CHECKS)
])
def test_every_monte_carlo_check_applies_the_grid_rule_at_the_call(monkeypatch, check, grid, message):
    # one rule, in the sampling routine, applied before any path is drawn
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 2)))
    monkeypatch.setattr(ProcessGenerator, "sample_blocks", lambda *a, **kw: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=message):
        GRID_CHECKS[check](gen, EventSet.of(finite(2), [1]), grid)


@pytest.mark.parametrize("text, message", [
    ("100,10", "strictly increasing"),
    ("0,10", "positive lengths"),
    ("10,10", "strictly increasing"),
])
def test_parse_grid_applies_the_grid_rule_to_the_typed_text(text, message):
    assert parse_grid(" 10, 100") == (10, 100)
    with pytest.raises(SpecParseError, match=f"invalid n_grid '{text}': n_grid must .*{message}"):
        parse_grid(text)
    with pytest.raises(SpecParseError, match="expected an integer grid point, got '10.5'"):
        parse_grid("10.5")


def test_verify_rcd_iid_degenerate_case():
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 3)))
    events = [EventSet.of(finite(2), [1])]
    report = verify_rcd(gen.latent_kernel(), gen, events, n_paths=40, n_steps=4000, master_seed=2)
    assert report.passed


def test_verify_rcd_report_serializes():
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 3)))
    events = [EventSet.of(finite(2), [1])]
    report = verify_rcd(gen.latent_kernel(), gen, events, n_paths=10, n_steps=500, master_seed=2)
    d = report.to_dict()
    assert d["events"][0]["event"] == "cells:1"
    assert isinstance(d["events"][0]["max_gap"], float)
