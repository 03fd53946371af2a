"""Kernel images, product-cylinder masses, and the frequency-level verifier."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchkit import (
    BetaBernoulliProcess,
    EventSet,
    IIDProcess,
    MarkovChainProcess,
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
from exchkit.empirical import SymmetricPrefixCondition, slln_exchangeable_checks
from exchkit.kernels import (
    _TALLY_CELLS,
    DEFAULT_COVERAGE,
    CylinderEvent,
    MarkovKernel,
    RcdEventResult,
    RcdReport,
    _block_counter,
    _cell_index,
    _columns,
    _count_table,
    _frequencies,
    _masses,
    _sampled_paths,
    _validate_grid,
    bernoulli_kernel,
    binomial_band,
    constant_kernel,
    geometric_kernel,
    indicator_array,
    kernel_mass,
    product_cylinder_mass,
    rcd_verdict,
    sigma_band,
    verify_rcd,
)
from exchkit import processes, rng
from exchkit.rng import _LANE_BLOCK

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
    """A counting case as 1 to 3 lanes (the path, reversed, rolled by one),
    cut into lane blocks at random points, the most lanes the counter is
    sized for, and how many leading draws to keep. With more lanes the
    counter looks up the draws past a lower bound among the named cells."""
    obs, events, grid = draw(counting_cases())
    lanes = np.stack([obs, obs[::-1], np.roll(obs, 1)][:draw(st.integers(1, 3))])
    cuts = sorted(draw(st.sets(st.integers(1, len(obs) - 1), max_size=8))) if len(obs) > 1 else []
    sized = draw(st.sampled_from([len(lanes), 4, 256]))
    keep = draw(st.integers(0, len(obs)))
    return lanes, events, grid, np.split(lanes, cuts, axis=1), sized, keep


@settings(max_examples=200, deadline=None)
@given(counting_blocks())
@example((np.array([[0, 1, 1, 0, 1]]), [EventSet.of(finite(2), [1])], [2, 3],
          [np.array([[0, 1]]), np.array([[1, 0, 1]])], 1, 3))
@example((np.array([[FAR, 0, _TALLY_CELLS]]), [EventSet.empty(countable()), EventSet.of(countable(), [FAR])], [1, 3],
          [np.array([[FAR]]), np.array([[0]]), np.array([[_TALLY_CELLS]])], 1, 0))
@example((np.array([[300, 0, 5], [0, 255, 256]]), [EventSet.of(countable(), [0, 255, 256, 300])], [1, 3],
          [np.array([[300], [0]]), np.array([[0, 5], [255, 256]])], 256, 2))
def test_block_counter_equals_the_one_block_table(case):
    # each lane's table is the table of that lane's path counted alone
    lanes, events, grid, blocks, sized, keep = case
    cols = _columns(events)
    tables, first = _block_counter(grid, cols, sized)(iter(blocks), keep)
    assert tables.shape == (len(lanes), len(grid), len(cols) + 1)
    for lane, table in zip(lanes, tables):
        assert np.array_equal(table, _count_table(lane, grid, cols))
    assert first.dtype == np.int64 and np.array_equal(first, lanes[:, :keep])


def test_block_counter_rejects_a_grid_past_the_blocks():
    count = _block_counter((1, 4), _columns([EventSet.of(finite(2), [1])]))
    with pytest.raises(ValueError, match="exceeds the path length"):
        count([np.array([[0, 1]]), np.array([[1]])])


# paths longer than a lane block are drawn one lane at a time, in blocks of
# _LANE_BLOCK draws
DB = _LANE_BLOCK


def test_sampled_paths_count_each_block_as_the_whole_path():
    """Grid points on each side of the first two block edges, draws below,
    at and past _TALLY_CELLS and at a far cell, and events that name no cell:
    the record's labels, latents, heads and frequencies, and each table handed
    on, equal those of the whole path that sample_path draws."""
    space = countable()
    law = ProbMeasure(space, {0: F(1, 4), 3: F(1, 8), _TALLY_CELLS - 1: F(1, 8), _TALLY_CELLS: F(1, 8),
                              70_000: F(1, 8), FAR: F(1, 4)})
    gen = IIDProcess(law)
    events = [EventSet.of(space, [3, _TALLY_CELLS]), EventSet.cofinite_of(space, [FAR, 0]), EventSet.empty(space),
              EventSet.full(space), EventSet.of(space, [_TALLY_CELLS - 1, 70_000, 5])]
    grid = (1, DB - 1, DB, DB + 1, 2 * DB - 1, 2 * DB, 2 * DB + 1, 2 * DB + 17)
    cols = _columns(events)
    tables = []
    paths = _sampled_paths(gen, events, grid, 2, 9, head=DB + 3,
                           tables=lambda start, group: tables.extend(enumerate(group, start)))
    assert paths.grid == grid and paths.labels == ["9:0", "9:1"]
    assert paths.heads.shape == (2, DB + 3) and paths.heads.dtype == np.int64
    assert paths.freqs.shape == (2, len(grid), len(events))
    assert [i for i, _ in tables] == [0, 1]
    for i, (_, table) in enumerate(tables):
        whole = gen.sample_path(grid[-1], 9, path_index=i)
        assert paths.labels[i] == whole.seed_label and paths.latents[i] == whole.latent
        assert np.array_equal(paths.heads[i], whole.observations[:DB + 3])
        assert np.array_equal(table, _count_table(whole.observations, grid, cols))
        assert np.array_equal(paths.freqs[i], _frequencies(table, _cell_index(events, cols), grid))


def test_sampled_paths_record_each_paths_latent():
    gen = BetaBernoulliProcess(1, 1)
    paths = _sampled_paths(gen, [EventSet.of(finite(2), [1])], (5, 50), 3, 4)
    assert paths.latents == [gen.sample_path(50, 4, path_index=i).latent for i in range(3)]
    assert paths.heads.shape == (3, 0) and paths.labels == ["4:0", "4:1", "4:2"]


def test_sampled_paths_refuse_a_head_past_the_grid(monkeypatch):
    # refused at the call, not cut short to the grid[-1] draws the paths hold
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 2)))
    monkeypatch.setattr(ProcessGenerator, "sample_blocks", lambda *a, **kw: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="reads the first 4 draws of each path, past the largest grid point 3"):
        _sampled_paths(gen, [EventSet.of(finite(2), [1])], (2, 3), 5, 0, head=4)


# -- lanes -------------------------------------------------------------------------
# _sampled_paths samples its paths in lane groups; the oracle of each path is the
# path that sample_path draws alone, counted alone by _count_table.

NN = countable()
THREE = finite(3)
LANE_CASES = {
    "iid finite": (IIDProcess(ProbMeasure.from_weights(THREE, [F(1, 5), F(3, 10), F(1, 2)])),
                   [EventSet.of(THREE, [0, 2]), EventSet.of(THREE, [1])]),
    "iid geometric": (parse_generator("iid:geom:1/3"), [EventSet.of(NN, [0]), EventSet.cofinite_of(NN, [0, 1])]),
    "grid bern": (parse_generator("mixture:grid(1/4,3/4):bern"), [EventSet.of(finite(2), [1])]),
    "grid geom": (parse_generator("mixture:grid(1/4,1/2):geom"),
                  [EventSet.of(NN, [0]), EventSet.of(NN, [1, 2]), EventSet.cofinite_of(NN, [0])]),
    "beta": (BetaBernoulliProcess(1, 1), [EventSet.of(finite(2), [1])]),
    "polya int": (PolyaUrnProcess(1, 99), [EventSet.of(finite(2), [1])]),
    "polya float": (PolyaUrnProcess(1.1, 2.7), [EventSet.of(finite(2), [0])]),
    "markov 2 states": (parse_generator("markov:3/4,1/4"), [EventSet.of(finite(2), [1])]),
    "markov 3 states": (MarkovChainProcess(ProbMeasure.from_weights(THREE, [F(1, 3)] * 3), tuple(
        ProbMeasure.from_weights(THREE, w) for w in ([0, F(1, 3), F(2, 3)], [F(3, 4), 0, F(1, 4)], [F(1, 3)] * 3))),
        [EventSet.of(THREE, [1, 2])]),
}
# lane blocks of 96 draws: a group of L lanes draws 96 // L of each path a block
SMALL_LANE_BLOCK = 96


@st.composite
def lane_groups(draw):
    """The lanes per group (the last group short when they do not divide the
    paths, and one lane when a single path is left, which an urn draws
    through its loop and solver, not in lockstep), a path length of 1 to 3
    lane blocks, a grid with points on and off the block edges, and the
    leading draws to keep."""
    lanes = draw(st.integers(2, 8))
    n_paths = draw(st.integers(lanes + 1, 20))
    block = SMALL_LANE_BLOCK // lanes
    n = draw(st.integers(1, 3 * block))
    edges = [p for k in (1, 2) for p in (k * block - 1, k * block, k * block + 1) if 1 <= p < n]
    points = st.sampled_from(edges) | st.integers(1, n) if edges else st.integers(1, n)
    grid = sorted(draw(st.sets(points, max_size=5)) | {n})
    head = draw(st.integers(0, n))
    return lanes, n_paths, tuple(grid), head, draw(st.integers(0, 2**32))


@pytest.mark.parametrize("name", sorted(LANE_CASES))
@given(lane_groups())
@example((5, 12, (1, 18, 19, 20, 57), 3, 0))
@example((3, 7, (31, 32, 33, 96), 33, 1))
@settings(deadline=None, max_examples=8)
def test_sampled_paths_in_lanes_are_the_paths_counted_alone(name, case):
    """Any lane count, path count, grid and head: every path's latent, head,
    frequencies and count table equal those of the path drawn and counted
    alone; the tables arrive one lane group at a time, in path order."""
    lanes, n_paths, grid, head, seed = case
    gen, events = LANE_CASES[name]
    cols = _columns(events)
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(gen), "_lanes", lambda self, n, left: min(lanes, left))
        mp.setattr(rng, "_LANE_BLOCK", SMALL_LANE_BLOCK)
        paths = _sampled_paths(gen, events, grid, n_paths, seed, head=head,
                               tables=lambda start, group: tables.append((start, group.copy())))
    assert [start for start, _ in tables] == list(range(0, n_paths, lanes))
    assert all(len(group) == min(lanes, n_paths - start) for start, group in tables)
    stacked = np.concatenate([group for _, group in tables])
    assert paths.labels == [f"{seed}:{i}" for i in range(n_paths)]
    assert paths.heads.shape == (n_paths, head) and paths.freqs.shape == (n_paths, len(grid), len(events))
    for i in range(n_paths):
        alone = gen.sample_path(grid[-1], seed, i)
        table = _count_table(alone.observations, grid, cols)
        assert paths.latents[i] == alone.latent
        assert np.array_equal(paths.heads[i], alone.observations[:head])
        assert np.array_equal(stacked[i], table)
        assert np.array_equal(paths.freqs[i], _frequencies(table, _cell_index(events, cols), grid))


def sampled_groups(gen, n, n_paths):
    """The paths of each sample_blocks call that _sampled_paths makes."""
    groups = []
    sample_blocks = ProcessGenerator.sample_blocks

    def recording(self, n, master_seed, paths):
        groups.append(list(paths))
        return sample_blocks(self, n, master_seed, paths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProcessGenerator, "sample_blocks", recording)
        _sampled_paths(gen, [EventSet.of(finite(2), [1])], (n,), n_paths, 0)
    assert [i for group in groups for i in group] == list(range(n_paths))
    return [len(group) for group in groups]


@pytest.mark.parametrize("n, n_paths", [(1000, p) for p in (1, 2, 39, 40, 255, 256, 257, 264, 1000)]
                         + [(_LANE_BLOCK + 1, p) for p in (1, 2, 40, 41)])
def test_urn_groups_are_one_lane_or_a_lockstep(n, n_paths):
    """An urn group of several lanes steps in lockstep, which pays from
    _POLYA_LOCKSTEP_LANES lanes on: so every group is one lane or at least
    that many, up to _LANES, each sized from the paths still to draw; paths
    longer than a lane block go one lane at a time."""
    sizes = sampled_groups(PolyaUrnProcess(1, 99), n, n_paths)
    assert all(size == 1 or processes._POLYA_LOCKSTEP_LANES <= size <= processes._LANES for size in sizes)
    if n > _LANE_BLOCK:
        assert sizes == [1] * n_paths
    elif n_paths >= processes._POLYA_LOCKSTEP_LANES:
        assert sizes[0] == min(n_paths, processes._LANES)
    if n_paths == 1000:
        assert sizes == [256, 256, 256, 232]


@pytest.mark.parametrize("gen, events, grid, n_paths", [
    (IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 100))), [EventSet.of(finite(2), [1])], (1000,), 1000),
    (LANE_CASES["grid geom"][0], LANE_CASES["grid geom"][1], (100, 1000, 10_000), 200),
    (BetaBernoulliProcess(1, 1), [EventSet.of(finite(2), [1])], (3 * _LANE_BLOCK + 1,), 2),
], ids=["iid-1000x1000", "geometric-mixture-200x10000", "beta-2x(3*2^14+1)"])
def test_sampled_paths_hold_one_lane_group(gen, events, grid, n_paths):
    """Beside its P x G x E outputs (with the labels and latents), sampling
    holds one lane group at a time: its two buffers of one lane block, the
    rows of a grid mixture's images and a few temporaries of that size, so
    the traced peak is at most six lane blocks over the outputs, whatever
    the number of paths; one lane at a time, its block is one lane block as
    well."""
    _sampled_paths(gen, events, grid, 2, 0)  # first-call set-up
    tracemalloc.start()
    try:
        paths = _sampled_paths(gen, events, grid, n_paths, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lane_block = rng.block_buffers(grid[-1], gen._lanes(grid[-1], n_paths))[0].nbytes
    outputs = (paths.freqs.nbytes + paths.heads.nbytes + sys.getsizeof(paths.latents) + sys.getsizeof(paths.labels)
               + sum(map(sys.getsizeof, paths.labels)))
    assert lane_block <= 8 * max(rng._LANE_BLOCK, grid[-1])
    assert peak <= 6 * lane_block + outputs, f"peak {peak / 1e6:.3f} MB, lane block {lane_block / 1e6:.3f} MB"


# -- the pass band -------------------------------------------------------------


def _scalar_sigma_band(se, n):
    """The band as one Python-float expression per value: the reference."""
    return 3.0 * max(se, 1.0 / n)


@settings(max_examples=200)
@given(st.lists(st.floats(0, 1), min_size=1, max_size=20), st.integers(1, 10**7))
@example([0.0, 1.0, 0.5, 1e-300], 1)
def test_the_band_is_the_scalar_band_elementwise(values, n):
    scalar = [_scalar_sigma_band(math.sqrt(p * (1.0 - p) / n), n) for p in values]
    assert binomial_band(np.array(values), n).tolist() == scalar
    assert [float(binomial_band(p, n)) for p in values] == scalar
    assert sigma_band(np.array(values), n).tolist() == [_scalar_sigma_band(se, n) for se in values]


# -- the Monte Carlo verifier --------------------------------------------------


def _rcd_verdict_loop(kappa, events, latents, freqs, n_steps, coverage=DEFAULT_COVERAGE):
    """rcd_verdict judged one (path, event) at a time with the scalar band:
    the loop the array verdict replaced, kept as its reference."""
    results = []
    for k, ev in enumerate(events):
        targets, gaps, hits = [], [], 0
        for latent, row in zip(latents, freqs):
            target = float(kernel_mass(kappa, latent, ev))
            gap = abs(float(row[k]) - target)
            hits += gap <= _scalar_sigma_band(math.sqrt(target * (1.0 - target) / n_steps), n_steps)
            targets.append(target)
            gaps.append(gap)
        results.append(RcdEventResult(ev, hits / len(latents), tuple(targets), tuple(gaps)))
    return RcdReport(len(latents), n_steps, coverage, tuple(results), all(r.pass_fraction >= coverage for r in results))


B2_EVENTS = [EventSet.of(finite(2), [1]), EventSet.of(finite(2), [0]), EventSet.full(finite(2)),
             EventSet.empty(finite(2))]


@st.composite
def verdict_cases(draw):
    """Beta latents (any bias in [0, 1]) or grid latents with the endpoints,
    whose targets 0 and 1 leave only the 3/n floor; each frequency a count
    over n within two band widths of its target, so paths land on both sides
    of their bands."""
    n = draw(st.integers(1, 5000))
    events = draw(st.lists(st.sampled_from(B2_EVENTS), min_size=1, max_size=3))
    if draw(st.booleans()):
        latents = draw(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    else:
        latents = draw(st.lists(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]), min_size=1, max_size=12))
    kappa = bernoulli_kernel(finite(2))

    def frequency(target):
        width = 2 * math.ceil(3 * math.sqrt(n * target * (1 - target))) + 6
        return min(n, max(0, round(target * n) + draw(st.integers(-width, width)))) / n

    freqs = [[frequency(float(kernel_mass(kappa, t, ev))) for ev in events] for t in latents]
    return kappa, events, latents, freqs, n, draw(st.sampled_from([DEFAULT_COVERAGE, 0.5, 1.0]))


@settings(max_examples=150, deadline=None)
@given(verdict_cases())
def test_rcd_verdict_equals_the_per_path_loop(case):
    kappa, events, latents, freqs, n, coverage = case
    expected = _rcd_verdict_loop(kappa, events, latents, freqs, n, coverage)
    assert rcd_verdict(kappa, events, latents, freqs, n, coverage) == expected
    assert rcd_verdict(kappa, events, latents, np.array(freqs), n, coverage) == expected




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


B2_ONES = EventSet.of(finite(2), [1])


@pytest.mark.parametrize("check, message", [
    (lambda gen: markov_bound_check(gen, B2_ONES, F(1, 2), n_paths=2, n_steps=10), "exceeds eps"),
    (lambda gen: construct_rcd_from_empiricals(gen, [B2_ONES], (10, 20), 2, coverage=0), "coverage must lie"),
    (lambda gen: construct_rcd_from_empiricals(parse_generator("markov:3/4,3/4"), [B2_ONES], (10, 20), 2),
     "not exchangeable"),
    (lambda gen: construct_rcd_from_empiricals(gen, [B2_ONES], (10, 20), -1), "need at least one path"),
    (lambda gen: df_product_identity_check(gen, CylinderEvent((B2_ONES,)), SymmetricPrefixCondition(
        finite(3), 1, lambda pattern: True), n_grid=(10,), n_paths=2), "conditioning statistic on the wrong space"),
], ids=["markov_bound_check-marginal", "construct_rcd_from_empiricals-coverage",
        "construct_rcd_from_empiricals-exchangeable", "construct_rcd_from_empiricals-paths",
        "df_product_identity_check-conditioning-space"])
def test_every_monte_carlo_check_refuses_its_input_before_sampling(monkeypatch, check, message):
    # the paths are sampled at the call, so each precondition comes first
    gen = IIDProcess(ProbMeasure.bernoulli(finite(2), F(1, 2)))
    monkeypatch.setattr(ProcessGenerator, "sample_blocks", lambda *a, **kw: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=message):
        check(gen)


@pytest.mark.parametrize("n_steps", [200_000, 2_000_000])
def test_verify_rcd_holds_no_path(n_steps):
    """verify_rcd on two Beta(1,1) paths peaks under 2 MB of traced
    allocations at 2*10**5 and at 2*10**6 draws: each block of draws is
    counted as it is drawn, and the check keeps only each path's frequencies
    (one such path as an array is 16 MB)."""
    gen = BetaBernoulliProcess(1, 1)
    verify_rcd(gen.latent_kernel(), gen, [B2_ONES], n_paths=2, n_steps=10)  # first-call set-up
    tracemalloc.start()
    try:
        rep = verify_rcd(gen.latent_kernel(), gen, [B2_ONES], n_paths=2, n_steps=n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_steps == n_steps and rep.n_paths == 2
    assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"


def test_rcd_verdict_refuses_zero_paths():
    with pytest.raises(ValueError, match="need at least one path"):
        rcd_verdict(bernoulli_kernel(finite(2)), [B2_ONES], [], [], 10)


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
