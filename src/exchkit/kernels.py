"""Markov kernels, product-kernel cylinder masses, the Monte Carlo
regular-conditional-distribution verifier, and the one counting routine
behind every Monte Carlo check.

A kernel is a parameter-indexed family of probability measures on a fixed
target space. The infinite product kernel is represented only through its
cylinder values: the mass of A_1 x ... x A_m x S x S x ... under parameter w
is the product of the per-coordinate kernel masses.

Every Monte Carlo check reads its paths through the empirical frequencies
mu_{w,n}(A) along an n-grid, as one :class:`SampledPaths` record of arrays
over the paths. :func:`_sampled_paths` samples each path once, in lane
groups: L paths side by side, one row of each L x m block of draws, each
path reading its own stream, so its draws are those it makes alone
(``ProcessGenerator.sample_blocks``). Each block is counted as it is drawn,
with :func:`_block_counter`, into L x G x (named cells + 1) tables of how
many of each path's first ``grid[g]`` draws fall in each cell that the
check's events name, then a zero column that pads event sums; a group's
frequencies are read from its tables at once. An event's count is the sum
over its cells, or n minus the sum over the cells it excludes when it is
cofinite (:func:`_masses`), so no unnamed cell is counted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .measures import EXACT, ProbMeasure, mass
from .rng import _integers, path_seed_labels
from .spaces import EventSet, Record, SpaceDescriptor, SpaceMismatchError, report_value

# the share of paths that a Monte Carlo check requires to pass, by default
DEFAULT_COVERAGE = 0.95


@dataclass(frozen=True)
class MarkovKernel:
    """Parameter -> probability measure on a fixed target space.

    Images are built and checked at call time; a grid mixture evaluates
    every prior parameter when it is constructed.
    """

    target: SpaceDescriptor
    law: Callable[[object], ProbMeasure] = field(compare=False)

    def measure(self, param) -> ProbMeasure:
        mu = self.law(param)
        if mu.space != self.target:
            raise SpaceMismatchError("kernel image on wrong space")
        return mu


def kernel_mass(kappa: MarkovKernel, param, event: EventSet):
    """kappa(param, event) = mass of the event under the image measure."""
    return mass(kappa.measure(param), event)


def bernoulli_kernel(target: SpaceDescriptor) -> MarkovKernel:
    """p -> Bernoulli(p) on a two-cell space."""
    return MarkovKernel(target, lambda p: ProbMeasure.bernoulli(target, p))


def geometric_kernel(target: SpaceDescriptor) -> MarkovKernel:
    """q -> Geometric(q) on the countable space."""
    return MarkovKernel(target, lambda q: ProbMeasure.geometric(target, q))


def constant_kernel(mu: ProbMeasure) -> MarkovKernel:
    """Every parameter maps to the same measure (degenerate conditioning)."""
    return MarkovKernel(mu.space, lambda _param: mu)


@dataclass(frozen=True)
class CylinderEvent:
    """A_1 x ... x A_m x S x S x ...; all coordinate events share one space."""

    events: tuple[EventSet, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("cylinder needs at least one coordinate event")
        space = self.events[0].space
        for ev in self.events:
            if ev.space != space:
                raise SpaceMismatchError("cylinder events on mixed spaces")

    @property
    def m(self) -> int:
        return len(self.events)

    @property
    def space(self) -> SpaceDescriptor:
        return self.events[0].space


def product_cylinder_mass(kappa: MarkovKernel, param, cyl: CylinderEvent):
    """Mass of the cylinder under the product of the image measure."""
    mu = kappa.measure(param)
    result = Fraction(1) if mu.mode == EXACT else 1.0
    for ev in cyl.events:
        result = result * mass(mu, ev)
    return result


@dataclass(frozen=True)
class RcdEventResult:
    """Per path: the kernel mass at its latent and its final frequency's gap."""

    event: EventSet
    pass_fraction: float
    targets: tuple[float, ...]
    gaps: tuple[float, ...]


@dataclass(frozen=True)
class RcdReport(Record):
    """Per-event agreement between kernel masses and long-run frequencies."""

    n_paths: int
    n_steps: int
    coverage: float
    per_event: tuple[RcdEventResult, ...]
    passed: bool

    def to_dict(self) -> dict:
        return report_value({
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "coverage": self.coverage,
            "events": [
                {
                    "event": r.event,
                    "pass_fraction": r.pass_fraction,
                    "max_gap": max(r.gaps) if r.gaps else None,
                }
                for r in self.per_event
            ],
            "passed": self.passed,
        })


def verify_rcd(
    kappa: MarkovKernel,
    gen,
    events: Sequence[EventSet],
    n_paths: int,
    n_steps: int,
    master_seed: int = 0,
) -> RcdReport:
    """Check that kappa is the conditional law of the generator's coordinates.

    For each independently seeded path, the realized latent parameter selects
    a kernel measure; the check compares kappa(latent, A) with the path's
    empirical frequency of A after ``n_steps`` observations. Almost-sure
    agreement is operationalized as: at least ``DEFAULT_COVERAGE`` (0.95) of
    paths agree within :func:`binomial_band` at the kernel mass and
    ``n_steps``.
    """
    if gen.latent_kernel() is None:
        raise ValueError(f"generator {gen.spec_label()} declares no latent kernel")
    paths = _sampled_paths(gen, events, (n_steps,), n_paths, master_seed)
    return rcd_verdict(kappa, events, paths.latents, paths.freqs[:, -1], paths.grid[-1])


def rcd_verdict(
    kappa: MarkovKernel,
    events: Sequence[EventSet],
    latents: Sequence,
    freqs: Sequence[Sequence[float]],
    n_steps: int,
    coverage: float = DEFAULT_COVERAGE,
) -> RcdReport:
    """The verdict of :func:`verify_rcd` over already sampled paths:
    ``freqs[i][k]`` is path i's frequency of ``events[k]`` after ``n_steps``
    draws and ``latents[i]`` its realized latent parameter. Each frequency
    passes when it lies within :func:`binomial_band` of its target
    kappa(latents[i], events[k]) at ``n_steps``, a positive integer; the
    events follow :func:`_check_events` and ``freqs`` is P x E."""
    if len(latents) < 1:
        raise ValueError("need at least one path")
    _check_events(events, kappa.target)
    (n_steps,) = _integers((n_steps,), "step counts")
    if n_steps < 1:
        raise ValueError("step count must be >= 1")
    validate_coverage(coverage)
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.shape != (len(latents), len(events)):
        raise ValueError(f"need one frequency per path and event, {len(latents)} x {len(events)}; got {freqs.shape}")
    # one kernel image per distinct (latent, event); the dict lives for this
    # call alone, as kernels on one space compare equal whatever their law
    target_of: dict = {}
    for ev in events:
        for latent in latents:
            if (latent, ev) not in target_of:
                target_of[latent, ev] = float(kernel_mass(kappa, latent, ev))
    targets = np.array([[target_of[latent, ev] for ev in events] for latent in latents])
    gaps = np.abs(freqs - targets)  # P x E
    hits = (gaps <= binomial_band(targets, n_steps)).sum(axis=0)
    results = [
        RcdEventResult(ev, h / len(latents), tuple(t), tuple(g))
        for ev, h, t, g in zip(events, hits.tolist(), targets.T.tolist(), gaps.T.tolist())
    ]
    passed = all(r.pass_fraction >= coverage for r in results)
    return RcdReport(len(latents), n_steps, coverage, tuple(results), passed)


def sigma_band(se, n):
    """The pass band of every Monte Carlo verdict: 3 standard errors, floored
    at 3/n so a zero-variance estimate still gets one count of slack.
    Elementwise, each element equal to ``3.0 * max(se, 1.0 / n)``."""
    return 3.0 * np.maximum(se, 1.0 / n)


def binomial_band(p, n):
    """:func:`sigma_band` of a frequency over n draws with success mass p,
    elementwise over arrays of p; ``np.sqrt`` rounds as ``math.sqrt`` does."""
    return sigma_band(np.sqrt(p * (1.0 - p) / n), n)


def validate_coverage(coverage) -> None:
    """A required pass fraction must lie in (0, 1]; NaN fails as well."""
    if not 0 < coverage <= 1:
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")


def indicator_array(obs: np.ndarray, event: EventSet) -> np.ndarray:
    """Boolean membership of each observation in the event: the cylinder
    hits of the product identity check, and the test oracle of :func:`_block_counter`."""
    if event.cofinite:
        return ~np.isin(obs, sorted(event.indices))
    return np.isin(obs, sorted(event.indices))


# ---------------------------------------------------------------------------
# counting the draws of a path

# a segment whose draws all lie below this cell is tallied by one bincount of
# the segment itself; past it, draws are looked up among the named cells
_TALLY_CELLS = 1 << 16


def _columns(events) -> np.ndarray:
    """The table's columns: the sorted cells that any of the events names."""
    return np.array(sorted({j for ev in events for j in ev.indices}))


def _cell_index(events: Sequence[EventSet], cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each event's column positions, in the order :func:`mass` sums its
    cells, padded with -1 (the table's zero column), and which events are
    cofinite."""
    position = {j: p for p, j in enumerate(cols.tolist())}
    orders = [[position[j] for j in ev.indices] for ev in events]
    depth = max(map(len, orders), default=0) or 1
    index = np.array([o + [-1] * (depth - len(o)) for o in orders], dtype=np.intp)
    return index.reshape(len(orders), depth), np.array([ev.cofinite for ev in events], dtype=bool)


def _masses(atoms: np.ndarray, cells: tuple[np.ndarray, np.ndarray], whole=1) -> np.ndarray:
    """... x E masses, under the rows (last axis: columns) of a table, of the
    events whose :func:`_cell_index` is ``cells``.

    Each is a left-to-right sum over the event's cells, as in :func:`mass`,
    so float masses are bit-identical to it; a cofinite event takes ``whole``
    minus the sum over the cells it excludes. The sums run one cell position
    at a time, so no temporary is larger than the result."""
    index, cofinite = cells
    sums = atoms[..., index[:, 0]]
    for column in index.T[1:]:
        sums = sums + atoms[..., column]
    return np.where(cofinite, whole - sums, sums)


def _block_counter(grid: Sequence[int], cols: np.ndarray, lanes: int = 1):
    """The count routine of a check: ``count(blocks, keep=0)`` returns the
    L x G x (len(cols) + 1) count tables of the L lanes whose L x m blocks of
    draws ``blocks`` yields in order, and a copy of the first ``keep`` draws
    of each lane (L x keep). ``lanes`` is the most lanes a block holds.

    ``table[l, g]`` holds how many of lane l's first ``grid[g]`` draws fall
    in each column's cell, then a zero column. Draws past ``grid[-1]`` and
    draws in unnamed cells are not counted; fewer than ``grid[-1]`` draws
    raise.

    Each block is split at the grid points, and each piece is tallied by one
    ``bincount`` of the piece itself, each lane offset by the tally's width,
    into its grid segment's row; the rows are accumulated at the end. Only
    draws at or past ``_TALLY_CELLS`` // ``lanes`` are looked up among the
    columns, so no bincount spans more than ``_TALLY_CELLS`` cells over all
    lanes, none is sized by a named cell and, while the draws stay below that
    bound, no temporary is larger than a block."""
    width = len(cols)
    bound = max(1, _TALLY_CELLS // lanes)
    near = int(np.searchsorted(cols, bound))
    near_cells, far_cells = cols[:near].astype(np.intp), cols[near:]
    near_list = near_cells.tolist()

    def tally(piece, rows) -> None:
        """Add the L x m draws ``piece`` to the L x (len(cols) + 1) ``rows``;
        its temporaries are freed on return."""
        size = len(piece)
        top = int(piece.max())
        span = min(top + 1, bound)  # each lane's tally width
        shifted = piece + np.arange(0, size * span, span)[:, None] if size > 1 else piece
        if top < bound:
            cells = np.bincount(shifted.ravel(), minlength=size * span)
        else:
            far = piece >= bound
            cells = np.bincount(shifted[~far], minlength=size * span)
            if len(far_cells):
                at_lane, at_step = np.nonzero(far)
                drawn = piece[at_lane, at_step]
                at = np.searchsorted(far_cells, drawn)
                named = far_cells[np.minimum(at, len(far_cells) - 1)] == drawn
                hits = np.bincount(at_lane[named] * len(far_cells) + at[named], minlength=size * len(far_cells))
                rows[:, near:width] += hits.reshape(size, len(far_cells))
        seen = bisect_left(near_list, span)  # the columns the tally reaches
        rows[:, :seen] += cells.reshape(size, span)[:, near_cells[:seen]]

    def count(blocks, keep: int = 0) -> tuple[np.ndarray, np.ndarray]:
        counts = first = None
        g = done = 0  # the grid segment being counted, the draws before the block
        for block in blocks:
            size, m = block.shape
            if counts is None:
                counts = np.zeros((size, len(grid), width + 1), dtype=np.int64)
                first = np.empty((size, keep), dtype=np.int64)
            if done < keep:
                first[:, done:done + m] = block[:, :keep - done]
            lo = 0
            while lo < m and g < len(grid):
                hi = min(m, grid[g] - done)
                tally(block[:, lo:hi], counts[:, g])
                g += done + hi == grid[g]
                lo = hi
            done += m
        if g < len(grid):
            raise ValueError("grid exceeds the path length")
        return np.cumsum(counts, axis=1), first[:, :done]

    return count


def _count_table(obs, grid: Sequence[int], cols: np.ndarray) -> np.ndarray:
    """The :func:`_block_counter` table of a whole path, as one block."""
    return _block_counter(grid, cols)((np.asarray(obs)[None],))[0][0]


def _frequencies(table: np.ndarray, cells: tuple[np.ndarray, np.ndarray], grid: Sequence[int]) -> np.ndarray:
    """G x E: each event's count among the first ``grid[g]`` draws, read
    from the count table, divided by ``grid[g]``."""
    lengths = np.array(grid)[:, None]
    return _masses(table, cells, whole=lengths) / lengths


def _validate_grid(n_grid: Sequence[int]) -> tuple[int, ...]:
    """The one grid rule: integer path lengths, positive and strictly increasing."""
    grid = _integers(tuple(n_grid), "grid points")
    if not grid or grid[0] < 1:
        raise ValueError("n_grid must contain positive lengths")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    return grid


def _check_events(events: Sequence[EventSet], space: SpaceDescriptor) -> None:
    """The one event rule: at least one event, each on the paths' space."""
    if not events:
        raise ValueError("event list must be non-empty")
    if any(ev.space != space for ev in events):
        raise SpaceMismatchError("event on the wrong space for the generator")


@dataclass(frozen=True)
class SampledPaths:
    """The P paths of a Monte Carlo check as arrays: the checked grid, each
    path's seed label and realized latent, ``heads`` (P x H, int64) its first
    H draws and ``freqs`` (P x G x E) each event's frequency at each grid
    point."""

    grid: tuple[int, ...]
    labels: list[str]
    latents: list
    heads: np.ndarray
    freqs: np.ndarray


def _sampled_paths(gen, events: Sequence[EventSet], grid: Sequence[int], n_paths: int, master_seed: int, cols=None,
                   head: int = 0, tables=None) -> SampledPaths:
    """Paths 0 .. n_paths-1 of ``gen`` under ``master_seed``, each
    ``grid[-1]`` draws long, sampled and counted once, as a
    :class:`SampledPaths` of the events' :func:`_frequencies` and the first
    ``head`` draws of each path: the draws a check reads one by one.
    ``tables(start, table)``, when given, receives the :func:`_block_counter`
    tables over ``cols`` (which defaults to the cells the events name) of
    paths start, start + 1, ..., one lane group at a time.

    The grid (:func:`_validate_grid`), the events (:func:`_check_events`),
    the number of paths and ``head`` (at most ``grid[-1]``: more leading
    draws than a path holds are refused, not cut short) are checked before
    any path is drawn. The paths are sampled in lane groups, each of
    ``gen._lanes(n, left)`` paths for the ``left`` paths still to draw, each
    one ``sample_blocks`` call whose L x m blocks are counted as they are
    drawn and whose frequencies are read once. So no path-length array is
    made: beside its outputs (8 bytes per path per grid point x event and per
    leading draw) a check holds one group at a time, its two buffers of one
    lane block (``rng._LANE_BLOCK`` cells, for one lane as for many), the
    rows of a grid mixture's images, a few temporaries of that size and its
    L x G x (columns + 1) tables; a test pins the traced peak to six lane
    blocks over the outputs.
    Each group allocates its own buffers: buffers reused by every path of a
    check left the heap fragmented and raised the peak RSS of runs of many
    short paths by about 3 MB."""
    grid = _validate_grid(grid)
    _check_events(events, gen.space)
    if n_paths < 1:
        raise ValueError("need at least one path")
    n = grid[-1]
    if head > n:
        raise ValueError(f"the check reads the first {head} draws of each path, past the largest grid point {n}")
    cols = _columns(events) if cols is None else cols
    cells = _cell_index(events, cols)
    # the first group is the largest, as the groups shrink with the paths left
    count = _block_counter(grid, cols, gen._lanes(n, n_paths))
    latents, heads, freqs = [], np.empty((n_paths, head), dtype=np.int64), np.empty((n_paths, len(grid), len(events)))
    start = 0
    while start < n_paths:
        group = range(start, start + gen._lanes(n, n_paths - start))
        group_latents, blocks = gen.sample_blocks(n, master_seed, group)
        table, heads[start:group.stop] = count(blocks, head)
        latents.extend(group_latents)
        freqs[start:group.stop] = _frequencies(table, cells, grid)
        if tables is not None:
            tables(start, table)
        start = group.stop
    return SampledPaths(grid, path_seed_labels(master_seed, n_paths), latents, heads, freqs)
