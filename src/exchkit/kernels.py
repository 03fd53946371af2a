"""Markov kernels, product-kernel cylinder masses, the Monte Carlo
regular-conditional-distribution verifier, and the one counting routine
behind every Monte Carlo check.

A kernel is a parameter-indexed family of probability measures on a fixed
target space. The infinite product kernel is represented only through its
cylinder values: the mass of A_1 x ... x A_m x S x S x ... under parameter w
is the product of the per-coordinate kernel masses.

Every Monte Carlo check reads a path through the empirical frequencies
mu_{w,n}(A) along an n-grid. :func:`_sampled_paths` samples the paths of a
check once each and counts each block of draws as it is drawn, with
:func:`_block_counter`, into a G x (named cells + 1) table of how many of the
first ``grid[g]`` draws fall in each cell that the check's events name, then
a zero column that pads event sums. An event's count is the sum over its cells, or n minus the sum
over the cells it excludes when it is cofinite (:func:`_masses`), so no
unnamed cell is counted.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .measures import EXACT, ProbMeasure, mass
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
        raise ValueError("generator declares no latent kernel")
    (n_steps,), paths = _sampled_paths(gen, events, (n_steps,), n_paths, master_seed)
    latents, freqs = [], []
    for path, _, path_freqs in paths:
        latents.append(path.latent)
        freqs.append(path_freqs[-1])
    return rcd_verdict(kappa, events, latents, freqs, n_steps)


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
    kappa(latents[i], events[k]) at ``n_steps``."""
    # one kernel image per distinct (latent, event); the dict lives for this
    # call alone, as kernels on one space compare equal whatever their law
    target_of: dict = {}
    results = []
    for k, ev in enumerate(events):
        targets, gaps, hits = [], [], 0
        for latent, row in zip(latents, freqs):
            if (latent, ev) not in target_of:
                target_of[latent, ev] = float(kernel_mass(kappa, latent, ev))
            target = target_of[latent, ev]
            gap = abs(float(row[k]) - target)
            hits += gap <= binomial_band(target, n_steps)
            targets.append(target)
            gaps.append(gap)
        results.append(RcdEventResult(ev, hits / len(latents), tuple(targets), tuple(gaps)))
    passed = all(r.pass_fraction >= coverage for r in results)
    return RcdReport(len(latents), n_steps, coverage, tuple(results), passed)


def sigma_band(se: float, n: int) -> float:
    """The pass band of every Monte Carlo verdict: 3 standard errors, floored
    at 3/n so a zero-variance estimate still gets one count of slack."""
    return 3.0 * max(se, 1.0 / n)


def binomial_band(p: float, n: int) -> float:
    """:func:`sigma_band` of a frequency over n draws with success mass p."""
    return sigma_band(math.sqrt(p * (1.0 - p) / n), n)


def validate_tol(tol) -> None:
    """The event-gap budget of ``construct_rcd_from_empiricals`` must be
    finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def validate_coverage(coverage) -> None:
    """A required pass fraction must lie in (0, 1]; NaN fails as well."""
    if not 0 < coverage <= 1:
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")


def indicator_array(obs: np.ndarray, event: EventSet) -> np.ndarray:
    """Boolean membership of each observation in the event; the test oracle of :func:`_block_counter`."""
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


def _block_counter(grid: Sequence[int], cols: np.ndarray):
    """The count routine of a check: ``count(blocks, keep=0)`` returns the
    G x (len(cols) + 1) count table of the draws that ``blocks`` yields in
    order, and a copy of the first ``keep`` of them.

    ``table[g]`` holds how many of the first ``grid[g]`` draws fall in each
    column's cell, then a zero column. Draws past ``grid[-1]`` and draws in
    unnamed cells are not counted; fewer than ``grid[-1]`` draws raise.

    Each block is split at the grid points, and each piece is tallied by one
    ``bincount`` of the piece itself, sized by its largest draw, into its
    grid segment's row; the rows are accumulated at the end. Only draws at or
    past ``_TALLY_CELLS`` are looked up among the columns, so no bincount is
    sized by a named cell and, while the draws stay below that bound, no
    temporary is longer than a block."""
    width = len(cols)
    near = int(np.searchsorted(cols, _TALLY_CELLS))
    near_cells, far_cells = cols[:near].astype(np.intp), cols[near:]
    near_list = near_cells.tolist()

    def count(blocks, keep: int = 0) -> tuple[np.ndarray, np.ndarray]:
        counts = np.zeros((len(grid), width + 1), dtype=np.int64)
        first = []
        g = done = 0  # the grid segment being counted, the draws before the block
        for block in blocks:
            if done < keep:
                first.append(block[:keep - done].copy())
            lo = 0
            while lo < len(block) and g < len(grid):
                hi = min(len(block), grid[g] - done)
                piece, row = block[lo:hi], counts[g]
                if piece.max() < _TALLY_CELLS:
                    tally = np.bincount(piece)
                else:
                    far = piece >= _TALLY_CELLS
                    tally = np.bincount(piece[~far])
                    if len(far_cells):
                        drawn = piece[far]
                        at = np.searchsorted(far_cells, drawn)
                        named = far_cells[np.minimum(at, len(far_cells) - 1)] == drawn
                        row[near:width] += np.bincount(at[named], minlength=len(far_cells))
                seen = bisect_left(near_list, len(tally))  # the columns the tally reaches
                row[:seen] += tally[near_cells[:seen]]
                g += done + hi == grid[g]
                lo = hi
            done += len(block)
        if g < len(grid):
            raise ValueError("grid exceeds the path length")
        return np.cumsum(counts, axis=0), np.concatenate(first or [np.empty(0, dtype=np.int64)])

    return count


def _count_table(obs, grid: Sequence[int], cols: np.ndarray) -> np.ndarray:
    """The :func:`_block_counter` table of a whole path, as one block."""
    return _block_counter(grid, cols)((np.asarray(obs),))[0]


def _frequencies(table: np.ndarray, cells: tuple[np.ndarray, np.ndarray], grid: Sequence[int]) -> np.ndarray:
    """G x E: each event's count among the first ``grid[g]`` draws, read
    from the count table, divided by ``grid[g]``."""
    lengths = np.array(grid)[:, None]
    return _masses(table, cells, whole=lengths) / lengths


def _validate_grid(n_grid: Sequence[int]) -> tuple[int, ...]:
    """The one grid rule: integer path lengths, positive and strictly
    increasing. A point that is not an integer is refused, not truncated."""
    points = tuple(n_grid)
    try:
        grid = tuple(operator.index(n) for n in points)
    except TypeError:
        raise ValueError(f"grid points must be integers, got {points}") from None
    if not grid or grid[0] < 1:
        raise ValueError("n_grid must contain positive lengths")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    return grid


def _sampled_paths(gen, events: Sequence[EventSet], grid: Sequence[int], n_paths: int, master_seed: int, cols=None,
                   head: int = 1):
    """The grid of a Monte Carlo check, under :func:`_validate_grid`, and its
    paths: paths 0 .. n_paths-1 of ``gen`` under ``master_seed``, each
    ``grid[-1]`` draws long and sampled once, as (path, :func:`_block_counter`
    table over ``cols``, :func:`_frequencies` of the events). ``cols``
    defaults to the cells the events name. Each path is a :class:`PathSample`
    with its seed and latent that holds only its first ``head`` draws (at
    least one, at most ``grid[-1]``): the draws a check reads one by one.

    The grid, the events (at least one, on the generator's space) and the
    number of paths are checked at the call. The paths are sampled as they are
    iterated and each block of draws is counted as it is drawn, so no
    path-length array is made. Each path allocates its own block buffers:
    buffers reused by every path of a check left the heap fragmented and
    raised the peak RSS of runs of many short paths by about 3 MB."""
    grid = _validate_grid(grid)
    if not events:
        raise ValueError("event list must be non-empty")
    if any(ev.space != gen.space for ev in events):
        raise SpaceMismatchError("event on the wrong space for the generator")
    if n_paths < 1:
        raise ValueError("need at least one path")
    cols = _columns(events) if cols is None else cols
    cells = _cell_index(events, cols)
    count = _block_counter(grid, cols)
    n = grid[-1]
    keep = min(head, n)

    def paths():
        from .processes import PathSample  # processes imports this module

        for i in range(n_paths):
            latent, blocks = gen.sample_blocks(n, master_seed, i)
            table, first = count(blocks, keep)
            yield PathSample(gen, (master_seed, i), latent, first), table, _frequencies(table, cells, grid)

    return grid, paths()
