"""Sequential convergence of measures: limsup domination on closed sets,
uniform tightness, deterministic subsequence extraction, and the checks that
chain them into a per-path construction of the directing measure.

Convergence here is the closed-set criterion: mu_n converges to mu when
limsup_n mu_n(F) <= mu(F) for every closed F. At desk scale the limsup of a
finite sequence is approximated by the max over its tail half, and "every
closed F" by an explicit finite checklist. Extraction replaces the classical
non-constructive subsequence argument with a fixed deterministic recipe
(cells in index order, bisection on mass clusters, ties toward the cluster
holding the earliest index), so identical inputs select identical indices.

The pipeline has one fixed configuration: ``family_tight``,
``extract_convergent_subsequence`` and ``construct_rcd_from_empiricals`` use
the space's ``default_compact_family`` and ``default_closed_family`` (each
built once per space) and ``DEFAULT_EPS_SCHEDULE``, and
``construct_rcd_from_empiricals`` extracts and judges its event gaps at one
tolerance, ``_CONSTRUCT_TOL``; ``a_converges`` takes an explicit closed
family and a tolerance. Mass past the 64 initial segments of the countable
space counts as escaping; ``classify_radon`` needs no such horizon for one
measure, as it reads the measure's tail.

Every mass the pipeline reads comes from one atom-mass table: ``A[g, j]`` is
the mass of the j-th named cell under the g-th measure, one column per cell
that the default compact and closed families or the requested events name
(however large its index), then a zero column that pads event sums (a
cofinite event's mass is 1 minus its excluded cells, as in :func:`mass`, so
no unnamed cell is read).
Tightness, extraction, :func:`a_converges` and the limsup certificates all
read it. A path's table is the count table that ``kernels._sampled_paths``
counts for every Monte Carlo check, divided by n; a :class:`MeasureSequence`
fills it from ``atom_mass``, as Python objects when a measure is exact. An
event's mass is a left-to-right sum over its cells in the order :func:`mass`
takes them, and the compacts' masses are one sequential cumulative sum along
their chain, so every witness, limit, gap and certificate is bit-identical to
per-measure :func:`mass` calls.

Extraction has one routine, ``_extract_rows``, over the stacked tables of P
sequences (P x G x (C + 1)); its bisection runs in lockstep over the paths
with per-path masks, intervals and cells.
:func:`extract_convergent_subsequence` is its one-row call and the only
caller that builds :class:`ClosedSetCertificate` objects.
:func:`construct_rcd_from_empiricals` receives its paths' tables one lane
group at a time and stacks only the tables, one lane block
(``rng._LANE_BLOCK``, 2**14) of entries to a batch: 42 paths of acceptance
09 (6 grid points, 65 columns). No temporary of a batch is larger than its
130 KB table, so the acceptance 09 construction peaks at about 0.7 MB of
traced allocations; 200 paths in one batch would peak at about 2.2 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .kernels import (DEFAULT_COVERAGE, _cell_index, _columns, _masses, _sampled_paths, _validate_grid,
                      binomial_band, rcd_verdict, validate_coverage)
from .measures import (
    DEFAULT_EPS_SCHEDULE,
    EXACT,
    ProbMeasure,
    RegularityReport,
    TightnessResult,
    _check_epsilons,
    _tightness,
    classify_radon,
    mass,
)
from .processes import PathSample, ProcessGenerator
from .rng import _LANE_BLOCK
from .spaces import (
    ClosedFamily,
    CompactFamily,
    EventSet,
    Record,
    SpaceDescriptor,
    SpaceMismatchError,
    default_closed_family,
    default_compact_family,
    report_value,
)


class NotTightError(Exception):
    """The sequence admits no uniform compact witness at some epsilon."""


class NoConvergenceAtTolError(Exception):
    """Cluster refinement ran out of indices before reaching the tolerance."""


@dataclass(frozen=True)
class MeasureSequence:
    """An ordered, non-empty list of measures on one space."""

    space: SpaceDescriptor
    measures: tuple[ProbMeasure, ...]

    def __post_init__(self) -> None:
        if not self.measures:
            raise ValueError("measure sequence must be non-empty")
        for mu in self.measures:
            if mu.space != self.space:
                raise SpaceMismatchError("sequence member on the wrong space")

    def __len__(self) -> int:
        return len(self.measures)

    def __iter__(self):
        return iter(self.measures)

    def __getitem__(self, i: int) -> ProbMeasure:
        return self.measures[i]


def empirical_sequence(path: PathSample, n_grid: Sequence[int]) -> MeasureSequence:
    """The per-path sequence mu_{w,n} along the grid, with float weights
    k/n for a cell drawn k times among the first n draws.

    :func:`construct_rcd_from_empiricals` reads the same masses from the
    path's count table and builds none of these measures; this sequence is
    the reference it is tested against.
    """
    grid = _validate_grid(n_grid)
    if grid[-1] > path.length:
        raise ValueError("grid exceeds the path length")
    obs = np.asarray(path.observations)
    space = path.generator.space
    out = []
    for n in grid:
        cells, counts = np.unique(obs[:n], return_counts=True)
        weights = {int(c): int(k) / n for c, k in zip(cells, counts)}
        out.append(ProbMeasure(space, weights))
    return MeasureSequence(space, tuple(out))


# ---------------------------------------------------------------------------
# the atom-mass table


def _chain_order(compacts: CompactFamily) -> tuple[list[int], list[int]]:
    """The last member's cells in the order :func:`mass` sums them, and each
    member's count of them. Every default compact family is a chain: each
    member's cells, in that order, begin with the previous member's, so one
    running sum passes through each member's mass by the same additions as
    :func:`mass`."""
    order: list[int] = []
    ends = []
    for k in compacts:
        cells = list(k.indices)
        assert not k.cofinite and cells[: len(order)] == order, "compact family is not a chain"
        order = cells
        ends.append(len(cells))
    return order, ends


class _Layout:
    """What a table answers on one space: the default compact chain and
    closed family plus any requested events, and the cell columns they name."""

    def __init__(self, space: SpaceDescriptor, events: Sequence[EventSet] = ()):
        self.space = space
        self.compacts = default_compact_family(space)
        self.closed = default_closed_family(space)
        self.cols = _columns((*self.compacts, *self.closed, *events))
        order, ends = _chain_order(self.compacts)
        self.chain = np.searchsorted(self.cols, order), np.subtract(ends, 1)
        # in_compact[k, c]: the c-th column's cell lies in the k-th compact
        rank = np.full(len(self.cols), len(order))
        rank[self.chain[0]] = np.arange(len(order))
        self.in_compact = rank < np.array(ends)[:, None]
        self.closed_cells = _cell_index(self.closed.members, self.cols)
        self.event_cells = _cell_index(events, self.cols)


def _measure_table(measures: Sequence[ProbMeasure], cols: np.ndarray) -> np.ndarray:
    """Row g holds ``measures[g].atom_mass(j)`` for each column's cell j, then
    the zero pad; object dtype when any measure is exact, so Fractions stay
    exact."""
    dtype = object if any(mu.mode == EXACT for mu in measures) else np.float64
    cells = cols.tolist()
    return np.array([[mu.atom_mass(j) for j in cells] + [0] for mu in measures], dtype=dtype)


def _smallest(layout: _Layout, atoms: np.ndarray) -> np.ndarray:
    """Each default compact's smallest mass over the rows of a ... x G x
    (C + 1) table: one sequential cumsum along the compacts' chain."""
    order, ends = layout.chain
    running = np.cumsum(atoms[..., order], axis=-1)
    return running[..., ends].min(axis=-2)


# the floors 1 - eps as Fractions, which exact masses compare with faster
# than with the equal floats of _DEFAULT_FLOORS
_EXACT_FLOORS = tuple(1 - eps for eps in DEFAULT_EPS_SCHEDULE)
# 1 - 2**-k is exact in float64, so a float mass compares with these exactly
# as with the Fraction floors
_DEFAULT_FLOORS = tuple(float(f) for f in _EXACT_FLOORS)


def _tight(layout: _Layout, atoms: np.ndarray) -> TightnessResult:
    """Uniform tightness of the measures whose G x (C + 1) table is ``atoms``."""
    floors = _EXACT_FLOORS if atoms.dtype == object else _DEFAULT_FLOORS
    return _tightness(layout.compacts, _smallest(layout, atoms).tolist(), DEFAULT_EPS_SCHEDULE, floors)


@cache
def _default_layout(space: SpaceDescriptor) -> _Layout:
    """The layout of a sequence of measures on ``space``, built once per space."""
    return _Layout(space)


# ---------------------------------------------------------------------------
# closed-set convergence

def _limsup_excess(masses: np.ndarray, limit: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """(limsup, excess) per closed set: the max of ``masses`` over the tail
    half of the second-to-last (sequence) axis, and ``limsup - limit - tol``.
    A set fails when its excess is positive, the one form of the closed-set
    inequality, as ``limsup <= limit + tol`` can round the other way."""
    limsup = masses[..., masses.shape[-2] // 2 :, :].max(axis=-2)
    return limsup, limsup - limit - tol


def _check_tol(tol) -> None:
    """A convergence tolerance must be finite and non-negative; 0 asks for
    exact agreement."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def a_converges(
    seq: MeasureSequence,
    candidate: ProbMeasure,
    closed: ClosedFamily,
    tol,
) -> tuple[bool, EventSet | None]:
    """True iff limsup_n seq_n(F) <= candidate(F) + tol on every listed F.

    The limsup is the max over the tail half of the sequence. On failure the
    second slot names the worst offender (the first, on a tie).
    """
    _check_tol(tol)
    if candidate.space != seq.space or closed.space != seq.space:
        raise SpaceMismatchError("sequence, candidate and family must share a space")
    if len(closed) == 0:
        raise ValueError("closed family must be non-empty")
    cols = _columns(closed)
    masses = _masses(_measure_table((*seq.measures, candidate), cols), _cell_index(closed.members, cols))
    _, excess = _limsup_excess(masses[:-1], masses[-1], tol)
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        return False, closed.members[worst]
    return True, None


def family_tight(seq: MeasureSequence) -> TightnessResult:
    """Uniform tightness over the whole sequence: for each epsilon of
    ``DEFAULT_EPS_SCHEDULE``, a single default compact K with
    mu_n(K) > 1 - eps for ALL n."""
    layout = _default_layout(seq.space)
    return _tight(layout, _measure_table(seq.measures, layout.cols))


# ---------------------------------------------------------------------------
# deterministic extraction

@dataclass(frozen=True)
class ClosedSetCertificate(Record):
    event: EventSet
    limsup: float
    limit_mass: float
    drift: float
    ok: bool


@dataclass(frozen=True)
class ExtractionResult(Record):
    """A selected subsequence, its limit, and limsup certificates.

    ``full_sequence`` records the shortcut: when the entire sequence already
    converges to the extracted limit, all indices are kept.
    """

    indices: tuple[int, ...]
    limit: ProbMeasure
    certificates: tuple[ClosedSetCertificate, ...]
    a_converged: bool
    tight_witnesses: tuple[tuple[object, EventSet | None], ...]
    full_sequence: bool

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("selected indices must be strictly increasing")

    def to_dict(self) -> dict:
        return report_value({
            "indices": self.indices,
            "subsequence_length": len(self.indices),
            "full_sequence": self.full_sequence,
            "a_converged": self.a_converged,
            "tight_witnesses": [{"eps": e, "witness": w} for e, w in self.tight_witnesses],
            "certificates": self.certificates,
        })


def extract_convergent_subsequence(seq: MeasureSequence, tol=1e-9) -> ExtractionResult:
    """Deterministic diagonal extraction of a convergent subsequence.

    Requires uniform tightness (NotTightError otherwise). Cells are taken
    from the tightness witness at the smallest epsilon and processed in index
    order; each cell's mass is driven into a cluster of width tol/2 by
    bisection. The limit takes each cell's value at the last surviving index,
    renormalized over the witness cells (the discarded tail is controlled by
    the witness). If the whole sequence already converges to that limit, the
    whole sequence is returned. Certificates cover the default closed family.
    """
    _check_tol(tol)
    layout = _default_layout(seq.space)
    return _extract(layout, _measure_table(seq.measures, layout.cols), tol)


@dataclass(frozen=True)
class _Extracted:
    """What :func:`_extract_rows` finds for each of P tables (paths)."""

    witness: np.ndarray  # P: the compact at the smallest epsilon, or -1 when not tight
    surviving: np.ndarray  # P x G: the indices left after bisection
    converged: np.ndarray  # P: two or more survivors and positive witness mass at the last
    limit: np.ndarray  # P x (C + 1): the limit's table row, zero unless converged
    closed: np.ndarray  # P x G x F: the default closed sets' masses
    closed_limit: np.ndarray  # P x F: their masses under the limit
    full: np.ndarray  # P: the whole sequence converges to the limit


def _extract_rows(layout: _Layout, atoms: np.ndarray, tol) -> _Extracted:
    """Extraction of P sequences at once from their stacked P x G x (C + 1)
    tables, by the recipe of :func:`extract_convergent_subsequence`.

    Bisection runs in lockstep. At each step every path moves to the first
    witness cell whose surviving values still span more than tol/2; as the
    survivors only shrink, that is the cell the path's own cell-by-cell loop
    would be refining. On a new cell its interval restarts at [0, 1]. It then
    keeps the better-populated half of its interval, ties going to the half
    that holds its earliest survivor. A single survivor spans 0, so a cluster
    never empties; a path fails to converge when fewer than two indices
    survive or its witness cells carry no mass at the last survivor."""
    n_paths, n_grid, _ = atoms.shape
    rows = np.arange(n_paths)
    reach = _smallest(layout, atoms) > max(_DEFAULT_FLOORS)
    witness = np.where(reach.any(axis=1), reach.argmax(axis=1), -1)
    member = layout.in_compact[witness] & (witness >= 0)[:, None]
    # the columns up to the last witness cell of any path, and at least one
    width = int(np.max(np.flatnonzero(member.any(axis=0)), initial=0)) + 1
    member, values = member[:, :width], atoms[:, :, :width]

    surviving = np.ones((n_paths, n_grid), dtype=bool)
    cell = np.full(n_paths, -1)
    lo, hi = np.zeros(n_paths), np.ones(n_paths)
    todo = rows  # a path with no cell left to refine never gets one back
    while todo.size:
        kept = surviving[todo, :, None]
        part = values[todo]
        spread = np.where(kept, part, -np.inf).max(axis=1) - np.where(kept, part, np.inf).min(axis=1)
        need = member[todo] & (spread > tol / 2)
        busy = need.any(axis=1)
        todo, nxt = todo[busy], need[busy].argmax(axis=1)
        fresh = todo[nxt != cell[todo]]
        lo[fresh], hi[fresh], cell[todo] = 0.0, 1.0, nxt
        mid = (lo[todo] + hi[todo]) / 2
        below = values[todo, :, nxt] < mid[:, None]
        current = surviving[todo]
        lower, upper = current & below, current & ~below
        n_lower, n_upper = lower.sum(axis=1), upper.sum(axis=1)
        earliest_below = below[np.arange(todo.size), current.argmax(axis=1)]
        pick_lower = (n_lower > n_upper) | ((n_lower == n_upper) & earliest_below)
        surviving[todo] = np.where(pick_lower[:, None], lower, upper)
        hi[todo[pick_lower]] = mid[pick_lower]
        lo[todo[~pick_lower]] = mid[~pick_lower]

    last = n_grid - 1 - surviving[:, ::-1].argmax(axis=1)
    raw = np.where(member, values[rows, last], 0)
    total = np.cumsum(raw, axis=1)[:, -1]  # in cell order, as a sequential sum
    if atoms.dtype == object:
        total = total + Fraction(0)  # integer weights keep an exact quotient
    converged = (witness >= 0) & (surviving.sum(axis=1) >= 2) & (total > 0)
    limit = np.zeros_like(atoms[:, 0])
    share = converged[:, None] & (raw > 0)
    limit[:, :width] = np.where(share, raw / np.where(converged, total, 1)[:, None], limit[:, :width])

    closed = _masses(atoms, layout.closed_cells)
    closed_limit = _masses(limit, layout.closed_cells)
    _, excess = _limsup_excess(closed, closed_limit, tol)
    full = converged & ~(excess > 0).any(axis=1)
    return _Extracted(witness, surviving, converged, limit, closed, closed_limit, full)


def _limit_measure(layout: _Layout, row: np.ndarray) -> ProbMeasure:
    """The measure whose table row is ``row``."""
    cells = np.flatnonzero(row[:-1])
    return ProbMeasure(layout.space, dict(zip(layout.cols[cells].tolist(), row[cells].tolist())))


def _extract(layout: _Layout, atoms: np.ndarray, tol) -> ExtractionResult:
    """:func:`extract_convergent_subsequence` on one G x (C + 1) table: the
    one-row call of :func:`_extract_rows`, and the only caller that builds
    certificates."""
    ft = _tight(layout, atoms)
    if not ft.tight:
        missing = [str(e) for e, w in ft.witnesses if w is None]
        raise NotTightError(f"no uniform compact witness at eps in {{{', '.join(missing)}}}")
    found = _extract_rows(layout, atoms[None], tol)
    surviving = np.flatnonzero(found.surviving[0]).tolist()
    if len(surviving) < 2:
        raise NoConvergenceAtTolError("fewer than two indices survived refinement")
    if not found.converged[0]:
        raise NoConvergenceAtTolError("all witness cells carry zero mass at the limit")

    full_ok = bool(found.full[0])
    selected = list(range(len(atoms))) if full_ok else surviving
    sub = found.closed[0][selected]  # at least two rows, so the head half is never empty
    limsup, excess = _limsup_excess(sub, found.closed_limit[0], tol)
    certs = [
        ClosedSetCertificate(f, float(top), float(limit_mass), float(head_max - top), not over > 0)
        for f, top, head_max, limit_mass, over in zip(
            layout.closed, limsup.tolist(), sub[: len(sub) // 2].max(axis=0).tolist(),
            found.closed_limit[0].tolist(), excess.tolist(),
        )
    ]
    limit = _limit_measure(layout, found.limit[0])
    return ExtractionResult(
        tuple(selected), limit, tuple(certs), all(c.ok for c in certs), ft.witnesses, full_ok
    )


# ---------------------------------------------------------------------------
# bound and uniform-smallness checks

def _least_double_at_least(x) -> float:
    """The least double >= x (a Fraction or a float): a double f holds
    f >= x exactly when f >= this, so one float comparison replaces an exact one."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


@dataclass(frozen=True)
class MarkovBoundResult(Record):
    """Frequency of paths whose empirical mass of a rare event reaches eps;
    ``passed`` is None when the bound is 1 or more, as no fraction exceeds it."""

    passed: bool | None
    violating_fraction: float
    bound: float
    marginal_mass: float
    eps: float
    n_paths: int
    n_steps: int


def markov_bound_check(
    gen: ProcessGenerator,
    event: EventSet,
    eps,
    n_paths: int,
    n_steps: int,
    master_seed: int = 0,
) -> MarkovBoundResult:
    """With P(X_1 in B) <= eps^2, at most an eps-fraction of paths may hold
    empirical mass >= eps; checked with the :func:`binomial_band` of eps over
    the paths. A bound of 1 or more (eps = 1, or 3 paths or fewer at eps =
    1/10) no fraction can exceed, so its verdict is None: it decides nothing.

    The marginal precondition is verified against the generator's exact
    marginal, not sampled, before any path is drawn. ``eps`` must lie in (0, 1].
    """
    if not 0 < eps <= 1:  # rejects NaN as well
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    marginal = mass(gen.marginal(), event)
    if marginal > eps * eps:
        raise ValueError(f"marginal mass {marginal} exceeds eps^2 = {eps * eps}")
    paths = _sampled_paths(gen, (event,), (n_steps,), n_paths, master_seed)
    (n_steps,) = paths.grid
    frac = int((paths.freqs[:, -1, 0] >= _least_double_at_least(eps)).sum()) / n_paths
    eps_f = float(eps)
    bound = eps_f + float(binomial_band(eps_f, n_paths))
    passed = None if bound >= 1 else frac <= bound
    return MarkovBoundResult(passed, frac, bound, float(marginal), eps_f, n_paths, n_steps)


@dataclass(frozen=True)
class UniformSmallnessReport(Record):
    """Per-path search results for a uniform tail index m per epsilon."""

    eps_list: tuple[float, ...]
    n_grid: tuple[int, ...]
    n_paths: int
    coverage: float
    found_fractions: tuple[float, ...]
    m_profiles: tuple[tuple[int | None, ...], ...]  # [eps][path]
    passed: bool


def uniform_smallness_check(
    gen: ProcessGenerator,
    events: Sequence[EventSet],
    eps_list: Sequence,
    n_grid: Sequence[int],
    n_paths: int,
    master_seed: int = 0,
) -> UniformSmallnessReport:
    """For each path and epsilon, find the first event in the decreasing
    chain whose empirical mass stays below epsilon across the WHOLE grid.

    The quantifier over all n is truncated to the grid; that surrogate is the
    point of the grid argument. The check passes when, at every epsilon, at
    least ``DEFAULT_COVERAGE`` of the paths find such an event.
    """
    coverage = DEFAULT_COVERAGE
    for big, small in zip(events, events[1:]):
        if not small.is_subset(big):
            raise ValueError("event chain must be inclusion-decreasing")
    _check_epsilons(eps_list)
    paths = _sampled_paths(gen, events, n_grid, n_paths, master_seed)

    # max over the grid of mu_{w,n}(B_m), per path and per chain member
    sup_mass = paths.freqs.max(axis=1)
    eps_f = tuple(float(e) for e in eps_list)
    below = sup_mass < np.array(eps_f)[:, None, None]  # E x P x M
    found = below.any(axis=2)
    profiles = np.where(found, below.argmax(axis=2), None)  # object dtype: Python ints and None
    fractions = (found.sum(axis=1) / n_paths).tolist()
    passed = all(f >= coverage for f in fractions)
    return UniformSmallnessReport(eps_f, paths.grid, n_paths, coverage, tuple(fractions),
                                  tuple(map(tuple, profiles.tolist())), passed)


# ---------------------------------------------------------------------------
# end-to-end construction of the directing measure

@dataclass(frozen=True)
class RcdPathResult(Record):
    seed_label: str
    status: str  # "ok", "not_tight", "no_convergence"
    subsequence_length: int | None
    tight_witness: EventSet | None
    limit: ProbMeasure | None
    event_gaps: tuple[float, ...]
    kernel_gaps: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return report_value({
            "seed": self.seed_label,
            "status": self.status,
            "subsequence_length": self.subsequence_length,
            "tight_witness": self.tight_witness,
            "event_gaps": self.event_gaps,
            "kernel_gaps": self.kernel_gaps,
            "passed": self.passed,
        })


@dataclass(frozen=True)
class RcdConstructionReport(Record):
    """Per-path directing measures with verification, plus aggregates."""

    scenario: str
    events: tuple[EventSet, ...]
    n_grid: tuple[int, ...]
    n_paths: int
    coverage: float
    tol: float
    marginal_regularity: RegularityReport
    not_tight_fraction: float
    pass_fraction: float
    kernel_report: object | None  # RcdReport when a latent kernel exists
    paths: tuple[RcdPathResult, ...]
    passed: bool


# construct_rcd_from_empiricals's extraction tolerance and event-gap budget
_CONSTRUCT_TOL = 0.05


def _batch_paths(layout: _Layout, n_grid: int) -> int:
    """How many paths' tables make one batch: a lane block (``_LANE_BLOCK``)
    of table entries over one path's entries (grid points x columns, or x
    closed sets where those are more), and at least one path. Every
    temporary of the batch's extraction is within that size."""
    return max(1, _LANE_BLOCK // (n_grid * max(len(layout.cols) + 1, len(layout.closed))))


def _path_limits(layout: _Layout, atoms: np.ndarray, tol) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """For a batch of paths' stacked P x G x (C + 1) tables: each path's
    status, subsequence length, tightness witness at the smallest epsilon and
    limit measure (the last three None unless ok), then P x E masses of the
    requested events under the limits and their gaps to the last rows'."""
    found = _extract_rows(layout, atoms, tol)
    status = np.where(found.converged, "ok", np.where(found.witness < 0, "not_tight", "no_convergence"))
    length = np.where(found.full, atoms.shape[1], found.surviving.sum(axis=1))
    per_path = [
        (s, n, layout.compacts.members[k], _limit_measure(layout, row)) if ok else (s, None, None, None)
        for s, n, k, row, ok in zip(status.tolist(), length.tolist(), found.witness.tolist(), found.limit,
                                    found.converged.tolist())
    ]
    limit_masses = _masses(found.limit, layout.event_cells)
    return per_path, limit_masses, np.abs(limit_masses - _masses(atoms[:, -1], layout.event_cells))


def construct_rcd_from_empiricals(
    gen: ProcessGenerator,
    events: Sequence[EventSet],
    n_grid: Sequence[int],
    n_paths: int,
    master_seed: int = 0,
    coverage: float = DEFAULT_COVERAGE,
) -> RcdConstructionReport:
    """Build the directing measure path by path and verify it.

    Pipeline per path: empirical masses along the grid, uniform tightness,
    deterministic extraction to a limit mu_w at tolerance ``_CONSTRUCT_TOL``
    (0.05); then (a) mu_w must match the final empirical mass on each
    requested event within that tolerance, and (b) where
    the generator declares a latent kernel, mu_w must match that
    kernel within 3 binomial standard errors, and the frequency-level
    verdict of :func:`verify_rcd` is taken on the same paths as an
    independent certificate.

    Paths failing tightness are counted, not fatal; the run passes when the
    per-path pass fraction reaches ``coverage`` (which bounds the not-tight
    fraction as well) and the frequency-level certificate agrees.

    The empirical measures mu_{w,n} are never built. Each path's draws are
    counted once, by the count table that ``kernels._sampled_paths`` counts
    for every Monte Carlo check and hands to this check one lane group at a
    time; divided by n it is the atom-mass table (see the module docstring)
    that tightness and extraction read. The tables of up to a lane block
    (``rng._LANE_BLOCK``) of entries' worth of paths are stacked, and one
    call of the batched extraction gives each path's status, witness, surviving
    indices, limit, full-sequence test and event gaps; no certificate is
    built. The kernel gaps are one P x E array, judged by one elementwise
    :func:`binomial_band` call, and each path's kernel targets are the
    frequency certificate's, so each kernel image is built once. The results
    equal those of :func:`extract_convergent_subsequence` on
    :func:`empirical_sequence`, path by path.
    """
    if not gen.exchangeable:
        raise ValueError("generator is not exchangeable")
    validate_coverage(coverage)
    layout = _Layout(gen.space, events)
    grid = _validate_grid(n_grid)
    big_n = grid[-1]
    lengths = np.array(grid)[:, None]
    batch = min(max(n_paths, 1), _batch_paths(layout, len(grid)))
    atoms = np.empty((batch, len(grid), len(layout.cols) + 1))
    extracted, limit_masses, event_gaps = [], [], []

    def extract(start, tables):  # fills the batch; a full batch, or the last, is extracted
        for i, counts in enumerate(tables, start):
            np.divide(counts, lengths, out=atoms[i % batch])
            if i % batch == batch - 1 or i == n_paths - 1:
                per_path, masses, gaps = _path_limits(layout, atoms[: i % batch + 1], _CONSTRUCT_TOL)
                extracted.extend(per_path)
                limit_masses.append(masses)
                event_gaps.append(gaps)

    paths = _sampled_paths(gen, events, grid, n_paths, master_seed, layout.cols, tables=extract)
    regularity = classify_radon(gen.marginal())
    limit_masses, event_gaps = np.concatenate(limit_masses), np.concatenate(event_gaps)

    path_ok = np.array([s == "ok" for s, *_ in extracted]) & (event_gaps <= _CONSTRUCT_TOL).all(axis=1)
    kernel = gen.latent_kernel()
    kernel_report, kernel_gaps = None, np.empty((n_paths, 0))
    if kernel is not None:
        # each path's kernel targets are the certificate's
        kernel_report = rcd_verdict(kernel, events, paths.latents, paths.freqs[:, -1], big_n, coverage=coverage)
        targets = np.array([r.targets for r in kernel_report.per_event]).T
        kernel_gaps = np.abs(limit_masses - targets)
        path_ok &= (kernel_gaps <= binomial_band(targets, big_n)).all(axis=1)

    results = tuple(
        RcdPathResult(label, s, n, w, mu, tuple(eg), tuple(kg), ok) if s == "ok"
        else RcdPathResult(label, s, None, None, None, (), (), False)
        for label, (s, n, w, mu), eg, kg, ok in zip(
            paths.labels, extracted, event_gaps.tolist(), kernel_gaps.tolist(), path_ok.tolist()
        )
    )
    not_tight = sum(r.status == "not_tight" for r in results)
    freq_ok = kernel_report is None or kernel_report.passed
    pass_fraction = sum(r.passed for r in results) / n_paths
    passed = pass_fraction >= coverage and freq_ok
    return RcdConstructionReport(
        gen.spec_label(),
        tuple(events),
        grid,
        n_paths,
        coverage,
        _CONSTRUCT_TOL,
        regularity,
        not_tight / n_paths,
        pass_fraction,
        kernel_report,
        results,
        passed,
    )
