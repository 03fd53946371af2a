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
built once per space) and ``DEFAULT_EPS_SCHEDULE``. ``a_converges`` and, in
``measures``, ``is_tight`` and ``tightness_scan`` take an explicit family and
schedule for any other choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .empirical import _validate_grid
from .kernels import binomial_band, grid_counts, rcd_verdict, validate_tol
from .measures import (
    DEFAULT_EPS_SCHEDULE,
    ProbMeasure,
    RegularityReport,
    TightnessResult,
    classify_radon,
    mass,
    tightness_scan,
)
from .processes import PathSample, ProcessGenerator
from .spaces import (
    ClosedFamily,
    EventSet,
    SpaceDescriptor,
    SpaceMismatchError,
    default_closed_family,
    default_compact_family,
    event_spec,
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
    """The per-path sequence mu_{w,n} along the grid, with float weights.

    An exact sequence is ``MeasureSequence(space, tuple(empirical_measure(path,
    n) for n in grid))``.
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
# closed-set convergence

def _tail_half(values: Sequence) -> Sequence:
    return values[len(values) // 2 :]


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
    second slot names the worst offender.
    """
    _check_tol(tol)
    if candidate.space != seq.space or closed.space != seq.space:
        raise SpaceMismatchError("sequence, candidate and family must share a space")
    if len(closed) == 0:
        raise ValueError("closed family must be non-empty")
    worst = None
    worst_excess = 0
    for f in closed:
        limsup = max(mass(mu, f) for mu in _tail_half(seq.measures))
        excess = limsup - mass(candidate, f) - tol
        if excess > 0 and excess > worst_excess:
            worst = f
            worst_excess = excess
    return worst is None, worst


def family_tight(seq: MeasureSequence) -> TightnessResult:
    """Uniform tightness over the whole sequence: for each epsilon of
    ``DEFAULT_EPS_SCHEDULE``, a single default compact K with
    mu_n(K) > 1 - eps for ALL n."""
    return tightness_scan(seq.measures, seq.space, default_compact_family(seq.space), DEFAULT_EPS_SCHEDULE)


# ---------------------------------------------------------------------------
# deterministic extraction

@dataclass(frozen=True)
class ClosedSetCertificate:
    event: EventSet
    limsup: float
    limit_mass: float
    drift: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "event": event_spec(self.event),
            "limsup": self.limsup,
            "limit_mass": self.limit_mass,
            "drift": self.drift,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ExtractionResult:
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
        return {
            "indices": list(self.indices),
            "subsequence_length": len(self.indices),
            "full_sequence": self.full_sequence,
            "a_converged": self.a_converged,
            "tight_witnesses": [
                {"eps": str(e), "witness": event_spec(w)} for e, w in self.tight_witnesses
            ],
            "certificates": [c.to_dict() for c in self.certificates],
        }


def _refine_positions(positions: list[int], values: list, tol) -> list[int]:
    """Bisect [0,1] around the dominant mass cluster.

    Keeps the better-populated half at each split (ties go to the half
    holding the earliest selected index) until the surviving values span at
    most tol/2.
    """
    lo, hi = 0.0, 1.0
    current = positions
    while True:
        vals = [values[p] for p in current]
        if max(vals) - min(vals) <= tol / 2:
            return current
        if len(current) < 2:
            raise NoConvergenceAtTolError(
                "cluster refinement exhausted the sequence before reaching tol"
            )
        mid = (lo + hi) / 2
        lower = [p for p in current if values[p] < mid]
        upper = [p for p in current if values[p] >= mid]
        if len(lower) > len(upper):
            pick, hi = lower, mid
        elif len(upper) > len(lower):
            pick, lo = upper, mid
        elif current[0] in lower:
            pick, hi = lower, mid
        else:
            pick, lo = upper, mid
        if not pick:
            raise NoConvergenceAtTolError("empty mass cluster at tol")
        current = pick


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
    closed = default_closed_family(seq.space)
    ft = family_tight(seq)
    if not ft.tight:
        missing = [str(e) for e, w in ft.witnesses if w is None]
        raise NotTightError(f"no uniform compact witness at eps in {{{', '.join(missing)}}}")

    min_eps = min(e for e, _ in ft.witnesses)
    witness = next(w for e, w in ft.witnesses if e == min_eps)
    cells = sorted(witness.indices)
    cell_values = {c: [mu.atom_mass(c) for mu in seq.measures] for c in cells}
    positions = list(range(len(seq)))
    for c in cells:
        positions = _refine_positions(positions, cell_values[c], tol)
    if len(positions) < 2:
        raise NoConvergenceAtTolError("fewer than two indices survived refinement")

    last = positions[-1]
    raw = {c: cell_values[c][last] for c in cells}
    total = sum(raw.values(), Fraction(0))  # a Fraction start keeps integer weights exact
    if total <= 0:
        raise NoConvergenceAtTolError("all witness cells carry zero mass at the limit")
    limit = ProbMeasure(seq.space, {c: w / total for c, w in raw.items() if w > 0})

    full_ok, _ = a_converges(seq, limit, closed, tol)
    selected = list(range(len(seq))) if full_ok else positions

    sub = [seq.measures[i] for i in selected]
    tail = _tail_half(sub)
    head = sub[: len(sub) // 2] or sub
    certs = []
    all_ok = True
    for f in closed:
        limsup = max(mass(mu, f) for mu in tail)
        head_max = max(mass(mu, f) for mu in head)
        limit_mass = mass(limit, f)
        ok = limsup <= limit_mass + tol
        certs.append(
            ClosedSetCertificate(f, float(limsup), float(limit_mass), float(head_max - limsup), ok)
        )
        all_ok = all_ok and ok
    return ExtractionResult(
        tuple(selected), limit, tuple(certs), all_ok, ft.witnesses, full_ok
    )


# ---------------------------------------------------------------------------
# bound and uniform-smallness checks

@dataclass(frozen=True)
class MarkovBoundResult:
    """Frequency of paths whose empirical mass of a rare event reaches eps."""

    passed: bool
    violating_fraction: float
    bound: float
    marginal_mass: float
    eps: float
    n_paths: int
    n_steps: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violating_fraction": self.violating_fraction,
            "bound": self.bound,
            "marginal_mass": self.marginal_mass,
            "eps": self.eps,
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
        }


def markov_bound_check(
    gen: ProcessGenerator,
    event: EventSet,
    eps,
    n_paths: int,
    n_steps: int,
    master_seed: int = 0,
) -> MarkovBoundResult:
    """With P(X_1 in B) <= eps^2, at most an eps-fraction of paths may hold
    empirical mass >= eps; checked with a 3 standard-error binomial margin.

    The marginal precondition is verified against the generator's exact
    marginal, not sampled.
    """
    if event.space != gen.space:
        raise SpaceMismatchError("event on the wrong space")
    if n_paths < 1:
        raise ValueError("need at least one path")
    marginal = mass(gen.marginal(), event)
    if marginal > eps * eps:
        raise ValueError(f"marginal mass {marginal} exceeds eps^2 = {eps * eps}")
    violating = 0
    for i in range(n_paths):
        path = gen.sample_path(n_steps, master_seed, path_index=i)
        freq = float(grid_counts(path.observations, (event,), (n_steps,))[0, 0] / n_steps)
        if freq >= eps:
            violating += 1
    frac = violating / n_paths
    eps_f = float(eps)
    bound = eps_f + 3.0 * math.sqrt(eps_f * (1.0 - eps_f) / n_paths)
    return MarkovBoundResult(frac <= bound, frac, bound, float(marginal), eps_f, n_paths, n_steps)


@dataclass(frozen=True)
class UniformSmallnessReport:
    """Per-path search results for a uniform tail index m per epsilon."""

    eps_list: tuple[float, ...]
    n_grid: tuple[int, ...]
    n_paths: int
    coverage: float
    m_profiles: tuple[tuple[int | None, ...], ...]  # [eps][path]
    found_fractions: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "eps_list": list(self.eps_list),
            "n_grid": list(self.n_grid),
            "n_paths": self.n_paths,
            "coverage": self.coverage,
            "found_fractions": list(self.found_fractions),
            "m_profiles": [
                [m for m in profile] for profile in self.m_profiles
            ],
            "passed": self.passed,
        }


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
    least 95% of the paths find such an event.
    """
    coverage = 0.95
    if not events:
        raise ValueError("event chain must be non-empty")
    for big, small in zip(events, events[1:]):
        if not small.is_subset(big):
            raise ValueError("event chain must be inclusion-decreasing")
    if not eps_list:
        raise ValueError("epsilon list must be non-empty")
    if n_paths < 1:
        raise ValueError("need at least one path")
    grid = _validate_grid(n_grid)
    big_n = grid[-1]
    grid_arr = np.array(grid, dtype=np.float64)

    # max over the grid of mu_{w,n}(B_m), per path and per chain member
    sup_mass = np.zeros((n_paths, len(events)))
    for i in range(n_paths):
        path = gen.sample_path(big_n, master_seed, path_index=i)
        sup_mass[i] = np.max(grid_counts(path.observations, events, grid) / grid_arr, axis=1)

    profiles = []
    fractions = []
    for eps in eps_list:
        row: list[int | None] = []
        for i in range(n_paths):
            hit = np.nonzero(sup_mass[i] < float(eps))[0]
            row.append(int(hit[0]) if hit.size else None)
        found = sum(m is not None for m in row) / n_paths
        profiles.append(tuple(row))
        fractions.append(found)
    passed = all(f >= coverage for f in fractions)
    return UniformSmallnessReport(
        tuple(float(e) for e in eps_list),
        grid,
        n_paths,
        coverage,
        tuple(profiles),
        tuple(fractions),
        passed,
    )


# ---------------------------------------------------------------------------
# end-to-end construction of the directing measure

@dataclass(frozen=True)
class RcdPathResult:
    seed_label: str
    status: str  # "ok", "not_tight", "no_convergence"
    subsequence_length: int | None
    tight_witness: EventSet | None
    limit: ProbMeasure | None
    event_gaps: tuple[float, ...]
    kernel_gaps: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "seed": self.seed_label,
            "status": self.status,
            "subsequence_length": self.subsequence_length,
            "tight_witness": event_spec(self.tight_witness),
            "event_gaps": list(self.event_gaps),
            "kernel_gaps": list(self.kernel_gaps),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class RcdConstructionReport:
    """Per-path directing measures with verification, plus aggregates."""

    scenario: str
    events: tuple[EventSet, ...]
    n_grid: tuple[int, ...]
    n_paths: int
    coverage: float
    tol: float
    marginal_regularity: RegularityReport
    paths: tuple[RcdPathResult, ...]
    not_tight_fraction: float
    pass_fraction: float
    kernel_report: object | None  # RcdReport when a latent kernel exists
    passed: bool

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "events": [event_spec(ev) for ev in self.events],
            "n_grid": list(self.n_grid),
            "n_paths": self.n_paths,
            "coverage": self.coverage,
            "tol": self.tol,
            "marginal_regularity": self.marginal_regularity.to_dict(),
            "not_tight_fraction": self.not_tight_fraction,
            "pass_fraction": self.pass_fraction,
            "kernel_report": self.kernel_report.to_dict() if self.kernel_report else None,
            "paths": [p.to_dict() for p in self.paths],
            "passed": self.passed,
        }


def construct_rcd_from_empiricals(
    gen: ProcessGenerator,
    events: Sequence[EventSet],
    n_grid: Sequence[int],
    n_paths: int,
    tol: float = 0.05,
    master_seed: int = 0,
    coverage: float = 0.95,
) -> RcdConstructionReport:
    """Build the directing measure path by path and verify it.

    Pipeline per path: empirical sequence along the grid, uniform tightness,
    deterministic extraction to a limit mu_w; then (a) mu_w must match the
    final empirical mass on each requested event within tol, and (b) where
    the generator exposes a realized latent, mu_w must match the latent
    kernel within 3 binomial standard errors, and the frequency-level
    verdict of :func:`verify_rcd` is taken on the same paths as an
    independent certificate.

    Paths failing tightness are counted, not fatal; the run passes when the
    per-path pass fraction reaches ``coverage`` (which bounds the not-tight
    fraction as well) and the frequency-level certificate agrees.
    """
    if not gen.exchangeable:
        raise ValueError("generator is not exchangeable")
    if not events:
        raise ValueError("event list must be non-empty")
    grid = _validate_grid(n_grid)
    if n_paths < 1:
        raise ValueError("need at least one path")
    validate_tol(tol)

    regularity = classify_radon(gen.marginal())
    if not regularity.radon:
        raise ValueError("generator marginal failed the Radon classification")

    kernel = gen.latent_kernel()
    big_n = grid[-1]
    results = []
    not_tight = 0
    latents, freqs = [], []
    for i in range(n_paths):
        path = gen.sample_path(big_n, master_seed, path_index=i)
        if kernel is not None:
            latents.append(path.latent)
            freqs.append(grid_counts(path.observations, events, (big_n,))[:, 0] / big_n)
        seq = empirical_sequence(path, grid)
        try:
            ext = extract_convergent_subsequence(seq, tol=tol)
        except NotTightError:
            not_tight += 1
            results.append(
                RcdPathResult(path.seed_label, "not_tight", None, None, None, (), (), False)
            )
            continue
        except NoConvergenceAtTolError:
            results.append(
                RcdPathResult(path.seed_label, "no_convergence", None, None, None, (), (), False)
            )
            continue

        # extraction raised NotTightError unless every eps has a witness
        witness = ext.tight_witnesses[-1][1]
        final = seq[len(seq) - 1]
        limit_masses = [float(mass(ext.limit, ev)) for ev in events]
        event_gaps = tuple(abs(m - float(mass(final, ev))) for m, ev in zip(limit_masses, events))
        ok = all(g <= tol for g in event_gaps)
        kernel_gaps = ()
        targets = [gen.path_target(path, ev) for ev in events]
        if all(t is not None for t in targets):
            kernel_gaps = tuple(abs(m - t) for m, t in zip(limit_masses, targets))
            ok = ok and all(g <= binomial_band(t, big_n) for g, t in zip(kernel_gaps, targets))
        results.append(
            RcdPathResult(
                path.seed_label,
                "ok",
                len(ext.indices),
                witness,
                ext.limit,
                event_gaps,
                kernel_gaps,
                ok,
            )
        )

    kernel_report = None
    freq_ok = True
    if kernel is not None:
        kernel_report = rcd_verdict(kernel, events, latents, freqs, big_n, coverage=coverage)
        freq_ok = kernel_report.passed

    pass_fraction = sum(r.passed for r in results) / n_paths
    passed = pass_fraction >= coverage and freq_ok
    return RcdConstructionReport(
        gen.spec_label(),
        tuple(events),
        grid,
        n_paths,
        coverage,
        float(tol),
        regularity,
        tuple(results),
        not_tight / n_paths,
        pass_fraction,
        kernel_report,
        passed,
    )
