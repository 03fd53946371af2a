"""Markov kernels, product-kernel cylinder masses, and the Monte Carlo
regular-conditional-distribution verifier.

A kernel is a parameter-indexed family of probability measures on a fixed
target space. The infinite product kernel is represented only through its
cylinder values: the mass of A_1 x ... x A_m x S x S x ... under parameter w
is the product of the per-coordinate kernel masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .measures import EXACT, ProbMeasure, mass
from .spaces import EventSet, SpaceDescriptor, SpaceMismatchError, event_spec


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
class RcdReport:
    """Per-event agreement between kernel masses and long-run frequencies."""

    n_paths: int
    n_steps: int
    coverage: float
    per_event: tuple[RcdEventResult, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "coverage": self.coverage,
            "events": [
                {
                    "event": event_spec(r.event),
                    "pass_fraction": r.pass_fraction,
                    "max_gap": max(r.gaps) if r.gaps else None,
                }
                for r in self.per_event
            ],
            "passed": self.passed,
        }


def verify_rcd(
    kappa: MarkovKernel,
    gen,
    events: Sequence[EventSet],
    n_paths: int,
    n_steps: int,
    tol: float | None = None,
    master_seed: int = 0,
    coverage: float = 0.95,
) -> RcdReport:
    """Check that kappa is the conditional law of the generator's coordinates.

    For each independently seeded path, the realized latent parameter selects
    a kernel measure; the check compares kappa(latent, A) with the path's
    empirical frequency of A after ``n_steps`` observations. Almost-sure
    agreement is operationalized as: at least ``coverage`` of paths agree
    within ``tol`` (default 3 binomial standard errors at the kernel mass).
    """
    if not events:
        raise ValueError("event list must be non-empty")
    if gen.latent_kernel() is None:
        raise ValueError("generator declares no latent kernel")
    if n_paths < 1:
        raise ValueError("need at least one path")
    validate_tol(tol)
    validate_coverage(coverage)
    latents, freqs = [], []
    for i in range(n_paths):
        path = gen.sample_path(n_steps, master_seed, path_index=i)
        latents.append(path.latent)
        freqs.append(grid_counts(path.observations, events, (n_steps,))[:, 0] / n_steps)
    return rcd_verdict(kappa, events, latents, freqs, n_steps, tol, coverage)


def rcd_verdict(
    kappa: MarkovKernel,
    events: Sequence[EventSet],
    latents: Sequence,
    freqs: Sequence[Sequence[float]],
    n_steps: int,
    tol: float | None = None,
    coverage: float = 0.95,
) -> RcdReport:
    """The verdict of :func:`verify_rcd` over already sampled paths:
    ``freqs[i][k]`` is path i's frequency of ``events[k]`` after ``n_steps``
    draws and ``latents[i]`` its realized latent parameter. Each frequency is
    judged against kappa(latents[i], events[k]) within ``tol``, or within
    :func:`binomial_band` at that target when ``tol`` is None."""
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
            hits += gap <= (binomial_band(target, n_steps) if tol is None else float(tol))
            targets.append(target)
            gaps.append(gap)
        results.append(RcdEventResult(ev, hits / len(latents), tuple(targets), tuple(gaps)))
    passed = all(r.pass_fraction >= coverage for r in results)
    return RcdReport(len(latents), n_steps, coverage, tuple(results), passed)


def sigma_band(se: float, n: int) -> float:
    """The default pass band: 3 standard errors, floored at 3/n so a
    zero-variance estimate still gets one count of slack."""
    return 3.0 * max(se, 1.0 / n)


def binomial_band(p: float, n: int) -> float:
    """:func:`sigma_band` of a frequency over n draws with success mass p."""
    return sigma_band(math.sqrt(p * (1.0 - p) / n), n)


def validate_tol(tol) -> None:
    """A tolerance override must be finite and positive; None keeps the band."""
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def validate_coverage(coverage) -> None:
    """A required pass fraction must lie in (0, 1]; NaN fails as well."""
    if not 0 < coverage <= 1:
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")


def indicator_array(obs: np.ndarray, event: EventSet) -> np.ndarray:
    """Boolean membership of each observation in the event."""
    if event.cofinite:
        return ~np.isin(obs, sorted(event.indices))
    return np.isin(obs, sorted(event.indices))


def grid_counts(obs, events: Sequence[EventSet], grid: Sequence[int]) -> np.ndarray:
    """E x G integer array: how many of the first ``grid[g]`` observations
    fall in ``events[e]``.

    ``grid`` must be strictly increasing and positive; draws past ``grid[-1]``
    are ignored. Hits are counted segment by segment between grid points and
    accumulated, so the only path-length temporary is one boolean array per
    event.
    """
    if grid[-1] > len(obs):
        raise ValueError("grid exceeds the path length")
    obs = np.asarray(obs)[: grid[-1]]
    bounds = (0, *grid)
    counts = np.empty((len(events), len(grid)), dtype=np.int64)
    for e, ev in enumerate(events):
        hits = indicator_array(obs, ev)
        segments = [np.count_nonzero(hits[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        np.cumsum(segments, out=counts[e])
    return counts
