"""Probability measures on desk-scale spaces: mass, distance, tightness,
outer regularity, and the tight+outer-regular Radon classifier.

A measure is a finitely supported weight table, optionally combined (on the
countable space) with geometric components ``weight * Geom(q)`` whose atom and
tail masses have closed forms. That keeps cofinite-event masses and tightness
witnesses exactly computable in rational mode.

Arithmetic modes, inferred from the weights and ratios:

* ``exact`` -- weights are :class:`fractions.Fraction`; total mass must be
  exactly 1. Used by all brute-force oracle comparisons.
* ``float`` -- float64 weights; total mass within 1e-12 of 1. Used by Monte
  Carlo runs.

The Radon classifier has one fixed configuration: the space's
``default_compact_family`` (64 initial segments on the countable space, the
full space otherwise) and ``DEFAULT_EPS_SCHEDULE`` (1/2, 1/4, ..., 1/1024).
``is_tight``, ``tightness_scan`` and ``is_outer_regular_on`` take an explicit
family and schedule for any other choice.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from .spaces import (
    CompactFamily,
    EventSet,
    SpaceDescriptor,
    SpaceMismatchError,
    default_compact_family,
    event_spec,
)

FLOAT_MASS_TOL = 1e-12

# An exact geometric mass at cell j holds (1 - q)**j, a Fraction of about
# j * log2(denominator) bits; past this size it is refused, not computed.
MAX_EXACT_POWER_BITS = 10**6

EXACT = "exact"
FLOAT = "float"


def _is_exact(x) -> bool:
    return isinstance(x, Rational)


@dataclass(frozen=True)
class GeometricComponent:
    """One mixture component ``weight * Geom(ratio)``: P(j) = q*(1-q)**j."""

    weight: object  # Fraction or float, > 0
    ratio: object  # q in (0, 1]

    def atom_mass(self, j: int):
        return self.weight * self.ratio * self._survival(j)

    def tail_mass(self, m: int):
        """Mass of atoms {m, m+1, ...}: weight * (1-q)**m."""
        return self.weight * self._survival(m)

    def _survival(self, j: int):
        """(1-q)**j; ValueError when exact and over MAX_EXACT_POWER_BITS bits."""
        base = 1 - self.ratio
        if _is_exact(base):
            bits = j * math.log2(max(base.numerator, base.denominator))
            if bits > MAX_EXACT_POWER_BITS:
                raise ValueError(
                    f"cell {j} is too far out for the exact law Geom({self.ratio}): its mass "
                    f"needs (1-q)**{j}, about {bits:.3g} bits (limit {MAX_EXACT_POWER_BITS})"
                )
        return base**j


class ProbMeasure:
    """A probability measure over the cells of a :class:`SpaceDescriptor`."""

    def __init__(
        self,
        space: SpaceDescriptor,
        weights: Mapping[int, object] | None = None,
        components: Sequence[GeometricComponent] = (),
    ):
        weights = dict(weights or {})
        if components and not space.is_countable:
            raise ValueError("geometric components exist only on the countable space")
        for j, w in weights.items():
            if not space.valid_index(j):
                raise ValueError(f"cell index {j} invalid for {space}")
            if w < 0:
                raise ValueError(f"negative weight at cell {j}")
        for comp in components:
            if comp.weight <= 0 or not (0 < comp.ratio <= 1):
                raise ValueError("geometric component needs weight > 0, 0 < ratio <= 1")

        values = list(weights.values()) + [c.weight for c in components] + [c.ratio for c in components]
        self.mode = EXACT if all(_is_exact(v) for v in values) else FLOAT

        total = sum(weights.values()) + sum(c.weight for c in components)
        if self.mode == EXACT:
            if total != 1:
                raise ValueError(f"total mass {total} != 1")
        elif not abs(total - 1) <= FLOAT_MASS_TOL:  # written so a NaN total fails
            raise ValueError(f"total mass {total} not within {FLOAT_MASS_TOL} of 1")

        self.space = space
        self._weights = {j: w for j, w in weights.items() if w > 0}
        self._components = tuple(components)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_weights(space: SpaceDescriptor, weights: Sequence) -> "ProbMeasure":
        return ProbMeasure(space, dict(enumerate(weights)))

    @staticmethod
    def delta(space: SpaceDescriptor, j: int) -> "ProbMeasure":
        return ProbMeasure(space, {j: Fraction(1)})

    @staticmethod
    def uniform(space: SpaceDescriptor) -> "ProbMeasure":
        n = space.num_cells
        if n is None:
            raise ValueError("no uniform measure on the countable space")
        return ProbMeasure(space, {j: Fraction(1, n) for j in range(n)})

    @staticmethod
    def bernoulli(space: SpaceDescriptor, p) -> "ProbMeasure":
        if space.num_cells != 2:
            raise ValueError("bernoulli needs a two-cell space")
        one = Fraction(1) if _is_exact(p) else 1.0
        return ProbMeasure(space, {0: one - p, 1: p})

    @staticmethod
    def geometric(space: SpaceDescriptor, q) -> "ProbMeasure":
        one = Fraction(1) if _is_exact(q) else 1.0
        return ProbMeasure(space, components=[GeometricComponent(one, q)])

    @staticmethod
    def geometric_mixture(space: SpaceDescriptor, parts: Iterable[tuple]) -> "ProbMeasure":
        comps = [GeometricComponent(w, q) for w, q in parts]
        return ProbMeasure(space, components=comps)

    # -- evaluation --------------------------------------------------------

    @property
    def is_finitely_supported(self) -> bool:
        return not self._components

    def support(self) -> list[int]:
        """Support cells; only available for finitely supported measures."""
        if self._components:
            raise ValueError("support of an analytic law is infinite")
        return sorted(self._weights)

    def atom_mass(self, j: int):
        w = self._weights.get(j, Fraction(0) if self.mode == EXACT else 0.0)
        for comp in self._components:
            w = w + comp.atom_mass(j)
        return w

    def tail_mass(self, m: int):
        """Mass of the cells {m, m+1, ...} on the countable space."""
        if not self.space.is_countable:
            raise ValueError("tail_mass applies to the countable space")
        w = sum((v for j, v in self._weights.items() if j >= m), Fraction(0) if self.mode == EXACT else 0.0)
        for comp in self._components:
            w = w + comp.tail_mass(m)
        return w

    def weights_dict(self) -> dict[int, object]:
        return dict(self._weights)


def mix_measures(parts: Sequence[tuple]) -> ProbMeasure:
    """Convex combination sum_i w_i * mu_i of measures on a common space."""
    if not parts:
        raise ValueError("mixture needs at least one part")
    space = parts[0][1].space
    weights: dict[int, object] = {}
    comps: list[GeometricComponent] = []
    for w, mu in parts:
        if mu.space != space:
            raise SpaceMismatchError("mixture parts on different spaces")
        if w < 0:
            raise ValueError("mixture weights must be non-negative")
        if w == 0:
            continue
        for j, v in mu.weights_dict().items():
            weights[j] = weights.get(j, 0) + w * v
        for c in mu._components:
            comps.append(GeometricComponent(w * c.weight, c.ratio))
    return ProbMeasure(space, weights, comps)


def mass(mu: ProbMeasure, event: EventSet):
    """mu(event); additive over disjoint events, 1 on the full space."""
    if event.space != mu.space:
        raise SpaceMismatchError(f"event on {event.space}, measure on {mu.space}")
    # left to right in the event's cell order, like every running sum that
    # reproduces this mass (``sum`` compensates float sums from Python 3.12)
    finite_part = Fraction(0) if mu.mode == EXACT else 0.0
    for j in event.indices:
        finite_part = finite_part + mu.atom_mass(j)
    if event.cofinite:
        return 1 - finite_part
    return finite_part


def tv_distance(mu: ProbMeasure, nu: ProbMeasure):
    """Total variation distance (1/2) sum_j |mu_j - nu_j|.

    Exact when both measures are finitely supported; analytic countable laws
    are truncated once both remaining tails are below 1e-13, and the result is
    returned as a float in that case.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("tv_distance needs a common space")
    if mu.is_finitely_supported and nu.is_finitely_supported:
        cells = set(mu.weights_dict()) | set(nu.weights_dict())
        return sum((abs(mu.atom_mass(j) - nu.atom_mass(j)) for j in cells), Fraction(0)) / 2
    # Truncate: |sum_{j>=M} |mu_j - nu_j|| <= tail_mu(M) + tail_nu(M), all in
    # floats: an exact law gives what its float twin gives, at the same cost.
    mu, nu = _in_floats(mu), _in_floats(nu)
    m = 1
    while mu.tail_mass(m) + nu.tail_mass(m) > 1e-13:
        m *= 2
        if m > 1 << 20:
            raise ValueError("tails decay too slowly for tv_distance truncation")

    def atoms(law):
        """law.atom_mass(j) for j < m, by the same float operations."""
        out = np.zeros(m)
        for j, w in law._weights.items():
            if j < m:
                out[j] = w
        for c in law._components:
            # CPython's ** as in _survival: np.power rounds some cells differently
            base = 1 - c.ratio
            out += c.weight * c.ratio * np.fromiter((base**j for j in range(m)), float, m)
        return out

    # cumsum adds in sequence, as a running sum over j would
    return float(np.cumsum(np.abs(atoms(mu) - atoms(nu)))[-1]) / 2


def _in_floats(mu: ProbMeasure) -> ProbMeasure:
    """mu with float weights and ratios; a float law is returned as it is."""
    if mu.mode == FLOAT:
        return mu
    out = copy.copy(mu)
    out.mode = FLOAT
    out._weights = {j: float(w) for j, w in mu._weights.items()}
    out._components = tuple(GeometricComponent(float(c.weight), float(c.ratio)) for c in mu._components)
    return out


@dataclass(frozen=True)
class TightnessResult:
    tight: bool
    # eps -> first family member K with mu(K) > 1 - eps, or None
    witnesses: tuple[tuple[object, EventSet | None], ...]


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


def _family_masses(mu: ProbMeasure, compacts: CompactFamily) -> list:
    """mass(mu, K) for each member K of a chain family, from one running sum
    over the atoms."""
    if mu.space != compacts.space:
        raise SpaceMismatchError(f"compacts on {compacts.space}, measure on {mu.space}")
    order, ends = _chain_order(compacts)
    zero = Fraction(0) if mu.mode == EXACT else 0.0
    running = list(accumulate((mu.atom_mass(j) for j in order), initial=zero))
    return [running[end] for end in ends]


def _tightness(compacts: CompactFamily, masses: Sequence, epsilons: Sequence, floors: Sequence) -> TightnessResult:
    """Per epsilon, the first compact whose mass exceeds its floor 1 - eps."""
    witnesses = tuple(
        (eps, next((k for k, m in zip(compacts, masses) if m > floor), None))
        for eps, floor in zip(epsilons, floors)
    )
    return TightnessResult(all(w is not None for _, w in witnesses), witnesses)


def tightness_scan(
    measures: Sequence[ProbMeasure],
    space: SpaceDescriptor,
    compacts: CompactFamily,
    epsilons: Sequence,
) -> TightnessResult:
    """Per epsilon, the first compact K with mu(K) > 1 - eps for EVERY listed
    measure (a uniform witness), or None where no family member works.

    Each compact's smallest mass over the measures is computed once, in
    family order, until the tightest floor 1 - min(eps) is met; every
    epsilon's witness is read from that list."""
    if not epsilons:
        raise ValueError("epsilon list must be non-empty")
    if not all(e > 0 for e in epsilons):  # rejects NaN as well
        raise ValueError("epsilons must be positive")
    if compacts.space != space:
        raise SpaceMismatchError("compact family on wrong space")
    floors = [1 - eps for eps in epsilons]
    tightest = max(floors)
    masses = []
    for k in compacts:
        masses.append(min(mass(mu, k) for mu in measures))
        if masses[-1] > tightest:
            break
    return _tightness(compacts, masses, epsilons, floors)


def is_tight(mu: ProbMeasure, compacts: CompactFamily, epsilons: Sequence) -> TightnessResult:
    """Scan the compact family for a witness mu(K) > 1 - eps per epsilon."""
    return tightness_scan((mu,), mu.space, compacts, epsilons)


def is_outer_regular_on(
    mu: ProbMeasure,
    target: EventSet,
    opens: Sequence[EventSet],
    epsilons: Sequence,
) -> tuple[tuple[object, EventSet | None], ...]:
    """Per epsilon, the first open superset O of target with
    mu(O) <= mu(target) + eps, or None where no candidate works."""
    if not epsilons:
        raise ValueError("epsilon list must be non-empty")
    if not all(e > 0 for e in epsilons):  # rejects NaN as well
        raise ValueError("epsilons must be positive")
    for o in opens:
        if not target.is_subset(o):
            raise ValueError("candidate open set does not contain the target")
    return _outer_witnesses(mass(mu, target), opens, [mass(mu, o) for o in opens], epsilons)


def _outer_witnesses(base, opens: Sequence[EventSet], masses: Sequence, epsilons: Sequence):
    """Per epsilon, the first open set whose mass is at most base + eps."""
    return tuple(
        (eps, next((o for o, m in zip(opens, masses) if m <= base + eps), None))
        for eps in epsilons
    )


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the Radon classifier: tight and outer regular on compacts."""

    tight: bool
    tight_witnesses: tuple[tuple[object, EventSet | None], ...]
    outer_regular_on_compacts: bool
    # (compact K, eps) -> witnessing open superset, or None
    outer_witnesses: tuple[tuple[EventSet, object, EventSet | None], ...]
    radon: bool

    def __post_init__(self) -> None:
        if self.radon != (self.tight and self.outer_regular_on_compacts):
            raise ValueError("radon flag must equal tight AND outer_regular_on_compacts")

    def to_dict(self) -> dict:
        return {
            "tight": self.tight,
            "tight_witnesses": [
                {"eps": str(e), "witness": event_spec(w)} for e, w in self.tight_witnesses
            ],
            "outer_regular_on_compacts": self.outer_regular_on_compacts,
            "outer_witnesses": [
                {"compact": event_spec(k), "eps": str(e), "witness": event_spec(w)}
                for k, e, w in self.outer_witnesses
            ],
            "radon": self.radon,
        }


DEFAULT_EPS_SCHEDULE = tuple(Fraction(1, 2**k) for k in range(1, 11))
# 1 - 2**-k is exact in float64, so a mass compares with these floats exactly
# as with the Fraction floors
_DEFAULT_FLOORS = tuple(float(1 - eps) for eps in DEFAULT_EPS_SCHEDULE)


def classify_radon(mu: ProbMeasure) -> RegularityReport:
    """Certify Radon-ness as tightness plus outer regularity on compacts,
    over the space's default compact family and ``DEFAULT_EPS_SCHEDULE``.

    The open-superset candidates for a compact K are K itself and the full
    space: in the discrete convention every event is open, and on the dyadic
    space the only default compact is the full space, so the candidate list
    is honest for every supported kind.
    """
    compacts = default_compact_family(mu.space)
    masses = _family_masses(mu, compacts)
    tight = _tightness(compacts, masses, DEFAULT_EPS_SCHEDULE, _DEFAULT_FLOORS)
    full = EventSet.full(mu.space)
    full_mass = mass(mu, full)
    outer_witnesses = tuple(
        (k, eps, wit)
        for k, m in zip(compacts, masses)
        for eps, wit in _outer_witnesses(m, (k, full), (m, full_mass), DEFAULT_EPS_SCHEDULE)
    )
    outer_ok = all(wit is not None for _, _, wit in outer_witnesses)

    return RegularityReport(
        tight=tight.tight,
        tight_witnesses=tight.witnesses,
        outer_regular_on_compacts=outer_ok,
        outer_witnesses=outer_witnesses,
        radon=tight.tight and outer_ok,
    )
