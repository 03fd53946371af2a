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

The Radon classifier takes its tightness witnesses from the tail: for each
epsilon of ``DEFAULT_EPS_SCHEDULE`` (1/2, 1/4, ..., 1/1024), the shortest
initial segment whose complement has mass below epsilon, however long. Every
probability on a countable discrete space is Radon (Ulam's theorem), so a
witness always exists; only an exact law too far out to compute is refused.
Outer regularity needs no search, as each default compact is itself open.
``is_tight`` and ``is_outer_regular_on`` check an explicit family and
schedule.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from .spaces import (
    CompactFamily,
    EventSet,
    Record,
    SpaceDescriptor,
    SpaceMismatchError,
    report_value,
)

FLOAT_MASS_TOL = 1e-12

# An exact geometric mass at cell j holds (1 - q)**j, a Fraction of about
# j * log2(denominator) bits; past this size it is refused, not computed.
MAX_EXACT_POWER_BITS = 10**6

# The Radon classifier reaches a tail within this many cells of the last one
# it computed from that one's powers.
_POWER_STEP = 64

# The uniform law holds one Fraction per cell; past 2**16 cells it is
# refused, not built.
MAX_UNIFORM_CELLS = 2**16

EXACT = "exact"
FLOAT = "float"


def _is_exact(x) -> bool:
    return isinstance(x, Rational)


def _exact_sum(values: Iterable) -> Fraction:
    """sum(values) of rationals, adding the numerators of each denominator
    first: a law of many cells over few denominators (the uniform law) costs
    integer additions, not a Fraction addition with its gcd per cell."""
    per_denominator: dict[int, int] = {}
    for v in values:
        per_denominator[v.denominator] = per_denominator.get(v.denominator, 0) + v.numerator
    return sum((Fraction(num, den) for den, num in per_denominator.items()), Fraction(0))


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

    @cached_property
    def last_cell(self):
        """The farthest cell whose (1-q)**j, about j * log2(denominator) bits,
        fits in MAX_EXACT_POWER_BITS; math.inf for a float or a point mass."""
        base = 1 - self.ratio
        if _is_exact(base) and base:
            return int(MAX_EXACT_POWER_BITS / math.log2(base.denominator))
        return math.inf

    def _survival(self, j: int):
        """(1-q)**j; ValueError past :attr:`last_cell`."""
        base = 1 - self.ratio
        if j > self.last_cell:
            bits = j * math.log2(base.denominator)
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
        positive = {}
        for j, w in weights.items():
            if not space.valid_index(j):
                raise ValueError(f"cell index {j} invalid for {space}")
            if w < 0:
                raise ValueError(f"negative weight at cell {j}")
            if w:  # > 0 here, or NaN, which fails the total below
                positive[j] = w
        for comp in components:
            # a float ratio so small that 1 - q rounds to 1 would never lose mass
            if comp.weight <= 0 or not (0 < comp.ratio <= 1 and 1 - comp.ratio < 1):
                raise ValueError("geometric component needs weight > 0, 0 < ratio <= 1")

        # one type check per distinct type: a law of many cells repeats one
        types = {type(v) for v in chain(weights.values(), *((c.weight, c.ratio) for c in components))}
        self.mode = EXACT if all(issubclass(t, Rational) for t in types) else FLOAT

        if self.mode == EXACT:
            total = _exact_sum(chain(weights.values(), (c.weight for c in components)))
            if total != 1:
                raise ValueError(f"total mass {total} != 1")
        else:
            total = sum(weights.values()) + sum(c.weight for c in components)
            if not abs(total - 1) <= FLOAT_MASS_TOL:  # written so a NaN total fails
                raise ValueError(f"total mass {total} not within {FLOAT_MASS_TOL} of 1")

        self.space = space
        self._weights = positive
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
        if n > MAX_UNIFORM_CELLS:
            raise ValueError(f"a uniform law on {n} cells exceeds the cap of {MAX_UNIFORM_CELLS} cells")
        return ProbMeasure(space, dict.fromkeys(range(n), Fraction(1, n)))

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

    @cached_property
    def _float_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The finite part's cells in increasing order and their float
        weights, built once for the samplers."""
        cells = sorted(self._weights)
        return np.array(cells, dtype=np.int64), np.array([float(self._weights[j]) for j in cells])


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


def _tightness(compacts: CompactFamily, masses: Sequence, epsilons: Sequence, floors: Sequence) -> TightnessResult:
    """Per epsilon, the first compact whose mass exceeds its floor 1 - eps."""
    witnesses = tuple(
        (eps, next((k for k, m in zip(compacts, masses) if m > floor), None))
        for eps, floor in zip(epsilons, floors)
    )
    return TightnessResult(all(w is not None for _, w in witnesses), witnesses)


def _check_epsilons(epsilons: Sequence) -> None:
    if not epsilons:
        raise ValueError("epsilon list must be non-empty")
    if not all(e > 0 for e in epsilons):  # rejects NaN as well
        raise ValueError("epsilons must be positive")


def is_tight(mu: ProbMeasure, compacts: CompactFamily, epsilons: Sequence) -> TightnessResult:
    """Per epsilon, the first compact K of the family with mu(K) > 1 - eps,
    or None where no member works.

    Each compact's mass is computed once, in family order, until the
    tightest floor 1 - min(eps) is met; every epsilon's witness is read from
    that list."""
    _check_epsilons(epsilons)
    if compacts.space != mu.space:
        raise SpaceMismatchError("compact family on wrong space")
    floors = [1 - eps for eps in epsilons]
    tightest = max(floors)
    masses = []
    for k in compacts:
        masses.append(mass(mu, k))
        if masses[-1] > tightest:
            break
    return _tightness(compacts, masses, epsilons, floors)


def is_outer_regular_on(
    mu: ProbMeasure,
    target: EventSet,
    opens: Sequence[EventSet],
    epsilons: Sequence,
) -> tuple[tuple[object, EventSet | None], ...]:
    """Per epsilon, the first open superset O of target with
    mu(O) <= mu(target) + eps, or None where no candidate works."""
    _check_epsilons(epsilons)
    for o in opens:
        if not target.is_subset(o):
            raise ValueError("candidate open set does not contain the target")
    base = mass(mu, target)
    masses = [mass(mu, o) for o in opens]
    return tuple(
        (eps, next((o for o, m in zip(opens, masses) if m <= base + eps), None))
        for eps in epsilons
    )


@dataclass(frozen=True)
class RegularityReport(Record):
    """Outcome of the Radon classifier: tight and outer regular on compacts."""

    tight: bool
    # eps -> m: the initial segment {0..m-1} has mass > 1 - eps
    tight_witnesses: tuple[tuple[object, int], ...]
    outer_regular_on_compacts: bool
    radon: bool

    # why no compact needs an outer-regularity witness beyond itself
    OUTER_REGULARITY = (
        "each default compact is open: every event is open in the discrete convention"
    )

    def __post_init__(self) -> None:
        if self.radon != (self.tight and self.outer_regular_on_compacts):
            raise ValueError("radon flag must equal tight AND outer_regular_on_compacts")

    def to_dict(self) -> dict:
        return report_value({
            "tight": self.tight,
            "tight_witnesses": [{"eps": e, "segment_length": m} for e, m in self.tight_witnesses],
            "outer_regular_on_compacts": self.outer_regular_on_compacts,
            "outer_regularity": self.OUTER_REGULARITY,
            "radon": self.radon,
        })


DEFAULT_EPS_SCHEDULE = tuple(Fraction(1, 2**k) for k in range(1, 11))


def _tail_below(mu: ProbMeasure, m: int, eps, powers: dict) -> bool:
    """``mu.tail_mass(m) < eps``, for m up to the law's last computable cell.

    An exact law's tails are summed as one unreduced fraction and compared
    by cross-multiplying: reducing each sum of two tails near the power cap
    costs a gcd of up to 10**6 bits. ``powers`` keeps, per component with
    1 - q = a/b, the last (m, a**m, b**m); a cell within ``_POWER_STEP`` of
    that one is reached by a short product or an exact division, not a new
    power."""
    if mu.mode != EXACT:
        return mu.tail_mass(m) < eps
    tail = sum((v for j, v in mu._weights.items() if j >= m), Fraction(0))
    num, den = tail.numerator, tail.denominator
    for i, comp in enumerate(mu._components):
        base = 1 - comp.ratio
        a, b = base.numerator, base.denominator
        m0, am, bm = powers.get(i, (0, 1, 1))
        if a and 0 <= m - m0 <= _POWER_STEP:
            am, bm = am * a ** (m - m0), bm * b ** (m - m0)
        elif a and 0 < m0 - m <= _POWER_STEP:
            am, bm = am // a ** (m0 - m), bm // b ** (m0 - m)
        else:
            am, bm = a**m, b**m
        powers[i] = (m, am, bm)
        w = comp.weight
        num, den = num * w.denominator * bm + w.numerator * am * den, den * w.denominator * bm
    eps = Fraction(eps)
    return num * eps.denominator < eps.numerator * den


def classify_radon(mu: ProbMeasure) -> RegularityReport:
    """Certify Radon-ness as tightness plus outer regularity on compacts, for
    each eps of ``DEFAULT_EPS_SCHEDULE``; by Ulam's theorem (every finite
    Borel measure on a Polish space is Radon) it never reports a FAIL.

    The witness for eps is the shortest initial segment {0..m-1} with
    ``tail_mass(m) < eps``: the full space on a finite space; on the
    countable space, searched from ceil(log eps / log(1 - q)) of the
    component of least q (the witness when that component is the whole law),
    by steps that double down or up, clamped at the last cell the law
    computes, then by bisection (the tail never increases): O(log d) tail
    evaluations for a witness d cells from that start, two for a single
    Geom(q), exact for an exact law. ValueError names eps and that last cell when the
    witness lies past it. Outer regularity holds with O = K,
    for the reason ``RegularityReport.OUTER_REGULARITY`` states.
    """
    if not mu.space.is_countable:
        witnesses = tuple((eps, mu.space.num_cells) for eps in DEFAULT_EPS_SCHEDULE)
        return RegularityReport(True, witnesses, True, True)
    last = min((c.last_cell for c in mu._components), default=math.inf)
    # -log(1 - q) of the slowest component: inf for q = 1 or no component,
    # 0 when q underflows a float
    q = min((float(c.ratio) for c in mu._components), default=1.0)
    rate = -math.log1p(-q) if q < 1 else math.inf
    witnesses = []
    powers = {}
    m = 1  # tail_mass(m - 1) >= eps: tail_mass(0) = 1, then the last eps's
    for eps in DEFAULT_EPS_SCHEDULE:
        # start at the slowest component's closed form, where Geom(q) alone
        # falls below eps, then gallop down or up to a bracket and bisect
        # (compared with the last cell before the ceiling: a subnormal q
        # puts the quotient past every float)
        x = math.log(eps) / -rate if rate else math.inf
        start = last if x >= last else math.ceil(x)
        lo, hi = m - 1, min(max(m, start), last)
        step = 1
        if _tail_below(mu, hi, eps, powers):
            while hi - step > lo and _tail_below(mu, hi - step, eps, powers):
                hi -= step
                step *= 2
            lo = max(lo, hi - step)
        else:
            while True:  # tail_mass(hi) >= eps
                if hi == last:
                    raise ValueError(
                        f"no tightness witness for eps = {eps}: it needs an initial segment past cell {last}, "
                        f"the last cell whose exact mass fits in {MAX_EXACT_POWER_BITS} bits"
                    )
                lo, hi = hi, min(hi + step, last)
                step *= 2
                if _tail_below(mu, hi, eps, powers):
                    break
        while hi - lo > 1:  # tail_mass(lo) >= eps > tail_mass(hi)
            mid = (lo + hi) // 2
            if _tail_below(mu, mid, eps, powers):
                hi = mid
            else:
                lo = mid
        m = hi
        witnesses.append((eps, m))
    return RegularityReport(True, tuple(witnesses), True, True)
