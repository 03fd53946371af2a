"""Empirical measures along a path, strong-law checks, directing-measure
estimation, and the finite-n product identity.

The product identity under test: for an exchangeable sequence, an admissible
conditioning event E, and a cylinder A_1 x ... x A_m,

    E[1_E * prod_i mu_{w,n}(A_i)]
        = correction(n, m) * P(E, X_1 in A_1, ..., X_m in A_m)  + remainder,

where correction(n, m) = n(n-1)...(n-m+1)/n^m and the remainder collects the
index tuples with repeats (it vanishes as n grows). The exact small-n mode
enumerates the prefix law in rational arithmetic and checks the decomposition
term by term; the Monte Carlo mode estimates both sides on shared paths and
passes when the gap at the largest grid point sits inside the error budget.

Conditioning events cannot range over a whole sigma-algebra, so the admissible
forms are the testable ones: the full space, events defined through the
realized latent parameter, and symmetric statistics of a fixed prefix whose
declared symmetry is brute-force checked at construction. Term-by-term
exchange of distinct index tuples is only valid for the first two forms, so
the exact mode rejects prefix statistics; they remain available to the Monte
Carlo mode, where the comparison is asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Callable, Sequence

import numpy as np

from .kernels import (DEFAULT_COVERAGE, CylinderEvent, _cell_index, _columns, _count_table, _frequencies,
                      _sampled_paths, _validate_grid, rcd_verdict, sigma_band)
from .measures import ProbMeasure, mass
from .processes import (
    GridMixtureProcess,
    PathSample,
    ProcessGenerator,
    _mixture_pattern_law,
    ensure_oracle_domain,
    ensure_oracle_work,
)
from .spaces import EventSet, Record, SpaceMismatchError, event_spec, report_value

DEFAULT_N_GRID = (10, 100, 1000, 10000)


# ---------------------------------------------------------------------------
# empirical measures and traces

def empirical_measure(path: PathSample, n: int) -> ProbMeasure:
    """The measure mu_{w,n}: exact cell frequencies of the first n draws."""
    if n < 1 or n > path.length:
        raise ValueError(f"n={n} outside 1..{path.length}")
    cells, counts = np.unique(np.asarray(path.observations[:n]), return_counts=True)
    weights = {int(c): Fraction(int(k), n) for c, k in zip(cells, counts)}
    return ProbMeasure(path.generator.space, weights)


@dataclass(frozen=True)
class EmpiricalTrace:
    """mu_{w,n}(A) along an n-grid, one row of values per requested event."""

    path: PathSample
    events: tuple[EventSet, ...]
    n_grid: tuple[int, ...]
    values: tuple[tuple[float, ...], ...]

    @staticmethod
    def compute(path: PathSample, events: Sequence[EventSet], n_grid: Sequence[int]) -> "EmpiricalTrace":
        grid = _validate_grid(n_grid)
        if not events:
            raise ValueError("event list must be non-empty")
        cols = _columns(events)
        freqs = _frequencies(_count_table(path.observations, grid, cols), _cell_index(events, cols), grid)
        return EmpiricalTrace(path, tuple(events), grid, tuple(map(tuple, freqs.T.tolist())))


def estimate_directing_measure(
    path: PathSample, events: Sequence[EventSet], n: int
) -> dict[EventSet, Fraction]:
    """mu_{w,n}(A) per event, the plug-in estimate of the directing measure.

    Exact rational values; additive over disjoint listed events by
    construction.
    """
    if not events:
        raise ValueError("event list must be non-empty")
    mu = empirical_measure(path, n)
    return {ev: mass(mu, ev) for ev in events}


# ---------------------------------------------------------------------------
# strong-law checks

@dataclass(frozen=True)
class ConvergenceReport(Record):
    """Per-path empirical masses along the grid and, where the generator
    declares a latent kernel, the :func:`rcd_verdict` of the final ones."""

    scenario: str
    event: EventSet
    n_grid: tuple[int, ...]
    n_paths: int
    seed_labels: tuple[str, ...]
    traces: tuple[tuple[float, ...], ...]
    targets: tuple[float | None, ...]
    gaps: tuple[float | None, ...]
    coverage: float
    pass_fraction: float | None
    passed: bool | None

    def __post_init__(self) -> None:
        if self.pass_fraction is not None and not 0 <= self.pass_fraction <= 1:
            raise ValueError("pass fraction outside [0,1]")

    @property
    def finals(self) -> tuple[float, ...]:
        return tuple(trace[-1] for trace in self.traces)

    def rows(self) -> list[tuple]:
        """CSV rows: scenario, seed, n, event_id, empirical_mass, target, abs_gap."""
        ev_id = event_spec(self.event)
        out = []
        for label, trace, target in zip(self.seed_labels, self.traces, self.targets):
            for n, value in zip(self.n_grid, trace):
                gap = "" if target is None else abs(value - target)
                out.append((self.scenario, label, n, ev_id, value, "" if target is None else target, gap))
        return out

    def to_dict(self) -> dict:
        return report_value({
            "scenario": self.scenario,
            "event": self.event,
            "n_grid": self.n_grid,
            "n_paths": self.n_paths,
            "coverage": self.coverage,
            "pass_fraction": self.pass_fraction,
            "max_final_gap": max((g for g in self.gaps if g is not None), default=None),
            "passed": self.passed,
        })


def slln_exchangeable_check(
    gen: ProcessGenerator,
    event: EventSet,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    n_paths: int = 400,
    master_seed: int = 0,
) -> ConvergenceReport:
    """Long-run frequencies settle path by path. Where a latent kernel
    provides the conditional mean, each path's final frequency passes when it
    lies within :func:`binomial_band` of that target at the largest grid
    point, and the check passes when ``DEFAULT_COVERAGE`` (0.95) of the paths
    do; otherwise the frequencies are reported for the caller to test at the
    distribution level."""
    return slln_exchangeable_checks(gen, (event,), n_grid, n_paths, master_seed)[0]


def slln_exchangeable_checks(
    gen: ProcessGenerator,
    events: Sequence[EventSet],
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    n_paths: int = 400,
    master_seed: int = 0,
) -> tuple[ConvergenceReport, ...]:
    """:func:`slln_exchangeable_check` for each event, in order, on one
    sampling of the paths; each report equals the single-event one.

    Targets, gaps, pass fraction and verdict are those of :func:`rcd_verdict`
    on the frequencies at the last grid point, each judged against its
    :func:`binomial_band`; all None when the generator declares no latent
    kernel."""
    if not gen.exchangeable:
        raise ValueError("generator is not exchangeable")
    grid, paths = _sampled_paths(gen, events, n_grid, n_paths, master_seed)

    labels, latents, traces = [], [], []  # traces[i][k]: path i, events[k]
    for path, _, freqs in paths:
        labels.append(path.seed_label)
        latents.append(path.latent)
        traces.append(tuple(map(tuple, freqs.T.tolist())))
    kernel = gen.latent_kernel()
    if kernel is None:
        none = (None,) * n_paths
        verdicts = [(none, none, None, None)] * len(events)
    else:
        finals = [[trace[-1] for trace in values] for values in traces]
        rep = rcd_verdict(kernel, events, latents, finals, grid[-1])
        verdicts = [(r.targets, r.gaps, r.pass_fraction, r.pass_fraction >= DEFAULT_COVERAGE) for r in rep.per_event]
    return tuple(
        ConvergenceReport(
            gen.spec_label(), ev, grid, n_paths, tuple(labels),
            tuple(values[k] for values in traces), targets, gaps, DEFAULT_COVERAGE, frac, passed,
        )
        for k, (ev, (targets, gaps, frac, passed)) in enumerate(zip(events, verdicts))
    )


def slln_condiid_check(
    gen: ProcessGenerator,
    event: EventSet,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    n_paths: int = 400,
    master_seed: int = 0,
) -> ConvergenceReport:
    """:func:`slln_exchangeable_check`, but only for generators that declare
    a latent kernel, so every final frequency is judged against the
    :func:`binomial_band` of its per-path kernel target."""
    if gen.latent_kernel() is None:
        raise ValueError("generator is not of mixture/iid form")
    return slln_exchangeable_check(gen, event, n_grid, n_paths, master_seed)


# ---------------------------------------------------------------------------
# product identity

def correction_factor(n: int, m: int) -> Fraction:
    """n(n-1)...(n-m+1) / n^m: the distinct-tuple fraction of [n]^m."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m > n:
        return Fraction(0)
    num = 1
    for i in range(m):
        num *= n - i
    return Fraction(num, n**m)


class ConditioningEvent:
    """Admissible stand-ins for conditioning information.

    Whole sigma-algebras cannot be enumerated; these are the checkable forms.
    """

    label: str

    def path_indicator(self, path: PathSample) -> bool:
        raise NotImplementedError

    def draws_read(self) -> int:
        """How many leading draws of a path :meth:`path_indicator` reads."""
        return 0


@dataclass(frozen=True)
class FullCondition(ConditioningEvent):
    """No conditioning: the event of everything."""

    label = "full"

    def path_indicator(self, path: PathSample) -> bool:
        return True


@dataclass(frozen=True)
class LatentCondition(ConditioningEvent):
    """An event of the realized latent parameter, E = {pred(theta)}."""

    predicate: Callable = field(compare=False)
    label: str = "latent"

    def path_indicator(self, path: PathSample) -> bool:
        if path.latent is None:
            raise ValueError("path carries no realized latent parameter")
        return bool(self.predicate(path.latent))


@dataclass(frozen=True)
class SymmetricPrefixCondition(ConditioningEvent):
    """An event through a symmetric statistic of the first ``prefix_len``
    coordinates.

    Symmetry is not taken on trust: at construction the predicate is checked
    against adjacent transpositions of every pattern of the prefix (adjacent
    transpositions generate the whole permutation group). Non-symmetric
    statistics are rejected.
    """

    space: object
    prefix_len: int
    predicate: Callable = field(compare=False)
    label: str = "prefix"

    def __post_init__(self) -> None:
        m0 = self.prefix_len
        if m0 < 1:
            raise ValueError("prefix length must be >= 1")
        k = self.space.num_cells
        if k is None:
            raise ValueError("symmetry check requires a finite space")
        ensure_oracle_work(f"k**m*m predicate calls for m={m0}, k={k}", chain([m0], repeat(k, m0)))
        for pattern in product(range(k), repeat=m0):
            base = bool(self.predicate(pattern))
            for i in range(m0 - 1):
                swapped = list(pattern)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if bool(self.predicate(tuple(swapped))) != base:
                    raise ValueError("conditioning statistic is not symmetric")

    def path_indicator(self, path: PathSample) -> bool:
        prefix = tuple(int(x) for x in path.observations[: self.prefix_len])
        return bool(self.predicate(prefix))

    def draws_read(self) -> int:
        return self.prefix_len


def _exact_weighted_patterns(
    gen: ProcessGenerator, n: int, conditioning: ConditioningEvent
) -> dict[tuple[int, ...], Fraction]:
    """P(pattern AND conditioning event) per pattern, exact rationals."""
    if isinstance(conditioning, FullCondition):
        law = gen.prefix_pattern_law(n)
        if any(not isinstance(p, Fraction) for p in law.values()):
            raise ValueError("exact mode requires rational generator parameters")
        return dict(law)
    if isinstance(conditioning, LatentCondition):
        if not isinstance(gen, GridMixtureProcess):
            raise ValueError("exact latent conditioning needs a finite-grid mixture")
        parts = [(w, gen.component.measure(t)) for w, t in gen.prior if conditioning.predicate(t)]
        return _mixture_pattern_law(gen.space, parts, n)
    raise ValueError(
        "exact mode supports full-space or latent conditioning only; "
        "prefix statistics are checkable in Monte Carlo mode"
    )


@dataclass(frozen=True)
class ExactIdentityResult:
    """Both sides of the identity at one window length, all rationals.

    ``lhs`` is computed from products of counts, ``distinct_part`` and
    ``remainder`` by direct enumeration of index tuples; the two routes must
    reassemble exactly.
    """

    n: int
    m: int
    conditioning: str
    lhs: Fraction
    distinct_part: Fraction
    remainder: Fraction
    correction: Fraction
    conditioned_cylinder_prob: Fraction
    term_by_term_equal: bool
    identity_holds: bool


def df_product_identity_exact(
    gen: ProcessGenerator,
    cyl: CylinderEvent,
    n: int,
    conditioning: ConditioningEvent | None = None,
) -> ExactIdentityResult:
    """Rational small-n verification of the full decomposition.

    Checks three equalities: every distinct index tuple carries the same
    probability as the canonical one (the exchange step), the distinct part
    equals correction * P(E and cylinder), and the count-product route equals
    the tuple-enumeration route.
    """
    conditioning = conditioning or FullCondition()
    if not gen.exchangeable:
        raise ValueError("generator is not exchangeable")
    if cyl.space != gen.space:
        raise SpaceMismatchError("cylinder on the wrong space")
    m = cyl.m
    if m > n:
        raise ValueError("cylinder has more coordinates than the window")
    k = ensure_oracle_domain(gen, n)
    ensure_oracle_work(
        f"k**n*n**m (pattern, index tuple) steps for n={n}, m={m}, k={k}", chain(repeat(n, m), repeat(k, n))
    )

    weighted = _exact_weighted_patterns(gen, n, conditioning)
    evs = cyl.events

    lhs = Fraction(0)
    for pattern, w in weighted.items():
        prod_counts = Fraction(1)
        for ev in evs:
            cnt = sum(1 for x in pattern if ev.contains(x))
            prod_counts *= Fraction(cnt, n)
        lhs += w * prod_counts

    tuple_probs: dict[tuple[int, ...], Fraction] = {}
    for jtuple in product(range(n), repeat=m):
        p = Fraction(0)
        for pattern, w in weighted.items():
            if all(evs[i].contains(pattern[jtuple[i]]) for i in range(m)):
                p += w
        tuple_probs[jtuple] = p

    canonical = tuple_probs[tuple(range(m))]
    distinct = [p for j, p in tuple_probs.items() if len(set(j)) == m]
    repeats = [p for j, p in tuple_probs.items() if len(set(j)) < m]
    term_ok = all(p == canonical for p in distinct)
    distinct_part = sum(distinct, Fraction(0)) / Fraction(n**m)
    remainder = sum(repeats, Fraction(0)) / Fraction(n**m)
    corr = correction_factor(n, m)
    holds = (
        term_ok
        and lhs == distinct_part + remainder
        and distinct_part == corr * canonical
    )
    return ExactIdentityResult(
        n, m, conditioning.label, lhs, distinct_part, remainder, corr, canonical, term_ok, holds
    )


@dataclass(frozen=True)
class DfIdentityReport(Record):
    """Monte Carlo comparison of the two sides along an n-grid."""

    conditioning: str
    m: int
    n_grid: tuple[int, ...]
    n_paths: int
    lhs_means: tuple[float, ...]
    rhs_mean: float
    corrections: tuple[float, ...]
    gaps: tuple[float, ...]
    tol: float
    passed: bool


def df_product_identity_check(
    gen: ProcessGenerator,
    cyl: CylinderEvent,
    conditioning: ConditioningEvent | None = None,
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    n_paths: int = 400,
    master_seed: int = 0,
) -> DfIdentityReport:
    """Estimate E[1_E * prod_i mu_{w,n}(A_i)] and correction * P(E, cylinder)
    on the same paths; pass iff the gap at the largest n is within
    :func:`sigma_band` of the standard error of the paired per-path
    difference there, reported as ``tol``.

    The repeated-index remainder is O(m^2/n) and shrinks along the grid; the
    reported gap sequence shows it.
    """
    conditioning = conditioning or FullCondition()
    if not isinstance(conditioning, ConditioningEvent):
        raise ValueError("conditioning event must be one of the admissible forms")
    if not gen.exchangeable:
        raise ValueError("generator is not exchangeable")
    if n_paths < 2:
        raise ValueError("need at least two paths for an error estimate")
    m = cyl.m
    grid, paths = _sampled_paths(gen, cyl.events, n_grid, n_paths, master_seed, head=max(m, conditioning.draws_read()))
    if m > grid[-1]:
        raise ValueError("cylinder has more coordinates than the largest grid point")

    lhs_terms = np.zeros((n_paths, len(grid)))
    rhs_terms = np.zeros(n_paths)
    for i, (path, _, freqs) in enumerate(paths):
        e = 1.0 if conditioning.path_indicator(path) else 0.0
        prods = np.ones(len(grid))
        for k in range(m):
            prods *= freqs[:, k]
        lhs_terms[i] = e * prods
        hit = all(cyl.events[j].contains(int(path.observations[j])) for j in range(m))
        rhs_terms[i] = e * (1.0 if hit else 0.0)

    corr = np.array([float(correction_factor(n, m)) for n in grid])
    lhs_means = lhs_terms.mean(axis=0)
    rhs_mean = float(rhs_terms.mean())
    gaps = np.abs(lhs_means - corr * rhs_mean)
    paired = lhs_terms[:, -1] - corr[-1] * rhs_terms
    se = float(paired.std(ddof=1)) / math.sqrt(n_paths)
    tol = sigma_band(se, n_paths)
    passed = bool(gaps[-1] <= tol)
    return DfIdentityReport(
        conditioning.label,
        m,
        grid,
        n_paths,
        tuple(float(v) for v in lhs_means),
        rhs_mean,
        tuple(float(c) for c in corr),
        tuple(float(g) for g in gaps),
        float(tol),
        passed,
    )


# ---------------------------------------------------------------------------
# distribution-level oracle for targetless limits

def ks_distance_uniform(values: Sequence[float]) -> float:
    """One-sample Kolmogorov distance of the values against Uniform[0,1].

    D_n = max_i max(i/n - x_(i), x_(i) - (i-1)/n) over the sorted sample.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("need at least one value")
    if not (x[0] >= 0.0 and x[-1] <= 1.0):  # NaN sorts last and fails the second
        raise ValueError("values must lie in [0,1]")
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / n - x, x - (i - 1) / n)))
