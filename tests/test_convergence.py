"""Tests for subsequence extraction, tightness checks, and limit construction."""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchkit import (
    DEFAULT_EPS_SCHEDULE,
    EventSet,
    ProbMeasure,
    countable,
    default_compact_family,
    finite,
    mass,
)
from exchkit import convergence
from exchkit.config import parse_generator
from exchkit.convergence import (
    ClosedSetCertificate,
    MeasureSequence,
    NoConvergenceAtTolError,
    NotTightError,
    a_converges,
    construct_rcd_from_empiricals,
    default_closed_family,
    empirical_sequence,
    extract_convergent_subsequence,
    family_tight,
    markov_bound_check,
    uniform_smallness_check,
)
from exchkit.convergence import _batch_paths, _extract, _least_double_at_least, _Layout, _tight
from exchkit.empirical import df_product_identity_check, slln_exchangeable_checks
from exchkit.kernels import (
    CylinderEvent,
    MarkovKernel,
    _count_table,
    binomial_band,
    geometric_kernel,
    indicator_array,
    kernel_mass,
    rcd_verdict,
    verify_rcd,
)
from exchkit.measures import TightnessResult, is_tight
from exchkit.processes import (
    BetaBernoulliProcess,
    GridMixtureProcess,
    IIDProcess,
    MarkovChainProcess,
    PolyaUrnProcess,
    ProcessGenerator,
)
from exchkit.spaces import ClosedFamily, SpaceMismatchError, event_spec

B2 = finite(2)
NN = countable()
ONES = EventSet.of(B2, [1])


def tail(j):
    return EventSet.cofinite_of(NN, range(j))


def geom_mixture():
    return GridMixtureProcess(((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), geometric_kernel(NN))


def alternating(n=12):
    return MeasureSequence(B2, tuple(ProbMeasure.delta(B2, k % 2) for k in range(n)))


# ---------------------------------------------------------------- sequences


def test_measure_sequence_validation():
    with pytest.raises(ValueError, match="non-empty"):
        MeasureSequence(B2, ())
    with pytest.raises(SpaceMismatchError, match="wrong space"):
        MeasureSequence(B2, (ProbMeasure.delta(B2, 0), ProbMeasure.delta(NN, 0)))


def test_empirical_sequence_tracks_grid():
    path = PolyaUrnProcess(1, 1).sample_path(20, master_seed=0)
    seq = empirical_sequence(path, (5, 10, 20))
    assert len(seq.measures) == 3
    with pytest.raises(ValueError, match="exceeds the path length"):
        empirical_sequence(path, (5, 40))


# ---------------------------------------------------------------- A-convergence


def test_a_converges_constant_sequence():
    seq = MeasureSequence(B2, tuple(ProbMeasure.delta(B2, 0) for _ in range(5)))
    ok, witness = a_converges(seq, ProbMeasure.delta(B2, 0), default_closed_family(B2), 1e-9)
    assert ok and witness is None


def test_a_converges_flags_wrong_candidate_with_witness():
    seq = MeasureSequence(B2, tuple(ProbMeasure.delta(B2, 0) for _ in range(5)))
    ok, witness = a_converges(seq, ProbMeasure.delta(B2, 1), default_closed_family(B2), 1e-9)
    assert not ok
    # Mass sits on the closed set {0} but the candidate gives it nothing.
    assert event_spec(witness) == "cells:0"


def test_a_converges_validates_inputs():
    seq = MeasureSequence(B2, (ProbMeasure.delta(B2, 0),))
    from exchkit.spaces import ClosedFamily

    with pytest.raises(ValueError, match="non-empty"):
        a_converges(seq, ProbMeasure.delta(B2, 0), ClosedFamily(B2, ()), 1e-9)
    with pytest.raises(SpaceMismatchError):
        a_converges(seq, ProbMeasure.delta(NN, 0), default_closed_family(B2), 1e-9)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_a_converges_rejects_bad_tol(tol):
    # under NaN or inf no excess is positive, so any candidate would pass
    with pytest.raises(ValueError, match="tol"):
        a_converges(alternating(), ProbMeasure.delta(B2, 0), default_closed_family(B2), tol)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 9), min_size=3, max_size=3))
def test_a_converges_is_reflexive_for_constant_sequences(weights):
    space = finite(3)
    total = sum(weights)
    mu = ProbMeasure.from_weights(space, [F(w, total) for w in weights])
    seq = MeasureSequence(space, tuple(mu for _ in range(4)))
    ok, witness = a_converges(seq, mu, default_closed_family(space), 0.0)
    assert ok and witness is None


# ---------------------------------------------------------------- extraction


def test_extraction_picks_constant_subsequence_from_alternating_deltas():
    res = extract_convergent_subsequence(alternating())
    assert res.indices == (0, 2, 4, 6, 8, 10)
    assert mass(res.limit, EventSet.of(B2, [0])) == pytest.approx(1.0)
    assert res.a_converged
    assert not res.full_sequence
    assert all(a < b for a, b in zip(res.indices, res.indices[1:]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_extraction_rejects_bad_tol(tol):
    # a NaN or negative tol/2 is never reached, not even by a one-value cluster,
    # and under inf any sequence would count as converged
    with pytest.raises(ValueError, match="tol"):
        extract_convergent_subsequence(alternating(2), tol=tol)


def test_extraction_limit_stays_exact_for_integer_weights():
    # a one-cell witness whose weight is the int 1 must not turn the limit float
    seq = MeasureSequence(NN, tuple(ProbMeasure(NN, {0: 1}) for _ in range(6)))
    res = extract_convergent_subsequence(seq)
    assert res.limit.mode == "exact" and res.limit.atom_mass(0) == 1


def test_extraction_result_repasses_independent_check():
    seq = alternating()
    res = extract_convergent_subsequence(seq)
    sub = MeasureSequence(B2, tuple(seq.measures[i] for i in res.indices))
    ok, witness = a_converges(sub, res.limit, default_closed_family(B2), 1e-9)
    assert ok and witness is None


def test_extraction_keeps_full_sequence_when_it_settles():
    # mu_n = (1/n) delta_0 + (1 - 1/n) delta_1 along n = 2^k. The masses
    # cluster below tol/2 once 2^k exceeds 2e9, so the tail survives and
    # the whole sequence A-converges to delta_1.
    def mu(n):
        return ProbMeasure.from_weights(B2, [F(1, n), 1 - F(1, n)])

    seq = MeasureSequence(B2, tuple(mu(2**k) for k in range(64)))
    res = extract_convergent_subsequence(seq)
    assert res.full_sequence
    assert len(res.indices) == 64
    assert mass(res.limit, ONES) == pytest.approx(1.0, abs=1e-9)


# Four cells; the third measure moves cells 0 and 1 up by about tol/2 each and
# cells 2 and 3 down, so every cell's values span at most tol/2 and all four
# indices survive, while the closed set {0, 1} reaches tol past the limit.
B4 = finite(4)
SETTLED = (0.10965539002120997, 0.2699598333025178, 0.17204369630199817, 0.44834108037427406)
NUDGED = (0.10965539052120997, 0.2699598338025178, 0.1720436958019982, 0.4483410798742741)


def _four_cell_sequence(rows):
    return MeasureSequence(B4, tuple(ProbMeasure.from_weights(B4, list(w)) for w in rows))


def test_closed_set_inequality_has_one_form():
    # at these masses limsup <= limit + tol and limsup - limit - tol > 0 both
    # hold; a certificate and a_converges must read them alike
    limsup, limit, tol = 0.3796152243237278, 0.37961522332372777, 1e-9
    assert limsup <= limit + tol and limsup - limit - tol > 0
    seq = _four_cell_sequence((SETTLED, SETTLED, NUDGED, SETTLED))
    res = extract_convergent_subsequence(seq, tol)
    pair = EventSet.of(B4, [0, 1])
    cert = next(c for c in res.certificates if c.event == pair)
    assert (cert.limsup, cert.limit_mass) == (limsup, limit)
    assert res.indices == (0, 1, 2, 3) and not res.full_sequence
    assert not cert.ok and not res.a_converged
    assert a_converges(seq, res.limit, default_closed_family(B4), tol) == (False, pair)


@st.composite
def nudged_sequences(draw):
    """Sequences on four cells of a settled measure and measures that move
    two of its cells up and two down by about tol/2, so closed sets of two
    cells land within rounding of limit + tol."""
    tol = draw(st.sampled_from([1e-9, 1e-3]))
    a, b, c = (draw(st.floats(0.1, 0.3)) for _ in range(3))
    settled = (a, b, c, 1.0 - a - b - c)
    h = tol / 2 - draw(st.integers(0, 4)) * 2.0**-60
    nudged = []
    for up in draw(st.lists(st.permutations(range(4)), min_size=1, max_size=2)):
        nudged.append(tuple(w + h if j in up[:2] else w - h for j, w in enumerate(settled)))
    rows = draw(st.lists(st.sampled_from([settled, *nudged]), min_size=2, max_size=8))
    return _four_cell_sequence(rows), tol


@settings(max_examples=150, deadline=None)
@given(nudged_sequences())
def test_certificates_full_sequence_and_a_converges_agree(case):
    seq, tol = case
    try:
        res = extract_convergent_subsequence(seq, tol)
    except NoConvergenceAtTolError:
        return
    if res.full_sequence:
        assert res.indices == tuple(range(len(seq))) and res.a_converged
    selected = MeasureSequence(B4, tuple(seq[i] for i in res.indices))
    converged, worst = a_converges(selected, res.limit, default_closed_family(B4), tol)
    assert converged == res.a_converged
    failing = {c.event for c in res.certificates if not c.ok}
    if converged:
        assert not failing
    else:
        assert worst in failing


def test_extraction_rejects_escaping_mass():
    # Deltas marching past every compact in the family: no uniform witness.
    seq = MeasureSequence(NN, tuple(ProbMeasure.delta(NN, 64 + k) for k in range(8)))
    with pytest.raises(NotTightError, match="no uniform compact witness"):
        extract_convergent_subsequence(seq)


def test_extraction_rejects_scattered_tight_sequence():
    # Ten distinct deltas inside the compact range: tight, but pairwise at
    # total-variation distance one, so no cluster survives refinement.
    seq = MeasureSequence(NN, tuple(ProbMeasure.delta(NN, k) for k in range(10)))
    with pytest.raises(NoConvergenceAtTolError):
        extract_convergent_subsequence(seq)


# ---------------------------------------------------------------- tightness


def test_family_tight_oracles():
    far = MeasureSequence(NN, tuple(ProbMeasure.delta(NN, 64 + k) for k in range(8)))
    res = family_tight(far)
    assert not res.tight
    assert all(w is None for _, w in res.witnesses)

    near = MeasureSequence(NN, tuple(ProbMeasure.delta(NN, k) for k in range(10)))
    res2 = family_tight(near)
    assert res2.tight
    eps0, witness0 = res2.witnesses[0]
    assert eps0 == F(1, 2)
    assert event_spec(witness0) == "cells:0,1,2,3,4,5,6,7,8,9"


@given(st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(sum))
def test_family_tight_of_one_measure_is_is_tight(raw):
    # the uniform witness over a one-member sequence is the single measure's
    mu = ProbMeasure(NN, {j: F(w, sum(raw)) for j, w in enumerate(raw) if w})
    expected = is_tight(mu, default_compact_family(NN), DEFAULT_EPS_SCHEDULE)
    assert family_tight(MeasureSequence(NN, (mu,))) == expected


def test_family_tight_finite_space_is_trivial():
    res = family_tight(alternating())
    assert res.tight
    assert all(w is not None for _, w in res.witnesses)


# ---------------------------------------------------------------- Markov bound


def test_markov_bound_rare_event_iid():
    gen = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 100)))
    res = markov_bound_check(gen, ONES, F(1, 10), n_paths=200, n_steps=500, master_seed=0)
    assert res.passed
    assert res.violating_fraction == 0.0
    assert res.marginal_mass == pytest.approx(0.01)
    assert res.bound >= res.marginal_mass / res.eps


@pytest.mark.parametrize("n_paths, bound", [(2, 0.1 + 1.5), (1000, 0.12846049894151543)])
def test_markov_bound_is_eps_plus_the_binomial_band(n_paths, bound):
    """The bound is eps plus the band of every Monte Carlo verdict. At 1000
    paths (acceptance 05) 3 standard errors set it; at 2 paths the standard
    error sqrt(eps (1 - eps) / P) = 0.21 is under the floor 1/P, so it is
    eps + 3/P. A bound of 1 or more decides nothing, so its verdict is None."""
    gen = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 100)))
    res = markov_bound_check(gen, ONES, F(1, 10), n_paths=n_paths, n_steps=10, master_seed=0)
    assert res.bound == bound == 0.1 + binomial_band(0.1, n_paths)
    assert res.passed is (None if bound >= 1 else True)


def test_markov_bound_empty_event_never_violates():
    gen = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 100)))
    res = markov_bound_check(gen, EventSet.of(B2, []), F(1, 10), n_paths=50, n_steps=100, master_seed=0)
    assert res.passed
    assert res.violating_fraction == 0.0


def test_markov_bound_rare_event_urn():
    res = markov_bound_check(PolyaUrnProcess(1, 99), ONES, F(1, 10), n_paths=200, n_steps=500, master_seed=1)
    assert res.passed
    assert res.violating_fraction == 0.0


def test_markov_bound_requires_small_marginal():
    gen = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 2)))
    with pytest.raises(ValueError, match="exceeds eps"):
        markov_bound_check(gen, ONES, F(1, 10), n_paths=10, n_steps=10)


@pytest.mark.parametrize("eps", [F(2), F(-1, 2), 0, float("nan"), 1.5])
def test_markov_bound_rejects_eps_outside_the_unit_interval(eps):
    # the empty event meets the marginal precondition at every eps; 2 and
    # -1/2 used to die in sqrt, NaN in the exact comparison, and 0 to FAIL
    gen = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 100)))
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
        markov_bound_check(gen, EventSet.of(B2, []), eps, n_paths=10, n_steps=10)


def test_markov_bound_accepts_eps_one():
    # eps = 1 is accepted, and its bound 1 + band leaves nothing to decide
    gen = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 2)))
    assert markov_bound_check(gen, ONES, 1, n_paths=10, n_steps=10).passed is None


def ulps_away(f, k):
    """The double k ulps above f (below it for k < 0)."""
    for _ in range(abs(k)):
        f = math.nextafter(f, math.copysign(math.inf, k))
    return f


@given(
    st.fractions(min_value=F(1, 10**6), max_value=1, max_denominator=10**12)
    .filter(lambda e: e.denominator & (e.denominator - 1)),  # not dyadic: float(eps) != eps
    st.integers(-2, 2),
)
@example(F(1, 10), -1)
@example(F(1, 10), 0)
@example(F(1, 10), 1)
@example(F(1, 3), 0)
@settings(max_examples=300)
def test_markov_bound_threshold_decides_as_the_exact_comparison(eps, ulps):
    """One float threshold decides f >= eps as the exact Fraction comparison
    does, for frequencies from two ulps below float(eps) to two above."""
    threshold = _least_double_at_least(eps)
    f = ulps_away(float(eps), ulps)
    assert (f >= threshold) == (F(f) >= eps)
    assert F(threshold) >= eps > F(math.nextafter(threshold, -math.inf))


@pytest.mark.parametrize("eps", [F(1, 2), F(3, 8), 0.1, 1])
def test_markov_bound_threshold_is_eps_when_eps_is_a_double(eps):
    assert _least_double_at_least(eps) == eps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_markov_bound_rejects_the_markov_control(seed):
    """The Markov control starts at 0 (marginal mass 0 on {1}) and then
    visits 1 about half the time, so every path's frequency of ones passes
    1/10. Over master seeds 0-99 it failed 100 times, each with a violating
    fraction of 1.0."""
    control = MarkovChainProcess(
        ProbMeasure.delta(B2, 0),
        (ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]), ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)])),
    )
    res = markov_bound_check(control, ONES, F(1, 10), n_paths=50, n_steps=1000, master_seed=seed)
    assert not res.passed
    assert res.marginal_mass == 0.0 and res.violating_fraction == 1.0


COIN = IIDProcess(ProbMeasure.bernoulli(B2, F(1, 100)))
# every Monte Carlo check, on the event ev and n paths of COIN
MC_CHECKS = {
    "verify_rcd": lambda ev, n: verify_rcd(COIN.latent_kernel(), COIN, [ev], n, 20),
    "slln_exchangeable_checks": lambda ev, n: slln_exchangeable_checks(COIN, [ev], (10, 20), n),
    "df_product_identity_check": lambda ev, n: df_product_identity_check(
        COIN, CylinderEvent((ev, ev)), n_grid=(10, 20), n_paths=n
    ),
    "markov_bound_check": lambda ev, n: markov_bound_check(COIN, ev, F(1, 10), n, 20),
    "uniform_smallness_check": lambda ev, n: uniform_smallness_check(COIN, [ev], [F(1, 4)], (10, 20), n),
    "construct_rcd_from_empiricals": lambda ev, n: construct_rcd_from_empiricals(COIN, [ev], (10, 20), n),
}


@pytest.mark.parametrize("check", sorted(set(MC_CHECKS) - {"df_product_identity_check"}))
def test_path_checks_need_at_least_one_path(check):
    # zero paths used to end in a ZeroDivisionError; the identity check needs two
    with pytest.raises(ValueError, match="need at least one path"):
        MC_CHECKS[check](ONES, 0)


@pytest.mark.parametrize("check", sorted(MC_CHECKS))
def test_path_checks_reject_events_on_another_space(check):
    # uniform_smallness_check used to pass here, every path finding the event
    with pytest.raises(SpaceMismatchError):
        MC_CHECKS[check](EventSet.of(finite(3), [1]), 5)


@pytest.mark.parametrize("check", sorted(MC_CHECKS))
def test_path_checks_sample_each_path_once(check, monkeypatch):
    sampled = []
    sample_blocks = ProcessGenerator.sample_blocks

    def counting(self, n, master_seed, path_index):
        sampled.append(path_index)
        return sample_blocks(self, n, master_seed, path_index)

    monkeypatch.setattr(ProcessGenerator, "sample_blocks", counting)
    MC_CHECKS[check](ONES, 7)
    assert sampled == list(range(7))


# ---------------------------------------------------------------- uniform smallness


def test_uniform_smallness_geometric_tails():
    rep = uniform_smallness_check(
        geom_mixture(),
        [tail(2), tail(6), tail(12), tail(20)],
        eps_list=[F(1, 4), F(1, 16)],
        n_grid=(50, 200, 1000),
        n_paths=80,
        master_seed=0,
    )
    assert rep.passed and rep.to_dict()["coverage"] == 0.95
    assert rep.found_fractions == (1.0, 1.0)
    # Every path records which chain member certified each epsilon.
    assert all(m is not None for profile in rep.m_profiles for m in profile)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_smallness_rejects_a_slow_geometric_tail(seed):
    """The chain of test_uniform_smallness_geometric_tails, but the mixture's
    second component is Geom(1/20): its tail past 19 keeps (19/20)**20 = 0.36
    of the mass, so about half the paths find no chain member below 1/4.
    Over master seeds 0-99 this mixture passed 0 times (found fractions
    0.375-0.625) and the Geom(1/4)/Geom(1/2) mixture 100 times."""
    gen = GridMixtureProcess(((F(1, 2), F(1, 4)), (F(1, 2), F(1, 20))), geometric_kernel(NN))
    rep = uniform_smallness_check(
        gen, [tail(2), tail(6), tail(12), tail(20)], [F(1, 4), F(1, 16)], (50, 200, 1000), 80, master_seed=seed
    )
    assert not rep.passed
    assert max(rep.found_fractions) <= 0.7


def test_uniform_smallness_trivial_epsilon():
    rep = uniform_smallness_check(
        geom_mixture(),
        [tail(2), tail(6)],
        eps_list=[F(3, 2)],
        n_grid=(50, 200),
        n_paths=10,
        master_seed=0,
    )
    assert rep.passed
    assert set(rep.m_profiles[0]) == {0}


def test_uniform_smallness_validates_chain():
    gen = geom_mixture()
    with pytest.raises(ValueError, match="inclusion-decreasing"):
        uniform_smallness_check(gen, [tail(6), tail(2)], eps_list=[F(1, 4)], n_grid=(50,), n_paths=5)
    with pytest.raises(ValueError, match="non-empty"):
        uniform_smallness_check(gen, [], eps_list=[F(1, 4)], n_grid=(50,), n_paths=5)
    with pytest.raises(ValueError, match="epsilon list"):
        uniform_smallness_check(gen, [tail(2)], eps_list=[], n_grid=(50,), n_paths=5)


@pytest.mark.parametrize("eps", [0, F(-1, 4), -1.0, float("nan")])
def test_uniform_smallness_rejects_eps_that_are_not_positive(eps):
    # as is_tight does; these used to report a FAIL
    with pytest.raises(ValueError, match="epsilons must be positive"):
        uniform_smallness_check(geom_mixture(), [tail(2)], eps_list=[F(1, 4), eps], n_grid=(50,), n_paths=5)


# ---------------------------------------------------------------- limit construction


def test_construct_rcd_geometric_mixture():
    rep = construct_rcd_from_empiricals(
        geom_mixture(),
        [EventSet.initial_segment(NN, 1), tail(3)],
        n_grid=(100, 1000, 4000, 6000, 8000),
        n_paths=40,
        master_seed=0,
    )
    assert rep.passed
    assert rep.pass_fraction >= 0.9
    assert rep.not_tight_fraction == 0.0
    assert rep.kernel_report is not None and rep.kernel_report.passed
    assert all(p.status in ("ok", "no_convergence", "not_tight") for p in rep.paths)


def test_construct_rcd_kernel_report_equals_standalone_verify_rcd():
    # the certificate is judged on the construction's own paths; a second,
    # independent sampling pass over the same seeds must agree field for field
    gen = geom_mixture()
    events = [EventSet.initial_segment(NN, 1), tail(3)]
    rep = construct_rcd_from_empiricals(gen, events, n_grid=(100, 500, 1000, 2000), n_paths=12, master_seed=5)
    alone = verify_rcd(gen.latent_kernel(), gen, events, n_paths=12, n_steps=2000, master_seed=5)
    assert rep.kernel_report == alone


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -0.5, 0])
def test_construct_rcd_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        construct_rcd_from_empiricals(geom_mixture(), [tail(1)], n_grid=(10, 50), n_paths=2, tol=tol)


@pytest.mark.parametrize("coverage", [0, -1, float("nan"), 1.5])
def test_construct_rcd_rejects_bad_coverage(coverage):
    with pytest.raises(ValueError, match="coverage"):
        construct_rcd_from_empiricals(geom_mixture(), [tail(1)], n_grid=(10, 50), n_paths=2, coverage=coverage)


def test_construct_rcd_rejects_events_on_another_space():
    with pytest.raises(SpaceMismatchError):
        construct_rcd_from_empiricals(geom_mixture(), [ONES], n_grid=(10, 50), n_paths=2)


def test_construct_rcd_degenerate_iid():
    gen = IIDProcess(ProbMeasure.delta(B2, 1))
    rep = construct_rcd_from_empiricals(gen, [ONES], n_grid=(10, 50, 100, 200, 400), n_paths=10, master_seed=0)
    assert rep.passed
    assert rep.pass_fraction == 1.0
    limits = {float(mass(p.limit, ONES)) for p in rep.paths if p.limit is not None}
    assert limits == {1.0}


def test_construct_rcd_urn_limits_spread_like_uniform():
    # Polya(1,1) directs to a Uniform(0,1) coin: path limits should scatter
    # with mean near 1/2 and variance near 1/12.
    rep = construct_rcd_from_empiricals(
        PolyaUrnProcess(1, 1),
        [ONES],
        n_grid=(100, 1000, 4000, 6000, 8000, 10000),
        n_paths=60,
        master_seed=0,
    )
    assert rep.pass_fraction == 1.0
    assert rep.kernel_report is None
    limits = [float(mass(p.limit, ONES)) for p in rep.paths if p.limit is not None]
    mean = sum(limits) / len(limits)
    var = sum((x - mean) ** 2 for x in limits) / len(limits)
    assert 0.35 < mean < 0.65
    assert 0.04 < var < 0.14


def test_construct_rcd_finite_space_is_always_tight():
    rep = construct_rcd_from_empiricals(
        PolyaUrnProcess(2, 1),
        [ONES],
        n_grid=(100, 1000, 4000, 6000, 8000),
        n_paths=30,
        master_seed=3,
    )
    assert rep.not_tight_fraction == 0.0


def test_construct_rcd_validates_inputs():
    chain = MarkovChainProcess(
        ProbMeasure.delta(B2, 0),
        (
            ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]),
            ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)]),
        ),
    )
    with pytest.raises(ValueError, match="not exchangeable"):
        construct_rcd_from_empiricals(chain, [ONES], n_grid=(10, 50), n_paths=2)
    gen = PolyaUrnProcess(1, 1)
    with pytest.raises(ValueError, match="non-empty"):
        construct_rcd_from_empiricals(gen, [], n_grid=(10, 50), n_paths=2)
    with pytest.raises(ValueError, match="at least one path"):
        construct_rcd_from_empiricals(gen, [ONES], n_grid=(10, 50), n_paths=0)


def test_construct_rcd_gates_on_marginal_regularity():
    # Geom(1/1000) keeps more than 1/2 of its mass past cell 63, yet its
    # marginal is Radon (witness 6,929 cells at 1/1024); only its paths, which
    # draw past the 64-cell horizon of a sequence's tightness, are not tight
    gen = IIDProcess(ProbMeasure.geometric(NN, F(1, 1000)))
    rep = construct_rcd_from_empiricals(gen, [EventSet.initial_segment(NN, 1)], n_grid=(10, 50), n_paths=2)
    assert rep.marginal_regularity.radon
    assert rep.marginal_regularity.tight_witnesses[-1] == (F(1, 1024), 6929)
    assert {p.status for p in rep.paths} == {"not_tight"} and not rep.passed
    # a marginal whose witness lies past the exact power cap is refused
    gen = IIDProcess(ProbMeasure.geometric(NN, F(1, 100_000)))
    with pytest.raises(ValueError, match=r"eps = 1/2: .* past cell 60205\b"):
        construct_rcd_from_empiricals(gen, [EventSet.initial_segment(NN, 1)], n_grid=(10, 50), n_paths=2)


def test_construct_rcd_report_serializes():
    gen = IIDProcess(ProbMeasure.delta(B2, 1))
    rep = construct_rcd_from_empiricals(gen, [ONES], n_grid=(10, 50, 100, 200, 400), n_paths=4, master_seed=0)
    d = rep.to_dict()
    assert d["scenario"] == rep.scenario
    assert "marginal_regularity" in d
    assert d["pass_fraction"] == rep.pass_fraction


# ---------------------------------------------------------------- the mass table against mass()
#
# The reference route is the one the count table replaced: the per-path
# sequence of ProbMeasures from empirical_sequence, with every mass,
# tightness witness and certificate computed by measures.mass.


def _reference_tight(seq):
    compacts = default_compact_family(seq.space)
    floors = [1 - eps for eps in DEFAULT_EPS_SCHEDULE]
    masses = []
    for k in compacts:
        masses.append(min(mass(mu, k) for mu in seq))
        if masses[-1] > max(floors):
            break
    witnesses = tuple(
        (eps, next((k for k, m in zip(compacts, masses) if m > floor), None))
        for eps, floor in zip(DEFAULT_EPS_SCHEDULE, floors)
    )
    return TightnessResult(all(w is not None for _, w in witnesses), witnesses)


def _reference_a_converges(seq, candidate, closed, tol):
    worst, worst_excess = None, 0
    for f in closed:
        limsup = max(mass(mu, f) for mu in seq.measures[len(seq) // 2 :])
        excess = limsup - mass(candidate, f) - tol
        if excess > 0 and excess > worst_excess:
            worst, worst_excess = f, excess
    return worst is None, worst


def _refine_positions(positions, values, tol):
    """Bisect [0,1] around the dominant mass cluster of one cell: the
    per-path loop that the batched extraction replaced, kept as its oracle.

    Keeps the better-populated half at each split (ties go to the half
    holding the earliest selected index) until the surviving values span at
    most tol/2."""
    lo, hi = 0.0, 1.0
    current = positions
    while True:
        vals = [values[p] for p in current]
        if max(vals) - min(vals) <= tol / 2:
            return current
        if len(current) < 2:
            raise NoConvergenceAtTolError("cluster refinement exhausted the sequence before reaching tol")
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


def _reference_extract(seq, tol):
    """The fields of extract_convergent_subsequence, from mass() alone."""
    closed = default_closed_family(seq.space)
    ft = _reference_tight(seq)
    if not ft.tight:
        return "not_tight", ft.witnesses
    witness = next(w for e, w in ft.witnesses if e == min(DEFAULT_EPS_SCHEDULE))
    cells = sorted(witness.indices)
    values = {c: [mu.atom_mass(c) for mu in seq] for c in cells}
    positions = list(range(len(seq)))
    try:
        for c in cells:
            positions = _refine_positions(positions, values[c], tol)
    except NoConvergenceAtTolError:
        return "no_convergence", ()
    if len(positions) < 2:
        return "no_convergence", ()
    raw = {c: values[c][positions[-1]] for c in cells}
    total = sum(raw.values(), F(0))
    if total <= 0:
        return "no_convergence", ()
    limit = ProbMeasure(seq.space, {c: w / total for c, w in raw.items() if w > 0})
    full_ok, _ = _reference_a_converges(seq, limit, closed, tol)
    selected = list(range(len(seq))) if full_ok else positions
    sub = [seq[i] for i in selected]
    tail, head = sub[len(sub) // 2 :], sub[: len(sub) // 2]
    certs = []
    for f in closed:
        limsup = max(mass(mu, f) for mu in tail)
        head_max = max(mass(mu, f) for mu in head)
        limit_mass = mass(limit, f)
        certs.append(
            ClosedSetCertificate(
                f, float(limsup), float(limit_mass), float(head_max - limsup), not limsup - limit_mass - tol > 0
            )
        )
    return "ok", (
        tuple(selected),
        ft.witnesses,
        limit.mode,
        limit.weights_dict(),
        tuple(certs),
        all(c.ok for c in certs),
        full_ok,
    ), limit


def _fields(res):
    """The fields of an ExtractionResult that _reference_extract gives."""
    return (
        res.indices,
        res.tight_witnesses,
        res.limit.mode,
        res.limit.weights_dict(),
        res.certificates,
        res.a_converged,
        res.full_sequence,
    )


def _extraction_fields(seq, tol):
    """Status and fields of extract_convergent_subsequence, as _reference_extract."""
    try:
        return "ok", _fields(extract_convergent_subsequence(seq, tol=tol))
    except NotTightError:
        return "not_tight", family_tight(seq).witnesses
    except NoConvergenceAtTolError:
        return "no_convergence", ()


NN_EVENTS = [
    EventSet.of(NN, [0]),
    EventSet.of(NN, [1, 2]),
    EventSet.cofinite_of(NN, [0]),
    EventSet.of(NN, [70]),
    EventSet.cofinite_of(NN, [0, 70]),
    EventSet.of(NN, [3, 64, 66]),
    EventSet.of(NN, [10**12]),
    EventSet.cofinite_of(NN, [10**12, 1]),
]
PIPELINE_SPACES = {
    "countable": (NN, (0, 1, 2, 3, 4, 5, 6, 7), (64, 66, 70, 71), NN_EVENTS),
    "finite(2)": (B2, (0, 1), (), [ONES, EventSet.full(B2), EventSet.empty(B2)]),
    "finite(12)": (finite(12), tuple(range(12)), (), [EventSet.of(finite(12), [0, 11]), EventSet.of(finite(12), [5])]),
    "finite(8)": (finite(8), tuple(range(8)), (), [EventSet.of(finite(8), [7, 0, 2]), EventSet.full(finite(8))]),
}


@st.composite
def pipeline_cases(draw):
    """A generator on one of four spaces (iid, or a two-point grid mixture
    with a realized latent), events, a grid, a tolerance and a seed. On the
    countable space a little mass sits past cell 63: the marginal stays Radon
    (under 1/1024 of it lies past the default compacts), while a path that
    draws there early is not tight."""
    name = draw(st.sampled_from(sorted(PIPELINE_SPACES)))
    space, near, far, events = PIPELINE_SPACES[name]

    def measure():
        raw = draw(st.lists(st.integers(0, 9), min_size=len(near), max_size=len(near)).filter(sum))
        far_total = F(draw(st.integers(0, 1)), 2048) if far else F(0)
        weights = {c: (1 - far_total) * F(r, sum(raw)) for c, r in zip(near, raw)}
        weights.update({c: far_total / len(far) for c in far})
        return ProbMeasure(space, weights)

    parts = [measure() for _ in range(draw(st.integers(1, 2)))]
    if len(parts) == 1:
        gen = IIDProcess(parts[0])
    else:
        w = F(draw(st.integers(1, 3)), 4)
        gen = GridMixtureProcess(((w, 0), (1 - w, 1)), MarkovKernel(space, lambda i: parts[i]))
    chosen = draw(st.lists(st.sampled_from(events), min_size=1, max_size=3, unique=True))
    grid = draw(st.sampled_from([(100, 500, 1000, 2000), (50, 200, 400, 800, 1000), (10, 40), (200, 1000, 3000)]))
    tol = draw(st.sampled_from([0.05, 0.1, 0.2]))
    return gen, chosen, grid, tol, draw(st.integers(0, 2**32))


def _assert_matches_mass_route(gen, events, grid, tol, seed, n_paths=3):
    """construct_rcd_from_empiricals, path by path, against the mass() route
    on empirical_sequence."""
    rep = construct_rcd_from_empiricals(gen, events, n_grid=grid, n_paths=n_paths, tol=tol, master_seed=seed)
    layout = _Layout(gen.space, events)
    latents, freqs = [], []
    for i, got in enumerate(rep.paths):
        path = gen.sample_path(grid[-1], seed, path_index=i)
        seq = empirical_sequence(path, grid)
        latents.append(path.latent)
        freqs.append([np.count_nonzero(indicator_array(path.observations, ev)) / grid[-1] for ev in events])
        expected = _reference_extract(seq, tol)
        # the public MeasureSequence route and the path table both match mass()
        assert _extraction_fields(seq, tol) == expected[:2]
        atoms = _count_table(path.observations, grid, layout.cols) / np.array(grid)[:, None]
        try:
            ext = _extract(layout, atoms, tol)
            from_table = ("ok", _fields(ext))
        except NotTightError:
            from_table = ("not_tight", _tight(layout, atoms).witnesses)
        except NoConvergenceAtTolError:
            from_table = ("no_convergence", ())
        assert from_table == expected[:2]

        assert (got.seed_label, got.status) == (path.seed_label, expected[0])
        if expected[0] != "ok":
            continue
        limit = expected[2]
        final = seq[len(seq) - 1]
        limit_masses = [float(mass(limit, ev)) for ev in events]
        event_gaps = tuple(abs(m - float(mass(final, ev))) for m, ev in zip(limit_masses, events))
        kernel = gen.latent_kernel()
        kernel_gaps = () if kernel is None else tuple(
            abs(m - float(kernel_mass(kernel, path.latent, ev))) for m, ev in zip(limit_masses, events)
        )
        assert got.subsequence_length == len(expected[1][0])
        assert got.tight_witness == expected[1][1][-1][1]
        assert got.limit.weights_dict() == limit.weights_dict()
        assert got.event_gaps == event_gaps
        assert got.kernel_gaps == kernel_gaps
    if gen.latent_kernel() is not None:
        assert rep.kernel_report == rcd_verdict(gen.latent_kernel(), events, latents, freqs, grid[-1])
    return rep


@settings(max_examples=40, deadline=None)
@given(pipeline_cases())
def test_path_table_route_equals_the_mass_route(case):
    _assert_matches_mass_route(*case)


def _far_mixture(raws, far_total):
    """A two-point grid mixture on the countable space whose components put
    ``far_total`` on the cells 64, 66, 70 and 71, past the default compacts."""
    def measure(raw):
        weights = {c: (1 - far_total) * F(r, sum(raw)) for c, r in enumerate(raw)}
        weights.update({c: far_total / 4 for c in (64, 66, 70, 71)})
        return ProbMeasure(NN, weights)

    parts = [measure(raw) for raw in raws]
    return GridMixtureProcess(((F(1, 2), 0), (F(1, 2), 1)), MarkovKernel(NN, lambda i: parts[i]))


FAR_MIXTURE = _far_mixture(([5, 3, 1, 1], [1, 1, 2, 3, 1, 1, 0, 1]), F(1, 2048))
FAR_EVENTS = [EventSet.of(NN, [0]), EventSet.cofinite_of(NN, [0, 70]), EventSet.of(NN, [3, 64, 66])]


def test_paths_of_one_batch_keep_to_themselves():
    """36 paths in one batch, 16 not tight (a draw past cell 63 within the
    first 1000), 9 that do not converge and 11 ok: each matches its own
    mass() route, so no path's mask, interval or cell leaks into another."""
    grid = (20, 100, 1000)
    assert _batch_paths(_Layout(NN, FAR_EVENTS), len(grid)) >= 36
    rep = _assert_matches_mass_route(FAR_MIXTURE, FAR_EVENTS, grid, 0.1, 0, n_paths=36)
    statuses = [p.status for p in rep.paths]
    assert {s: statuses.count(s) for s in set(statuses)} == {"not_tight": 16, "no_convergence": 9, "ok": 11}


@st.composite
def batch_cases(draw):
    """30-40 paths of a far-mass mixture, short enough grids that ok,
    not-tight and non-converging paths share a batch."""
    raws = [draw(st.lists(st.integers(0, 9), min_size=8, max_size=8).filter(sum)) for _ in range(2)]
    gen = _far_mixture(raws, draw(st.sampled_from([F(1, 2048), F(1, 4096), F(0)])))  # Radon: under 1/1024
    grid = draw(st.sampled_from([(20, 100, 1000), (50, 200, 400, 800, 1000), (10, 40, 1000)]))
    tol = draw(st.sampled_from([0.05, 0.1]))
    return gen, FAR_EVENTS, grid, tol, draw(st.integers(0, 2**32)), draw(st.integers(30, 40))


@settings(max_examples=15, deadline=None)
@given(batch_cases())
def test_batched_paths_equal_the_mass_route(case):
    _assert_matches_mass_route(*case)


def test_batch_size_does_not_change_the_report(monkeypatch):
    """Batches of 1, 7 and all 36 paths give the same report."""
    def report():
        return construct_rcd_from_empiricals(FAR_MIXTURE, FAR_EVENTS, (20, 100, 1000), 36, tol=0.1).to_dict()

    whole = report()
    per_path = 3 * max(len(_Layout(NN, FAR_EVENTS).cols) + 1, len(default_closed_family(NN)))
    for paths in (1, 7):
        monkeypatch.setattr(convergence, "_BATCH_ENTRIES", paths * per_path)
        assert _batch_paths(_Layout(NN, FAR_EVENTS), 3) == paths
        assert report() == whole


class SwappedKernelMixture(GridMixtureProcess):
    """The grid mixture with a wrong directing kernel: each grid parameter is
    sent to the other one's image."""

    def latent_kernel(self):
        (_, a), (_, b) = self.prior
        return MarkovKernel(self.space, lambda t: self.component.measure(b if t == a else a))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_construct_rcd_rejects_a_swapped_kernel(seed):
    """Named alternative at the acceptance 09 sizes, on the README's
    ``mixture:grid(1/4,1/2):geom``. Over master seeds 0-99 the true kernel
    passed 100 times (pass fractions 0.95-1.00) and the swapped one failed
    100 times, every path failing its kernel bands and the frequency
    certificate failing as well."""
    events = [EventSet.of(NN, [0]), EventSet.of(NN, [1, 2]), tail(1)]
    grid = (100, 1000, 4000, 6000, 8000, 10_000)
    gen = parse_generator("mixture:grid(1/4,1/2):geom")
    null = construct_rcd_from_empiricals(gen, events, grid, 200, master_seed=seed)
    alt = construct_rcd_from_empiricals(SwappedKernelMixture(gen.prior, gen.component), events, grid, 200,
                                        master_seed=seed)
    assert null.passed
    assert not alt.passed and alt.pass_fraction == 0 and not alt.kernel_report.passed
    # the extraction does not read the kernel: only the kernel verdicts differ
    assert [(p.status, p.event_gaps) for p in alt.paths] == [(p.status, p.event_gaps) for p in null.paths]
    targets = zip(*(r.targets for r in alt.kernel_report.per_event))
    for path, row in zip(alt.paths, targets):
        if path.status == "ok":
            assert any(g > binomial_band(t, grid[-1]) for g, t in zip(path.kernel_gaps, row))


def test_construct_rcd_memory_stays_bounded():
    """The acceptance 09 construction (200 paths of 10**4 draws) peaks under
    1.5 MB of traced allocations: paths are sampled one at a time and only
    their count tables are stacked, in batches of ``_BATCH_ENTRIES``."""
    events = [EventSet.of(NN, [0]), EventSet.of(NN, [1, 2]), tail(1)]
    grid = (100, 1000, 4000, 6000, 8000, 10_000)
    construct_rcd_from_empiricals(geom_mixture(), events, grid, 1)  # the per-space caches
    tracemalloc.start()
    try:
        rep = construct_rcd_from_empiricals(geom_mixture(), events, grid, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 1.5e6, f"peak {peak / 1e6:.2f} MB"


CONTROL = MarkovChainProcess(
    ProbMeasure.delta(B2, 0),
    (ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]), ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)])),
)
BETA = BetaBernoulliProcess(1, 1)
# (path length, check of two paths of that length): they held 33.1, 23.6 and
# 4.8 MB when a check held whole paths
LONG_CHECKS = {
    "verify_rcd beta(1,1)": (2_000_000, lambda n: verify_rcd(BETA.latent_kernel(), BETA, [ONES], 2, n)),
    "slln polya(1,1)": (1_000_000, lambda n: slln_exchangeable_checks(
        PolyaUrnProcess(1, 1), [ONES], tuple(10**j for j in range(1, 7) if 10**j <= n), 2)),
    "markov bound control": (200_000, lambda n: markov_bound_check(CONTROL, ONES, F(1, 10), 2, n)),
}


@pytest.mark.parametrize("check", sorted(LONG_CHECKS))
def test_long_path_checks_hold_no_path(check):
    """A Monte Carlo check holds blocks of draws, not paths: each of these
    peaks under 3 MB of traced allocations."""
    n, run = LONG_CHECKS[check]
    run(10)  # first-call set-up stays out of the trace
    tracemalloc.start()
    try:
        run(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, f"peak {peak / 1e6:.2f} MB"


def test_kernel_targets_are_built_once_per_latent_and_event(monkeypatch):
    """Two latents and three events: the frequency certificate builds six
    kernel images, however many paths, and the path targets are its own; the
    values are the uncached ones (test_path_table_route_equals_the_mass_route)."""
    import exchkit.kernels

    calls = []
    kernel_mass = exchkit.kernels.kernel_mass

    def counting(*args):
        calls.append(args[1:])
        return kernel_mass(*args)

    monkeypatch.setattr(exchkit.kernels, "kernel_mass", counting)
    events = [EventSet.of(NN, [0]), EventSet.of(NN, [1, 2]), tail(1)]
    grid = (100, 1000, 4000, 6000, 8000, 10_000)
    rep = construct_rcd_from_empiricals(geom_mixture(), events, n_grid=grid, n_paths=20, master_seed=1)
    assert sum(p.status == "ok" for p in rep.paths) >= 10
    assert len(calls) == len(set(calls)) == 2 * 3


FAR = 10**12


def test_far_cells_cost_one_column_each():
    """The table holds one column per named cell, however large its index."""
    events = [EventSet.of(NN, [FAR]), EventSet.cofinite_of(NN, [0, FAR])]
    assert _Layout(NN, events).cols.tolist() == [*range(64), FAR]
    # finitely supported laws: an exact geometric's atom at a far cell is a
    # Fraction with about FAR bits
    parts = [ProbMeasure(NN, {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}), ProbMeasure(NN, {0: F(1, 4), 3: F(3, 4)})]
    gen = GridMixtureProcess(((F(1, 2), 0), (F(1, 2), 1)), MarkovKernel(NN, lambda i: parts[i]))
    rep = _assert_matches_mass_route(gen, events, (50, 200, 400), 0.1, 7, n_paths=4)
    ok = [p for p in rep.paths if p.status == "ok"]
    assert ok and all(p.event_gaps[0] == 0 for p in ok)


def test_a_converges_on_a_closed_family_with_far_cells():
    for far in (FAR, 10**30):  # past int64 the columns are Python integers
        a, b = EventSet.of(NN, [0]), EventSet.of(NN, [far])
        closed = ClosedFamily(NN, (EventSet.empty(NN), a, b, a.union(b), EventSet.full(NN)))
        seq = MeasureSequence(NN, tuple(ProbMeasure(NN, {0: w, far: 1 - w}) for w in (0.5, 0.25, 0.75, 0.5)))
        for candidate in (ProbMeasure(NN, {0: 0.5, far: 0.5}), ProbMeasure.delta(NN, 0)):
            got = a_converges(seq, candidate, closed, 0.01)
            assert got == _reference_a_converges(seq, candidate, closed, 0.01)


@st.composite
def measure_sequences(draw):
    """Short sequences of exact or float measures on the four spaces, some
    with mass past the default compacts."""
    name = draw(st.sampled_from(sorted(PIPELINE_SPACES)))
    space, near, far, _ = PIPELINE_SPACES[name]
    cells = near + far
    as_float = draw(st.booleans())
    measures = []
    for _ in range(draw(st.integers(1, 8))):
        raw = draw(st.lists(st.integers(0, 4), min_size=len(cells), max_size=len(cells)).filter(sum))
        weights = {c: F(r, sum(raw)) for c, r in zip(cells, raw)}
        if as_float:
            weights = {c: float(w) for c, w in weights.items()}
        measures.append(ProbMeasure(space, weights))
    return MeasureSequence(space, tuple(measures)), draw(st.sampled_from([0, 1e-9, 0.05, F(1, 4)]))


@settings(max_examples=80, deadline=None)
@given(measure_sequences())
def test_measure_sequence_route_equals_the_mass_route(case):
    seq, tol = case
    assert family_tight(seq) == _reference_tight(seq)
    assert _extraction_fields(seq, tol) == _reference_extract(seq, tol)[:2]
    closed = default_closed_family(seq.space)
    for candidate in (seq[0], seq[len(seq) - 1]):
        assert a_converges(seq, candidate, closed, tol) == _reference_a_converges(seq, candidate, closed, tol)
