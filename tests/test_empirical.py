"""Tests for empirical measures, the product-moment identity, and SLLN checks."""
from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchkit import EventSet, ProbMeasure, finite, mass
from exchkit.empirical import (
    ConvergenceReport,
    EmpiricalTrace,
    FullCondition,
    LatentCondition,
    SymmetricPrefixCondition,
    correction_factor,
    df_product_identity_check,
    df_product_identity_exact,
    empirical_measure,
    estimate_directing_measure,
    ks_distance_uniform,
    slln_condiid_check,
    slln_exchangeable_check,
)
from exchkit.kernels import CylinderEvent, bernoulli_kernel, binomial_band
from exchkit.processes import (
    BetaBernoulliProcess,
    GridMixtureProcess,
    IIDProcess,
    MarkovChainProcess,
    PathSample,
    PolyaUrnProcess,
)
from exchkit.spaces import SpaceMismatchError

B2 = finite(2)
ONES = EventSet.of(B2, [1])
ZEROS = EventSet.of(B2, [0])
FULL = EventSet.of(B2, [0, 1])


def coin(p):
    return IIDProcess(ProbMeasure.bernoulli(B2, p))


def mixture():
    return GridMixtureProcess(((F(1, 2), F(1, 4)), (F(1, 2), F(3, 4))), bernoulli_kernel(B2))


def hand_path(*obs):
    # Observations fixed by hand, generator only supplies the space.
    return PathSample(generator=coin(F(1, 2)), seed=(0, 0), latent=None, observations=tuple(obs))


# ---------------------------------------------------------------- counting


def test_empirical_measure_counts_exactly():
    path = hand_path(0, 1, 1, 0, 1)
    mu = empirical_measure(path, 5)
    assert mass(mu, ONES) == F(3, 5)
    assert mass(mu, ZEROS) == F(2, 5)
    assert mass(empirical_measure(path, 3), ONES) == F(2, 3)
    assert mass(empirical_measure(path, 1), ONES) == 0


def test_empirical_measure_window_bounds():
    path = hand_path(0, 1)
    with pytest.raises(ValueError, match="outside"):
        empirical_measure(path, 3)
    with pytest.raises(ValueError, match="outside"):
        empirical_measure(path, 0)


def test_estimate_directing_measure_partition_sums_to_one():
    path = hand_path(0, 1, 1, 0, 1, 1, 0)
    est = estimate_directing_measure(path, [ONES, ZEROS], 7)
    total = sum(est.values())
    assert total == 1
    assert isinstance(total, F)
    assert est[ONES] == F(4, 7)


def test_estimate_directing_measure_rejects_empty_event_list():
    with pytest.raises(ValueError, match="non-empty"):
        estimate_directing_measure(hand_path(0, 1), [], 2)


def test_empirical_trace_matches_direct_recount():
    path = hand_path(0, 1, 1, 0, 1)
    tr = EmpiricalTrace.compute(path, [ONES, ZEROS], (1, 3, 5))
    assert tr.values[0] == (0.0, 2 / 3, 3 / 5)
    assert tr.values[1] == (1.0, 1 / 3, 2 / 5)
    for j, ev in enumerate((ONES, ZEROS)):
        for i, n in enumerate(tr.n_grid):
            assert tr.values[j][i] == pytest.approx(float(mass(empirical_measure(path, n), ev)))


def test_empirical_trace_validates_inputs():
    path = hand_path(0, 1)
    with pytest.raises(ValueError, match="exceeds the path length"):
        EmpiricalTrace.compute(path, [ONES], (1, 5))
    with pytest.raises(ValueError, match="non-empty"):
        EmpiricalTrace.compute(path, [], (1, 2))


@settings(max_examples=60)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
def test_empirical_trace_agrees_with_empirical_measure(obs):
    space = finite(3)
    gen = IIDProcess(ProbMeasure.uniform(space))
    path = PathSample(generator=gen, seed=(0, 0), latent=None, observations=tuple(obs))
    ev = EventSet.of(space, [0, 2])
    grid = tuple(sorted({1, len(obs) // 2 or 1, len(obs)}))
    tr = EmpiricalTrace.compute(path, [ev], grid)
    for i, n in enumerate(grid):
        assert tr.values[0][i] == pytest.approx(float(mass(empirical_measure(path, n), ev)))


# ---------------------------------------------------------------- correction factor


def test_correction_factor_oracles():
    assert correction_factor(3, 2) == F(2, 3)
    assert correction_factor(2, 3) == 0
    assert correction_factor(1, 1) == 1
    for n in (1, 2, 17, 1000):
        assert correction_factor(n, 1) == 1
    assert correction_factor(4, 2) == F(3, 4)


def test_correction_factor_rejects_nonpositive_arguments():
    with pytest.raises(ValueError, match="n >= 1 and m >= 1"):
        correction_factor(0, 1)
    with pytest.raises(ValueError, match="n >= 1 and m >= 1"):
        correction_factor(3, 0)


@given(st.integers(1, 200), st.integers(1, 8))
def test_correction_factor_range_and_monotonicity(n, m):
    c = correction_factor(n, m)
    assert 0 <= c <= 1
    assert correction_factor(n + 1, m) >= c


def test_correction_factor_large_window_lower_bound():
    # corr(n, m) >= 1 - m^2/n on powers of ten.
    for k in range(1, 7):
        n = 10**k
        for m in range(1, 5):
            assert correction_factor(n, m) >= 1 - F(m * m, n)


# ---------------------------------------------------------------- exact identity


def test_exact_identity_polya_pair_oracle():
    res = df_product_identity_exact(PolyaUrnProcess(1, 1), CylinderEvent((ONES, ONES)), 2)
    assert res.lhs == F(5, 12)
    assert res.correction == F(1, 2)
    assert res.conditioned_cylinder_prob == F(1, 3)
    assert res.distinct_part == F(1, 6)
    assert res.remainder == F(1, 4)
    assert res.term_by_term_equal
    assert res.identity_holds


def test_exact_identity_polya_window_three():
    res = df_product_identity_exact(PolyaUrnProcess(1, 1), CylinderEvent((ONES, ONES)), 3)
    assert res.lhs == F(7, 18)
    assert res.correction == F(2, 3)
    assert res.remainder == F(1, 6)
    assert res.identity_holds


@pytest.mark.parametrize(
    "gen,marginal",
    [
        (coin(F(1, 3)), F(1, 3)),
        (PolyaUrnProcess(1, 2), F(1, 3)),
        (BetaBernoulliProcess(2, 1), F(2, 3)),
        (mixture(), F(1, 2)),
    ],
    ids=["iid", "polya", "beta-bernoulli", "mixture"],
)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_identity_single_coordinate_reduces_to_marginal(gen, marginal, n):
    # With one coordinate and no conditioning the identity collapses to the
    # first marginal: correction 1, remainder 0.
    res = df_product_identity_exact(gen, CylinderEvent((ONES,)), n)
    assert res.identity_holds
    assert res.correction == 1
    assert res.remainder == 0
    assert res.lhs == marginal
    assert res.conditioned_cylinder_prob == marginal


def test_exact_identity_latent_conditioning_oracle():
    cond = LatentCondition(lambda t: t == F(1, 4))
    res = df_product_identity_exact(mixture(), CylinderEvent((ONES,)), 2, conditioning=cond)
    assert res.lhs == F(1, 8)
    assert res.conditioned_cylinder_prob == F(1, 8)
    assert res.remainder == 0
    assert res.identity_holds
    bigger = df_product_identity_exact(mixture(), CylinderEvent((ONES, ONES)), 3, conditioning=cond)
    assert bigger.identity_holds


def test_exact_identity_latent_conditioning_needs_grid_mixture():
    cond = LatentCondition(lambda t: t < F(1, 2))
    with pytest.raises(ValueError, match="finite-grid mixture"):
        df_product_identity_exact(BetaBernoulliProcess(2, 1), CylinderEvent((ONES,)), 2, conditioning=cond)


def test_exact_identity_rejects_prefix_conditioning():
    cond = SymmetricPrefixCondition(B2, 2, lambda pat: sum(pat) >= 1)
    with pytest.raises(ValueError, match="Monte Carlo mode"):
        df_product_identity_exact(PolyaUrnProcess(1, 1), CylinderEvent((ONES,)), 3, conditioning=cond)


def test_exact_identity_rejects_float_parameters():
    with pytest.raises(ValueError, match="rational generator parameters"):
        df_product_identity_exact(coin(0.3), CylinderEvent((ONES,)), 2)


def test_exact_identity_rejects_oversized_cylinder():
    with pytest.raises(ValueError, match="more coordinates than the window"):
        df_product_identity_exact(PolyaUrnProcess(1, 1), CylinderEvent((ONES, ONES, ONES)), 2)


def test_exact_identity_refuses_work_over_the_oracle_cap(monkeypatch):
    # 30**6 * 6**1 ~ 4.4e9 (pattern, index tuple) steps; fail instead of enumerating
    monkeypatch.setattr(IIDProcess, "prefix_pattern_law", lambda self, n: pytest.fail("enumerated"))
    space = finite(30)
    uniform30 = IIDProcess(ProbMeasure.uniform(space))
    with pytest.raises(ValueError, match="oracle cap"):
        df_product_identity_exact(uniform30, CylinderEvent((EventSet.of(space, [0]),)), 6)


@pytest.mark.parametrize("first", [ONES, EventSet.of(B2, [])])
def test_mc_identity_rejects_cylinder_longer_than_the_grid(first):
    # the paths hold grid[-1] = 2 draws; a miss on the first coordinate
    # used to hide the overrun behind passed=True with zero gaps
    with pytest.raises(ValueError, match="more coordinates than the largest grid point"):
        df_product_identity_check(coin(F(1, 2)), CylinderEvent((first, ONES, ONES)), n_grid=(1, 2), n_paths=4)


def test_exact_identity_rejects_non_exchangeable_generator():
    chain = MarkovChainProcess(
        ProbMeasure.bernoulli(B2, F(1, 2)),
        (
            ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]),
            ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)]),
        ),
    )
    with pytest.raises(ValueError, match="not exchangeable"):
        df_product_identity_exact(chain, CylinderEvent((ONES,)), 2)


def test_exact_identity_rejects_space_mismatch():
    other = EventSet.of(finite(3), [1])
    with pytest.raises(SpaceMismatchError):
        df_product_identity_exact(PolyaUrnProcess(1, 1), CylinderEvent((other,)), 2)


# ---------------------------------------------------------------- conditioning events


def test_prefix_condition_rejects_asymmetric_statistic():
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricPrefixCondition(B2, 2, lambda pat: pat[0] == 1)


def test_prefix_condition_accepts_symmetric_statistic():
    cond = SymmetricPrefixCondition(B2, 3, lambda pat: sum(pat) >= 2)
    assert cond.path_indicator(hand_path(1, 1, 0, 0)) is True
    assert cond.path_indicator(hand_path(1, 0, 0, 1)) is False


def test_prefix_condition_length_bounds():
    with pytest.raises(ValueError, match="prefix length"):
        SymmetricPrefixCondition(B2, 0, lambda pat: True)
    # 30**6 * 6 ~ 4.4e9 predicate calls; the predicate must never run
    with pytest.raises(ValueError, match="oracle cap"):
        SymmetricPrefixCondition(finite(30), 6, lambda pat: pytest.fail("enumerated"))
    # past the old limit of six: 2**7 * 7 calls
    assert SymmetricPrefixCondition(B2, 7, lambda pat: sum(pat) >= 4).prefix_len == 7


def test_prefix_condition_needs_finite_space():
    from exchkit import countable

    with pytest.raises(ValueError, match="finite space"):
        SymmetricPrefixCondition(countable(), 2, lambda pat: sum(pat) >= 1)


def test_latent_condition_needs_realized_latent():
    path = PolyaUrnProcess(1, 1).sample_path(4, master_seed=0)
    cond = LatentCondition(lambda t: t > 0)
    with pytest.raises(ValueError, match="no realized latent"):
        cond.path_indicator(path)


def test_full_condition_is_always_true():
    assert FullCondition().path_indicator(hand_path(0)) is True


# ---------------------------------------------------------------- Monte Carlo identity


def test_mc_identity_iid_product_oracle():
    # Independent coordinates: P(X1=1, X2=0) = 1/4 for a fair coin.
    rep = df_product_identity_check(
        coin(F(1, 2)),
        CylinderEvent((ONES, ZEROS)),
        n_grid=(10, 100, 1000),
        n_paths=300,
        master_seed=3,
    )
    assert rep.passed
    assert rep.corrections[-1] * rep.rhs_mean == pytest.approx(0.25, abs=0.05)


def test_mc_identity_polya_gap_shrinks():
    rep = df_product_identity_check(
        PolyaUrnProcess(1, 1),
        CylinderEvent((ONES, ONES)),
        n_grid=(10, 100, 1000),
        n_paths=400,
        master_seed=1,
    )
    assert rep.passed
    # The repeated-index remainder decays like 1/n, so the raw gap shrinks.
    assert rep.gaps[0] > rep.gaps[-1]


def test_mc_identity_latent_conditioning_passes():
    cond = LatentCondition(lambda t: t == F(1, 4))
    rep = df_product_identity_check(
        mixture(),
        CylinderEvent((ONES,)),
        conditioning=cond,
        n_grid=(10, 100, 1000),
        n_paths=300,
        master_seed=2,
    )
    assert rep.passed


def test_mc_identity_reports_honest_gap_for_prefix_conditioning():
    # A statistic of a fixed prefix is not a function of the directing
    # measure, and the cylinder reuses coordinate 1, so the two sides
    # settle at different limits (1/4 vs 1/2 here). The check must report
    # that gap rather than smooth it over.
    cond = SymmetricPrefixCondition(B2, 1, lambda pat: pat[0] == 1)
    rep = df_product_identity_check(
        coin(F(1, 2)),
        CylinderEvent((ONES,)),
        conditioning=cond,
        n_grid=(10, 100, 1000),
        n_paths=300,
        master_seed=0,
    )
    assert rep.passed is False
    assert rep.gaps[-1] > 0.2


def test_mc_identity_input_validation():
    gen = coin(F(1, 2))
    cyl = CylinderEvent((ONES,))
    with pytest.raises(ValueError, match="admissible forms"):
        df_product_identity_check(gen, cyl, conditioning="whenever")
    with pytest.raises(ValueError, match="at least two paths"):
        df_product_identity_check(gen, cyl, n_paths=1)
    chain = MarkovChainProcess(
        ProbMeasure.bernoulli(B2, F(1, 2)),
        (
            ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]),
            ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)]),
        ),
    )
    with pytest.raises(ValueError, match="not exchangeable"):
        df_product_identity_check(chain, cyl)


def test_mc_identity_latent_conditioning_needs_latent_paths():
    cond = LatentCondition(lambda t: t > 0)
    with pytest.raises(ValueError, match="no realized latent"):
        df_product_identity_check(
            PolyaUrnProcess(1, 1),
            CylinderEvent((ONES,)),
            conditioning=cond,
            n_grid=(10, 50),
            n_paths=4,
        )


# ---------------------------------------------------------------- KS distance


def test_ks_distance_hand_values():
    assert ks_distance_uniform([0.5]) == pytest.approx(0.5)
    assert ks_distance_uniform([0.25, 0.75]) == pytest.approx(0.25)
    # Midpoint grid attains the minimal possible value 1/(2n).
    n = 10
    grid = [(i - 0.5) / n for i in range(1, n + 1)]
    assert ks_distance_uniform(grid) == pytest.approx(1 / (2 * n))


def test_ks_distance_validates_input():
    with pytest.raises(ValueError, match="at least one value"):
        ks_distance_uniform([])
    with pytest.raises(ValueError, match="lie in"):
        ks_distance_uniform([-0.1, 0.5])
    with pytest.raises(ValueError, match="lie in"):
        ks_distance_uniform([0.5, 1.5])
    with pytest.raises(ValueError, match="lie in"):  # NaN sorts last
        ks_distance_uniform([0.1, float("nan"), 0.5])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
def test_ks_distance_matches_scipy(values):
    scipy_stats = pytest.importorskip("scipy.stats")
    ours = ks_distance_uniform(values)
    ref = scipy_stats.kstest(values, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------- SLLN checks


def test_slln_rejects_non_exchangeable():
    chain = MarkovChainProcess(
        ProbMeasure.bernoulli(B2, F(1, 2)),
        (
            ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]),
            ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)]),
        ),
    )
    with pytest.raises(ValueError, match="not exchangeable"):
        slln_exchangeable_check(chain, ONES, n_grid=(10, 100), n_paths=4)


def test_slln_condiid_rejects_plain_urn():
    with pytest.raises(ValueError, match="mixture/iid form"):
        slln_condiid_check(PolyaUrnProcess(1, 1), ONES, n_grid=(10, 100), n_paths=4)


def test_slln_mixture_targets_coincide_between_checks():
    # Both checks resolve the same per-path latent target, so the reports
    # agree path by path.
    kw = dict(n_grid=(10, 500, 2000), n_paths=120, master_seed=5)
    ra = slln_exchangeable_check(mixture(), ONES, **kw)
    rb = slln_condiid_check(mixture(), ONES, **kw)
    assert ra.targets == rb.targets
    assert ra.finals == rb.finals
    assert ra.passed and rb.passed
    assert set(ra.targets) == {0.25, 0.75}
    for f in ra.finals:
        assert min(abs(f - 0.25), abs(f - 0.75)) < 0.1


def test_slln_verdict_counts_final_gaps_inside_the_band():
    # targets are the latents, gaps are final minus target, and the pass
    # fraction counts gaps inside the 3-sigma band at the largest n
    gen = mixture()
    rep = slln_exchangeable_check(gen, ONES, n_grid=(10, 2000), n_paths=40, master_seed=2)
    targets = tuple(float(gen.sample_path(2000, 2, path_index=i).latent) for i in range(40))
    gaps = tuple(abs(f - t) for f, t in zip(rep.finals, targets))
    assert rep.finals == tuple(trace[-1] for trace in rep.traces)
    assert (rep.targets, rep.gaps) == (targets, gaps)
    assert rep.pass_fraction == sum(g <= binomial_band(t, 2000) for g, t in zip(gaps, targets)) / 40
    assert rep.passed == (rep.pass_fraction >= 0.95)


def test_slln_full_space_event_is_constant_one():
    rep = slln_exchangeable_check(mixture(), FULL, n_grid=(10, 100), n_paths=10, master_seed=0)
    assert all(v == 1.0 for trace in rep.traces for v in trace)
    assert rep.passed


def test_slln_beta_bernoulli_tracks_sampled_latent():
    rep = slln_exchangeable_check(BetaBernoulliProcess(2, 1), ONES, n_grid=(10, 1000), n_paths=150, master_seed=4)
    assert rep.passed
    assert rep.pass_fraction == 1.0


def test_slln_urn_report_is_informational():
    # No realized latent, so there is no target to compare against.
    rep = slln_exchangeable_check(PolyaUrnProcess(1, 1), ONES, n_grid=(10, 200), n_paths=30, master_seed=0)
    assert rep.passed is None
    assert rep.pass_fraction is None
    assert set(rep.targets) == {None}
    rows = rep.rows()
    assert len(rows) == 30 * 2
    scenario, label, n, spec, value, target, gap = rows[0]
    assert scenario == "polya(1,1)"
    assert label == "0:0"
    assert n == 10
    assert spec == "cells:1"
    assert target == "" and gap == ""


def test_slln_degenerate_mixture_is_iid():
    single = GridMixtureProcess(((F(1), F(1, 2)),), bernoulli_kernel(B2))
    rep = slln_condiid_check(single, ONES, n_grid=(10, 1000), n_paths=50, master_seed=1)
    assert set(rep.targets) == {0.5}
    assert rep.passed


def test_slln_input_validation():
    gen = mixture()
    other = EventSet.of(finite(3), [0])
    with pytest.raises(SpaceMismatchError):
        slln_exchangeable_check(gen, other, n_grid=(10, 100), n_paths=4)
    with pytest.raises(ValueError, match="at least one path"):
        slln_exchangeable_check(gen, ONES, n_grid=(10, 100), n_paths=0)
    with pytest.raises(ValueError, match="strictly increasing"):
        slln_exchangeable_check(gen, ONES, n_grid=(100, 10), n_paths=4)
    with pytest.raises(ValueError, match="positive lengths"):
        slln_exchangeable_check(gen, ONES, n_grid=(0, 10), n_paths=4)


def test_convergence_report_to_dict_and_validation():
    rep = slln_exchangeable_check(mixture(), ONES, n_grid=(10, 100), n_paths=5, master_seed=0)
    d = rep.to_dict()
    assert d["scenario"] == rep.scenario
    assert "max_final_gap" in d
    with pytest.raises(ValueError, match="pass fraction"):
        ConvergenceReport(
            scenario="x",
            event=ONES,
            n_grid=(10,),
            n_paths=1,
            seed_labels=("0:0",),
            traces=((0.5,),),
            targets=(None,),
            gaps=(None,),
            coverage=0.95,
            pass_fraction=1.5,
            passed=None,
        )
