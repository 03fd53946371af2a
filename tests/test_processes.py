"""Exact prefix laws, the exchangeability oracle, and the urn identity.

Every numeric oracle here is computed by hand in the comments.
"""

import hashlib
import math
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchkit import (
    BetaBernoulliProcess,
    EventSet,
    GridMixtureProcess,
    IIDProcess,
    MarkovChainProcess,
    PolyaUrnProcess,
    ProbMeasure,
    check_exchangeable,
    countable,
    finite,
    polya_beta_equivalence,
)
from exchkit import processes
from exchkit.empirical import LatentCondition, _exact_weighted_patterns
from exchkit.config import parse_generator
from exchkit.kernels import MarkovKernel, bernoulli_kernel, constant_kernel, geometric_kernel, kernel_mass
from exchkit.measures import GeometricComponent, mix_measures
from exchkit.processes import (
    _POLYA_BLOCK,
    _POLYA_LOCKSTEP_LANES,
    _POLYA_WARMUP_BALLS,
    _concatenated,
    _least_ones,
    all_patterns,
    _exact_law,
    beta_binomial_pattern_prob,
    prefix_law,
    sample_from_measure,
)
from exchkit.rng import _LANE_BLOCK, block_buffers, path_stream, skip_uniforms

F = Fraction
B2 = finite(2)


def coin(p) -> IIDProcess:
    return IIDProcess(ProbMeasure.bernoulli(B2, p))


def flip_chain() -> MarkovChainProcess:
    # start at 0, then strongly prefer switching: P(0,1) = 3/4 but P(1,0) = 0
    rows = (
        ProbMeasure.from_weights(B2, [F(1, 4), F(3, 4)]),
        ProbMeasure.from_weights(B2, [F(3, 4), F(1, 4)]),
    )
    return MarkovChainProcess(ProbMeasure.delta(B2, 0), rows)


# -- pattern encoding ----------------------------------------------------------


def test_pattern_codec_round_trip():
    # on a full-support law the k**n patterns map one-to-one onto range(k**n),
    # each at the cell its base-k digits name
    gen = IIDProcess(ProbMeasure.from_weights(finite(3), [F(1, 2), F(1, 3), F(1, 6)]))
    law, mu = gen.prefix_pattern_law(4), prefix_law(gen, 4)
    for pat in all_patterns(finite(3), 4):
        assert mu.atom_mass(int("".join(map(str, pat)), 3)) == law[pat] > 0
    assert sum(mu.atom_mass(c) for c in range(3**4)) == 1


def test_product_space_size():
    assert prefix_law(IIDProcess(ProbMeasure.uniform(finite(3))), 4).space.num_cells == 81
    with pytest.raises(ValueError, match="finite state space"):
        prefix_law(IIDProcess(ProbMeasure.geometric(countable(), F(1, 2))), 2)


# -- exact laws ----------------------------------------------------------------


def test_iid_prefix_law_oracle():
    # Bern(1/3): P(1,0,1) = 1/3 * 2/3 * 1/3 = 2/27
    law = coin(F(1, 3)).prefix_pattern_law(3)
    assert law[(1, 0, 1)] == F(2, 27)
    assert sum(law.values()) == 1


def test_polya_11_two_step_law_oracle():
    # urn (1,1): P(1,1) = 1/2 * 2/3 = 1/3, P(1,0) = 1/2 * 1/3 = 1/6
    law = PolyaUrnProcess(1, 1).prefix_pattern_law(2)
    assert law[(1, 1)] == F(1, 3)
    assert law[(0, 0)] == F(1, 3)
    assert law[(1, 0)] == F(1, 6)
    assert law[(0, 1)] == F(1, 6)


def test_polya_21_two_step_law_oracle():
    # urn (2,1): P(1,1) = 2/3 * 3/4 = 1/2, P(0,0) = 1/3 * 1/2 = 1/6
    law = PolyaUrnProcess(2, 1).prefix_pattern_law(2)
    assert law[(1, 1)] == F(1, 2)
    assert law[(0, 0)] == F(1, 6)


def test_beta_binomial_formula_oracle():
    # a = b = 1, n = 2, k = 1: B(2, 2)/B(1, 1) = 1/6
    assert beta_binomial_pattern_prob(1, 1, 2, 1) == F(1, 6)
    # urn route for (2,1), pattern (1,1,0): 2/3 * 3/4 * 1/5 = 1/10
    assert beta_binomial_pattern_prob(2, 1, 3, 2) == F(1, 10)


def test_beta_bernoulli_law_equals_urn_law():
    bb = BetaBernoulliProcess(1, 1).prefix_pattern_law(3)
    urn = PolyaUrnProcess(1, 1).prefix_pattern_law(3)
    assert bb == urn


def test_grid_mixture_prefix_law():
    # fair mix of Bern(0) and Bern(1): only constant patterns survive
    gen = GridMixtureProcess(((F(1, 2), F(0)), (F(1, 2), F(1))), bernoulli_kernel(B2))
    law = gen.prefix_pattern_law(3)
    assert law[(0, 0, 0)] == F(1, 2)
    assert law[(1, 1, 1)] == F(1, 2)
    assert law[(0, 1, 0)] == 0


def test_prefix_law_as_product_measure():
    mu = prefix_law(coin(F(1, 3)), 2)
    # encoded (1,0) = 2 on the 4-cell product space
    assert mu.atom_mass(2) == F(2, 9)
    assert mu.space.num_cells == 4


def test_prefix_law_rejects_float_parameters():
    with pytest.raises(ValueError, match="rational"):
        prefix_law(coin(0.3), 2)


def test_oracle_domain_guard():
    # the one exact-law gate: a finite space, n >= 1, the work cap, a rational law
    def work(k):
        return f"{k}**2 patterns", repeat(k, 2)

    gen = coin(F(1, 2))
    assert _exact_law(gen, 2, work) == (2, gen.prefix_pattern_law(2))
    with pytest.raises(ValueError, match="prefix length"):
        _exact_law(gen, 0, work)
    with pytest.raises(ValueError, match="finite state space"):
        _exact_law(IIDProcess(ProbMeasure.geometric(countable(), F(1, 2))), 2, work)
    with pytest.raises(ValueError, match="10\\*\\*5 patterns exceed the oracle cap"):
        _exact_law(gen, 2, lambda k: ("10**5 patterns", repeat(10**5, 2)))
    with pytest.raises(ValueError, match="rational"):
        _exact_law(coin(0.3), 2, work)
    # an int-weighted law is rational
    assert _exact_law(IIDProcess(ProbMeasure.from_weights(B2, [0, 1])), 2, work)[1][1, 1] == 1


@pytest.mark.parametrize("oracle", [
    lambda gen: check_exchangeable(gen, 4),
    lambda gen: prefix_law(gen, 2),
    lambda gen: check_exchangeable(GridMixtureProcess(((0.5, 0.3), (0.5, 0.6)), bernoulli_kernel(B2)), 3),
], ids=["check_exchangeable-iid", "prefix_law-iid", "check_exchangeable-mixture"])
def test_exact_oracles_refuse_a_float_law(oracle):
    # a float law differs from its permutations in the last bits: once
    # exchangeable=False with max_discrepancy 2.8e-17
    with pytest.raises(ValueError, match="rational generator parameters"):
        oracle(coin(0.3))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(deadline=None)
def test_prefix_law_marginalizes_consistently(a, b, n):
    """Summing the (n+1)-law over the last coordinate returns the n-law."""
    gen = PolyaUrnProcess(a, b)
    big = gen.prefix_pattern_law(n + 1)
    small = gen.prefix_pattern_law(n)
    for pattern, p in small.items():
        assert big[pattern + (0,)] + big[pattern + (1,)] == p


def test_marginals():
    assert PolyaUrnProcess(1, 3).marginal().atom_mass(1) == F(1, 4)
    assert BetaBernoulliProcess(2, 2).marginal().atom_mass(1) == F(1, 2)
    gen = GridMixtureProcess(
        ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), geometric_kernel(countable())
    )
    assert gen.marginal().atom_mass(0) == F(3, 8)


# -- constructor validation -----------------------------------------------------


def test_urn_needs_balls_of_both_colors():
    with pytest.raises(ValueError):
        PolyaUrnProcess(0, 1)


def test_beta_shapes_positive():
    with pytest.raises(ValueError):
        BetaBernoulliProcess(0, 1)


# Before the finiteness check these were accepted and sampled all-zero paths.
@pytest.mark.parametrize(
    "make, bad",
    [
        (PolyaUrnProcess, math.nan),
        (PolyaUrnProcess, math.inf),
        (BetaBernoulliProcess, math.nan),
        (BetaBernoulliProcess, math.inf),
    ],
    ids=["polya-nan", "polya-inf", "beta-nan", "beta-inf"],
)
def test_non_finite_parameters_are_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad, 1)
    with pytest.raises(ValueError, match="finite"):
        make(1, bad)


def test_grid_prior_must_normalize():
    with pytest.raises(ValueError, match="sum"):
        GridMixtureProcess(((F(1, 2), F(1, 4)),), bernoulli_kernel(B2))
    with pytest.raises(ValueError):
        GridMixtureProcess(
            ((F(3, 2), F(1, 4)), (F(-1, 2), F(1, 2))), bernoulli_kernel(B2)
        )


def test_grid_prior_parameters_checked_against_kernel():
    with pytest.raises(ValueError):
        GridMixtureProcess(((F(1), F(3, 2)),), bernoulli_kernel(B2))


def test_markov_chain_needs_matching_rows():
    with pytest.raises(ValueError):
        MarkovChainProcess(ProbMeasure.delta(B2, 0), (ProbMeasure.delta(B2, 0),))


# -- exchangeability oracle ------------------------------------------------------


def test_iid_is_exchangeable_exactly():
    res = check_exchangeable(coin(F(1, 3)), 4)
    assert res.exchangeable
    assert res.max_discrepancy == 0


def test_polya_is_exchangeable_exactly():
    res = check_exchangeable(PolyaUrnProcess(2, 3), 4)
    assert res.exchangeable


def test_markov_control_fails_with_counterexample():
    res = check_exchangeable(flip_chain(), 2)
    # P(0,1) = 3/4 vs P(1,0) = 0 under the swap
    assert not res.exchangeable
    assert res.max_discrepancy == F(3, 4)
    assert res.worst_permutation == (1, 0)


def test_exchangeability_result_serializes():
    d = check_exchangeable(flip_chain(), 2).to_dict()
    assert d["exchangeable"] is False
    assert d["worst_permutation"] == [1, 0]
    assert d["max_discrepancy"] == "3/4"


def test_check_respects_oracle_bound(monkeypatch):
    # 3! * 2**3 = 48 steps: allowed at a cap of 48, refused at 47
    monkeypatch.setattr(processes, "_ORACLE_WORK_CAP", 48)
    assert check_exchangeable(coin(F(1, 2)), 3).exchangeable
    monkeypatch.setattr(processes, "_ORACLE_WORK_CAP", 47)
    with pytest.raises(ValueError, match="oracle cap 47"):
        check_exchangeable(coin(F(1, 2)), 3)


def test_check_caps_the_enumeration_work():
    # 9! * 2**9 = 185,794,560 steps: over the cap
    with pytest.raises(ValueError, match="oracle cap"):
        check_exchangeable(coin(F(1, 2)), 9)
    with pytest.raises(ValueError, match="oracle cap"):
        check_exchangeable(PolyaUrnProcess(1, 1), 12)
    with pytest.raises(ValueError, match="oracle cap"):  # refused without computing 10**9!
        check_exchangeable(coin(F(1, 2)), 10**9)


def test_every_process_oracle_refuses_work_over_its_cap(monkeypatch):
    # Fail instead of enumerating, should a guard be missing.
    for gen_cls in (IIDProcess, PolyaUrnProcess):
        monkeypatch.setattr(gen_cls, "prefix_pattern_law", lambda self, n: pytest.fail("enumerated"))
    uniform30 = IIDProcess(ProbMeasure.uniform(finite(30)))
    with pytest.raises(ValueError, match="oracle cap"):  # 6 * 30**6 ~ 4.4e9 pattern entries
        prefix_law(uniform30, 6)
    with pytest.raises(ValueError, match="oracle cap"):  # 2**40 ~ 1.1e12 urn patterns
        polya_beta_equivalence(1, 1, 40)
    with pytest.raises(ValueError, match="oracle cap"):
        polya_beta_equivalence(1, 1, 10**9)
    with pytest.raises(ValueError, match="oracle cap"):  # k**n = 1 on one cell; n still counts
        prefix_law(IIDProcess(ProbMeasure.uniform(finite(1))), 10**9)


# -- urn vs Beta-Binomial (two independent routes) --------------------------------


def test_polya_beta_equivalence_exact():
    ok, disc = polya_beta_equivalence(1, 1, 4)
    assert ok and disc == 0
    ok, disc = polya_beta_equivalence(2, 1, 4)
    assert ok and disc == 0
    # 2**10 urn patterns: past the old length limit of six, far below the cap
    assert polya_beta_equivalence(1, 1, 10) == (True, 0)


def test_polya_beta_equivalence_rejects_float_counts():
    # rational counts are exact (see the mixing-law block); a float is refused
    with pytest.raises(ValueError, match="rational generator parameters"):
        polya_beta_equivalence(1.5, 1, 3)


# -- sampling -----------------------------------------------------------------


def test_same_seed_same_path():
    gen = coin(F(1, 3))
    a = gen.sample_path(50, 7, path_index=3)
    b = gen.sample_path(50, 7, path_index=3)
    assert np.array_equal(a.observations, b.observations)
    assert a.seed_label == "7:3"


def test_path_index_changes_the_draw():
    gen = coin(F(1, 3))
    a = gen.sample_path(200, 7, path_index=0)
    b = gen.sample_path(200, 7, path_index=1)
    assert not np.array_equal(a.observations, b.observations)


def test_path_length_validated():
    with pytest.raises(ValueError):
        coin(F(1, 2)).sample_path(0, 1)


def test_beta_bernoulli_latent_is_stored():
    path = BetaBernoulliProcess(1, 1).sample_path(10, 3)
    assert 0.0 <= path.latent <= 1.0


def test_grid_mixture_latent_comes_from_the_grid():
    gen = GridMixtureProcess(
        ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), geometric_kernel(countable())
    )
    seen = {gen.sample_path(5, 0, path_index=i).latent for i in range(20)}
    assert seen <= {F(1, 4), F(1, 2)}
    assert len(seen) == 2


def test_latent_kernel_maps_the_latent():
    gen = GridMixtureProcess(
        ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), bernoulli_kernel(B2)
    )
    path = gen.sample_path(5, 0)
    ones = EventSet.of(B2, [1])
    assert float(kernel_mass(gen.latent_kernel(), path.latent, ones)) == float(path.latent)


def test_iid_latent_kernel_is_the_marginal():
    gen = coin(F(1, 3))
    path = gen.sample_path(5, 0)
    assert path.latent is None
    assert float(kernel_mass(gen.latent_kernel(), path.latent, EventSet.of(B2, [1]))) == pytest.approx(1 / 3)


def test_polya_has_no_latent_kernel():
    gen = PolyaUrnProcess(1, 1)
    path = gen.sample_path(5, 0)
    assert path.latent is None
    assert gen.latent_kernel() is None


def test_sampling_matches_exact_law_roughly():
    """Sanity link between the sampler and the enumerated law."""
    gen = PolyaUrnProcess(1, 1)
    hits = 0
    n_paths = 2000
    for i in range(n_paths):
        obs = gen.sample_path(2, 123, path_index=i).observations
        hits += int(obs[0] == 1 and obs[1] == 1)
    # P(1,1) = 1/3, binomial 3 sigma ~ 0.032
    assert abs(hits / n_paths - 1 / 3) < 0.032


def test_sample_from_measure_geometric_mixture():
    mu = ProbMeasure.geometric_mixture(
        countable(), [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))]
    )
    draws = sample_from_measure(mu, path_stream(5), 20000)
    freq0 = float(np.mean(draws == 0))
    # P(0) = 1/2 * 1/2 + 1/2 * 1/4 = 3/8, 3 sigma ~ 0.0103
    assert abs(freq0 - 0.375) < 0.011
    assert draws.min() >= 0


def test_spec_labels_are_stable():
    assert PolyaUrnProcess(1, 2).spec_label() == "polya(1,2)"
    assert coin(F(1, 2)).spec_label() == "iid"
    assert BetaBernoulliProcess(1, 1).spec_label() == "mixture(beta(1,1))"
    gen = GridMixtureProcess(
        ((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), bernoulli_kernel(B2)
    )
    assert gen.spec_label() == "mixture(grid=1/4,1/2)"


# -- block samplers against the per-step loops they replaced -------------------


def polya_loop(gen, stream, n):
    """The per-draw urn loop, kept as the oracle."""
    u = stream.random(n)
    ones = float(gen.a)
    zeros = float(gen.b)
    obs = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if u[i] < ones / (ones + zeros):
            obs[i] = 1
            ones += 1.0
        else:
            zeros += 1.0
    return obs


def markov_loop(gen, stream, n):
    """The per-step chain loop, kept as the oracle."""
    u = stream.random(n)
    k = gen.space.num_cells
    cums = []
    for row in gen.rows:
        c = np.cumsum([float(row.atom_mass(j)) for j in range(k)])
        c[-1] = 1.0
        cums.append(c)
    init_cum = np.cumsum([float(gen.initial.atom_mass(j)) for j in range(k)])
    init_cum[-1] = 1.0
    obs = np.zeros(n, dtype=np.int64)
    state = int(np.searchsorted(init_cum, u[0], side="right"))
    obs[0] = state
    for i in range(1, n):
        state = int(np.searchsorted(cums[state], u[i], side="right"))
        obs[i] = state
    return obs


def assert_same_draws(gen, oracle, n, seed, index):
    path = gen.sample_path(n, seed, index)
    assert path.latent is None
    assert path.observations.dtype == np.int64
    assert np.array_equal(path.observations, oracle(gen, path_stream(seed, index), n))


PB = _POLYA_BLOCK
URN_COUNTS = [
    (1, 1), (2, 1), (1, 99), (F(4, 3), F(7, 3)), (1.1, 2.7),
    # 255, 256 and 257 balls: just below, at and above the warm-up's 256
    (254, 1), (255, 1), (128, 128), (1, 255), (200, 57),
]
URN_LENGTHS = [1, PB - 1, PB, PB + 1, 3 * PB + 17]


def warm_up_edges(a, b):
    """The looped draws, then the ends of the first two blocks, by the rule
    of the module docstring: blocks of min(_POLYA_BLOCK, 4 x balls)."""
    balls = Fraction(a) + Fraction(b)
    warm = max(0, math.ceil(_POLYA_WARMUP_BALLS - balls))
    first = warm + min(PB, math.floor(4 * (balls + warm)))
    second = first + min(PB, math.floor(4 * (balls + first)))
    return warm, first, second


def lengths_around_the_warm_up(a, b):
    """Lengths ending inside the warm-up, on its last draw and just past it,
    and on each side of the first two block edges; the screen runs on every
    block, so these are also its first two."""
    warm, first, second = warm_up_edges(a, b)
    near = {warm // 2, warm - 1, warm, warm + 1, first - 1, first, first + 1, second - 1, second, second + 1}
    return sorted(n for n in near if n >= 1)


@pytest.mark.parametrize(
    "a, b, n", [(a, b, n) for a, b in URN_COUNTS for n in lengths_around_the_warm_up(a, b)]
)
def test_polya_matches_the_loop_around_the_warm_up(a, b, n):
    assert_same_draws(PolyaUrnProcess(a, b), polya_loop, n, 0, 1)


@pytest.mark.parametrize("a, b", URN_COUNTS)
@pytest.mark.parametrize("n", URN_LENGTHS)
def test_polya_blocks_match_the_loop_at_block_edges(a, b, n):
    assert_same_draws(PolyaUrnProcess(a, b), polya_loop, n, 0, 1)


class ThresholdStream:
    """Uniforms on the loop's own ratios: 0 (or, with ``below``, the double
    just below the ratio) draws a one, the ratio itself a zero.

    A count off by one rounding step moves the ratio past its uniform, so this
    catches counts summed in another order than the loop's ``+= 1.0``.
    """

    def __init__(self, a, b, period, below=False):
        self.ones, self.zeros, self.period, self.below = float(a), float(b), period, below
        self.drawn = 0

    def random(self, n=None, out=None):
        u = np.empty(n) if out is None else out
        for i in range(len(u)):
            if self.drawn % self.period == 0:
                u[i] = math.nextafter(self.ones / (self.ones + self.zeros), 0.0) if self.below else 0.0
                self.ones += 1.0
            else:
                u[i] = self.ones / (self.ones + self.zeros)
                self.zeros += 1.0
            self.drawn += 1
        return u


@pytest.mark.parametrize(
    "a, b", [(F(4, 3), F(7, 3)), (1.1, 2.7), (1, 1), (2, 1), (1, 99), (255, 1), (2**53 - 300, 100)]
)
def test_polya_counts_round_as_the_loop_on_threshold_uniforms(a, b):
    # every draw sits on its threshold, so an integer urn solves each block one
    # draw at a time (quadratic in the block): the warm-up, both growing blocks
    # and 500 draws into the first full one keep this short. The urns of
    # non-integer counts, and the last, whose balls pass 2**53 after 200
    # draws, run the loop on every draw
    n = warm_up_edges(a, b)[2] + 500
    _, blocks = PolyaUrnProcess(a, b)._blocks([ThresholdStream(a, b, 3)], n, *block_buffers(n))
    obs = _concatenated(blocks, n)
    assert np.array_equal(obs, (np.arange(n) % 3 == 0).astype(np.int64))


@pytest.mark.parametrize("period, below", [(1, True), (10**9, False)], ids=["ones", "zeros"])
@pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (255, 1), (2**40, 3)])
def test_polya_draws_on_the_edges_of_the_screen(a, b, period, below):
    """Every draw a one, on the double just below its ratio, or every draw
    after the first a zero, on its ratio: the last draws of each block then
    sit on the top or the bottom of its screen's band."""
    # all-ones blocks are solved one draw at a time: the warm-up and 1024 draws keep this short
    n = warm_up_edges(a, b)[0] + 1024
    _, blocks = PolyaUrnProcess(a, b)._blocks([ThresholdStream(a, b, period, below)], n, *block_buffers(n))
    assert np.array_equal(_concatenated(blocks, n), (np.arange(n) % period == 0).astype(np.int64))


urn_counts = st.one_of(
    st.integers(1, 60),
    st.integers(100, 300),
    st.integers(2**40, 2**52),
    st.fractions(min_value=1, max_value=60, max_denominator=12),
    st.floats(min_value=1, max_value=60, allow_nan=False),
)
lengths_around_urn_blocks = st.one_of(
    st.sampled_from(URN_LENGTHS), st.integers(1, 2 * _POLYA_WARMUP_BALLS), st.integers(1, 3 * PB + 17)
)


@given(urn_counts, urn_counts, lengths_around_urn_blocks, st.integers(0, 2**32), st.integers(0, 5))
@example(F(4, 3), F(7, 3), 2 * PB + 1, 0, 0)
@example(1.1, 2.7, PB + 1, 0, 0)
@example(2**53 - 300, 100, 1000, 0, 0)  # the balls pass 2**53 after 200 draws
@settings(deadline=None, max_examples=40)
def test_polya_blocks_match_the_loop(a, b, n, seed, index):
    assert_same_draws(PolyaUrnProcess(a, b), polya_loop, n, seed, index)


@given(urn_counts, urn_counts, st.integers(30_000, 80_000), st.integers(0, 2**32), st.integers(0, 5))
@example(F(4, 3), F(7, 3), 60_001, 0, 0)
@example(1.1, 2.7, 60_001, 0, 0)
@example(1, 1, 60_001, 0, 0)  # the two above reach only the loop
@settings(deadline=None, max_examples=15)
def test_polya_screened_blocks_match_the_loop(a, b, n, seed, index):
    # paths that reach full blocks, where the band is narrowest
    assert_same_draws(PolyaUrnProcess(a, b), polya_loop, n, seed, index)


@st.composite
def thresholds(draw):
    """(u, balls): a uniform anywhere in [0, 1), or on fl(k / balls) or one of
    its two neighbours, where the least count of ones that draws a one moves."""
    balls = draw(st.one_of(st.integers(1, 300), st.integers(1, 2**53 - 1), st.sampled_from([2**52, 2**53 - 1])))
    q = draw(st.integers(0, balls - 1)) / balls
    near = [v for v in (q, math.nextafter(q, 0.0), math.nextafter(q, 1.0)) if v < 1.0]
    return draw(st.sampled_from(near) | st.floats(0.0, 1.0, exclude_max=True)), balls


@given(st.lists(thresholds(), min_size=1, max_size=20))
@example([(0.0, 1), (0.5, 2), (math.nextafter(1.0, 0.0), 2**53 - 1), (1 / 3, 3), (math.nextafter(2 / 3, 0.0), 3)])
@settings(max_examples=300)
def test_least_ones_is_the_least_count_that_draws_a_one(cases):
    """An urn of N balls draws a one on u iff fl(ones / N) > u, and that ratio
    never falls as the ones grow: so it draws a one iff it holds t ones or
    more, t the least count with fl(t / N) > u."""
    u, balls = (np.array(c, dtype=float) for c in zip(*cases))
    for (ui, n), t in zip(cases, _least_ones(u, balls).tolist()):
        assert t.is_integer() and 1 <= t <= n
        assert int(t) / n > ui >= (int(t) - 1) / n


def sample_from_measure_masked(mu, stream, n):
    """The masked sampler: every draw searches its branch, kept as the oracle."""
    finite_weights = mu.weights_dict()
    cells = np.array(sorted(finite_weights), dtype=np.int64)
    probs = np.array([float(finite_weights[j]) for j in cells])
    comps = mu._components
    if not comps:
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        return cells[np.searchsorted(cum, stream.random(n), side="right")]
    branch_cum = np.cumsum(np.concatenate([[probs.sum()], [float(c.weight) for c in comps]]))
    branch_cum[-1] = 1.0
    u1 = stream.random(n)
    u2 = stream.random(n)
    branch = np.searchsorted(branch_cum, u1, side="right")
    out = np.zeros(n, dtype=np.int64)
    mask0 = branch == 0
    if mask0.any():
        cum = np.cumsum(probs / probs.sum())
        cum[-1] = 1.0
        out[mask0] = cells[np.searchsorted(cum, u2[mask0], side="right")]
    for b, comp in enumerate(comps, start=1):
        maskb = branch == b
        if not maskb.any():
            continue
        q = float(comp.ratio)
        if q >= 1.0:
            out[maskb] = 0
        else:
            u = np.clip(u2[maskb], 1e-300, 1.0 - 1e-16)
            out[maskb] = np.floor(np.log(u) / math.log1p(-q)).astype(np.int64)
    return out


@st.composite
def countable_laws(draw):
    """A finite part (possibly empty: a zero-weight branch) plus 0-3 geometric
    components with q in [1/1000, 1]; exact or float."""
    cells = draw(st.dictionaries(st.integers(0, 40), st.integers(0, 5), max_size=4))
    comps = draw(st.lists(st.tuples(st.integers(1, 5), st.fractions(F(1, 1000), 1)), max_size=3))
    if not any(cells.values()) and not comps:
        comps = [(1, F(1, 4))]
    total = sum(cells.values()) + sum(w for w, _ in comps)
    as_number = float if draw(st.booleans()) else Fraction
    weights = {j: as_number(F(w, total)) for j, w in cells.items()}
    parts = [GeometricComponent(as_number(F(w, total)), as_number(q)) for w, q in comps]
    return ProbMeasure(countable(), weights, parts)


@given(countable_laws(), st.integers(1, 3000), st.integers(0, 2**32))
@example(ProbMeasure.geometric(countable(), F(1, 4)), 10_000, 0)  # one live branch
@example(ProbMeasure.geometric(countable(), 0.25), 10_000, 0)
@example(ProbMeasure.geometric(countable(), F(1)), 100, 0)  # q = 1: every draw is cell 0
@example(ProbMeasure(countable(), {3: F(1, 2)}, [GeometricComponent(F(1, 2), F(1))]), 100, 0)
@example(ProbMeasure.from_weights(finite(3), [F(1, 2), 0, F(1, 2)]), 100, 0)  # no component
@settings(deadline=None, max_examples=80)
def test_sample_from_measure_matches_the_masked_sampler(mu, n, seed):
    s1, s2 = path_stream(seed, 3), path_stream(seed, 3)
    draws = sample_from_measure(mu, s1, n)
    assert draws.dtype == np.int64
    assert np.array_equal(draws, sample_from_measure_masked(mu, s2, n))
    assert s1.random() == s2.random()  # both uniform blocks were read


def _unread(stream):
    """The Philox state that later draws read: the counter, the buffered
    outputs not yet read and a half-read 32-bit output."""
    state = stream.bit_generator.state
    pos = state["buffer_pos"]
    half = state["uinteger"] if state["has_uint32"] else None
    return state["state"]["counter"].tolist(), state["buffer"][pos:].tolist(), half


@given(
    st.integers(0, 8),
    st.one_of(st.integers(0, 20), st.integers(0, 20_000)),
    st.booleans(),
    st.integers(0, 2**32),
)
@example(0, 10_000, False, 0)
@example(1, 10_000, False, 0)  # the grid mixture's latent draw leaves three outputs buffered
@example(3, 2, True, 7)
@settings(deadline=None, max_examples=200)
def test_skip_uniforms_lands_where_drawing_does(before, s, half_read, seed):
    """Skipping s doubles leaves the stream where drawing them does: at every
    buffer offset, for short and long skips, with or without a half-read
    32-bit output."""
    drawn, skipped = path_stream(seed, 5), path_stream(seed, 5)
    for stream in (drawn, skipped):
        stream.random(before)
        if half_read:
            stream.integers(0, 2**31, dtype=np.int32)
    drawn.random(s)
    skip_uniforms(skipped, s)
    assert _unread(skipped) == _unread(drawn)
    assert np.array_equal(skipped.random(50), drawn.random(50))
    assert np.array_equal(skipped.integers(0, 2**31, size=3, dtype=np.int32), drawn.integers(0, 2**31, size=3, dtype=np.int32))


def chain_of(weights_rows, initial):
    k = len(initial)
    space = finite(k)

    def row(ws):
        return ProbMeasure.from_weights(space, [F(w, sum(ws)) for w in ws])

    return MarkovChainProcess(row(initial), tuple(row(ws) for ws in weights_rows))


# a path drawn alone is scanned one lane block of _LANE_BLOCK draws at a time,
# its first draw the initial state: these lengths end on each side of the
# block edges, and the longest crosses three of them
MC = _LANE_BLOCK
CHAIN_LENGTHS = [1, 2, 3, MC - 1, MC, MC + 1, MC + 2, 3 * MC + 5]
CHAINS = {
    "two-state control": chain_of([[1, 3], [3, 1]], [1, 0]),
    "two-state absorbing": chain_of([[1, 0], [1, 1]], [0, 1]),
    "three-state zero entry": chain_of([[0, 1, 2], [3, 0, 1], [1, 1, 1]], [1, 1, 1]),
    "three-state absorbing": chain_of([[2, 1, 0], [0, 1, 3], [0, 0, 1]], [1, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_markov_scan_matches_the_loop_at_block_edges(name, n):
    assert_same_draws(CHAINS[name], markov_loop, n, 0, 1)


@st.composite
def chains(draw):
    k = draw(st.sampled_from([2, 3]))
    weights = st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any)
    return chain_of([draw(weights) for _ in range(k)], draw(weights))


@given(chains(), st.one_of(st.sampled_from(CHAIN_LENGTHS), st.integers(1, 3 * MC)), st.integers(0, 2**32))
@settings(deadline=None, max_examples=40)
def test_markov_scan_matches_the_loop(gen, n, seed):
    assert_same_draws(gen, markov_loop, n, seed, 0)


TWO_STATE = {
    # rows [P(0,0), P(0,1)], [P(1,0), P(1,1)]: a step fixes the state when
    # its uniform lies below both rows' first boundary or at or above both
    "identity, never fixes": chain_of([[1, 0], [0, 1]], [1, 1]),
    "swap, never fixes": chain_of([[0, 1], [1, 0]], [1, 1]),
    "mostly identity, fixes 1/1000": chain_of([[1999, 1], [1, 1999]], [1, 1]),
    "mostly swap, fixes 1/1000": chain_of([[1, 1999], [1999, 1]], [1, 1]),
    "control, fixes 1/2": chain_of([[1, 3], [3, 1]], [1, 0]),
    "one row, always fixes": chain_of([[1, 2], [1, 2]], [1, 2]),
}
# A chain of three states steps one bisect_right of its row per draw, with no
# blocks, so these lengths hold no block edge: they spread the paths from about
# 5,000 to 16,000 draws, around multiples of MC // 3.
M3 = MC // 3
THREE_STATE_LENGTHS = [1 + j * M3 + d for j in (1, 2, 3) for d in (-1, 0, 1)]
THREE_STATE = {
    "cycle, never fixes": chain_of([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1, 1, 1]),
    "mostly cycle, fixes rarely": chain_of([[1, 998, 1], [1, 1, 998], [998, 1, 1]], [1, 1, 1]),
    "uniform rows, always fixes": chain_of([[1, 1, 1]] * 3, [1, 1, 1]),
}


@given(
    st.sampled_from(sorted(TWO_STATE)),
    st.one_of(st.sampled_from(CHAIN_LENGTHS), st.integers(1, 3 * MC)),
    st.integers(0, 2**32),
)
@settings(deadline=None, max_examples=60)
def test_two_state_chains_match_the_loop_however_rarely_they_coalesce(name, n, seed):
    assert_same_draws(TWO_STATE[name], markov_loop, n, seed, 0)


@pytest.mark.parametrize("name", sorted(THREE_STATE))
@pytest.mark.parametrize("n", THREE_STATE_LENGTHS)
def test_three_state_scan_matches_the_loop_at_block_edges(name, n):
    # The name predates the per-draw bisection, which this checks against
    # markov_loop draw for draw, on rows that never fix the state, fix it
    # rarely and always fix it.
    assert_same_draws(THREE_STATE[name], markov_loop, n, 0, 1)


# sha256 of the observations' int64 bytes, computed with the per-step loops,
# at the lengths and seeds of the long-path workloads
GOLDEN = [
    (flip_chain(), 200_000, 0, "10aa465ac4f08d972fa3e4c751db4eb0856d80d98f3ef6ce7a0f426699d1bc3a"),
    (flip_chain(), 200_000, 1, "2084f59c1c32ea18e3ae409a1109f5eebde5d98424759940dab9128d69359a41"),
    (PolyaUrnProcess(1, 1), 1_000_000, 0, "4187332f5ca5678ad59e715daf2aa5df36f5eb0acfe8dd4e10b78b6f89b0a874"),
    (PolyaUrnProcess(2, 1), 1_000_000, 0, "7e372165e3b81a2f8308e8bd03b5bc74214652417873292296f1b301347eb8ff"),
]


@pytest.mark.parametrize("gen, n, index, digest", GOLDEN, ids=["markov-0:0", "markov-0:1", "polya11", "polya21"])
def test_long_paths_keep_their_random_stream(gen, n, index, digest):
    obs = gen.sample_path(n, 0, path_index=index).observations
    assert obs.dtype == np.int64
    assert hashlib.sha256(obs.tobytes()).hexdigest() == digest


# the same, for the Markov-control and Polya(1,99) paths of the long-path
# workload at the master seeds it shifts them to: (gen, n, seed, index, digest)
GOLDEN_SHIFTED = [
    (flip_chain(), 200_000, 1, 0, "bcbfe063d4dfc68200d7554c4384f1e4108e442e665671dd94216748e6686a4e"),
    (flip_chain(), 200_000, 1, 1, "36c48016519765127ab9369b1f7cc992bb82862f7d8062fce2cdfb275ddaf62a"),
    (flip_chain(), 200_000, 2, 0, "9395af29604c185ce53e4aceb541e395ebcb0945b7b52ff3bb38a6088e4cdbf1"),
    (flip_chain(), 200_000, 2, 1, "bb7821cd29db89644e1a1f669650d254a71a1ac73d9dad0d481f75be5446b354"),
    (flip_chain(), 200_000, 3, 0, "1aba23f6b05e2ae594f3bd154f982163ade9772c03c051dab5407edbe3e08195"),
    (flip_chain(), 200_000, 3, 1, "efedaf50e3e405829e1db7cd073a62d6632fe217261737e0a53abc812d98d585"),
    (PolyaUrnProcess(1, 99), 200_000, 1, 0, "f33494381b591ee7b640e763b2fe2a1146d2bf5650163a89cdc75bfdf222a0f6"),
    (PolyaUrnProcess(1, 99), 200_000, 1, 1, "ec797e9dca2f59a0c09150756b48b0e8a758f68ab96d06b6be544fbc33ee2375"),
    (PolyaUrnProcess(1, 99), 200_000, 1, 2, "87d06a5fc8f95811c527fd70545356a2df9c22c81dbde69c387957c61e7e43ef"),
    (PolyaUrnProcess(1, 99), 200_000, 1, 3, "2cc69fd26db5aee143797fd4f2d50d9a618a7d484183adb9219c576ea129b067"),
    (PolyaUrnProcess(1, 99), 200_000, 2, 0, "d4a0b1ad37fbb466687ae0213277d940e243b59816e53ce1029638f5e59135f9"),
    (PolyaUrnProcess(1, 99), 200_000, 2, 1, "a5e902bca482d536974673cf7733128a75cf31dc1663aa5f9457bff509bb4f65"),
    (PolyaUrnProcess(1, 99), 200_000, 2, 2, "21eb6a1d5ee669070e2bf4f5ec110c658ce805715a40571f0e1afce4dbb994dd"),
    (PolyaUrnProcess(1, 99), 200_000, 2, 3, "85caf9890b513115f61b61cc700e22144b9cc6774aa34ff7ebe8f9e74bc14b6f"),
    (PolyaUrnProcess(1, 99), 200_000, 3, 0, "c520e71592299674ae957901e7af2f53adf40c6dfc20c9609d0856929a07dec5"),
    (PolyaUrnProcess(1, 99), 200_000, 3, 1, "1d4aa8e3c170c53556320c651b2b5404a698116b2c6c542fba1870927d338837"),
    (PolyaUrnProcess(1, 99), 200_000, 3, 2, "2b785b175484e48b6de3a6c7d9ad53d273c00b2d19c0f15cd9fce4d8bcbde6c5"),
    (PolyaUrnProcess(1, 99), 200_000, 3, 3, "cbe8591586aa147bf70ac3bfaa2808c7df48212623e0b828f60aebbdfa4ba5d1"),
]


@pytest.mark.parametrize(
    "gen, n, seed, index, digest",
    GOLDEN_SHIFTED,
    ids=[f"{g.spec_label()}-{seed}:{index}" for g, _, seed, index, _ in GOLDEN_SHIFTED],
)
def test_long_paths_keep_their_random_stream_at_shifted_seeds(gen, n, seed, index, digest):
    obs = gen.sample_path(n, seed, path_index=index).observations
    assert obs.dtype == np.int64
    assert hashlib.sha256(obs.tobytes()).hexdigest() == digest


# -- draws in blocks ---------------------------------------------------------------
# Every generator draws its path in blocks of at most _LANE_BLOCK draws through
# two reused buffers, one lane block, as a group of lanes does. The blocks, joined, are sample_path's observations, and
# both equal the loops and masked samplers above, which read stream.random(n).

DB = _LANE_BLOCK
# lengths around the first, the fourth and the eighth block edge
DRAW_LENGTHS = [1, DB - 1, DB, DB + 1, 4 * DB - 1, 4 * DB, 4 * DB + 1, 8 * DB + 17]


def beta_draws(gen, stream, n):
    """The Beta sampler before blocks, kept as the oracle."""
    p = float(stream.beta(float(gen.a), float(gen.b)))
    return (stream.random(n) < p).astype(np.int64)


def grid_draws(gen, stream, n):
    idx = int(np.searchsorted(gen._prior_cum, stream.random(), side="right"))
    return sample_from_measure_masked(gen.images[idx], stream, n)


TWO_BRANCHES = ProbMeasure(countable(), {0: F(1, 4), 5: F(1, 4)}, [GeometricComponent(F(1, 2), F(1, 3))])
BLOCK_GENERATORS = {
    "iid finite": (IIDProcess(ProbMeasure.from_weights(finite(3), [F(1, 5), F(3, 10), F(1, 2)])), None),
    "iid geometric": (IIDProcess(ProbMeasure.geometric(countable(), F(1, 4))), None),
    "iid finite+geometric": (IIDProcess(TWO_BRANCHES), None),
    "grid mixture": (GridMixtureProcess(((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))), geometric_kernel(countable())),
                     grid_draws),
    "beta": (BetaBernoulliProcess(2, 3), beta_draws),
    "polya int": (PolyaUrnProcess(1, 1), polya_loop),
    "polya fraction": (PolyaUrnProcess(F(4, 3), F(7, 3)), polya_loop),
    "polya float": (PolyaUrnProcess(1.1, 2.7), polya_loop),
    "markov 2 states": (flip_chain(), markov_loop),
    "markov 3 states": (CHAINS["three-state zero entry"], markov_loop),
}


def assert_blocks_match(name, n, seed, index):
    gen, oracle = BLOCK_GENERATORS[name]
    if oracle is None:
        def oracle(gen, stream, n):
            return sample_from_measure_masked(gen.base, stream, n)
    path = gen.sample_path(n, seed, path_index=index)
    (latent,), blocks = gen.sample_blocks(n, seed, [index])
    copies = [block[0].copy() for block in blocks]
    assert all(1 <= len(block) <= DB for block in copies)
    assert latent == path.latent
    assert path.observations.dtype == np.int64
    assert np.array_equal(np.concatenate(copies), path.observations)
    assert np.array_equal(path.observations, oracle(gen, path_stream(seed, index), n))


@pytest.mark.parametrize("name", sorted(BLOCK_GENERATORS))
@pytest.mark.parametrize("n", DRAW_LENGTHS)
def test_blocks_join_to_the_path_and_match_the_oracles(name, n):
    assert_blocks_match(name, n, 0, 1)


@given(
    st.sampled_from(sorted(BLOCK_GENERATORS)),
    st.one_of(st.sampled_from(DRAW_LENGTHS), st.integers(1, 3 * DB)),
    st.integers(0, 2**32),
    st.integers(0, 5),
)
@settings(deadline=None, max_examples=30)
def test_blocks_match_the_oracles_at_any_length(name, n, seed, index):
    assert_blocks_match(name, n, seed, index)


def test_sample_blocks_refuse_no_paths():
    # refused at the call, as _sampled_paths refuses zero paths, not by
    # dividing the lane block among no lanes
    gen, _ = BLOCK_GENERATORS["iid finite"]
    with pytest.raises(ValueError, match="need at least one path"):
        gen.sample_blocks(10, 0, [])


@pytest.mark.parametrize("key", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1)])
def test_a_stream_key_outside_64_bits_is_refused(key):
    with pytest.raises(ValueError, match=r"must be integers in \[0, 2\*\*64\)"):
        path_stream(*key)


@pytest.mark.parametrize("call", [
    lambda gen: gen.sample_path(50, 0, path_index=1.5),  # was path 1's draws, labelled 0:1.5
    lambda gen: gen.sample_path(50, 0.0),
    lambda gen: gen.sample_blocks(50, 0, [0, 1.5]),
    lambda gen: gen.sample_path(5.5, 0),  # was TypeError
], ids=["index", "seed", "lane index", "length"])
def test_a_key_or_length_that_is_not_an_integer_in_range_is_refused(call):
    gen, _ = BLOCK_GENERATORS["iid finite"]
    with pytest.raises(ValueError, match="must be integers"):
        call(gen)


def test_integer_keys_and_lengths_of_any_integer_type_draw_the_same_path():
    gen, _ = BLOCK_GENERATORS["grid mixture"]
    path = gen.sample_path(np.int64(50), np.uint64(3), path_index=np.int32(2))
    assert path.seed_label == "3:2"
    assert np.array_equal(path.observations, gen.sample_path(50, 3, path_index=2).observations)


def test_blocks_of_several_live_branches_leave_the_stream_past_both_runs():
    # u1, the branch uniforms, is read beside u2 by a copy of the stream; the
    # stream still ends after both runs, where the masked sampler leaves it
    n = 2 * DB + 17
    s1, s2 = path_stream(4, 0), path_stream(4, 0)
    assert np.array_equal(sample_from_measure(TWO_BRANCHES, s1, n), sample_from_measure_masked(TWO_BRANCHES, s2, n))
    assert s1.random() == s2.random()


# -- lanes -------------------------------------------------------------------------
# sample_blocks draws several paths side by side, one per row (lane) of each block.
# The oracle of each lane is the path that sample_path draws alone, one lane.

LANE_GENERATORS = {
    "iid finite": IIDProcess(ProbMeasure.from_weights(finite(3), [F(1, 5), F(3, 10), F(1, 2)])),
    "iid geometric": IIDProcess(ProbMeasure.geometric(countable(), F(1, 4))),
    "iid finite+geometric": IIDProcess(TWO_BRANCHES),
    "grid bern": parse_generator("mixture:grid(1/4,3/4):bern"),
    "grid geom": parse_generator("mixture:grid(1/4,1/2):geom"),
    "beta": BetaBernoulliProcess(F(1, 2), 3),
    "polya int": PolyaUrnProcess(1, 1),
    "polya 1,99": PolyaUrnProcess(1, 99),
    "polya fraction": PolyaUrnProcess(F(4, 3), F(7, 3)),
    "polya float": PolyaUrnProcess(1.1, 2.7),
    "markov 2 states": flip_chain(),
    "markov 3 states": CHAINS["three-state zero entry"],
}


def lane_block(lanes):
    """The draws of each lane in one block: its share of the lane block."""
    return _LANE_BLOCK // lanes


def assert_lanes_are_the_paths(gen, n, seed, paths):
    latents, blocks = gen.sample_blocks(n, seed, paths)
    copies = [block.copy() for block in blocks]
    assert all(block.shape == (len(paths), len(block[0])) and 1 <= len(block[0]) <= lane_block(len(paths))
               for block in copies)
    lanes = np.concatenate(copies, axis=1)
    assert lanes.dtype == np.int64 and lanes.shape == (len(paths), n)
    for lane, latent, i in zip(lanes, latents, paths):
        alone = gen.sample_path(n, seed, i)
        assert latent == alone.latent
        assert np.array_equal(lane, alone.observations)
        if isinstance(gen, GridMixtureProcess):
            assert np.array_equal(lane, grid_draws(gen, path_stream(seed, i), n))


@st.composite
def lane_cases(draw, lanes=st.integers(2, 9)):
    """A lane count, a length of 1 to 3 lane blocks, often one draw off a
    block edge, a seed and the first path index."""
    count = draw(lanes)
    block = lane_block(count)
    n = draw(st.one_of(st.integers(1, 3 * block), st.sampled_from([1, block - 1, block, block + 1, 2 * block + 1]))
             .filter(lambda n: n >= 1))
    first = draw(st.integers(0, 5))
    return n, draw(st.integers(0, 2**32)), range(first, first + count)


# 16 lanes, the group size for paths of 10**4 draws, whose paths under seed 27682 all
# draw image 0 of both grids' two-point uniform prior (found by a search over
# seeds at paths 0-15; such a group has chance 2**-15)
ONE_IMAGE_GROUP = (2 * lane_block(16) + 1, 27682, range(16))


@pytest.mark.parametrize("name", sorted(LANE_GENERATORS))
@given(lane_cases())
@example((3 * (_LANE_BLOCK // 9), 0, range(9)))
@example((_LANE_BLOCK // 2 + 1, 1, range(1, 3)))
@example(ONE_IMAGE_GROUP)
@settings(deadline=None, max_examples=8)
def test_lanes_are_the_paths_drawn_alone(name, case):
    assert_lanes_are_the_paths(LANE_GENERATORS[name], *case)


@pytest.mark.parametrize("name", ["grid bern", "grid geom"])
def test_the_one_image_group_draws_one_image(name):
    gen = LANE_GENERATORS[name]
    n, seed, paths = ONE_IMAGE_GROUP
    latents, _ = gen.sample_blocks(n, seed, paths)
    assert latents == [gen.prior[0][1]] * len(paths)


@pytest.mark.parametrize("urn", ["polya int", "polya 1,99", "polya fraction", "polya float"])
@given(lane_cases(st.sampled_from([_POLYA_LOCKSTEP_LANES - 1, _POLYA_LOCKSTEP_LANES, _POLYA_LOCKSTEP_LANES + 6])))
@settings(deadline=None, max_examples=4)
def test_polya_lanes_on_each_side_of_the_lockstep(urn, case):
    """Groups of lanes on each side of _POLYA_LOCKSTEP_LANES, the fewest urn
    paths that _lanes groups: any group of several lanes loops every draw
    in lockstep, and each lane is the path drawn alone, whose one lane loops
    its warm-up and solves its blocks."""
    assert_lanes_are_the_paths(LANE_GENERATORS[urn], *case)


def threshold_uniforms(ones, zeros, draws):
    """Uniforms on the loop's own ratios that make it draw ``draws``: the
    double just below the ratio for a one, the ratio itself for a zero."""
    u = []
    for x in draws:
        ratio = ones / (ones + zeros)
        if x:
            u.append(math.nextafter(ratio, 0.0))
            ones += 1.0
        else:
            u.append(ratio)
            zeros += 1.0
    return u


@given(st.lists(st.tuples(urn_counts, urn_counts), min_size=1, max_size=6), st.integers(1, 300), st.integers(0, 2**32),
       st.booleans())
@example([(F(4, 3), F(7, 3)), (1.1, 2.7), (1, 1)], 200, 0, True)
@example([(2**53 - 300, 100)], 250, 0, True)
@settings(deadline=None, max_examples=60)
def test_polya_lockstep_is_the_loop_draw_for_draw(counts, m, seed, on_thresholds):
    """Lanes of urns of any counts, integer or not, each stepped by the loop
    alone and all in lockstep: the same draws and the same counts after, bit
    for bit. On threshold uniforms a count rounded in another order than the
    loop's += 1.0 flips a draw."""
    rng = np.random.default_rng(seed)
    start = [(float(a), float(b)) for a, b in counts]
    if on_thresholds:
        u = np.array([threshold_uniforms(a, b, rng.random(m) < 0.5) for a, b in start])
    else:
        u = rng.random((len(counts), m))
    ones, zeros = (np.array(c) for c in zip(*start))
    obs = np.empty(u.shape, dtype=np.int64)
    processes._urn_lockstep(u, obs, ones, zeros)
    for lane, (a, b) in enumerate(start):
        alone = np.empty(m, dtype=np.int64)
        after = processes._urn_loop(u[lane], alone, a, b)
        assert np.array_equal(obs[lane], alone)
        assert (ones[lane], zeros[lane]) == after


# -- one mixture pattern law -----------------------------------------------------
# Each generator declares its mixing law once (mixing()); its pattern law,
# marginal and latent kernel are derived from it. The loops and bodies below
# are what each class computed on its own before, kept as the oracles.


def iid_pattern_loop(base, n):
    law = {}
    for pattern in all_patterns(base.space, n):
        p = Fraction(1)
        for x in pattern:
            p *= base.atom_mass(x)
        law[pattern] = p
    return law


def grid_pattern_loop(gen, n):
    law = {}
    for pattern in all_patterns(gen.space, n):
        p = Fraction(0)
        for w, theta in gen.prior:
            mu = gen.component.measure(theta)
            term = Fraction(w)
            for x in pattern:
                term *= mu.atom_mass(x)
            p += term
        law[pattern] = p
    return law


def latent_pattern_loop(gen, n, predicate):
    out = {}
    for w, theta in gen.prior:
        if not predicate(theta):
            continue
        mu = gen.component.measure(theta)
        for pattern in all_patterns(gen.space, n):
            p = Fraction(w)
            for x in pattern:
                p *= mu.atom_mass(x)
            out[pattern] = out.get(pattern, Fraction(0)) + p
    return out


def typed(law):
    """Keys in order, each value with its type: Fraction and float stay apart."""
    return [(pattern, type(p), p) for pattern, p in law.items()]


@st.composite
def base_measures(draw, k):
    raw = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    exact = draw(st.booleans())
    return ProbMeasure.from_weights(finite(k), [F(w, sum(raw)) if exact else w / sum(raw) for w in raw])


@st.composite
def grid_mixtures(draw):
    k = draw(st.sampled_from([2, 3]))
    parts = draw(st.integers(1, 3))
    raw = draw(st.lists(st.integers(0, 5), min_size=parts, max_size=parts).filter(any))
    mus = [draw(base_measures(k)) for _ in range(parts)]
    kernel = MarkovKernel(finite(k), lambda i: mus[i])
    return GridMixtureProcess(tuple((F(w, sum(raw)), i) for i, w in enumerate(raw)), kernel)


@given(st.sampled_from([2, 3]).flatmap(base_measures), st.integers(1, 4))
def test_iid_pattern_law_matches_the_loop(base, n):
    assert typed(IIDProcess(base).prefix_pattern_law(n)) == typed(iid_pattern_loop(base, n))


@given(grid_mixtures(), st.integers(1, 4))
def test_grid_pattern_law_matches_the_loop(gen, n):
    assert typed(gen.prefix_pattern_law(n)) == typed(grid_pattern_loop(gen, n))


LATENT_PREDICATES = {
    "first": lambda i: i == 0,
    "not-first": lambda i: i > 0,
    "none": lambda i: False,
}


@given(grid_mixtures(), st.integers(1, 4), st.sampled_from(sorted(LATENT_PREDICATES)))
def test_latent_pattern_law_matches_the_loop(gen, n, name):
    predicate = LATENT_PREDICATES[name]
    law = _exact_weighted_patterns(gen, n, LatentCondition(predicate))
    old = latent_pattern_loop(gen, n, predicate)
    if any(predicate(theta) for _, theta in gen.prior):
        assert typed(law) == typed(old)
    else:
        # no theta satisfies the predicate: the loop left the dict empty,
        # the shared law gives every pattern 0
        assert old == {}
        assert list(law) == list(all_patterns(gen.space, n)) and not any(law.values())


def beta_factorial_prob(a, b, n, k):
    """B(a+k, b+n-k) / B(a, b) through factorials: integer shapes only."""
    f = math.factorial
    return F(f(a + k - 1) * f(b + n - k - 1) * f(a + b - 1), f(a + b + n - 1) * f(a - 1) * f(b - 1))


def rising(x, m):
    return math.prod((x + i for i in range(m)), start=F(1))


def beta_pattern_loop(a, b, n):
    """The Beta law pattern by pattern: factorials for integer shapes, as the
    Beta class once refused any other, else Fraction rising factorials."""
    law = {}
    for pattern in all_patterns(B2, n):
        k = sum(pattern)
        if int(a) == a and int(b) == b:
            law[pattern] = beta_factorial_prob(int(a), int(b), n, k)
        else:
            law[pattern] = rising(F(a), k) * rising(F(b), n - k) / rising(F(a) + F(b), n)
    return law


def old_marginal(gen):
    if isinstance(gen, IIDProcess):
        return gen.base
    if isinstance(gen, GridMixtureProcess):
        return mix_measures([(w, gen.component.measure(theta)) for w, theta in gen.prior])
    return ProbMeasure.bernoulli(B2, F(gen.a) / (F(gen.a) + F(gen.b)))


def old_kernel(gen):
    if isinstance(gen, IIDProcess):
        return constant_kernel(gen.base)
    if isinstance(gen, GridMixtureProcess):
        return gen.component
    return bernoulli_kernel(B2)


def measure_key(mu):
    """Mode, each weight with its type, and the geometric components."""
    return mu.mode, [(j, type(w), w) for j, w in mu.weights_dict().items()], mu._components


shapes = st.one_of(st.integers(1, 6), st.fractions(F(1, 6), 6, max_denominator=6))
mixing_generators = st.one_of(
    st.sampled_from([2, 3]).flatmap(base_measures).map(IIDProcess),
    grid_mixtures(),
    st.builds(BetaBernoulliProcess, shapes, shapes),
)


def old_pattern_law(gen, n):
    if isinstance(gen, IIDProcess):
        return iid_pattern_loop(gen.base, n)
    if isinstance(gen, GridMixtureProcess):
        return grid_pattern_loop(gen, n)
    return beta_pattern_loop(gen.a, gen.b, n)


@given(mixing_generators, st.integers(1, 5), st.integers(0, 2**32))
@settings(deadline=None)
def test_laws_derived_from_the_mixing_law_match_the_old_bodies(gen, n, seed):
    assert typed(gen.prefix_pattern_law(n)) == typed(old_pattern_law(gen, n))
    assert measure_key(gen.marginal()) == measure_key(old_marginal(gen))
    latent = gen.sample_path(1, seed).latent
    assert measure_key(gen.latent_kernel().measure(latent)) == measure_key(old_kernel(gen).measure(latent))


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
def test_beta_binomial_products_equal_the_factorial_formula(a, b):
    for n in range(1, 9):
        for k in range(n + 1):
            assert beta_binomial_pattern_prob(a, b, n, k) == beta_factorial_prob(a, b, n, k)


def test_rational_beta_shapes_are_exact():
    # Beta(1/2, 1/2): P(1,1) = (1/2)(3/2) / (1 * 2) = 3/8, P(1,0) = (1/2)(1/2) / 2 = 1/8
    law = BetaBernoulliProcess(F(1, 2), F(1, 2)).prefix_pattern_law(2)
    assert law == {(1, 1): F(3, 8), (1, 0): F(1, 8), (0, 1): F(1, 8), (0, 0): F(3, 8)}
    assert polya_beta_equivalence(F(3, 2), 1, 4) == (True, 0)


def test_float_beta_shapes_are_refused():
    gen = BetaBernoulliProcess(0.5, 0.5)
    for oracle in (gen.prefix_pattern_law, lambda n: prefix_law(gen, n), lambda n: check_exchangeable(gen, n)):
        with pytest.raises(ValueError, match="exact oracles require rational generator parameters"):
            oracle(2)


def test_float_urn_counts_are_refused_by_both_exact_routes():
    # the walk kept float counts as Fractions, so check_exchangeable read the
    # float urn as exactly exchangeable while the Beta route refused it
    urn = PolyaUrnProcess(1.1, 2.7)
    for oracle in (lambda n: check_exchangeable(urn, n), lambda n: prefix_law(urn, n),
                   lambda n: polya_beta_equivalence(1.1, 2.7, n), lambda n: polya_beta_equivalence(1, 2.7, n)):
        with pytest.raises(ValueError, match="exact oracles require rational generator parameters"):
            oracle(3)
    # the walk itself runs in floats: P(1, 0) = 1.1/3.8 * 2.7/4.8
    p = urn.prefix_pattern_law(2)[(1, 0)]
    assert type(p) is float and p == pytest.approx(1.1 / 3.8 * 2.7 / 4.8, rel=1e-15)
    assert check_exchangeable(PolyaUrnProcess(F(11, 10), F(27, 10)), 3).exchangeable


@pytest.mark.parametrize("cls", [PolyaUrnProcess, BetaBernoulliProcess])
def test_float_shapes_give_a_float_marginal(cls):
    law = cls(1.1, 2.7).marginal()
    assert law.mode == "float" and law.atom_mass(1) == 1.1 / (1.1 + 2.7)
    assert cls(1, 2.5).marginal().mode == "float"
    exact = cls(F(11, 10), 3).marginal()
    assert exact.mode == "exact" and exact.atom_mass(1) == F(11, 41)


@pytest.mark.parametrize("n, disc", [(1, F(1, 6)), (2, F(1, 6)), (3, F(3, 20))])
def test_the_urn_walk_and_its_declared_mixing_law_are_independent_routes(monkeypatch, n, disc):
    # a wrong declaration, Beta(a, b + 1), must show against the walk:
    # urn(1,1) reads P(1) = 1/2, Beta(1, 2) 1/3; at n = 3, P(1,1,1) = 1/4 vs 1/10
    monkeypatch.setattr(PolyaUrnProcess, "mixing", lambda self: BetaBernoulliProcess(self.a, self.b + 1).mixing())
    assert polya_beta_equivalence(1, 1, n) == (False, disc)


FINITE_GRAMMAR = ["iid:bern:1/3", "iid:uniform:3", "iid:weights:1/2,1/3,1/6", "polya:2,1",
                  "mixture:beta(1/2,3):bern", "mixture:grid(1/4,1/2):bern", "markov:3/4,1/4"]


@pytest.mark.parametrize("spec", FINITE_GRAMMAR)
def test_the_one_coordinate_law_is_the_marginal(spec):
    gen = parse_generator(spec)
    law = gen.prefix_pattern_law(1)
    assert all(law[(j,)] == gen.marginal().atom_mass(j) for j in range(gen.space.num_cells))


def test_exchangeable_classes_declare_a_mixing_law():
    gens = [parse_generator(spec) for spec in (*FINITE_GRAMMAR, "iid:geom:1/2", "mixture:grid(1/4,1/2):geom")]
    classes = {cls for cls in processes.ProcessGenerator.__subclasses__() if cls.__module__ == processes.__name__}
    assert {type(gen) for gen in gens} == classes
    for gen in gens:
        assert (gen.mixing() is not None) == gen.exchangeable
    assert not parse_generator("markov:3/4,1/4").exchangeable
    assert MarkovChainProcess.mixing is processes.ProcessGenerator.mixing


class DeclaredOnly(processes.ProcessGenerator):
    """A generator that states only its mixing law, one atom at ``mu``, and
    its draws; everything else is the base class's."""

    def __init__(self, mu):
        self.mu = mu

    def mixing(self):
        return processes._Mixing(constant_kernel(self.mu), ((1, None),), (self.mu,))

    def _draws(self, streams, n, u, out):
        return processes._measure_blocks(self.mu, streams, n, u, out)


def test_a_generator_is_derived_from_its_declared_mixing_law():
    mu = ProbMeasure.from_weights(finite(3), [F(1, 2), F(1, 3), F(1, 6)])
    gen, iid = DeclaredOnly(mu), IIDProcess(mu)
    assert gen.space == finite(3) and gen.exchangeable
    assert [gen.marginal().atom_mass(j) for j in range(3)] == [F(1, 2), F(1, 3), F(1, 6)]
    assert gen.latent_kernel().target == finite(3) and gen.latent_kernel().measure(None) is mu
    assert gen.prefix_pattern_law(3) == iid.prefix_pattern_law(3)
    assert gen.prefix_pattern_law(2)[(0, 2)] == F(1, 12)
    assert check_exchangeable(gen, 3).exchangeable
    # sampled through sample_blocks, lane for lane the iid generator's paths
    n, paths = 3000, [0, 4, 9]
    latents, blocks = gen.sample_blocks(n, 7, paths)
    assert latents == [None] * len(paths)
    drawn = np.concatenate([block.copy() for block in blocks], axis=1)
    expected = [iid.sample_path(n, 7, i).observations for i in paths]
    assert drawn.tolist() == [obs.tolist() for obs in expected]
    assert gen.sample_path(n, 7, 4).observations.tolist() == expected[1].tolist()
