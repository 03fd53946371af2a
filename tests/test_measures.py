"""Measure arithmetic, tightness, outer regularity, and the Radon classifier.

Hand-computed oracles are spelled out next to each assertion.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exchkit.measures
from exchkit import (
    DEFAULT_EPS_SCHEDULE,
    EventSet,
    ProbMeasure,
    RegularityReport,
    classify_radon,
    complement,
    countable,
    default_compact_family,
    finite,
    mass,
    mix_measures,
    parse_generator,
    tv_distance,
)
from exchkit.measures import (MAX_EXACT_POWER_BITS, MAX_UNIFORM_CELLS, GeometricComponent, TightnessResult,
                              is_outer_regular_on, is_tight)
from exchkit.spaces import CompactFamily

F = Fraction


@st.composite
def exact_measures(draw, k=4):
    """Random rational measure on finite(k) via normalized positive integers."""
    raw = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(sum))
    total = sum(raw)
    return ProbMeasure.from_weights(finite(k), [F(r, total) for r in raw])


# -- construction ------------------------------------------------------------


def test_subprobability_rejected_at_construction():
    with pytest.raises(ValueError, match="total mass"):
        ProbMeasure.from_weights(finite(2), [F(1, 4), F(1, 4)])


def test_superprobability_rejected_too():
    with pytest.raises(ValueError):
        ProbMeasure.from_weights(finite(2), [F(3, 4), F(3, 4)])


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative"):
        ProbMeasure(finite(2), {0: F(3, 2), 1: F(-1, 2)})


def test_nan_weight_and_nan_epsilon_are_rejected():
    nan = float("nan")
    # every comparison with NaN is false, so these once passed silently
    with pytest.raises(ValueError, match="total mass"):
        ProbMeasure(finite(2), {0: nan, 1: 1.0})
    mu = ProbMeasure.uniform(finite(2))
    full = EventSet.full(finite(2))
    with pytest.raises(ValueError, match="positive"):
        is_tight(mu, default_compact_family(finite(2)), [F(1, 2), nan])
    with pytest.raises(ValueError, match="positive"):
        is_outer_regular_on(mu, full, [full], [nan])


def test_float_weights_within_tolerance_accepted():
    mu = ProbMeasure.from_weights(finite(2), [0.25, 0.75])
    assert mu.mode == "float"


def test_geometric_components_need_countable_space():
    with pytest.raises(ValueError):
        ProbMeasure(finite(2), components=[GeometricComponent(F(1), F(1, 2))])


def test_geometric_ratio_range_enforced():
    with pytest.raises(ValueError):
        ProbMeasure.geometric(countable(), F(3, 2))


def test_uniform_needs_a_sized_space():
    with pytest.raises(ValueError):
        ProbMeasure.uniform(countable())


def test_uniform_law_is_capped_at_2_to_the_16_cells():
    assert MAX_UNIFORM_CELLS == 2**16
    assert len(ProbMeasure.uniform(finite(2**16)).weights_dict()) == MAX_UNIFORM_CELLS
    with pytest.raises(ValueError, match="uniform law on 65537 cells exceeds the cap of 65536 cells"):
        ProbMeasure.uniform(finite(MAX_UNIFORM_CELLS + 1))


# -- evaluation oracles ------------------------------------------------------


def test_geometric_atoms_and_tail():
    mu = ProbMeasure.geometric(countable(), F(1, 2))
    # P(j) = (1/2)^(j+1), tail from 3 = (1/2)^3
    assert mu.atom_mass(2) == F(1, 8)
    assert mu.tail_mass(3) == F(1, 8)


def test_far_cells_of_an_exact_geometric_law_are_refused():
    """(1-q)**j is refused past MAX_EXACT_POWER_BITS bits, naming the cell;
    float laws and nearer cells are computed as before."""
    exact = ProbMeasure.geometric(countable(), F(1, 1000))  # about 9.97 bits per power
    assert exact.atom_mass(100_000) == F(1, 1000) * F(999, 1000) ** 100_000
    for far in (101_000, 10**11):
        with pytest.raises(ValueError, match=f"cell {far} "):
            exact.atom_mass(far)
        with pytest.raises(ValueError, match=f"cell {far} "):
            exact.tail_mass(far)
        with pytest.raises(ValueError, match=f"cell {far} "):
            mass(exact, EventSet.cofinite_of(countable(), [0, far]))
    assert ProbMeasure.geometric(countable(), 0.001).atom_mass(10**11) == 0.0
    assert ProbMeasure.geometric(countable(), F(1)).tail_mass(10**11) == 0


def test_mass_of_cofinite_event():
    mu = ProbMeasure.geometric(countable(), F(1, 2))
    ev = EventSet.cofinite_of(countable(), [0])
    assert mass(mu, ev) == F(1, 2)


def test_mass_is_additive_on_fixed_partition():
    mu = ProbMeasure.from_weights(finite(4), [F(1, 8), F(3, 8), F(3, 8), F(1, 8)])
    a = EventSet.of(finite(4), [0, 1])
    b = EventSet.of(finite(4), [2, 3])
    assert mass(mu, a) + mass(mu, b) == 1


@given(exact_measures(), st.frozensets(st.integers(0, 3), max_size=4))
def test_complement_mass_sums_to_one(mu, idx):
    ev = EventSet.of(finite(4), idx)
    assert mass(mu, ev) + mass(mu, complement(ev)) == 1


def test_tv_uniform_vs_delta_is_half():
    space = finite(2)
    assert tv_distance(ProbMeasure.uniform(space), ProbMeasure.delta(space, 0)) == F(1, 2)


def test_tv_geometric_vs_delta_truncates():
    mu = ProbMeasure.geometric(countable(), F(1, 2))
    nu = ProbMeasure.delta(countable(), 0)
    # sum of |diffs| = (1 - 1/2) + sum_{j>=1} 2^-(j+1) = 1
    assert tv_distance(mu, nu) == pytest.approx(0.5, abs=1e-12)


def test_tv_distance_reads_exact_analytic_laws_in_floats():
    """An exact slow tail is truncated where its float twin is, instead of
    being refused at a cell the caller never named."""
    nn = countable()
    exact = tv_distance(ProbMeasure.geometric(nn, F(1, 10000)), ProbMeasure.geometric(nn, F(1, 2)))
    assert exact == tv_distance(ProbMeasure.geometric(nn, 1e-4), ProbMeasure.geometric(nn, 0.5))
    assert exact == pytest.approx(0.99858, abs=1e-5)
    fast = tv_distance(ProbMeasure.geometric(nn, F(1, 3)), ProbMeasure.geometric(nn, F(1, 2)))
    assert fast == pytest.approx(7 / 36, abs=1e-15)


def tv_distance_loop(mu, nu):
    """The truncated series one ``atom_mass`` call per cell and law, kept as
    the oracle for analytic laws."""
    mu, nu = exchkit.measures._in_floats(mu), exchkit.measures._in_floats(nu)
    m = 1
    while mu.tail_mass(m) + nu.tail_mass(m) > 1e-13:
        m *= 2
    acc = 0.0
    for j in range(m):
        acc += abs(mu.atom_mass(j) - nu.atom_mass(j))
    return acc / 2


NN = countable()
TV_PAIRS = {
    "slow exact tail": (ProbMeasure.geometric(NN, F(1, 10000)), ProbMeasure.geometric(NN, F(1, 2))),
    "slow float tail": (ProbMeasure.geometric(NN, 1e-4), ProbMeasure.geometric(NN, 0.5)),
    "finite parts": (
        ProbMeasure(NN, {0: F(1, 4), 3: F(1, 8)}, [GeometricComponent(F(5, 8), F(1, 5))]),
        ProbMeasure.geometric_mixture(NN, [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 20))]),
    ),
    "float parts and q = 1": (
        ProbMeasure(NN, {2: 0.25, 40: 0.125}, [GeometricComponent(0.375, 1.0), GeometricComponent(0.25, 0.1)]),
        ProbMeasure(NN, {0: F(1, 2), 7: F(1, 4)}, [GeometricComponent(F(1, 4), F(2, 3))]),
    ),
    "finite against analytic": (ProbMeasure(NN, {0: 0.5, 2: 0.25, 100: 0.25}), ProbMeasure.geometric(NN, 0.3)),
}


@pytest.mark.parametrize("name", sorted(TV_PAIRS))
def test_tv_distance_sums_as_the_atom_mass_loop(name):
    mu, nu = TV_PAIRS[name]
    got = tv_distance(mu, nu)
    assert type(got) is float
    assert got == tv_distance_loop(mu, nu)
    assert tv_distance(nu, mu) == tv_distance_loop(nu, mu)


@given(exact_measures(), exact_measures(), exact_measures())
def test_tv_is_a_metric(a, b, c):
    assert tv_distance(a, a) == 0
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


@given(exact_measures())
def test_tv_bounded_by_one(mu):
    nu = ProbMeasure.delta(finite(4), 0)
    assert 0 <= tv_distance(mu, nu) <= 1


def test_mix_measures_of_coins():
    space = finite(2)
    mixed = mix_measures(
        [(F(1, 2), ProbMeasure.bernoulli(space, F(1, 4))),
         (F(1, 2), ProbMeasure.bernoulli(space, F(3, 4)))]
    )
    assert mixed.atom_mass(1) == F(1, 2)


def test_mix_measures_scales_geometric_components():
    space = countable()
    mixed = mix_measures(
        [(F(1, 2), ProbMeasure.geometric(space, F(1, 2))),
         (F(1, 2), ProbMeasure.geometric(space, F(1, 4)))]
    )
    assert mixed.atom_mass(0) == F(1, 2) * F(1, 2) + F(1, 2) * F(1, 4)


def test_mix_measures_rejects_mixed_spaces():
    with pytest.raises(ValueError):
        mix_measures(
            [(F(1, 2), ProbMeasure.uniform(finite(2))),
             (F(1, 2), ProbMeasure.uniform(finite(3)))]
        )


# -- tightness ---------------------------------------------------------------


def test_tightness_witness_is_the_first_strict_segment():
    mu = ProbMeasure.geometric(countable(), F(1, 2))
    compacts = default_compact_family(countable())
    res = is_tight(mu, compacts, [F(1, 8)])
    # mass{0..2} = 7/8 is not > 7/8; mass{0..3} = 15/16 is
    assert res.tight
    assert dict(res.witnesses)[F(1, 8)] == EventSet.initial_segment(countable(), 4)


def test_tightness_fails_for_slow_tails():
    mu = ProbMeasure.geometric(countable(), F(1, 1000))
    # (999/1000)^64 ~ 0.94, so no default 64-segment passes even eps = 1/2 ...
    assert not is_tight(mu, default_compact_family(countable()), [F(1, 2)]).tight
    # ... but a longer segment does: every probability on a countable space is Radon
    res = classify_radon(mu)
    assert res.tight and res.radon
    assert dict(res.tight_witnesses)[F(1, 2)] == 693  # (999/1000)^692 >= 1/2 > (999/1000)^693


def test_tightness_requires_positive_epsilons():
    mu = ProbMeasure.uniform(finite(2))
    fam = default_compact_family(finite(2))
    with pytest.raises(ValueError):
        is_tight(mu, fam, [])
    with pytest.raises(ValueError):
        is_tight(mu, fam, [0])


# -- outer regularity and the classifier -------------------------------------


def test_outer_regularity_threshold_on_four_cells():
    space = finite(4)
    mu = ProbMeasure.from_weights(space, [F(1, 8), F(3, 8), F(3, 8), F(1, 8)])
    target = EventSet.of(space, [0, 1])
    opens = [EventSet.full(space)]
    # only candidate has mass 1 = mu(target) + 1/2
    (wide, wit), (narrow, none_wit) = is_outer_regular_on(mu, target, opens, (F(1, 2), F(1, 4)))
    assert wide == F(1, 2) and wit.is_full
    assert narrow == F(1, 4) and none_wit is None


def test_outer_regularity_rejects_non_superset_candidates():
    space = finite(3)
    mu = ProbMeasure.uniform(space)
    with pytest.raises(ValueError):
        is_outer_regular_on(mu, EventSet.of(space, [0, 1]), [EventSet.of(space, [0])], (F(1, 2),))


def _outer_regular_per_eps(mu, target, opens, eps):
    """The one-epsilon check that the schedule form replaced, kept as its oracle."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    for o in opens:
        if not target.is_subset(o):
            raise ValueError("candidate open set does not contain the target")
    bound = mass(mu, target) + eps
    for o in opens:
        if mass(mu, o) <= bound:
            return True, o
    return False, None


@st.composite
def outer_regularity_cases(draw):
    """A measure (exact or float, finite(6) or countable), a target event, a
    shuffled list of its supersets and a decreasing epsilon schedule."""
    on_countable = draw(st.booleans())
    space = countable() if on_countable else finite(6)
    raw = draw(st.lists(st.integers(0, 9), min_size=6, max_size=6))
    geom = draw(st.integers(1, 9)) if on_countable else 0
    total = sum(raw) + geom
    if total == 0:
        raw[0] = total = 1
    weights = {j: F(r, total) for j, r in enumerate(raw)}
    comps = [GeometricComponent(F(geom, total), draw(st.sampled_from([F(1, 2), F(1, 5), F(9, 10)])))] if geom else []
    if draw(st.booleans()):
        weights = {j: float(w) for j, w in weights.items()}
        comps = [GeometricComponent(float(c.weight), float(c.ratio)) for c in comps]
    mu = ProbMeasure(space, weights, comps)

    target = EventSet.of(space, draw(st.frozensets(st.integers(0, 5), max_size=4)))
    extras = draw(st.lists(st.frozensets(st.integers(0, 5), max_size=6), max_size=4))
    opens = [target.union(EventSet.of(space, e)) for e in extras]
    opens.append(EventSet.full(space))  # fails every eps when mu(target) is small
    if on_countable:
        opens.append(EventSet.cofinite_of(space, draw(st.frozensets(st.integers(6, 9)))))
    opens = draw(st.permutations(opens))
    schedule = draw(st.lists(st.fractions(F(1, 1024), 1), min_size=1, max_size=6, unique=True))
    return mu, target, opens, sorted(schedule, reverse=True)


@given(outer_regularity_cases())
def test_outer_regularity_schedule_matches_per_eps_oracle(case):
    mu, target, opens, schedule = case
    expected = tuple((eps, _outer_regular_per_eps(mu, target, opens, eps)[1]) for eps in schedule)
    assert is_outer_regular_on(mu, target, opens, schedule) == expected


def _tightness_scan_per_eps(measures, compacts, epsilons):
    """The per-epsilon scan that is_tight's one pass replaced, kept as its
    oracle and as the classifier's old 64-segment route."""
    witnesses = []
    for eps in epsilons:
        floor = 1 - eps
        found = next((k for k in compacts if all(mass(mu, k) > floor for mu in measures)), None)
        witnesses.append((eps, found))
    return TightnessResult(all(w is not None for _, w in witnesses), tuple(witnesses))


@st.composite
def tightness_cases(draw):
    """A measure (exact or float, finite(6) or countable), a compact chain
    that may stop short of the mass, and an unsorted epsilon schedule that
    may hold values no compact meets."""
    on_countable = draw(st.booleans())
    space = countable() if on_countable else finite(6)
    as_float = draw(st.booleans())
    raw = draw(st.lists(st.integers(0, 9), min_size=6, max_size=6))
    geom = draw(st.integers(0, 9)) if on_countable else 0
    total = sum(raw) + geom
    if total == 0:
        raw[0] = total = 1
    weights = {j: F(r, total) for j, r in enumerate(raw)}
    comps = [GeometricComponent(F(geom, total), draw(st.sampled_from([F(1, 2), F(1, 5), F(9, 10)])))] if geom else []
    if as_float:
        weights = {j: float(w) for j, w in weights.items()}
        comps = [GeometricComponent(float(c.weight), float(c.ratio)) for c in comps]
    mu = ProbMeasure(space, weights, comps)
    top = draw(st.integers(1, 12 if on_countable else 6))
    compacts = CompactFamily(space, tuple(EventSet.initial_segment(space, m) for m in range(1, top + 1)))
    schedule = draw(st.lists(st.fractions(F(1, 1024), 1), min_size=1, max_size=6, unique=True))
    if as_float:
        schedule = [float(e) for e in schedule]
    return mu, compacts, schedule


@given(tightness_cases())
def test_is_tight_matches_per_eps_oracle(case):
    mu, compacts, schedule = case
    assert is_tight(mu, compacts, schedule) == _tightness_scan_per_eps((mu,), compacts, schedule)


def _classify_radon_nested(mu):
    """The classifier's old route, one scan of the 64 default segments nested
    in each epsilon, with each compact its own outer-regularity witness. Past
    those segments, a single geometric law takes the closed form
    m = ceil(log eps / log(1 - q)), moved a cell at a time onto the exact
    first crossing tail_mass(m) < eps <= tail_mass(m - 1)."""
    compacts = default_compact_family(mu.space)
    tight = _tightness_scan_per_eps((mu,), compacts, DEFAULT_EPS_SCHEDULE)
    for k in compacts:
        for eps in DEFAULT_EPS_SCHEDULE:
            assert _outer_regular_per_eps(mu, k, [k], eps) == (True, k)
    witnesses = []
    for eps, k in tight.witnesses:
        if k is None:
            (comp,) = mu._components
            m = math.ceil(math.log(eps) / math.log(1 - comp.ratio))
            while not mu.tail_mass(m) < eps:
                m += 1
            while mu.tail_mass(m - 1) < eps:
                m -= 1
        else:
            m = len(k.indices)
        witnesses.append((eps, m))
    return RegularityReport(True, tuple(witnesses), True, True)


def _construct_rcd_marginal():
    return parse_generator("mixture:grid(1/4,1/2):geom").marginal()


@pytest.mark.parametrize(
    "make_mu",
    [
        lambda: ProbMeasure.geometric(countable(), F(1, 2)),
        _construct_rcd_marginal,
        lambda: ProbMeasure.geometric(countable(), F(1, 1000)),
        lambda: ProbMeasure.uniform(finite(5)),
        lambda: ProbMeasure.geometric(countable(), 0.25),
        # the other measures that the radon-classify commands of the benchmark classify
        lambda: ProbMeasure.delta(finite(7), 3),
        lambda: ProbMeasure.bernoulli(finite(2), F(1, 3)),
        lambda: ProbMeasure.from_weights(finite(3), [F(1, 5), F(1, 5), F(3, 5)]),
    ],
    ids=[
        "geometric-1/2",
        "construct-rcd-marginal",
        "geometric-1/1000",
        "uniform-5",
        "float-geometric",
        "delta-3-of-7",
        "bern-1/3",
        "weights-3",
    ],
)
def test_classifier_report_matches_nested_oracle(make_mu):
    mu = make_mu()
    assert classify_radon(mu).to_dict() == _classify_radon_nested(mu).to_dict()


def counted_tails(monkeypatch):
    """The cells m at which classify_radon compares a tail with eps."""
    calls = []
    real = exchkit.measures._tail_below
    monkeypatch.setattr(exchkit.measures, "_tail_below", lambda mu, m, eps, powers: calls.append(m) or real(mu, m, eps, powers))
    monkeypatch.setattr(exchkit.measures, "mass", None)  # no event mass is taken
    return calls


@pytest.mark.parametrize("q", [F(1, 2), F(1, 100), F(1, 1000)], ids=str)
def test_classifier_evaluates_log_many_tails_per_eps(monkeypatch, q):
    mu = ProbMeasure.geometric(countable(), q)
    calls = counted_tails(monkeypatch)
    report = classify_radon(mu)
    # doubling then bisection: at most 2 * bit_length(m) + 2 tails per epsilon
    # (a linear scan takes 6,929 for Geom(1/1000))
    assert len(calls) <= sum(2 * m.bit_length() + 2 for _, m in report.tight_witnesses)
    assert max(calls) < 2 * report.tight_witnesses[-1][1]


@pytest.mark.parametrize("q", [F(1, 7), F(1, 1000), F(1, 10000), 0.001], ids=str)
def test_classifier_starts_a_single_geometric_at_its_witness(monkeypatch, q):
    # the closed form ceil(log eps / log(1 - q)) is the witness of Geom(q)
    # when it is not an integer (1 - q = 1/2 makes it one): two tails per
    # eps, the witness and the cell before it
    mu = ProbMeasure.geometric(countable(), q)
    calls = counted_tails(monkeypatch)
    witnesses = classify_radon(mu).tight_witnesses
    assert calls == [c for _, m in witnesses for c in (m, m - 1)]



def test_classifier_witness_is_strict():
    # tail(3) = 1/8 is not below 1/8, so the witness at 1/8 is {0..3}
    report = classify_radon(ProbMeasure.geometric(countable(), F(1, 2)))
    assert dict(report.tight_witnesses)[F(1, 8)] == 4


def _half_plus(bits):
    """Geom(q) with 1 - q = 1/2 + 2**-bits: about 1/2 per cell, but each cell
    adds `bits` bits of exact arithmetic, so only cells up to
    MAX_EXACT_POWER_BITS // bits are computed."""
    return ProbMeasure.geometric(countable(), F(2 ** (bits - 1) - 1, 2**bits))


def test_classifier_clamps_the_doubling_at_the_exact_cap():
    mu = _half_plus(65_000)
    assert mu._components[0].last_cell == 15
    # the witness at 1/1024 is cell 11, within the cap; doubling from the
    # witness at 1/512 (10) would probe cell 20 and be refused
    witnesses = [m for _, m in classify_radon(mu).tight_witnesses]
    assert witnesses == list(range(2, 12))


def test_classifier_refuses_a_witness_past_the_exact_cap():
    mu = _half_plus(100_000)
    assert mu._components[0].last_cell == MAX_EXACT_POWER_BITS // 100_000 == 10
    with pytest.raises(ValueError, match=r"eps = 1/1024: .* past cell 10\b"):
        classify_radon(mu)


def test_classifier_refuses_a_subnormal_ratio_at_the_exact_cap():
    # float(q) = 1e-310 is subnormal, so log(eps) / log(1 - q) overflows to
    # inf: the search starts at the last exact cell and is refused there
    mu = ProbMeasure.geometric(countable(), F(1, 10**310))
    last = mu._components[0].last_cell
    with pytest.raises(ValueError, match=rf"eps = 1/2: .* past cell {last}\b"):
        classify_radon(mu)


def test_float_ratio_that_loses_no_mass_is_rejected():
    # 1 - 1e-17 rounds to 1.0: every cell would keep the whole tail
    with pytest.raises(ValueError, match="ratio"):
        ProbMeasure.geometric(countable(), 1e-17)


@st.composite
def geometric_mixtures(draw, slowest=12):
    """Exact or float mixtures of one to three geometric laws Geom(1/k),
    k <= slowest, with a finite part on the first cells, on the countable
    space."""
    parts = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, slowest)), min_size=1, max_size=3))
    raw = draw(st.lists(st.integers(0, 5), max_size=4))
    total = sum(w for w, _ in parts) + sum(raw)
    comps = [GeometricComponent(F(w, total), F(1, q)) for w, q in parts]
    weights = {j: F(r, total) for j, r in enumerate(raw)}
    if draw(st.booleans()):
        comps = [GeometricComponent(float(c.weight), float(c.ratio)) for c in comps]
        weights = {j: float(w) for j, w in weights.items()}
    return ProbMeasure(countable(), weights, comps)


@given(
    geometric_mixtures(slowest=40),
    st.lists(st.one_of(st.integers(0, 400), st.integers(-70, 70)), min_size=1, max_size=6),
    st.fractions(F(1, 10**6), 1),
)
@settings(deadline=None, max_examples=150)
def test_tail_below_decides_as_the_reduced_tail(mu, moves, eps):
    """Cells far apart (fresh powers) and near each other (powers carried by
    a product or an exact division), against the reduced Fraction tail."""
    powers = {}
    m = 0
    for move in moves:
        m = max(0, m + move)
        assert exchkit.measures._tail_below(mu, m, eps, powers) == (mu.tail_mass(m) < eps)


def _linear_tail_scan(mu):
    """Per epsilon, the first m = 0, 1, 2, ... with tail_mass(m) < eps; one
    pass, as the tail never increases and the schedule decreases."""
    m, out = 0, []
    for eps in DEFAULT_EPS_SCHEDULE:
        while not mu.tail_mass(m) < eps:
            m += 1
        out.append(m)
    return out


@settings(max_examples=40, deadline=None)
@given(geometric_mixtures())
def test_classifier_on_geometric_mixtures_matches_fresh_masses(mu):
    """The bisected witness is the linear scan's first m, and, on an exact
    law, the first of the 64 default segments whose fresh mass() clears
    1 - eps, wherever one does."""
    witnesses = [m for _, m in classify_radon(mu).tight_witnesses]
    assert witnesses == _linear_tail_scan(mu)
    if mu.mode == "exact":
        old = _tightness_scan_per_eps((mu,), default_compact_family(countable()), DEFAULT_EPS_SCHEDULE)
        assert all(k is None or len(k.indices) == m for (_, k), m in zip(old.witnesses, witnesses))


@settings(max_examples=6, deadline=None)
@given(geometric_mixtures(slowest=1400).filter(lambda mu: mu.mode == "exact"))
def test_classifier_witness_is_the_first_tail_crossing(mu):
    """On exact mixtures with witnesses up to 10**4 cells, each witness m is
    where the tail first drops below eps. The tail never increases, so this
    is the first m of a linear scan, which would take seconds per law."""
    report = classify_radon(mu)
    for eps, m in report.tight_witnesses:
        assert m <= 10**4
        assert mu.tail_mass(m) < eps <= mu.tail_mass(m - 1)


@pytest.mark.parametrize("space", [countable(), finite(2), finite(12)], ids=repr)
def test_default_compact_families_are_chains(space):
    from exchkit.convergence import _chain_order

    order, ends = _chain_order(default_compact_family(space))
    assert order == sorted(order) and ends == sorted(ends)


def test_chain_order_needs_a_chain():
    from exchkit.convergence import _chain_order

    space = finite(4)
    with pytest.raises(AssertionError):
        _chain_order(CompactFamily(space, (EventSet.of(space, [2]), EventSet.of(space, [0, 2]))))


def test_default_floors_are_exact():
    from exchkit.convergence import _DEFAULT_FLOORS

    assert all(Fraction(f) == 1 - eps for f, eps in zip(_DEFAULT_FLOORS, DEFAULT_EPS_SCHEDULE))


def test_classifier_passes_geometric_with_witnesses():
    report = classify_radon(ProbMeasure.geometric(countable(), F(1, 2)))
    assert report.radon and report.tight and report.outer_regular_on_compacts
    # 2**-m < eps = 2**-k first at m = k + 1
    assert [m for _, m in report.tight_witnesses] == list(range(2, 12))


def test_classifier_always_passes_finite_spaces():
    report = classify_radon(ProbMeasure.uniform(finite(5)))
    assert report.radon


def test_classifier_report_serializes():
    d = classify_radon(ProbMeasure.geometric(countable(), F(1, 2))).to_dict()
    assert d["radon"] is True
    assert d["tight_witnesses"][0] == {"eps": "1/2", "segment_length": 2}
    assert d["outer_regularity"] == RegularityReport.OUTER_REGULARITY


def test_regularity_report_flag_consistency():
    from exchkit.measures import RegularityReport

    with pytest.raises(ValueError):
        RegularityReport(
            tight=True,
            tight_witnesses=(),
            outer_regular_on_compacts=False,
            radon=True,
        )


@given(exact_measures())
def test_every_finite_measure_is_radon(mu):
    assert classify_radon(mu).radon


def test_complement_respects_mass():
    mu = ProbMeasure.geometric(countable(), F(1, 2))
    seg = EventSet.initial_segment(countable(), 4)
    assert mass(mu, complement(seg)) == mu.tail_mass(4)
