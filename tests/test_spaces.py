"""Event algebra, canonical event text, and set-family invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exchkit import (
    ClosedFamily,
    CompactFamily,
    EventSet,
    SpaceDescriptor,
    SpaceMismatchError,
    all_events,
    complement,
    countable,
    default_closed_family,
    default_compact_family,
    event_spec,
    finite,
    parse_event,
    parse_space,
)

SPACES = [finite(2), finite(5), countable()]


def _index_cap(space):
    n = space.num_cells
    return 12 if n is None else n - 1


@st.composite
def space_events(draw, count=1):
    space = draw(st.sampled_from(SPACES))
    events = []
    for _ in range(count):
        idx = draw(st.frozensets(st.integers(0, _index_cap(space)), max_size=8))
        cof = draw(st.booleans()) if space.is_countable else False
        events.append(EventSet(space, idx, cofinite=cof))
    return (space, *events)


# -- descriptor validation ---------------------------------------------------


def test_finite_space_needs_an_atom():
    with pytest.raises(ValueError):
        finite(0)


def test_cell_counts():
    assert finite(7).num_cells == 7
    assert countable().num_cells is None
    assert finite(7) == SpaceDescriptor(7) and countable() == SpaceDescriptor(None)


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_space_text_parses_back(space):
    # errors name a space by this text, so a user can paste it into --space
    assert parse_space(str(space)) == space


# -- event sets --------------------------------------------------------------


def test_event_rejects_invalid_index():
    # the error names the space as the grammar writes it
    with pytest.raises(ValueError, match="cell index 3 invalid for finite:2$"):
        EventSet.of(finite(2), [3])


def test_cofinite_needs_countable_space():
    with pytest.raises(ValueError):
        EventSet(finite(3), frozenset({0}), cofinite=True)


def test_full_and_empty_predicates():
    space = finite(3)
    assert EventSet.full(space).is_full
    assert EventSet.empty(space).is_empty
    assert EventSet.full(countable()).is_full
    assert not EventSet.cofinite_of(countable(), [2]).is_full


def test_initial_segment_clips_to_space():
    seg = EventSet.initial_segment(finite(3), 10)
    assert seg.is_full


def test_union_of_mixed_representations():
    space = countable()
    fin = EventSet.of(space, [0, 5])
    cof = EventSet.cofinite_of(space, [0, 1])
    u = fin.union(cof)
    assert u.cofinite and u.indices == frozenset({1})


def test_subset_between_representations():
    space = countable()
    assert EventSet.of(space, [3]).is_subset(EventSet.cofinite_of(space, [0]))
    assert not EventSet.cofinite_of(space, [0]).is_subset(EventSet.of(space, [1, 2]))


def test_cross_space_algebra_rejected():
    with pytest.raises(SpaceMismatchError):
        EventSet.full(finite(2)).union(EventSet.full(finite(3)))


@given(space_events())
def test_complement_is_an_involution(bundle):
    _, ev = bundle
    assert complement(complement(ev)) == ev


@given(space_events())
def test_complement_partitions_the_space(bundle):
    _, ev = bundle
    assert ev.union(complement(ev)).is_full
    assert ev.intersection(complement(ev)).is_empty


@given(space_events(count=2))
def test_de_morgan(bundle):
    _, a, b = bundle
    assert complement(a.union(b)) == complement(a).intersection(complement(b))


@given(space_events(count=2), st.integers(0, 12))
def test_union_membership_pointwise(bundle, j):
    space, a, b = bundle
    if not space.valid_index(j):
        return
    assert a.union(b).contains(j) == (a.contains(j) or b.contains(j))
    assert a.intersection(b).contains(j) == (a.contains(j) and b.contains(j))


@given(space_events())
def test_event_spec_round_trips(bundle):
    space, ev = bundle
    assert parse_event(space, event_spec(ev)) == ev


def test_event_spec_fixed_forms():
    space = countable()
    assert event_spec(EventSet.full(space)) == "full"
    assert event_spec(EventSet.empty(space)) == "empty"
    assert event_spec(EventSet.of(space, [2, 0])) == "cells:0,2"
    assert event_spec(EventSet.cofinite_of(space, [1])) == "not:1"
    assert event_spec(None) is None


def test_all_events_enumerates_the_power_set():
    evs = all_events(finite(3))
    assert len(evs) == 8
    assert len(set(evs)) == 8


def test_all_events_refuses_large_or_countable():
    with pytest.raises(ValueError):
        all_events(countable())
    with pytest.raises(ValueError):
        all_events(finite(32))


# -- families ----------------------------------------------------------------


def test_compact_family_must_increase():
    space = finite(3)
    with pytest.raises(ValueError):
        CompactFamily(space, (EventSet.of(space, [0, 1]), EventSet.of(space, [2])))


def test_compact_family_rejects_cofinite_members():
    space = countable()
    with pytest.raises(ValueError):
        CompactFamily(space, (EventSet.cofinite_of(space, [0]),))


def test_default_compacts_on_countable_are_segments():
    fam = default_compact_family(countable())
    assert len(fam) == 64
    assert fam.members[0] == EventSet.of(countable(), [0])
    assert fam.members[-1] == EventSet.initial_segment(countable(), 64)


@pytest.mark.parametrize(
    "space", [finite(2), finite(12), countable()], ids=["finite2", "finite12", "countable"]
)
@pytest.mark.parametrize("build", [default_compact_family, default_closed_family], ids=lambda f: f.__name__)
def test_default_families_are_built_once_per_space(build, space):
    assert build(space) is build(space)
    assert build(space) == build.__wrapped__(space)


def test_default_compacts_on_finite_is_full():
    fam = default_compact_family(finite(4))
    assert len(fam) == 1 and fam.members[0].is_full


def test_closed_family_detects_missing_union():
    space = finite(4)
    with pytest.raises(ValueError):
        ClosedFamily(space, (EventSet.of(space, [0]), EventSet.of(space, [1])))


def test_default_closed_family_small_space_is_everything():
    fam = default_closed_family(finite(3))
    assert len(fam) == 8


def test_default_closed_family_chain_is_actually_closed():
    fam = default_closed_family(countable())
    # reconstruct without the trusted flag to exercise the validator
    ClosedFamily(countable(), fam.members)
    assert fam.members[0].is_empty
    assert fam.members[-1].is_full
