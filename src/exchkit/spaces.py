"""Desk-scale state spaces, their events, and compact/closed set families.

A space is its cell count, finite or countable. Both kinds are discrete, so
every topological predicate used downstream (tightness, outer regularity,
A-convergence) is decidable by enumeration, and every probability on them is
Radon (Ulam's theorem):

* ``finite(k)``   -- k discrete atoms 0..k-1; every event is clopen and compact.
* ``countable()`` -- atoms 0,1,2,...; events are finite or cofinite index sets;
  compact sets are the finite ones.

Events are cell-index sets, not arbitrary Borel sets, which keeps complements
and masses exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator


class SpaceMismatchError(ValueError):
    """An event or measure was used with a space it does not belong to."""


@dataclass(frozen=True)
class SpaceDescriptor:
    """A desk-scale state space of discrete atoms."""

    num_cells: int | None  # None for the countable space

    def __post_init__(self) -> None:
        if self.num_cells is not None and self.num_cells < 1:
            raise ValueError("finite space needs at least one atom")

    @property
    def is_countable(self) -> bool:
        return self.num_cells is None

    def valid_index(self, j: int) -> bool:
        n = self.num_cells
        return j >= 0 and (n is None or j < n)

    def __str__(self) -> str:
        """The space as the grammar writes it: ``finite:<k>`` or ``countable``."""
        return "countable" if self.num_cells is None else f"finite:{self.num_cells}"


def finite(k: int) -> SpaceDescriptor:
    return SpaceDescriptor(k)


def countable() -> SpaceDescriptor:
    return SpaceDescriptor(None)


@dataclass(frozen=True)
class EventSet:
    """A set of cells, stored as a finite index set or its complement.

    ``cofinite=True`` (countable spaces only) means the event is everything
    except ``indices``. Complements therefore always stay representable.
    """

    space: SpaceDescriptor
    indices: frozenset[int]
    cofinite: bool = False

    def __post_init__(self) -> None:
        if self.cofinite and not self.space.is_countable:
            raise ValueError("cofinite events exist only on the countable space")
        for j in self.indices:
            if not self.space.valid_index(j):
                raise ValueError(f"cell index {j} invalid for {self.space}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(space: SpaceDescriptor, indices: Iterable[int]) -> "EventSet":
        return EventSet(space, frozenset(indices))

    @staticmethod
    def cofinite_of(space: SpaceDescriptor, excluded: Iterable[int]) -> "EventSet":
        return EventSet(space, frozenset(excluded), cofinite=True)

    @staticmethod
    def empty(space: SpaceDescriptor) -> "EventSet":
        return EventSet(space, frozenset())

    @staticmethod
    def full(space: SpaceDescriptor) -> "EventSet":
        if space.is_countable:
            return EventSet(space, frozenset(), cofinite=True)
        return EventSet(space, frozenset(range(space.num_cells)))

    @staticmethod
    def initial_segment(space: SpaceDescriptor, m: int) -> "EventSet":
        """Cells 0..m-1 (clipped to the space size for sized spaces)."""
        n = space.num_cells
        top = m if n is None else min(m, n)
        return EventSet(space, frozenset(range(top)))

    # -- predicates --------------------------------------------------------

    def contains(self, j: int) -> bool:
        return (j in self.indices) != self.cofinite

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.indices

    @property
    def is_full(self) -> bool:
        if self.cofinite:
            return not self.indices
        n = self.space.num_cells
        return n is not None and len(self.indices) == n

    def is_subset(self, other: "EventSet") -> bool:
        _same_space(self, other)
        if not self.cofinite and not other.cofinite:
            return self.indices <= other.indices
        if not self.cofinite and other.cofinite:
            return self.indices.isdisjoint(other.indices)
        if self.cofinite and other.cofinite:
            return other.indices <= self.indices
        return False  # a cofinite set is infinite, never inside a finite one

    # -- algebra -----------------------------------------------------------

    def union(self, other: "EventSet") -> "EventSet":
        _same_space(self, other)
        if not self.cofinite and not other.cofinite:
            return EventSet(self.space, self.indices | other.indices)
        if self.cofinite and other.cofinite:
            return EventSet(self.space, self.indices & other.indices, cofinite=True)
        fin, cof = (self, other) if other.cofinite else (other, self)
        return EventSet(self.space, cof.indices - fin.indices, cofinite=True)

    def intersection(self, other: "EventSet") -> "EventSet":
        return complement(complement(self).union(complement(other)))


def _same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"space mismatch: {a.space} vs {b.space}")


def complement(event: EventSet) -> EventSet:
    """The complementary event; an involution on every space."""
    if event.space.is_countable:
        return EventSet(event.space, event.indices, cofinite=not event.cofinite)
    full = frozenset(range(event.space.num_cells))
    return EventSet(event.space, full - event.indices)


def all_events(space: SpaceDescriptor) -> list[EventSet]:
    """Every event of a small sized space, in a deterministic order."""
    n = space.num_cells
    if n is None:
        raise ValueError("cannot enumerate all events of the countable space")
    if n > 16:
        raise ValueError(f"refusing to enumerate 2**{n} events")
    out = []
    cells = list(range(n))
    for r in range(n + 1):
        for combo in combinations(cells, r):
            out.append(EventSet.of(space, combo))
    return out


@dataclass(frozen=True)
class CompactFamily:
    """An inclusion-increasing list of events designated compact.

    On the countable space only finite index sets qualify; on a finite space
    every event does.
    """

    space: SpaceDescriptor
    members: tuple[EventSet, ...]

    def __post_init__(self) -> None:
        for ev in self.members:
            if ev.space != self.space:
                raise SpaceMismatchError("compact family member on wrong space")
            if self.space.is_countable and ev.cofinite:
                raise ValueError("cofinite sets are not compact on the countable space")
        for small, big in zip(self.members, self.members[1:]):
            if not small.is_subset(big):
                raise ValueError("compact family must be inclusion-increasing")

    def __iter__(self) -> Iterator[EventSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@cache
def default_compact_family(space: SpaceDescriptor) -> CompactFamily:
    """The 64 initial segments {0}..{0..63} on the countable space; the full
    space otherwise. Built once per space."""
    if space.is_countable:
        members = tuple(EventSet.initial_segment(space, m) for m in range(1, 65))
        return CompactFamily(space, members)
    return CompactFamily(space, (EventSet.full(space),))


@dataclass(frozen=True)
class ClosedFamily:
    """A finite checklist of events designated closed.

    The listed family must be closed under finite unions and intersections;
    construction checks every pair unless the builder vouches for it.
    """

    space: SpaceDescriptor
    members: tuple[EventSet, ...]
    _validated: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        for ev in self.members:
            if ev.space != self.space:
                raise SpaceMismatchError("closed family member on wrong space")
        if not self._validated:
            have = set(self.members)
            for a, b in combinations(self.members, 2):
                if a.union(b) not in have or a.intersection(b) not in have:
                    raise ValueError(
                        "closed family not closed under finite union/intersection"
                    )

    def __iter__(self) -> Iterator[EventSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def event_spec(ev: EventSet | None) -> str | None:
    """Canonical text form of an event: full, empty, cells:i,j or not:i,j.

    This is the grammar the command-line event parser accepts, so specs
    round-trip through reports.
    """
    if ev is None:
        return None
    if ev.is_full:
        return "full"
    if ev.is_empty:
        return "empty"
    cells = ",".join(str(j) for j in sorted(ev.indices))
    return f"not:{cells}" if ev.cofinite else f"cells:{cells}"


class Record:
    """A check result whose report is its fields, in declaration order, each
    through :func:`report_value`: field order is the report's key order, and
    reports are compared byte for byte. A record whose report renames,
    derives or omits keys overrides ``to_dict``."""

    def to_dict(self) -> dict:
        return {f.name: report_value(getattr(self, f.name)) for f in fields(self)}


def report_value(value):
    """An event as its spec, a ``Fraction`` as its text, a :class:`Record` as
    its dict, and a tuple, list or dict as a list or dict of these; anything
    else as it is, so a value that is not plain JSON fails at the write."""
    if isinstance(value, EventSet):
        return event_spec(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [report_value(v) for v in value]
    if isinstance(value, dict):
        return {k: report_value(v) for k, v in value.items()}
    return value


@cache
def default_closed_family(space: SpaceDescriptor) -> ClosedFamily:
    """A usable closed-set checklist per space, built once per space.

    Finite spaces with at most 10 cells get every event (all are closed in
    the discrete convention). Larger finite spaces and the countable space
    get the initial segments of up to 16 cells plus the empty and full sets;
    a chain is trivially union/intersection-closed, and segment masses
    already pin down every atom of a measure.
    """
    n = space.num_cells
    if n is not None and n <= 10:
        return ClosedFamily(space, tuple(all_events(space)), _validated=True)
    members = [EventSet.empty(space)]
    top = 16 if n is None else min(16, n)
    for m in range(1, top + 1):
        members.append(EventSet.initial_segment(space, m))
    members.append(EventSet.full(space))
    deduped = tuple(dict.fromkeys(members))
    return ClosedFamily(space, deduped, _validated=True)
