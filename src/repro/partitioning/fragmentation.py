"""Fragmentations of a view on an ordered attribute (Definitions 1 and 2).

A :class:`Fragmentation` is a set of intervals over an attribute's domain.
It is a *horizontal partition* when the intervals are pairwise disjoint
and cover the domain, and an *overlapping partitioning* when they cover
the domain but may overlap.  DeepSea's progressive refinement keeps every
resident partition at least an overlapping partitioning of the domain, so
any in-domain selection can be answered from fragments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import PartitionError
from repro.partitioning.intervals import Interval, sort_key


def _upper_reach(covered: tuple[float, int] | None, interval: Interval) -> tuple[float, int]:
    """Max of the current coverage reach and an interval's upper key."""
    key = interval._upper_key()
    return key if covered is None or key > covered else covered


def _continues_coverage(covered: tuple[float, int], interval: Interval) -> bool:
    """True iff ``interval`` extends coverage without leaving a gap.

    ``covered`` is an upper key ``(v, flag)`` with ``flag`` 0 when ``v``
    itself is covered and -1 when it is excluded.  The interval continues
    coverage iff its lower region includes the next uncovered point.
    """
    v, flag = covered
    threshold = (v, 1 + flag)  # (v, 1) if v covered; (v, 0) if v excluded
    return interval._lower_key() <= threshold


def _overlaps_coverage(covered: tuple[float, int], interval: Interval) -> bool:
    """True iff ``interval`` contains at least one already-covered point."""
    v, flag = covered
    return interval._lower_key() <= (v, flag)


def union_covers(intervals: list[Interval], target: Interval) -> bool:
    """True iff the union of ``intervals`` covers every point of ``target``."""
    relevant = sorted(
        (iv for iv in intervals if iv.overlaps(target) or iv.adjacent_to(target)),
        key=sort_key,
    )
    lo_key = target._lower_key()
    # Coverage starts "just before" the target's first point.
    covered = (lo_key[0], -1 if lo_key[1] == 0 else 0)
    # Explanation: if target's low is closed, point lo itself is still
    # uncovered (flag -1 relative to lo); if open, lo is irrelevant (treat
    # as covered, flag 0) and coverage must continue strictly after it.
    for iv in relevant:
        if not _continues_coverage(covered, iv):
            break
        covered = _upper_reach(covered, iv)
        if covered >= target._upper_key():
            return True
    return covered >= target._upper_key()


def pairwise_disjoint(intervals: list[Interval]) -> bool:
    """True iff no two intervals share a point."""
    ordered = sorted(intervals, key=sort_key)
    covered: tuple[float, int] | None = None
    for iv in ordered:
        if covered is not None and _overlaps_coverage(covered, iv):
            return False
        covered = _upper_reach(covered, iv)
    return True


@dataclass(frozen=True)
class Fragmentation:
    """A fragmentation ``P_I(V.A)`` — a set of intervals over a domain."""

    attr: str
    domain: Interval
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.domain.is_bounded():
            raise PartitionError("fragmentation domain must be bounded")
        # A fragmentation is a *set* of intervals (Definition 1): splits of
        # overlapping designs can propose a piece equal to an existing
        # fragment, so duplicates are collapsed here.
        deduped = tuple(sorted(dict.fromkeys(self.intervals), key=sort_key))
        if deduped != self.intervals:
            object.__setattr__(self, "intervals", deduped)
        for iv in self.intervals:
            clipped = iv.intersect(self.domain)
            if clipped is None:
                raise PartitionError(f"fragment {iv} lies outside domain {self.domain}")

    @classmethod
    def single(cls, attr: str, domain: Interval) -> "Fragmentation":
        """The trivial fragmentation ``{D(V, A)}`` used to seed refinement."""
        return cls(attr, domain, (domain,))

    # ------------------------------------------------------------------
    # Definition predicates
    # ------------------------------------------------------------------
    def covers_domain(self) -> bool:
        return union_covers(list(self.intervals), self.domain)

    def is_disjoint(self) -> bool:
        return pairwise_disjoint(list(self.intervals))

    def is_horizontal_partition(self) -> bool:
        """Definition 1: covers the domain and is pairwise disjoint."""
        return self.covers_domain() and self.is_disjoint()

    def is_overlapping_partitioning(self) -> bool:
        """Definition 2: covers the domain (overlap permitted)."""
        return self.covers_domain()

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def replace(self, target: Interval, pieces: tuple[Interval, ...]) -> "Fragmentation":
        """Split ``target`` into ``pieces`` (must tile it exactly).

        The pieces are spliced into the (sorted, already validated) tuple
        at their bisected positions and only they are checked against the
        domain — the tuple, and the errors, of re-validating the whole
        fragmentation through the constructor, without re-sorting it.
        """
        at = bisect_left(self.intervals, sort_key(target), key=sort_key)
        if at == len(self.intervals) or self.intervals[at] != target:
            raise PartitionError(f"{target} is not a fragment of this fragmentation")
        if not union_covers(list(pieces), target):
            raise PartitionError("pieces do not cover the fragment being replaced")
        if not pairwise_disjoint(list(pieces)):
            raise PartitionError("split pieces overlap")
        spliced = list(self.intervals)
        del spliced[at]
        for piece in sorted(pieces, key=sort_key):
            if piece.intersect(self.domain) is None:
                raise PartitionError(f"fragment {piece} lies outside domain {self.domain}")
            i = bisect_left(spliced, sort_key(piece), key=sort_key)
            if i == len(spliced) or spliced[i] != piece:  # a set: duplicates collapse
                spliced.insert(i, piece)
        out = object.__new__(Fragmentation)
        object.__setattr__(out, "attr", self.attr)
        object.__setattr__(out, "domain", self.domain)
        object.__setattr__(out, "intervals", tuple(spliced))
        return out

    def add_overlapping(self, fragment: Interval) -> "Fragmentation":
        """Add a fragment that may overlap existing ones (Definition 2 path)."""
        new = tuple(sorted(self.intervals + (fragment,), key=sort_key))
        return Fragmentation(self.attr, self.domain, new)

    # ------------------------------------------------------------------
    def fragments_containing(self, point: float) -> list[Interval]:
        return [iv for iv in self.intervals if iv.contains_point(point)]

    def __len__(self) -> int:
        return len(self.intervals)
