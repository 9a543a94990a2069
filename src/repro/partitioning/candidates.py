"""Partition-candidate generation (Definition 7).

Given the interval ``I = [l, u]`` of a query's range selection and the
current fragment intervals of a view partition (resident or statistical),
produce split candidates: for every fragment ``I' = [l', u']`` that one of
the selection endpoints falls strictly inside, the fragment is split at
that endpoint.  The five cases of Definition 7 fall out of two primitive
splits:

* endpoint ``l`` strictly inside ``I'`` → ``split_before(l)`` giving
  ``[l', l)`` and ``[l, u']`` (case 4);
* endpoint ``u`` strictly inside ``I'`` → ``split_after(u)`` giving
  ``[l', u]`` and ``(u, u']`` (case 3);
* both endpoints inside → three pieces ``[l', l)``, ``[l, u]``, ``(u, u']``
  (case 5);
* disjoint or fragment ⊆ query (cases 1–2) → no candidates.

An open selection end cuts on its other side: ``(l, ...`` splits with
``split_after(l)`` into ``[l', l]`` and ``(l, u']``, and ``..., u)`` with
``split_before(u)``, so the piece boundary always falls where the
selection's does and ``(l, u]`` over ``[l, u']`` is split too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.partitioning.intervals import Interval


@dataclass(frozen=True)
class SplitCandidate:
    """A proposed refinement: ``parent`` replaced by ``pieces`` (which tile it)."""

    parent: Interval
    pieces: tuple[Interval, ...]


def _can_split_before(fragment: Interval, point: float) -> bool:
    """True iff ``split_before(point)`` yields two non-empty pieces."""
    if not fragment.contains_point(point):
        return False
    # the left piece [lo, point) must contain some value < point
    return fragment._lower_key() < (point, 0)


def _can_split_after(fragment: Interval, point: float) -> bool:
    """True iff ``split_after(point)`` yields two non-empty pieces."""
    if not fragment.contains_point(point):
        return False
    # the right piece (point, hi] must contain some value > point
    return point < fragment.hi


def split_fragment(fragment: Interval, selection: Interval) -> SplitCandidate | None:
    """Definition 7 for a single fragment; ``None`` when no candidate arises."""
    if not fragment.overlaps(selection):
        return None  # case 1
    if selection.contains(fragment):
        return None  # case 2
    # An open selection end cuts on its other side (module docstring).
    split_lo = Interval.split_after if selection.low_open else Interval.split_before
    split_hi = Interval.split_before if selection.high_open else Interval.split_after
    can_lo = _can_split_after if selection.low_open else _can_split_before
    can_hi = _can_split_before if selection.high_open else _can_split_after
    lo_inside = selection.low is not None and can_lo(fragment, selection.lo)
    hi_inside = selection.high is not None and can_hi(fragment, selection.hi)
    if lo_inside and hi_inside:  # case 5
        left, rest = split_lo(fragment, selection.lo)
        middle, right = split_hi(rest, selection.hi)
        return SplitCandidate(fragment, (left, middle, right))
    if lo_inside:  # case 4 (selection overlaps from the right)
        return SplitCandidate(fragment, split_lo(fragment, selection.lo))
    if hi_inside:  # case 3 (selection overlaps from the left)
        return SplitCandidate(fragment, split_hi(fragment, selection.hi))
    return None


def partition_candidates(
    selection: Interval, fragments: list[Interval], domain: Interval
) -> list[SplitCandidate]:
    """All Definition-7 split candidates for one selection interval.

    The selection is clamped to the attribute domain first (the paper's
    "replace l with the domain lower bound" convention); a selection
    entirely outside the domain produces nothing.
    """
    clamped = selection.intersect(domain)
    if clamped is None:
        return []
    candidates = []
    for fragment in fragments:
        cand = split_fragment(fragment, clamped)
        if cand is not None:
            candidates.append(cand)
    return candidates


def initial_candidates(selection: Interval, domain: Interval) -> list[SplitCandidate]:
    """Candidates for a view with no partition yet: seed with ``{D(V, A)}``."""
    return partition_candidates(selection, [domain], domain)
