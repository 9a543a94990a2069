"""Property-based tests for Algorithm 2 (greedy fragment cover)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.matching.partition_match import greedy_cover
from repro.partitioning.fragmentation import union_covers
from repro.partitioning.intervals import Interval, IntervalIndex

bound = st.integers(0, 60)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(1, 8))
    out = []
    for _ in range(n):
        lo = draw(bound)
        hi = draw(bound)
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            out.append(Interval.point(float(lo)))
        else:
            out.append(Interval(float(lo), float(hi), draw(st.booleans()), draw(st.booleans())))
    return out


@st.composite
def thetas(draw):
    lo = draw(bound)
    hi = draw(bound)
    lo, hi = min(lo, hi), max(lo, hi)
    if lo == hi:
        return Interval.point(float(lo))
    return Interval.closed(float(lo), float(hi))


@given(fragments=interval_sets(), theta=thetas())
@settings(max_examples=300, deadline=None)
def test_greedy_cover_succeeds_iff_union_covers(fragments, theta):
    """Completeness: greedy finds a cover exactly when one exists."""
    cover = greedy_cover(theta, IntervalIndex(fragments))
    coverable = union_covers(fragments, theta)
    assert (cover is not None) == coverable


@given(fragments=interval_sets(), theta=thetas())
@settings(max_examples=300, deadline=None)
def test_cover_union_contains_theta(fragments, theta):
    cover = greedy_cover(theta, IntervalIndex(fragments))
    if cover is None:
        return
    assert union_covers([c.interval for c in cover], theta)


@given(fragments=interval_sets(), theta=thetas())
@settings(max_examples=300, deadline=None)
def test_clipped_regions_are_disjoint_and_cover_theta(fragments, theta):
    """The clips disjointify the cover: every point of θ belongs to exactly
    one (fragment ∩ clip) region."""
    cover = greedy_cover(theta, IntervalIndex(fragments))
    if cover is None:
        return
    # sample many points of theta and count which clipped fragments own them
    lo, hi = theta.lo, theta.hi
    points = np.unique(
        np.concatenate(
            [
                np.linspace(lo, hi, 23),
                np.array([lo, hi]),
                np.array([c.interval.lo for c in cover]),
                np.array([c.interval.hi for c in cover]),
            ]
        )
    )
    for p in points:
        if not theta.contains_point(p):
            continue
        owners = 0
        for covered in cover:
            if not covered.interval.contains_point(p):
                continue
            if covered.clip is None or covered.clip.contains_point(p):
                owners += 1
        assert owners == 1, f"point {p} owned by {owners} clipped fragments"


@given(fragments=interval_sets(), theta=thetas())
@settings(max_examples=200, deadline=None)
def test_cover_uses_each_fragment_at_most_once(fragments, theta):
    cover = greedy_cover(theta, IntervalIndex(fragments))
    if cover is None:
        return
    seen = [c.interval for c in cover]
    # identity-level uniqueness: greedy removes chosen fragments
    assert len(seen) == len({id(c) for c in cover})
    assert len(cover) <= len(fragments)
