"""Tests for Definition-7 partition candidates and the Example-3 scenario."""

from hypothesis import given, settings, strategies as st

from repro.partitioning.candidates import (
    initial_candidates,
    partition_candidates,
    split_fragment,
)
from repro.partitioning.fragmentation import pairwise_disjoint, union_covers
from repro.partitioning.intervals import Interval
from tests.conftest import examples

DOMAIN = Interval.closed(0, 30)


class TestSplitFragment:
    def test_case1_disjoint(self):
        assert split_fragment(Interval.closed(0, 10), Interval.closed(20, 25)) is None

    def test_case2_selection_contains_fragment(self):
        assert split_fragment(Interval.closed(10, 15), Interval.closed(5, 25)) is None

    def test_case3_overlap_from_left(self):
        """Selection [l, u] with l < l' < u < u' → [l', u] and (u, u']."""
        cand = split_fragment(Interval.open_closed(20, 30), Interval.closed(5, 25))
        assert cand is not None
        assert cand.pieces == (
            Interval.open_closed(20, 25),
            Interval.open_closed(25, 30),
        )

    def test_case4_overlap_from_right(self):
        """Selection [l, u] with l' < l < u' < u → [l', l) and [l, u']."""
        cand = split_fragment(Interval.closed(0, 10), Interval.closed(5, 25))
        assert cand is not None
        assert cand.pieces == (Interval.closed_open(0, 5), Interval.closed(5, 10))

    def test_case5_selection_inside_fragment(self):
        cand = split_fragment(Interval.closed(0, 30), Interval.closed(5, 25))
        assert cand is not None
        assert cand.pieces == (
            Interval.closed_open(0, 5),
            Interval.closed(5, 25),
            Interval.open_closed(25, 30),
        )

    def test_selection_endpoint_on_boundary_no_split(self):
        # selection [0, 25] over fragment [0, 10]: l == l' so only case-2/3
        # logic applies; selection contains the fragment → no candidates.
        assert split_fragment(Interval.closed(0, 10), Interval.closed(0, 25)) is None

    def test_selection_upper_on_fragment_upper(self):
        # [5, 10] inside [0, 10]: only the lower endpoint splits
        cand = split_fragment(Interval.closed(0, 10), Interval.closed(5, 10))
        assert cand is not None
        assert cand.pieces == (Interval.closed_open(0, 5), Interval.closed(5, 10))

    def test_open_low_end_on_fragment_low(self):
        # (10, 20] over [10, 20]: the fragment's point 10 lies outside
        cand = split_fragment(Interval.closed(10, 20), Interval.open_closed(10, 20))
        assert cand is not None
        assert cand.pieces == (Interval.point(10), Interval.open_closed(10, 20))

    def test_open_high_end_on_fragment_high(self):
        cand = split_fragment(Interval.closed(0, 20), Interval.closed_open(5, 20))
        assert cand is not None
        assert cand.pieces == (
            Interval.closed_open(0, 5),
            Interval.closed_open(5, 20),
            Interval.point(20),
        )

    def test_open_selection_inside_fragment(self):
        cand = split_fragment(Interval.closed(0, 30), Interval.open(5, 25))
        assert cand is not None
        assert cand.pieces == (
            Interval.closed(0, 5),
            Interval.open(5, 25),
            Interval.closed(25, 30),
        )


class TestExample3:
    """The paper's Example 3, verbatim."""

    FRAGMENTS = [
        Interval.closed(0, 10),
        Interval.open_closed(10, 20),
        Interval.open_closed(20, 30),
    ]

    def test_candidates(self):
        cands = partition_candidates(Interval.closed(5, 25), self.FRAGMENTS, DOMAIN)
        assert len(cands) == 2
        by_parent = {c.parent: c.pieces for c in cands}
        assert by_parent[Interval.closed(0, 10)] == (
            Interval.closed_open(0, 5),
            Interval.closed(5, 10),
        )
        assert by_parent[Interval.open_closed(20, 30)] == (
            Interval.open_closed(20, 25),
            Interval.open_closed(25, 30),
        )


class TestClamping:
    def test_selection_clamped_to_domain(self):
        cands = partition_candidates(Interval.closed(-100, 5), [Interval.closed(0, 30)], DOMAIN)
        # clamped to [0, 5]: only the upper endpoint splits
        assert len(cands) == 1
        assert cands[0].pieces == (
            Interval.closed(0, 5),
            Interval.open_closed(5, 30),
        )

    def test_selection_outside_domain(self):
        assert partition_candidates(
            Interval.closed(100, 200), [Interval.closed(0, 30)], DOMAIN
        ) == []

    def test_initial_candidates_seed_domain(self):
        cands = initial_candidates(Interval.closed(5, 25), DOMAIN)
        assert len(cands) == 1
        assert cands[0].parent == DOMAIN
        assert len(cands[0].pieces) == 3


# ----------------------------------------------------------------------
# Property: split pieces always tile the parent fragment exactly
# ----------------------------------------------------------------------
interval_ints = st.integers(0, 100)


@given(fl=interval_ints, fh=interval_ints, sl=interval_ints, sh=interval_ints)
@settings(max_examples=200, deadline=None)
def test_pieces_tile_parent(fl, fh, sl, sh):
    if fl > fh or sl > sh:
        return
    fragment = Interval.closed(float(fl), float(fh))
    selection = Interval.closed(float(sl), float(sh))
    cand = split_fragment(fragment, selection)
    if cand is None:
        return
    pieces = list(cand.pieces)
    assert len(pieces) in (2, 3)
    assert union_covers(pieces, fragment)
    assert pairwise_disjoint(pieces)
    for piece in pieces:
        assert fragment.contains(piece)


# ----------------------------------------------------------------------
# Property: Definition 7 over open, closed, half-open and unbounded
# fragments and selections, stated without reference to how the split is
# computed.
# ----------------------------------------------------------------------
_kinds = st.sampled_from(["closed", "open", "open_closed", "closed_open"])


@st.composite
def _any_interval(draw):
    lo = draw(st.one_of(st.none(), st.integers(-5, 34)))
    hi = draw(st.one_of(st.none(), st.integers(-5, 34)))
    if lo is not None and hi is not None:
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            return Interval.point(float(lo))
    kind = draw(_kinds)
    return Interval(
        None if lo is None else float(lo),
        None if hi is None else float(hi),
        lo is not None and kind in ("open", "open_closed"),
        hi is not None and kind in ("open", "closed_open"),
    )


@given(
    st.lists(_any_interval(), min_size=1, max_size=24),
    _any_interval(),
    st.sampled_from([DOMAIN, Interval.unbounded()]),
)
@settings(max_examples=examples(dev=60, deep=300), deadline=None)
def test_definition7_pieces_tile_and_respect_the_selection(fragments, selection, domain):
    candidates = partition_candidates(selection, fragments, domain)
    clamped = selection.intersect(domain)
    if clamped is None:
        assert candidates == []
        return
    by_parent = {c.parent: c.pieces for c in candidates}
    assert [c.parent for c in candidates] == [f for f in fragments if f in by_parent]
    for fragment in fragments:
        cases_1_2 = not fragment.overlaps(clamped) or clamped.contains(fragment)
        # a candidate in every other case: open and closed ends alike
        assert (fragment in by_parent) != cases_1_2
        if cases_1_2:
            continue
        pieces = list(by_parent[fragment])
        assert len(pieces) in (2, 3)
        assert union_covers(pieces, fragment)
        assert pairwise_disjoint(pieces)
        assert all(fragment.contains(piece) for piece in pieces)
        # every clamped endpoint strictly inside the fragment is a piece
        # boundary, and no piece straddles the selection's ends
        bounds = {p.lo for p in pieces} | {p.hi for p in pieces}
        for end in (clamped.lo, clamped.hi):
            if fragment.lo < end < fragment.hi:
                assert end in bounds
        assert all(clamped.contains(p) or not p.overlaps(clamped) for p in pieces)
