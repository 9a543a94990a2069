"""Tests for fragmentations, coverage, and disjointness (Definitions 1-2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.partitioning.fragmentation import (
    Fragmentation,
    pairwise_disjoint,
    union_covers,
)
from repro.partitioning.intervals import Interval, sort_key


class TestUnionCovers:
    def test_single_exact(self):
        assert union_covers([Interval.closed(0, 10)], Interval.closed(0, 10))

    def test_gap_detected(self):
        frags = [Interval.closed(0, 3), Interval.closed(5, 10)]
        assert not union_covers(frags, Interval.closed(0, 10))

    def test_point_gap_detected(self):
        # [0,3) and (3,10] miss the single point 3
        frags = [Interval.closed_open(0, 3), Interval.open_closed(3, 10)]
        assert not union_covers(frags, Interval.closed(0, 10))

    def test_touching_open_closed_covers(self):
        frags = [Interval.closed_open(0, 3), Interval.closed(3, 10)]
        assert union_covers(frags, Interval.closed(0, 10))

    def test_overlap_covers(self):
        frags = [Interval.closed(0, 6), Interval.closed(4, 10)]
        assert union_covers(frags, Interval.closed(0, 10))

    def test_missing_left_endpoint(self):
        frags = [Interval.open_closed(0, 10)]
        assert not union_covers(frags, Interval.closed(0, 10))
        assert union_covers(frags, Interval.open_closed(0, 10))

    def test_missing_right_endpoint(self):
        frags = [Interval.closed_open(0, 10)]
        assert not union_covers(frags, Interval.closed(0, 10))

    def test_example_1_paper(self):
        """Example 1: I'' = {[1,4], [5,6]} is a partition of domain {1..6}.

        With a continuous domain [1,6] there is a gap (4,5); with the
        integer-style fragments [1,4] and (4,6] it covers.
        """
        assert union_covers(
            [Interval.closed(1, 4), Interval.open_closed(4, 6)], Interval.closed(1, 6)
        )

    def test_empty_fragments(self):
        assert not union_covers([], Interval.closed(0, 1))


class TestPairwiseDisjoint:
    def test_disjoint(self):
        assert pairwise_disjoint(
            [Interval.closed(0, 1), Interval.open_closed(1, 2), Interval.open(2, 3)]
        )

    def test_shared_endpoint_overlaps(self):
        assert not pairwise_disjoint([Interval.closed(0, 2), Interval.closed(2, 4)])

    def test_containment_overlaps(self):
        assert not pairwise_disjoint([Interval.closed(0, 10), Interval.closed(3, 4)])

    def test_paper_example_1_overlap(self):
        """I' = {[1,4], [3,4], [5,6]} is NOT a horizontal partition."""
        assert not pairwise_disjoint(
            [Interval.closed(1, 4), Interval.closed(3, 4), Interval.closed(5, 6)]
        )

    def test_empty(self):
        assert pairwise_disjoint([])


class TestFragmentation:
    DOMAIN = Interval.closed(0, 30)

    def frag(self, *intervals):
        return Fragmentation("a", self.DOMAIN, tuple(intervals))

    def test_single_is_horizontal_partition(self):
        f = Fragmentation.single("a", self.DOMAIN)
        assert f.is_horizontal_partition()

    def test_example_3_partition(self):
        """[0,10], (10,20], (20,30] is a horizontal partition of [0,30]."""
        f = self.frag(
            Interval.closed(0, 10),
            Interval.open_closed(10, 20),
            Interval.open_closed(20, 30),
        )
        assert f.is_horizontal_partition()

    def test_overlapping_partitioning_not_horizontal(self):
        f = self.frag(Interval.closed(0, 20), Interval.closed(10, 30))
        assert f.is_overlapping_partitioning()
        assert not f.is_horizontal_partition()

    def test_non_covering_is_neither(self):
        f = self.frag(Interval.closed(0, 10))
        assert not f.is_overlapping_partitioning()
        assert not f.is_horizontal_partition()

    def test_unbounded_domain_rejected(self):
        with pytest.raises(PartitionError):
            Fragmentation("a", Interval.unbounded(), ())

    def test_out_of_domain_fragment_rejected(self):
        with pytest.raises(PartitionError):
            self.frag(Interval.closed(40, 50))

    def test_replace_preserves_partition(self):
        f = Fragmentation.single("a", self.DOMAIN)
        pieces = (Interval.closed_open(0, 15), Interval.closed(15, 30))
        f2 = f.replace(self.DOMAIN, pieces)
        assert f2.is_horizontal_partition()
        assert len(f2) == 2

    def test_replace_rejects_non_tiling_pieces(self):
        f = Fragmentation.single("a", self.DOMAIN)
        with pytest.raises(PartitionError):
            f.replace(self.DOMAIN, (Interval.closed(0, 10),))

    def test_replace_rejects_overlapping_pieces(self):
        f = Fragmentation.single("a", self.DOMAIN)
        with pytest.raises(PartitionError):
            f.replace(self.DOMAIN, (Interval.closed(0, 20), Interval.closed(10, 30)))

    def test_replace_unknown_fragment(self):
        f = Fragmentation.single("a", self.DOMAIN)
        with pytest.raises(PartitionError):
            f.replace(Interval.closed(0, 5), (Interval.closed(0, 5),))

    def test_add_overlapping(self):
        f = self.frag(Interval.closed(0, 30))
        f2 = f.add_overlapping(Interval.closed(10, 12))
        assert f2.is_overlapping_partitioning()
        assert not f2.is_disjoint()

    def test_fragments_containing(self):
        f = self.frag(Interval.closed(0, 20), Interval.closed(10, 30))
        assert len(f.fragments_containing(15)) == 2
        assert len(f.fragments_containing(5)) == 1


# ----------------------------------------------------------------------
# Property: recursively splitting a partition keeps it a partition
# ----------------------------------------------------------------------
@given(
    points=st.lists(st.integers(1, 99), min_size=1, max_size=10, unique=True),
    after=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_repeated_splits_stay_horizontal(points, after):
    domain = Interval.closed(0, 100)
    frag = Fragmentation.single("a", domain)
    for p in points:
        target = next((iv for iv in frag.intervals if iv.contains_point(p)), None)
        if target is None:
            continue
        try:
            pieces = target.split_after(p) if after else target.split_before(p)
        except Exception:
            continue
        frag = frag.replace(target, pieces)
    assert frag.is_horizontal_partition()


# ----------------------------------------------------------------------
# Oracle: the spliced ``replace`` against the pre-splice one, verbatim —
# rebuild, re-sort and re-validate everything through the constructor.
# ----------------------------------------------------------------------
def _rebuilding_replace(frag, target, pieces):
    if target not in frag.intervals:
        raise PartitionError(f"{target} is not a fragment of this fragmentation")
    if not union_covers(list(pieces), target):
        raise PartitionError("pieces do not cover the fragment being replaced")
    if not pairwise_disjoint(list(pieces)):
        raise PartitionError("split pieces overlap")
    new = tuple(iv for iv in frag.intervals if iv != target) + tuple(pieces)
    return Fragmentation(frag.attr, frag.domain, tuple(sorted(new, key=sort_key)))


def _outcome(replace, frag, target, pieces):
    try:
        return replace(frag, target, pieces).intervals
    except PartitionError as exc:
        return str(exc)


_cut = st.sampled_from([-10, 0, 10, 20, 30, 45, 60, 80, 100, 120])


@st.composite
def _interval(draw):
    lo, hi = sorted((draw(_cut), draw(_cut)))
    if lo == hi:
        return Interval.point(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


class TestSplicedReplaceOracle:
    DOMAIN = Interval.closed(0, 100)

    @given(
        extra=st.lists(_interval(), max_size=6),
        target_at=st.integers(0, 10),
        pieces=st.lists(_interval(), min_size=1, max_size=4),
        cuts=st.lists(st.integers(1, 99), max_size=3, unique=True),
        tile=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_tuple_or_same_error(self, extra, target_at, pieces, cuts, tile):
        # an overlapping design: the domain plus whatever intersects it
        design = Fragmentation(
            "a",
            self.DOMAIN,
            (self.DOMAIN, *(iv for iv in extra if iv.overlaps(self.DOMAIN))),
        )
        target = design.intervals[target_at % len(design)]
        if tile:
            # pieces that do tile the target (cut at interior points), so the
            # accepting path, interleaving and duplicate collapse are drawn
            # as often as the three refusals
            pieces, rest = [], target
            for point in sorted(c for c in cuts if target.lo < c < target.hi):
                left, rest = rest.split_before(point)
                pieces.append(left)
            pieces.append(rest)
        got = _outcome(Fragmentation.replace, design, target, tuple(pieces))
        assert got == _outcome(_rebuilding_replace, design, target, tuple(pieces))

    def test_piece_equal_to_an_existing_fragment_collapses(self):
        design = Fragmentation(
            "a", self.DOMAIN, (self.DOMAIN, Interval.closed_open(0, 40))
        )
        pieces = (Interval.closed_open(0, 40), Interval.closed(40, 100))
        out = design.replace(self.DOMAIN, pieces)
        assert out.intervals == pieces
        assert out == _rebuilding_replace(design, self.DOMAIN, pieces)

    def test_pieces_interleave_with_overlapping_neighbours(self):
        design = Fragmentation("a", self.DOMAIN, (self.DOMAIN, Interval.closed(30, 60)))
        pieces = (Interval.closed_open(0, 50), Interval.closed(50, 100))
        out = design.replace(self.DOMAIN, pieces)
        assert out.intervals == (pieces[0], Interval.closed(30, 60), pieces[1])

    def test_out_of_domain_piece_is_the_constructors_error(self):
        design = Fragmentation("a", self.DOMAIN, (self.DOMAIN, Interval.closed(90, 120)))
        target = Interval.closed(90, 120)
        pieces = (Interval.closed(90, 100), Interval.open_closed(100, 120))
        with pytest.raises(PartitionError, match="lies outside domain"):
            design.replace(target, pieces)
        assert _outcome(Fragmentation.replace, design, target, pieces) == _outcome(
            _rebuilding_replace, design, target, pieces
        )

    def test_not_a_fragment_and_non_tiling(self):
        design = Fragmentation.single("a", self.DOMAIN)
        for target, pieces in (
            (Interval.closed(0, 5), (Interval.closed(0, 5),)),
            (self.DOMAIN, (Interval.closed(0, 40), Interval.closed(60, 100))),
            (self.DOMAIN, (Interval.closed(0, 60), Interval.closed(40, 100))),
        ):
            assert _outcome(Fragmentation.replace, design, target, pieces) == _outcome(
                _rebuilding_replace, design, target, pieces
            )
