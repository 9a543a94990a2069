"""Tests for view matching, the filter tree, and Algorithm 2."""

from repro.matching.filter_tree import FilterTree
from repro.matching.matcher import match_view, partition_attr_ranges
from repro.matching.partition_match import covered_bytes, greedy_cover
from repro.partitioning.intervals import Interval, IntervalIndex
from repro.query.algebra import Aggregate, AggSpec, Join, Project, Relation, Select
from repro.query.predicates import between
from repro.query.signature import compute_signature

SCHEMAS = {
    "sales": ("s_id", "s_item_sk", "s_qty", "s_price"),
    "item": ("i_item_sk", "i_category"),
    "web": ("w_id", "w_item_sk"),
}


def sig(plan):
    return compute_signature(plan, SCHEMAS)


def join_plan():
    return Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk")


class TestMatchView:
    def test_exact_match_identity_compensation(self):
        comp = match_view(sig(join_plan()), sig(join_plan()))
        assert comp is not None and comp.is_identity

    def test_view_superset_range_compensated(self):
        view = Select(join_plan(), (between("i_item_sk", 0, 100),))
        query = Select(join_plan(), (between("i_item_sk", 10, 20),))
        comp = match_view(sig(view), sig(query))
        assert comp is not None
        assert len(comp.selections) == 1
        assert comp.selections[0].interval == Interval.closed(10, 20)

    def test_unrestricted_view_answers_restricted_query(self):
        query = Select(join_plan(), (between("i_item_sk", 10, 20),))
        comp = match_view(sig(join_plan()), sig(query))
        assert comp is not None and len(comp.selections) == 1

    def test_view_narrower_than_query_rejected(self):
        view = Select(join_plan(), (between("i_item_sk", 10, 20),))
        query = Select(join_plan(), (between("i_item_sk", 0, 100),))
        assert match_view(sig(view), sig(query)) is None

    def test_restricted_view_vs_unrestricted_query_rejected(self):
        view = Select(join_plan(), (between("i_item_sk", 10, 20),))
        assert match_view(sig(view), sig(join_plan())) is None

    def test_different_relations_rejected(self):
        view = Join(Relation("web"), Relation("item"), "w_item_sk", "i_item_sk")
        assert match_view(sig(view), sig(join_plan())) is None

    def test_different_join_attrs_rejected(self):
        view = Join(Relation("sales"), Relation("item"), "s_qty", "i_item_sk")
        assert match_view(sig(view), sig(join_plan())) is None

    def test_aggregation_shape_must_match(self):
        agg = Aggregate(join_plan(), ("i_category",), (AggSpec("sum", "s_qty", "t"),))
        assert match_view(sig(agg), sig(join_plan())) is None
        assert match_view(sig(join_plan()), sig(agg)) is None
        comp = match_view(sig(agg), sig(agg))
        assert comp is not None and comp.is_identity

    def test_selection_commutes_with_groupby_on_group_attr(self):
        """σ over a group-by attr matches an aggregate view without the σ."""
        view = Aggregate(join_plan(), ("i_item_sk",), (AggSpec("sum", "s_qty", "t"),))
        query = Select(view, (between("i_item_sk", 0, 9),))
        comp = match_view(sig(view), sig(query))
        assert comp is not None and len(comp.selections) == 1

    def test_projection_subset_compensated(self):
        view = join_plan()
        query = Project(join_plan(), ("i_category", "s_qty"))
        comp = match_view(sig(view), sig(query))
        assert comp is not None
        assert comp.projection == ("i_category", "s_qty")

    def test_view_projection_missing_needed_column_rejected(self):
        view = Project(join_plan(), ("i_category",))
        query = Project(join_plan(), ("s_qty",))
        assert match_view(sig(view), sig(query)) is None

    def test_compensation_attr_resolved_through_equivalence(self):
        """View projects only i_item_sk; query restricts s_item_sk (= join key)."""
        view = Project(join_plan(), ("i_item_sk", "s_qty"))
        query = Project(
            Select(join_plan(), (between("s_item_sk", 3, 7),)),
            ("i_item_sk", "s_qty"),
        )
        comp = match_view(sig(view), sig(query))
        assert comp is not None
        assert comp.selections[0].attr == "i_item_sk"

    def test_compensation_impossible_when_class_projected_away(self):
        view = Project(join_plan(), ("s_qty",))
        query = Project(
            Select(join_plan(), (between("s_item_sk", 3, 7),)), ("s_qty",)
        )
        assert match_view(sig(view), sig(query)) is None


class TestPartitionAttrRanges:
    def test_range_reported_under_view_output_column(self):
        view = join_plan()
        query = Select(join_plan(), (between("s_item_sk", 3, 7),))
        ranges = partition_attr_ranges(sig(view), sig(query))
        # representative is i_item_sk (sorted first), present in view output
        assert ranges == {"i_item_sk": Interval.closed(3, 7)}


class TestFilterTree:
    def test_add_lookup_remove(self):
        tree = FilterTree()
        tree.add("v1", sig(join_plan()))
        hits = tree.candidates(sig(join_plan()))
        assert [vid for vid, _ in hits] == ["v1"]
        tree.remove("v1")
        assert tree.candidates(sig(join_plan())) == []
        assert len(tree) == 0

    def test_prunes_on_relations(self):
        tree = FilterTree()
        tree.add("v1", sig(join_plan()))
        other = Join(Relation("web"), Relation("item"), "w_item_sk", "i_item_sk")
        assert tree.candidates(sig(other)) == []

    def test_prunes_on_agg_shape(self):
        tree = FilterTree()
        tree.add("v1", sig(join_plan()))
        agg = Aggregate(join_plan(), ("i_category",), (AggSpec("count", None, "n"),))
        assert tree.candidates(sig(agg)) == []

    def test_range_variants_share_bucket(self):
        tree = FilterTree()
        tree.add("v1", sig(Select(join_plan(), (between("i_item_sk", 0, 50),))))
        tree.add("v2", sig(join_plan()))
        hits = tree.candidates(sig(Select(join_plan(), (between("i_item_sk", 5, 9),))))
        assert {vid for vid, _ in hits} == {"v1", "v2"}

    def test_add_idempotent(self):
        tree = FilterTree()
        tree.add("v1", sig(join_plan()))
        tree.add("v1", sig(join_plan()))
        assert len(tree) == 1

    def test_remove_unknown_noop(self):
        tree = FilterTree()
        tree.remove("ghost")

    def test_stats_counters(self):
        tree = FilterTree()
        tree.add("v1", sig(join_plan()))
        tree.candidates(sig(join_plan()))
        assert tree.stats.lookups == 1
        assert tree.stats.candidates_returned == 1


class TestGreedyCover:
    def test_disjoint_partition_cover(self):
        frags = [
            Interval.closed(0, 10),
            Interval.open_closed(10, 20),
            Interval.open_closed(20, 30),
        ]
        cover = greedy_cover(Interval.closed(5, 25), IntervalIndex(frags))
        assert cover is not None
        assert [c.interval for c in cover] == frags
        assert cover[0].clip is None
        assert cover[1].clip == Interval(10, None, True, False)

    def test_single_fragment_suffices(self):
        frags = [Interval.closed(0, 30), Interval.closed(5, 10)]
        cover = greedy_cover(Interval.closed(6, 9), IntervalIndex(frags))
        assert cover is not None
        # greedy prefers the largest lower bound: the small hot fragment
        assert [c.interval for c in cover] == [Interval.closed(5, 10)]

    def test_overlapping_fragments_clipped(self):
        frags = [Interval.closed(0, 10), Interval.closed(8, 20)]
        cover = greedy_cover(Interval.closed(0, 15), IntervalIndex(frags))
        assert cover is not None
        assert [c.interval for c in cover] == frags
        # second fragment must exclude everything ≤ 10
        assert cover[1].clip == Interval(10, None, True, False)

    def test_gap_returns_none(self):
        frags = [Interval.closed(0, 10), Interval.closed(15, 30)]
        assert greedy_cover(Interval.closed(5, 20), IntervalIndex(frags)) is None

    def test_point_gap_returns_none(self):
        frags = [Interval.closed_open(0, 10), Interval.open_closed(10, 20)]
        assert greedy_cover(Interval.closed(5, 15), IntervalIndex(frags)) is None

    def test_open_theta_lower_bound(self):
        frags = [Interval.open_closed(10, 20)]
        assert greedy_cover(Interval.open_closed(10, 20), IntervalIndex(frags)) is not None
        assert greedy_cover(Interval.closed(10, 20), IntervalIndex(frags)) is None

    def test_covered_bytes(self):
        frags = [Interval.closed(0, 10), Interval.open_closed(10, 20)]
        cover = greedy_cover(Interval.closed(0, 20), IntervalIndex(frags))
        sizes = {frags[0]: 100.0, frags[1]: 50.0}
        assert covered_bytes(cover, sizes) == 150.0

    def test_prefers_fewer_wasted_bytes(self):
        """Greedy picks the fragment with the largest lower bound (least waste)."""
        frags = [Interval.closed(0, 100), Interval.closed(40, 60)]
        cover = greedy_cover(Interval.closed(50, 55), IntervalIndex(frags))
        assert [c.interval for c in cover] == [Interval.closed(40, 60)]
