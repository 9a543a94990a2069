"""Tests for plan analysis, signatures, pushdown, subqueries, and the builder."""

import pytest

from repro import caches
from repro.errors import PlanError
from repro.partitioning.intervals import Interval
from repro.query.algebra import (
    Aggregate,
    AggSpec,
    Join,
    MaterializedScan,
    Project,
    Relation,
    Select,
    base_relations,
    count_jobs,
    replace_subplan,
    walk,
)
from repro.query.analysis import (
    class_members,
    class_representative,
    collect_ranges,
    join_equivalence_classes,
    output_columns,
)
from repro.query.builder import Q
from repro.query.optimizer import push_down
from repro.query.predicates import between
from repro.query.signature import compute_signature, view_id_for
from repro.query.subqueries import view_candidate_subplans

SCHEMAS = {
    "sales": ("s_id", "s_item_sk", "s_qty", "s_price"),
    "item": ("i_item_sk", "i_category"),
    "web": ("w_id", "w_item_sk"),
}


def join_plan():
    return Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk")


def selected_join(lo=10, hi=20):
    return Select(join_plan(), (between("i_item_sk", lo, hi),))


class TestAlgebraUtilities:
    def test_walk_order(self):
        plan = selected_join()
        kinds = [type(n).__name__ for n in walk(plan)]
        assert kinds == ["Select", "Join", "Relation", "Relation"]

    def test_base_relations_sorted_multiset(self):
        plan = Join(join_plan(), Relation("web"), "s_item_sk", "w_item_sk")
        assert base_relations(plan) == ("item", "sales", "web")

    def test_count_jobs(self):
        assert count_jobs(Relation("sales")) == 1
        assert count_jobs(join_plan()) == 1
        plan = Aggregate(join_plan(), ("i_category",), (AggSpec("count", None, "n"),))
        assert count_jobs(plan) == 2

    def test_replace_subplan(self):
        plan = selected_join()
        replacement = MaterializedScan("v1")
        out = replace_subplan(plan, join_plan(), replacement)
        assert isinstance(out, Select)
        assert out.child == replacement

    def test_replace_subplan_no_match_identity(self):
        plan = selected_join()
        out = replace_subplan(plan, Relation("ghost"), MaterializedScan("v"))
        assert out == plan


class TestOutputColumns:
    def test_relation(self):
        assert output_columns(Relation("item"), SCHEMAS) == ("i_item_sk", "i_category")

    def test_join_concatenates(self):
        cols = output_columns(join_plan(), SCHEMAS)
        assert cols == ("s_id", "s_item_sk", "s_qty", "s_price", "i_item_sk", "i_category")

    def test_same_name_join_key_dropped(self):
        plan = Join(Relation("sales"), Relation("item"), "s_item_sk", "s_item_sk")
        # hypothetical same-name key: right copy dropped
        schemas = {"sales": ("s_item_sk", "a"), "item": ("s_item_sk", "b")}
        assert output_columns(plan, schemas) == ("s_item_sk", "a", "b")

    def test_aggregate(self):
        plan = Aggregate(join_plan(), ("i_category",), (AggSpec("sum", "s_qty", "total"),))
        assert output_columns(plan, SCHEMAS) == ("i_category", "total")

    def test_project(self):
        plan = Project(Relation("item"), ("i_category",))
        assert output_columns(plan, SCHEMAS) == ("i_category",)

    def test_unknown_relation(self):
        with pytest.raises(PlanError):
            output_columns(Relation("nope"), SCHEMAS)


class TestRangesAndClasses:
    def test_collect_ranges_intersects(self):
        plan = Select(
            Select(Relation("sales"), (between("s_item_sk", 0, 50),)),
            (between("s_item_sk", 10, 99),),
        )
        ranges = collect_ranges(plan)
        assert ranges["s_item_sk"] == Interval.closed(10, 50)

    def test_join_classes_transitive(self):
        plan = Join(join_plan(), Relation("web"), "i_item_sk", "w_item_sk")
        classes = join_equivalence_classes(plan)
        assert classes == frozenset({frozenset({"s_item_sk", "i_item_sk", "w_item_sk"})})

    def test_representative_is_sorted_first(self):
        classes = join_equivalence_classes(join_plan())
        assert class_representative("s_item_sk", classes) == "i_item_sk"
        assert class_representative("unrelated", classes) == "unrelated"

    def test_class_members_singleton(self):
        assert class_members("x", frozenset()) == frozenset({"x"})


class TestSignature:
    def test_join_order_invariance(self):
        a = Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk")
        b = Join(Relation("item"), Relation("sales"), "i_item_sk", "s_item_sk")
        sig_a = compute_signature(Select(a, (between("i_item_sk", 0, 9),)), SCHEMAS)
        sig_b = compute_signature(Select(b, (between("i_item_sk", 0, 9),)), SCHEMAS)
        assert sig_a.relations == sig_b.relations
        assert sig_a.join_classes == sig_b.join_classes
        assert sig_a.ranges == sig_b.ranges
        assert sig_a.agg_key == sig_b.agg_key

    def test_ranges_normalized_to_representative(self):
        # selection on s_item_sk and on i_item_sk produce the same range entry
        sig_s = compute_signature(
            Select(join_plan(), (between("s_item_sk", 5, 9),)), SCHEMAS
        )
        sig_i = compute_signature(
            Select(join_plan(), (between("i_item_sk", 5, 9),)), SCHEMAS
        )
        assert sig_s.ranges == sig_i.ranges

    def test_aggregate_shape_recorded(self):
        plan = Aggregate(join_plan(), ("i_category",), (AggSpec("sum", "s_qty", "t"),))
        sig = compute_signature(plan, SCHEMAS)
        assert sig.group_by == ("i_category",)
        assert sig.agg_key != ("none",)

    def test_materialized_scan_rejected(self):
        with pytest.raises(PlanError):
            compute_signature(MaterializedScan("v"), SCHEMAS)

    def test_two_aggregates_rejected(self):
        inner = Aggregate(Relation("sales"), ("s_id",), (AggSpec("count", None, "n"),))
        outer = Aggregate(inner, (), (AggSpec("sum", "n", "total"),))
        with pytest.raises(PlanError):
            compute_signature(outer, SCHEMAS)

    def test_view_id_deterministic_and_distinct(self):
        assert view_id_for(join_plan()) == view_id_for(join_plan())
        assert view_id_for(join_plan()) != view_id_for(Relation("sales"))

    def test_memo_counts_its_own_hits_and_misses(self):
        caches.clear_all_caches()
        plan = selected_join()
        compute_signature(plan, SCHEMAS)
        first = caches.cache_stats()["query.signature"]
        compute_signature(plan, SCHEMAS)
        again = caches.cache_stats()["query.signature"]
        assert first["misses"] == 1
        assert again["hits"] == first["hits"] + 1
        assert again["misses"] == first["misses"]


class TestPushDown:
    def test_selection_pushed_below_join(self):
        plan = selected_join()
        pushed = push_down(plan, SCHEMAS)
        # the selection should now sit on the item side, under the join
        assert isinstance(pushed, Join)
        assert isinstance(pushed.right, Select)
        assert pushed.right.predicates[0].attr == "i_item_sk"

    def test_pushdown_preserves_signature(self):
        plan = selected_join()
        pushed = push_down(plan, SCHEMAS)
        assert compute_signature(plan, SCHEMAS) == compute_signature(pushed, SCHEMAS)

    def test_selection_pushed_below_groupby(self):
        plan = Select(
            Aggregate(join_plan(), ("i_item_sk",), (AggSpec("count", None, "n"),)),
            (between("i_item_sk", 0, 5),),
        )
        pushed = push_down(plan, SCHEMAS)
        assert isinstance(pushed, Aggregate)

    def test_selection_on_agg_alias_stays(self):
        plan = Select(
            Aggregate(join_plan(), ("i_item_sk",), (AggSpec("count", None, "n"),)),
            (between("n", 0, 5),),
        )
        pushed = push_down(plan, SCHEMAS)
        assert isinstance(pushed, Select)  # cannot push below the aggregate

    def test_multi_predicate_split(self):
        plan = Select(
            join_plan(),
            (between("i_item_sk", 0, 5), between("s_qty", 1, 2)),
        )
        pushed = push_down(plan, SCHEMAS)
        assert isinstance(pushed, Join)
        assert isinstance(pushed.left, Select) and isinstance(pushed.right, Select)

    def test_fixpoint_idempotent(self):
        plan = selected_join()
        once = push_down(plan, SCHEMAS)
        twice = push_down(once, SCHEMAS)
        assert once == twice


class TestSubqueries:
    def test_candidates_shapes(self):
        plan = Aggregate(
            Select(join_plan(), (between("i_item_sk", 0, 5),)),
            ("i_category",),
            (AggSpec("count", None, "n"),),
        )
        cands = view_candidate_subplans(plan)
        assert plan in cands          # the aggregate
        assert join_plan() in cands   # the join
        assert all(not isinstance(c, (Select, Relation)) for c in cands)

    def test_materialized_scan_subtrees_excluded(self):
        plan = Join(MaterializedScan("v"), Relation("item"), "x", "i_item_sk")
        assert view_candidate_subplans(plan) == []


class TestBuilder:
    def test_full_pipeline(self):
        plan = (
            Q("sales")
            .join("item", on=("s_item_sk", "i_item_sk"))
            .where_between("i_item_sk", 1, 2)
            .group_by("i_category", agg=[("sum", "s_qty", "total")])
            .plan
        )
        assert isinstance(plan, Aggregate)
        assert isinstance(plan.child, Select)
        assert isinstance(plan.child.child, Join)

    def test_builder_composition(self):
        sub = Q("sales").where_eq("s_id", 5)
        plan = Q("item").join(sub, on=("i_item_sk", "s_item_sk")).plan
        assert isinstance(plan.right, Select)

    def test_where_variants(self):
        p1 = Q("item").where_at_least("i_item_sk", 5).plan
        p2 = Q("item").where_at_most("i_item_sk", 5).plan
        assert p1.predicates[0].interval == Interval.at_least(5)
        assert p2.predicates[0].interval == Interval.at_most(5)

    def test_global_aggregate(self):
        plan = Q("sales").aggregate([("count", None, "n")]).plan
        assert plan.group_by == ()
