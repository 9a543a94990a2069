"""Tests for the smaller core components: admission, tentative designs,
domain resolution, policies, reports, and the simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import RunResult
from repro.core.admission import AdmissionController
from repro.core.domains import DomainResolver
from repro.core.policies import Policy
from repro.core.reports import QueryReport
from repro.core.simulator import (
    RegressionFit,
    TemplateRegression,
    project_workload_time,
    selection_width,
)
from repro.core.tentative import TentativePartitions
from repro.engine.catalog import Catalog
from repro.engine.cost import CostLedger
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.errors import PartitionError, ReproError
from repro.partitioning.candidates import SplitCandidate
from repro.partitioning.intervals import Interval
from repro.query.algebra import Relation, Select
from repro.query.predicates import between
from repro.storage.pool import MaterializedViewPool


def _double_evaluating_plan_eviction(pool, value_fn, hysteresis, needed_bytes, candidate_value):
    """``plan_eviction`` before it valued each entry once — verbatim: the
    pool sorted through ``value_fn``, which the scan then calls again."""
    if pool.fits(needed_bytes):
        return []
    assert pool.smax_bytes is not None
    budget = pool.smax_bytes - pool.used_bytes
    threshold = candidate_value / hysteresis
    victims = []
    for entry in sorted(pool.all_entries(), key=value_fn):
        if budget + 1e-6 >= needed_bytes:
            break
        if value_fn(entry) >= threshold:
            break
        victims.append(entry)
        budget += entry.size_bytes
    if budget + 1e-6 >= needed_bytes:
        return victims
    return None


class TestPlanEvictionOracle:
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from([40.0, 80.0, 150.0]),
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 4.0]),
            ),
            min_size=0,
            max_size=8,
        ),
        slack=st.sampled_from([0.0, 10.0, 100.0]),
        needed=st.sampled_from([0.0, 10.0, 90.0, 200.0, 1000.0]),
        candidate=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 8.0]),
        hysteresis=st.sampled_from([1.0, 1.25, 2.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_victims_in_the_same_order(self, entries, slack, needed, candidate, hysteresis):
        # ties are everywhere (values repeat), a value can sit exactly on
        # the hysteresis threshold, and the pool can be empty or roomy
        pool = MaterializedViewPool(smax_bytes=sum(size for size, _ in entries) + slack)
        pool.define_view("v", Relation("t"))
        schema = Schema.of(Column("a"))
        values = {}
        for i, (size, value) in enumerate(entries):
            table = Table.from_dict(
                schema, {"a": np.arange(5)}, scale=size / (5 * schema.row_bytes)
            )
            entry = pool.add_fragment("v", "a", Interval.closed(i * 10, i * 10 + 5), table)
            values[entry.fragment_id] = value
        calls = []

        def value_fn(entry):
            calls.append(entry.fragment_id)
            return values[entry.fragment_id]

        got = AdmissionController(pool, value_fn, hysteresis).plan_eviction(needed, candidate)
        assert len(calls) == len(set(calls))  # each entry valued at most once
        expected = _double_evaluating_plan_eviction(
            pool, lambda e: values[e.fragment_id], hysteresis, needed, candidate
        )
        if expected is None:
            assert got is None
        else:
            assert [e.fragment_id for e in got] == [e.fragment_id for e in expected]


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------
class TestAdmission:
    def make_pool_with_entries(self, smax, sizes_values):
        """Pool with one fragment per (size, value); value_fn reads a dict."""
        pool = MaterializedViewPool(smax_bytes=smax)
        pool.define_view("v", Relation("t"))
        schema = Schema.of(Column("a"))
        values = {}
        for i, (size, value) in enumerate(sizes_values):
            nrows = max(int(size // schema.row_bytes), 1)
            table = Table.from_dict(
                schema, {"a": np.arange(nrows)}, scale=size / (nrows * schema.row_bytes)
            )
            entry = pool.add_fragment("v", "a", Interval.closed(i * 10, i * 10 + 5), table)
            values[entry.fragment_id] = value
        controller = AdmissionController(
            pool, lambda e: values.get(e.fragment_id, 0.0), hysteresis=1.0
        )
        return pool, controller, values

    def test_fits_without_eviction(self):
        pool, controller, _ = self.make_pool_with_entries(1000.0, [(100.0, 1.0)])
        assert controller.plan_eviction(100.0, candidate_value=0.1) == []

    def test_evicts_lowest_value_first(self):
        pool, controller, values = self.make_pool_with_entries(300.0, [(150.0, 1.0), (150.0, 5.0)])
        victims = controller.plan_eviction(150.0, candidate_value=10.0)
        assert victims is not None and len(victims) == 1
        assert values[victims[0].fragment_id] == 1.0

    def test_refuses_when_only_better_entries_resident(self):
        _, controller, _ = self.make_pool_with_entries(300.0, [(150.0, 5.0), (150.0, 6.0)])
        assert controller.plan_eviction(150.0, candidate_value=1.0) is None

    def test_hysteresis_protects_near_equals(self):
        pool = MaterializedViewPool(smax_bytes=300.0)
        pool.define_view("v", Relation("t"))
        schema = Schema.of(Column("a"))
        table = Table.from_dict(schema, {"a": np.arange(10)}, scale=150.0 / 80)
        pool.add_fragment("v", "a", Interval.closed(0, 5), table)
        pool.add_fragment("v", "a", Interval.closed(10, 15), table)
        controller = AdmissionController(pool, lambda e: 1.0, hysteresis=2.0)
        # candidate at 1.5x resident value: below the 2x hysteresis bar
        assert controller.plan_eviction(150.0, candidate_value=1.5) is None
        # at 3x it clears the bar
        assert controller.plan_eviction(150.0, candidate_value=3.0) is not None

    def test_admit_whole_view_roundtrip(self):
        pool = MaterializedViewPool(smax_bytes=1000.0)
        pool.define_view("w", Relation("t"))
        schema = Schema.of(Column("a"))
        table = Table.from_dict(schema, {"a": [1, 2]}, scale=10.0)
        controller = AdmissionController(pool, lambda e: 0.0)
        result = controller.admit_whole_view("w", table, candidate_value=1.0)
        assert result.admitted and result.evicted == []
        assert pool.whole_view_entry("w") is not None

    def test_impossible_admission_leaves_pool_untouched(self):
        pool, controller, _ = self.make_pool_with_entries(300.0, [(150.0, 5.0)])
        before = pool.used_bytes
        schema = Schema.of(Column("a"))
        huge = Table.from_dict(schema, {"a": np.arange(10)}, scale=1e6)
        result = controller.admit_fragment(
            "v", "a", Interval.closed(90, 95), huge, candidate_value=0.1
        )
        assert not result.admitted
        assert pool.used_bytes == before


# ----------------------------------------------------------------------
# TentativePartitions
# ----------------------------------------------------------------------
class TestTentative:
    DOMAIN = Interval.closed(0, 100)

    def test_ensure_seeds_trivial_design(self):
        tp = TentativePartitions()
        design = tp.ensure("v", "a", self.DOMAIN)
        assert list(design.intervals) == [self.DOMAIN]
        assert tp.attrs_of("v") == ("a",)

    def test_ensure_idempotent(self):
        tp = TentativePartitions()
        tp.ensure("v", "a", self.DOMAIN)
        left, right = self.DOMAIN.split_before(50)
        tp.apply_split("v", "a", SplitCandidate(self.DOMAIN, (left, right)))
        again = tp.ensure("v", "a", self.DOMAIN)
        assert len(again) == 2  # does not reset

    def test_apply_split_replaces_parent(self):
        tp = TentativePartitions()
        tp.ensure("v", "a", self.DOMAIN)
        left, right = self.DOMAIN.split_before(30)
        tp.apply_split("v", "a", SplitCandidate(self.DOMAIN, (left, right)))
        assert self.DOMAIN not in tp.intervals("v", "a")
        assert left in tp.intervals("v", "a")

    def test_apply_split_unknown_design_raises(self):
        tp = TentativePartitions()
        with pytest.raises(PartitionError):
            tp.apply_split(
                "ghost", "a", SplitCandidate(self.DOMAIN, (self.DOMAIN,))
            )

    def test_add_overlapping_keeps_design_covering(self):
        tp = TentativePartitions()
        tp.ensure("v", "a", self.DOMAIN)
        tp.add_overlapping("v", "a", Interval.closed(20, 30))
        design = tp.get("v", "a")
        assert design.is_overlapping_partitioning()
        assert not design.is_disjoint()

    def test_add_overlapping_duplicate_noop(self):
        tp = TentativePartitions()
        tp.ensure("v", "a", self.DOMAIN)
        tp.add_overlapping("v", "a", Interval.closed(20, 30))
        tp.add_overlapping("v", "a", Interval.closed(20, 30))
        assert len(tp.get("v", "a")) == 2


# ----------------------------------------------------------------------
# DomainResolver
# ----------------------------------------------------------------------
class TestDomainResolver:
    def test_declared_domain_wins(self):
        catalog = Catalog()
        resolver = DomainResolver(catalog, {"x": Interval.closed(0, 9)})
        assert resolver("x") == Interval.closed(0, 9)

    def test_derived_from_data(self):
        catalog = Catalog()
        schema = Schema.of(Column("a"))
        catalog.register("t", Table.from_dict(schema, {"a": [3, 7, 5]}))
        resolver = DomainResolver(catalog)
        assert resolver("a") == Interval.closed(3, 7)

    def test_unknown_attr_is_none_and_cached(self):
        catalog = Catalog()
        resolver = DomainResolver(catalog)
        assert resolver("nope") is None
        assert resolver("nope") is None  # cached path

    def test_non_numeric_column_none(self):
        catalog = Catalog()
        schema = Schema.of(Column("s", ColumnKind.STRING))
        catalog.register("t", Table.from_dict(schema, {"s": ["a", "b"]}))
        resolver = DomainResolver(catalog)
        assert resolver("s") is None

    def test_declare_overrides_later(self):
        catalog = Catalog()
        resolver = DomainResolver(catalog)
        resolver.declare("y", Interval.closed(0, 1))
        assert resolver("y") == Interval.closed(0, 1)


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
class TestPolicy:
    def test_defaults_valid(self):
        policy = Policy()
        assert policy.partitioning == "adaptive"
        assert policy.smoothing_enabled

    def test_invalid_partitioning(self):
        with pytest.raises(ReproError):
            Policy(partitioning="vertical")

    def test_invalid_value_model(self):
        with pytest.raises(ReproError):
            Policy(value_model="lru")

    def test_negative_evidence(self):
        with pytest.raises(ReproError):
            Policy(evidence_factor=-1)

    def test_nectar_forces_no_decay(self):
        from repro.costmodel.decay import NoDecay

        assert isinstance(Policy(value_model="nectar").effective_decay, NoDecay)
        assert isinstance(Policy(value_model="nectar+").effective_decay, NoDecay)

    def test_smoothing_disabled_for_nectar(self):
        assert not Policy(value_model="nectar", use_mle=True).smoothing_enabled


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReports:
    def make_report(self, i, exec_s=10.0, create_s=2.0, view=None):
        el, cl = CostLedger(), CostLedger()
        el.read_s = exec_s
        cl.write_s = create_s
        schema = Schema.of(Column("a"))
        return QueryReport(
            index=i,
            plan=Relation("t"),
            result=Table.empty(schema),
            execution_ledger=el,
            creation_ledger=cl,
            view_used=view,
        )

    def test_total_is_exec_plus_creation(self):
        r = self.make_report(1)
        assert r.total_s == pytest.approx(12.0)

    def test_summary_aggregates(self):
        summary = RunResult("DS", [self.make_report(1), self.make_report(2, view="v")])
        assert summary.total_s == pytest.approx(24.0)
        assert summary.execution_s == pytest.approx(20.0)
        assert summary.creation_s == pytest.approx(4.0)
        assert summary.reuse_count == 1
        assert summary.cumulative_s == [pytest.approx(12.0), pytest.approx(24.0)]


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
class TestSimulator:
    def test_regression_needs_min_samples(self):
        reg = TemplateRegression(min_samples=3)
        reg.observe("q", 10.0, 100.0)
        reg.observe("q", 20.0, 200.0)
        assert reg.predict("q", 15.0) is None
        reg.observe("q", 30.0, 300.0)
        assert reg.predict("q", 15.0) == pytest.approx(150.0)

    def test_regression_constant_widths(self):
        reg = TemplateRegression(min_samples=2)
        reg.observe("q", 10.0, 50.0)
        reg.observe("q", 10.0, 70.0)
        fit = reg.fit("q")
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(60.0)

    def test_prediction_clamped_nonnegative(self):
        fit = RegressionFit(intercept=-5.0, slope=0.0, n_samples=3)
        assert fit.predict(100.0) == 0.0

    def test_selection_width(self):
        plan = Select(Relation("t"), (between("a", 10, 30),))
        assert selection_width(plan) == pytest.approx(20.0)

    def test_selection_width_unbounded_ignored(self):
        from repro.query.predicates import at_least

        plan = Select(Relation("t"), (at_least("a", 10),))
        assert selection_width(plan) == 0.0

    def test_project_workload_time_prefix(self):
        assert project_workload_time([5.0, 1.0, 1.0], 2) == pytest.approx(6.0)

    def test_project_workload_time_extension(self):
        total = project_workload_time([10.0, 2.0, 2.0], 10)
        assert total == pytest.approx(14.0 + 2.0 * 7)

    def test_project_with_steady_override(self):
        total = project_workload_time([10.0, 8.0], 4, steady=[1.0])
        assert total == pytest.approx(18.0 + 2.0)

    def test_project_empty_raises(self):
        with pytest.raises(ReproError):
            project_workload_time([], 5)

    def test_workload_simulator_switches_to_prediction(self, catalog):
        from repro.baselines import deepsea
        from repro.core.simulator import WorkloadSimulator
        from repro.query.algebra import Aggregate, AggSpec, Join

        def template(lo, hi):
            return Aggregate(
                Select(
                    Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk"),
                    (between("i_item_sk", lo, hi),),
                ),
                ("i_category",),
                (AggSpec("count", None, "n"),),
            )

        system = deepsea(catalog, evidence_factor=0.0)
        simulator = WorkloadSimulator(system, min_samples=3)
        for i in range(10):
            simulator.run("q", template(10, 30))
        assert simulator.predicted_count > 0
        assert simulator.measured_count + simulator.predicted_count == 10
