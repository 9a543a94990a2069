"""Incremental ingest: catalog appends, delta maintenance, upkeep, serving.

The contract under test (DESIGN.md §16): a micro-batch append brings
every resident materialized view back in sync — delta-patched fragments
byte-identical to a from-scratch recompute over the grown base table —
without ever changing an answer, while charging all upkeep to
``CostLedger.maint_s``; a crash mid-batch rolls the catalog, the pool,
and the cover versions back exactly, stranding the aborted catalog
version forever.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.deepsea import DeepSea
from repro.engine.catalog import Catalog
from repro.engine.cost import CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.errors import CatalogError
from repro.partitioning.intervals import Interval
from repro.query.algebra import Join, Project, Relation
from repro.query.builder import Q
from repro.storage.ingest import delta_source
from repro.workloads.bigbench import TEMPLATES

DOMAIN = Interval.closed(0, 1000)
SCHEMA = Schema.of(Column("id"), Column("k"), Column("v", ColumnKind.FLOAT64))


def make_table(n=4000, seed=1, scale=1000.0):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        SCHEMA,
        {"id": np.arange(n), "k": rng.integers(0, 1001, n), "v": rng.random(n)},
        scale=scale,
    )


def make_system(n=4000, seed=1, smax=1e12):
    catalog = Catalog()
    catalog.register("t", make_table(n, seed))
    return DeepSea(catalog, smax_bytes=smax, domains={"k": DOMAIN})


def plan(lo, hi):
    return Q("t").select("id", "k", "v").where_between("k", lo, hi).plan


DIM_SCHEMA = Schema.of(Column("dk"), Column("cat", ColumnKind.STRING))


def make_join_system(n=3000, seed=1):
    """``t`` plus a dimension ``d`` covering every other key, so the
    resident views are ``t ⋈ d`` joins with ``t`` on the probe side."""
    catalog = Catalog()
    catalog.register("t", make_table(n, seed))
    dim = {"dk": np.arange(0, 1001, 2), "cat": [f"c{i % 7}" for i in range(501)]}
    catalog.register("d", Table.from_dict(DIM_SCHEMA, dim, scale=1000.0))
    return DeepSea(catalog, smax_bytes=1e12, domains={"k": DOMAIN})


def join_plan(lo, hi):
    return (
        Q("t")
        .join("d", on=("k", "dk"))
        .select("id", "k", "v", "cat")
        .where_between("k", lo, hi)
        .plan
    )


def warm_joins(system, queries=8):
    for i in range(queries):
        system.execute(join_plan(10 + 7 * i, 500 + 3 * i))
    plans = [system.pool.definition(v).plan for v in system.pool.resident_view_ids()]
    assert any(isinstance(p.child, Join) for p in plans if isinstance(p, Project)), (
        "fixture failed to materialize a join view"
    )


def batch_rows(rng, n, lo=0, hi=1000, id0=100_000):
    return {
        "id": np.arange(id0, id0 + n),
        "k": rng.integers(lo, hi + 1, n),
        "v": rng.random(n),
    }


def warm(system, queries=10):
    for i in range(queries):
        system.execute(plan(10 + 7 * i, 500 + 3 * i))
    assert system.pool.resident_view_ids(), "fixture failed to materialize a view"


def recompute(p, catalog, cluster):
    return Executor(ExecutionContext(catalog, None, cluster)).execute(
        p, None, use_cache=False
    ).table


def assert_tables_equal(a: Table, b: Table):
    assert a.schema.names == b.schema.names
    assert a.nrows == b.nrows
    for name in a.schema.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def assert_pool_identity(system):
    """Every resident payload equals its slice of a fresh recompute."""
    pool = system.pool
    for view_id in pool.resident_view_ids():
        expected = recompute(pool.definition(view_id).plan, system.catalog, system.cluster)
        whole = pool.whole_view_entry(view_id)
        if whole is not None:
            assert_tables_equal(pool.hdfs.peek(whole.path), expected)
        for attr in pool.partition_attrs(view_id):
            for entry in pool.fragments_of(view_id, attr):
                want = expected.filter(entry.key.interval.mask(expected.column(attr)))
                assert_tables_equal(pool.hdfs.peek(entry.path), want)


class TestCatalogIngest:
    def test_append_bumps_version_and_grows_table(self):
        catalog = Catalog()
        catalog.register("t", make_table(100))
        v0 = catalog.version
        batch = catalog.ingest("t", batch_rows(np.random.default_rng(0), 7))
        assert batch.nrows == 7
        assert catalog.get("t").nrows == 107
        assert catalog.version == v0 + 1

    def test_append_is_copy_on_write(self):
        catalog = Catalog()
        catalog.register("t", make_table(50))
        before = catalog.get("t")
        catalog.ingest("t", batch_rows(np.random.default_rng(0), 5))
        assert before.nrows == 50  # old readers keep their rows

    def test_batch_inherits_base_scale(self):
        catalog = Catalog()
        catalog.register("t", make_table(50, scale=1000.0))
        batch = catalog.ingest("t", batch_rows(np.random.default_rng(0), 5))
        assert batch.scale == 1000.0
        assert catalog.get("t").scale == 1000.0

    def test_schema_mismatch_rejected(self):
        catalog = Catalog()
        catalog.register("t", make_table(10))
        other = Table.from_dict(Schema.of(Column("x")), {"x": np.arange(3)})
        with pytest.raises(CatalogError):
            catalog.ingest("t", other)

    def test_rollback_restores_version_but_strands_counter(self):
        catalog = Catalog()
        catalog.register("t", make_table(10))
        base, v0 = catalog.get("t"), catalog.version
        catalog.ingest("t", batch_rows(np.random.default_rng(0), 3))
        catalog.rollback_ingest("t", base, v0)
        assert catalog.version == v0
        assert catalog.get("t") is base
        catalog.ingest("t", batch_rows(np.random.default_rng(0), 3))
        # The aborted transaction's version (v0 + 1) is never re-issued.
        assert catalog.version == v0 + 2

    def test_two_forks_growing_one_table_never_see_each_other(self):
        catalog = Catalog()
        catalog.register("t", make_table(100))
        catalog.ingest("t", batch_rows(np.random.default_rng(0), 10))  # buffered parent
        left, right = catalog.fork(), catalog.fork()
        assert left.get("t") is right.get("t")
        rng = np.random.default_rng(1)
        for step in range(3):
            left.ingest("t", batch_rows(rng, 5, id0=1_000 + 10 * step))
            right.ingest("t", batch_rows(rng, 7, id0=2_000 + 10 * step))
        assert catalog.get("t").nrows == 110
        left_ids, right_ids = left.get("t").column("id"), right.get("t").column("id")
        np.testing.assert_array_equal(left_ids[:110], catalog.get("t").column("id"))
        np.testing.assert_array_equal(right_ids[:110], catalog.get("t").column("id"))
        assert set(left_ids[110:]) == {1_000 + 10 * s + i for s in range(3) for i in range(5)}
        assert set(right_ids[110:]) == {2_000 + 10 * s + i for s in range(3) for i in range(7)}

    def test_fork_is_independent(self):
        catalog = Catalog()
        catalog.register("t", make_table(10))
        fork = catalog.fork()
        assert fork.uid != catalog.uid
        fork.ingest("t", batch_rows(np.random.default_rng(0), 4))
        assert fork.get("t").nrows == 14
        assert catalog.get("t").nrows == 10
        assert catalog.version != fork.version


class TestDeltaSource:
    FACT_DIM = Join(Relation("fact"), Relation("dim"), "fk", "dk")

    def test_select_project_chain_is_delta_able(self):
        assert delta_source(plan(10, 20)) == "t"

    def test_join_template_takes_rebuild_path(self):
        # Still None, but only because q01 aggregates above its join.
        assert delta_source(TEMPLATES["q01"](0, 100)) is None

    def test_probe_side_of_a_join_is_delta_able(self):
        assert delta_source(Project(self.FACT_DIM, ("fk",))) == "fact"
        assert delta_source(join_plan(10, 20)) == "t"

    def test_probe_spine_runs_through_nested_joins(self):
        nested = Q(self.FACT_DIM).join("other", on=("fk", "ok")).where_between("fk", 0, 9)
        assert delta_source(nested.plan) == "fact"

    def test_build_side_ingest_is_not_delta_able(self):
        # Only the probe relation is ever named: ingest into ``fact`` here
        # (it sits on the build side) compares unequal and rebuilds.
        assert delta_source(Join(Relation("dim"), Relation("fact"), "dk", "fk")) == "dim"

    def test_self_join_is_not_delta_able(self):
        assert delta_source(Join(Relation("fact"), Relation("fact"), "fk", "fk")) is None

    def test_relation_appearing_twice_is_not_delta_able(self):
        twice = Q(self.FACT_DIM).join(Q("fact").select("other_fk"), on=("fk", "other_fk"))
        assert delta_source(twice.plan) is None

    def test_aggregate_above_a_join_is_not_delta_able(self):
        agg = Q(self.FACT_DIM).group_by("fk", agg=[("count", None, "n")])
        assert delta_source(agg.plan) is None
        assert delta_source(agg.select("fk", "n").where_between("fk", 0, 9).plan) is None

    def test_aggregate_on_the_build_side_only_is_delta_able(self):
        totals = Q("dim").group_by("dk", agg=[("count", None, "n")])
        assert delta_source(Q("fact").join(totals, on=("fk", "dk")).plan) == "fact"


class TestDeltaMaintenance:
    def test_patched_fragments_equal_recompute(self):
        system = make_system()
        warm(system)
        report = system.ingest("t", batch_rows(np.random.default_rng(7), 200))
        assert report.fragments_patched >= 1
        assert report.fragments_rebuilt == 0
        assert report.maint_s > 0.0
        assert report.ledger.delta_rows_routed == 200
        assert_pool_identity(system)

    def test_answers_match_direct_evaluation_after_ingest(self):
        system = make_system()
        warm(system)
        system.ingest("t", batch_rows(np.random.default_rng(7), 200))
        p = plan(100, 600)
        answer = system.execute(p).result
        truth = recompute(p, system.catalog, system.cluster)
        order = np.lexsort((answer.column("k"), answer.column("id")))
        torder = np.lexsort((truth.column("k"), truth.column("id")))
        for name in truth.schema.names:
            np.testing.assert_array_equal(
                answer.column(name)[order], truth.column(name)[torder]
            )

    def test_force_rebuild_produces_identical_payloads(self):
        rows = batch_rows(np.random.default_rng(7), 200)
        delta_sys = make_system()
        warm(delta_sys)
        delta_sys.ingest("t", dict(rows))
        rebuild_sys = make_system()
        warm(rebuild_sys)
        rebuild_sys.maintenance.force_rebuild = True
        rebuild_report = rebuild_sys.ingest("t", dict(rows))
        assert rebuild_report.fragments_rebuilt >= 1
        assert rebuild_report.fragments_patched == 0
        assert_pool_identity(rebuild_sys)
        a = sorted(delta_sys.pool.configuration().items())
        b = sorted(rebuild_sys.pool.configuration().items())
        assert a == b

    def test_maintenance_cost_folds_into_next_query_ledger(self):
        system = make_system()
        warm(system)
        report = system.ingest("t", batch_rows(np.random.default_rng(7), 100))
        next_report = system.execute(plan(100, 600))
        assert next_report.creation_ledger.maint_s == pytest.approx(report.maint_s)
        assert (
            next_report.creation_ledger.fragments_patched == report.fragments_patched
        )
        after = system.execute(plan(100, 600))
        assert after.creation_ledger.maint_s == 0.0  # folded exactly once

    def test_back_to_back_batches_do_not_inflate_the_first_report(self):
        """Regression: the pending-maintenance accumulator used to *be*
        the first report's ledger, so a second batch before the next
        query was merged into the first batch's numbers."""
        system = make_system()
        warm(system)
        rng = np.random.default_rng(7)
        first = system.ingest("t", batch_rows(rng, 100))
        first_maint, first_patched = first.maint_s, first.fragments_patched
        second = system.ingest("t", batch_rows(rng, 100, id0=200_000))
        assert first.maint_s == first_maint
        assert first.fragments_patched == first_patched
        assert second.ledger is not first.ledger
        # The next query still pays for both, exactly once.
        folded = system.execute(plan(100, 600)).creation_ledger
        assert folded.maint_s == pytest.approx(first.maint_s + second.maint_s)
        assert folded.fragments_patched == first.fragments_patched + second.fragments_patched
        assert [r.maint_s for r in system.maintenance.reports] == [first_maint, second.maint_s]

    def test_probe_side_join_views_are_patched_not_rebuilt(self):
        system = make_join_system()
        warm_joins(system)
        report = system.ingest("t", batch_rows(np.random.default_rng(7), 200))
        assert report.views_delta and not report.views_rebuilt
        assert report.fragments_patched >= 1 and report.fragments_rebuilt == 0
        assert_pool_identity(system)

    def test_build_side_ingest_rebuilds_join_views(self):
        system = make_join_system()
        warm_joins(system)
        # New dimension rows give *old* fact rows new matches: no delta.
        report = system.ingest("d", {"dk": np.arange(1, 200, 2), "cat": ["fresh"] * 100})
        assert report.views_rebuilt and not report.views_delta
        assert report.fragments_rebuilt >= 1
        assert_pool_identity(system)

    def test_patched_payloads_share_storage_across_batches(self):
        system = make_system()
        warm(system)
        rng = np.random.default_rng(3)
        system.ingest("t", batch_rows(rng, 300))  # first patch: fresh buffers
        pool = system.pool
        before = {e.key: pool.hdfs.peek(e.path) for e in pool.all_entries()}
        system.ingest("t", batch_rows(rng, 300, id0=200_000))
        shared = 0
        for entry in pool.all_entries():
            old, new = before[entry.key], pool.hdfs.peek(entry.path)
            if new is not old:
                shared += np.shares_memory(old.column("id"), new.column("id"))
        assert shared >= 1  # appended in place, not copied
        assert_pool_identity(system)

    def test_oversized_patch_evicts_instead_of_overflowing(self):
        system = make_system()
        warm(system)
        used = system.pool.used_bytes
        system.smax_bytes = system.pool.smax_bytes = used + 1.0  # no headroom
        report = system.ingest("t", batch_rows(np.random.default_rng(7), 500))
        assert report.fragments_dropped >= 1
        assert system.pool.used_bytes <= used + 1.0
        assert_pool_identity(system)  # survivors still exact


class TestCrashRollback:
    def test_mid_maintenance_crash_rolls_everything_back(self):
        system = make_system()
        warm(system)
        catalog = system.catalog
        pre_version = catalog.version
        pre_rows = catalog.get("t").nrows
        pre_config = repr(system.pool.configuration())
        pre_covers = system.pool.cover_versions_snapshot()

        original = system.maintenance._patch
        system.maintenance._patch = lambda entry, payload: (_ for _ in ()).throw(
            RuntimeError("simulated crash mid-maintenance")
        )
        with pytest.raises(RuntimeError):
            system.ingest("t", batch_rows(np.random.default_rng(7), 100))
        assert catalog.version == pre_version
        assert catalog.get("t").nrows == pre_rows
        assert repr(system.pool.configuration()) == pre_config
        assert system.pool.cover_versions_snapshot() == pre_covers
        assert not system.pool.journal.journaling

        system.maintenance._patch = original
        report = system.ingest("t", batch_rows(np.random.default_rng(7), 100))
        # The aborted attempt's version is stranded, never re-issued.
        assert catalog.version == pre_version + 2
        assert report.fragments_patched >= 1
        assert_pool_identity(system)

    def test_result_cached_under_the_aborted_version_is_never_served(self):
        system = make_system()
        warm(system)
        catalog = system.catalog
        everything = plan(0, 1000)

        def answer_rows():
            context = ExecutionContext(catalog, None, system.cluster)
            return Executor(context).execute(everything).table.nrows

        pre_rows = answer_rows()
        seen = {}

        def crash(entry, payload):
            # Lands in the result cache keyed on the mid-ingest version.
            seen["mid"] = answer_rows()
            raise RuntimeError("simulated crash mid-maintenance")

        original = system.maintenance._patch
        system.maintenance._patch = crash
        with pytest.raises(RuntimeError):
            system.ingest("t", batch_rows(np.random.default_rng(7), 100))
        assert seen["mid"] == pre_rows + 100
        assert answer_rows() == pre_rows  # restored version: the pre-batch entry

        system.maintenance._patch = original
        system.ingest("t", batch_rows(np.random.default_rng(8), 40))
        assert answer_rows() == pre_rows + 40  # a fresh version, not the aborted one

    def test_injected_crash_then_retry_restores_exactly_and_appends_again(self):
        """A controller crash mid-ingest rolls catalog and pool back to the
        very objects they held, and the retry — whose base-table and
        payload appends can no longer go in place, the aborted attempt
        having taken the buffers' tips — still lands byte-identical."""
        rng = np.random.default_rng(11)
        system = make_join_system()
        warm_joins(system)
        system.ingest("t", batch_rows(rng, 150))  # give every target a tail buffer
        pool, catalog = system.pool, system.catalog
        pre_table, pre_version = catalog.get("t"), catalog.version
        pre_rows = [np.array(pre_table.column(n)) for n in pre_table.schema.names]
        pre_payloads = {e.key: pool.hdfs.peek(e.path) for e in pool.all_entries()}
        pre_config = repr(pool.configuration())

        class CrashOnce:
            """Stands in for a FaultInjector: the first ingest step dies."""

            fired = False

            def controller_crash(self, site):
                crash, self.fired = not self.fired, True
                return crash

            def record_recovery(self, site, note):
                self.recovered = (site, note)

        crash = CrashOnce()
        real_patch = system.maintenance._patch
        seen = {}

        def patch_then_maybe_crash(entry, payload):
            dropped = real_patch(entry, payload)
            if not crash.fired:
                # What the aborted attempt had done by the time it died.
                seen["table"] = catalog.get("t")
                seen["payload"] = payload
            system.repartitioner.maybe_crash("ingest")
            return dropped

        system.faults = crash
        system.maintenance._patch = patch_then_maybe_crash
        try:
            report = system.ingest("t", batch_rows(rng, 120, id0=300_000))
        finally:
            system.faults = None
            system.maintenance._patch = real_patch

        assert crash.recovered[0] == "ingest"
        # the replayed batch is observed once: two batches, not three
        assert system.maintenance._observed["t"][:2] == [150.0 + 120.0, 2.0]
        assert catalog.version == pre_version + 2  # the aborted version is stranded
        assert report.fragments_patched >= 1
        assert repr(pool.configuration()) == pre_config
        # The aborted attempt appended in place; the retry found the tips
        # taken and fell back — and nobody's visible rows moved.
        aborted, retried = seen["table"], catalog.get("t")
        assert aborted._tail is pre_table._tail and retried._tail is not pre_table._tail
        assert aborted.nrows == retried.nrows == pre_table.nrows + 120
        for name, old in zip(pre_table.schema.names, pre_rows):
            np.testing.assert_array_equal(pre_table.column(name), old)
            np.testing.assert_array_equal(aborted.column(name), retried.column(name))
        for entry in pool.all_entries():
            old = pre_payloads[entry.key]
            new = pool.hdfs.peek(entry.path)
            for name in old.schema.names:  # the old payload is a prefix of the new
                np.testing.assert_array_equal(
                    new.column(name)[: old.nrows], old.column(name)
                )
        assert_pool_identity(system)

    def test_rollback_restores_the_pre_batch_objects(self):
        system = make_join_system()
        warm_joins(system)
        pool, catalog = system.pool, system.catalog
        pre_table = catalog.get("t")
        pre_paths = {e.fragment_id: pool.hdfs.peek(e.path) for e in pool.all_entries()}
        system.maintenance._patch = lambda entry, payload: (_ for _ in ()).throw(
            RuntimeError("simulated crash mid-maintenance")
        )
        with pytest.raises(RuntimeError):
            system.ingest("t", batch_rows(np.random.default_rng(7), 100))
        assert catalog.get("t") is pre_table
        assert {
            e.fragment_id: pool.hdfs.peek(e.path) for e in pool.all_entries()
        } == pre_paths  # same ids, same payload objects
        assert_pool_identity(system)

    def test_observed_rates_not_double_counted_on_controller_retry(self):
        system = make_system()
        warm(system)
        system.ingest("t", batch_rows(np.random.default_rng(7), 100))
        rows_pq, batches_pq = system.maintenance.per_query_rates(
            "t", float(system.clock)
        )
        assert batches_pq > 0.0
        total_rows = system.maintenance._observed["t"][0]
        assert total_rows == 100.0


class TestTransactionInvariant:
    def test_every_mutation_of_an_ingest_mix_is_journaled_and_none_left_open(self):
        """The drip schedule interleaved with the SDSS stream at the 10 %
        pool: creations, refinements, evictions, patches and drops all
        mutate inside a transaction, and none is open between two calls."""
        from repro.baselines import deepsea
        from repro.bench.harness import sdss_fixture
        from repro.bench.ingest_bench import scenario_schedule
        from repro.workloads.generator import sdss_mapped_workload
        from tests.test_deepsea_internals import assert_mutations_journaled

        fx = sdss_fixture(20.0)
        catalog = fx.catalog.fork()  # fixtures are shared: appends must not leak
        system = deepsea(
            catalog, domains=fx.domains, smax_bytes=0.10 * catalog.total_size_bytes
        )
        assert_mutations_journaled(system.pool)
        plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=120, seed=2)
        _, batches = scenario_schedule("drip", len(plans), fx.item_domain, 2)
        id0, journal = catalog.get("store_sales").nrows, system.pool.journal
        for i, query in enumerate(plans):
            for spec in (b for b in batches if b.at == i):
                system.ingest("store_sales", spec.rows(id0))
                assert not journal.journaling
            system.execute(query)
            assert not journal.journaling
        ingests = system.maintenance.reports
        assert sum(r.evictions for r in system.reports) > 0
        assert sum(r.refinements for r in system.reports) > 0
        assert sum(r.fragments_patched for r in ingests) > 0
        assert sum(r.fragments_dropped for r in ingests) > 0
        assert journal.committed > len(batches) and journal.rolled_back == 0


class TestUpkeepGate:
    def test_upkeep_is_exactly_zero_without_ingest(self):
        system = make_system()
        warm(system)
        assert system.maintenance.predicted_upkeep_s("v", plan(0, 100)) == 0.0

    def test_upkeep_positive_after_observed_batches(self):
        system = make_system()
        warm(system)
        system.ingest("t", batch_rows(np.random.default_rng(7), 200))
        upkeep = system.maintenance.predicted_upkeep_s("v", plan(0, 100))
        assert upkeep > 0.0

    def test_rebuild_upkeep_dominates_delta_upkeep(self):
        system = make_system()
        warm(system)
        system.ingest("t", batch_rows(np.random.default_rng(7), 200))
        delta = system.maintenance.predicted_upkeep_s("v", plan(0, 100))
        system.maintenance.force_rebuild = True
        rebuild = system.maintenance.predicted_upkeep_s("v", plan(0, 100))
        assert rebuild > delta


class TestScenarioSchedules:
    def test_schedules_are_deterministic(self):
        from repro.bench.ingest_bench import scenario_schedule

        a = scenario_schedule("drift", 30, DOMAIN, seed=5)
        b = scenario_schedule("drift", 30, DOMAIN, seed=5)
        assert a == b

    def test_batch_offsets_are_contiguous(self):
        from repro.bench.ingest_bench import scenario_schedule

        _, batches = scenario_schedule("drip", 30, DOMAIN, seed=5)
        offset = 0
        for spec in batches:
            assert spec.offset == offset
            offset += spec.nrows

    def test_unknown_scenario_rejected(self):
        from repro.bench.ingest_bench import scenario_schedule

        with pytest.raises(ValueError):
            scenario_schedule("flood", 10, DOMAIN)

    def test_gate_flags_mode_divergence(self):
        from repro.bench.ingest_bench import gate_problems

        def result(mode, digest):
            return {
                "scenario": "drip",
                "mode": mode,
                "batches": 2,
                "identity_ok": True,
                "identity_problems": [],
                "stale_reads": 0,
                "maint_s": 1.0,
                "fragments_patched": 3,
                "answer_digest": digest,
            }

        assert gate_problems([result("delta", "aa"), result("rebuild", "aa")]) == []
        problems = gate_problems([result("delta", "aa"), result("rebuild", "bb")])
        assert any("diverged" in p for p in problems)

    def test_joined_scenario_patches_join_views_and_rebuilds_nothing(self):
        from repro.bench.ingest_bench import gate_problems, run_scenario

        delta = run_scenario("joined", "delta", queries=16)
        assert delta["join_views_delta"] >= 1
        assert delta["fragments_patched"] >= 1 and delta["fragments_rebuilt"] == 0
        assert delta["identity_ok"] and delta["stale_reads"] == 0
        assert gate_problems([delta]) == []
        # The gate fires on exactly that scenario's rebuild count.
        assert any("rebuilt" in p for p in gate_problems([{**delta, "fragments_rebuilt": 2}]))
        assert any("join view" in p for p in gate_problems([{**delta, "join_views_delta": 0}]))


class TestBitIdentityProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),  # rows
                st.integers(min_value=0, max_value=900),  # range lo
                st.integers(min_value=1, max_value=100),  # range width
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_append_batches_keep_fragments_bit_identical(self, batches):
        system = make_system(n=2000)
        warm(system, queries=6)
        id0 = 200_000
        for i, (n, lo, width) in enumerate(batches):
            rng = np.random.default_rng([i, n, lo, width])
            rows = batch_rows(rng, n, lo, min(1000, lo + width), id0)
            id0 += n
            system.ingest("t", rows)
            assert_pool_identity(system)


    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),  # rows
                st.integers(min_value=0, max_value=900),  # range lo
                st.integers(min_value=1, max_value=100),  # range width
                st.booleans(),  # a query (and so a refinement) before the next batch
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_random_batches_keep_join_view_fragments_bit_identical(self, batches):
        """Probe-side join views under random batch sequences: after every
        batch each fragment equals, row for row and in order, its slice
        of a from-scratch recompute over the grown fact table."""
        system = make_join_system(n=2000)
        warm_joins(system, queries=6)
        id0 = 200_000
        for i, (n, lo, width, query) in enumerate(batches):
            rng = np.random.default_rng([i, n, lo, width])
            report = system.ingest("t", batch_rows(rng, n, lo, min(1000, lo + width), id0))
            id0 += n
            assert report.fragments_rebuilt == 0 and not report.views_rebuilt
            assert_pool_identity(system)
            if query:
                system.execute(join_plan(lo, min(1000, lo + width)))
                assert_pool_identity(system)


class TestSchedulerFingerprints:
    def test_ingest_task_fingerprints_identical_across_schedulers(self):
        """Serial, and forked pool workers handed the tasks in reverse."""
        from repro.bench.harness import clear_caches
        from repro.parallel.determinism import fingerprint
        from repro.parallel.pool import fan_out
        from repro.parallel.tasks import FixtureSpec, RunTask, SystemSpec, WorkloadSpec

        tasks = [
            RunTask(
                label,
                SystemSpec.of("deepsea"),
                FixtureSpec("sdss", 2.0),
                WorkloadSpec(10, seed=2),
                ingest="drip",
            )
            for label in ("DS+ingest", "twin")  # a single task would not fork
        ]
        clear_caches()
        serial = fingerprint({"DS+ingest": tasks[0].run()})
        pooled = fan_out(tasks, 2, submission_order=[1, 0])
        assert serial == fingerprint({"DS+ingest": pooled[0]})


class TestServeFeedBatch:
    def test_writer_applies_batches_atomically_under_plan_lock(self):
        from repro.serve import QueryService

        system = make_system()
        service = QueryService(system, workers=2).start()
        try:
            tickets = []
            fed = 0
            rng = np.random.default_rng(3)
            id0 = 300_000
            for i in range(12):
                if i % 3 == 1:
                    assert service.feed_batch("t", batch_rows(rng, 40, id0=id0))
                    fed += 1
                    id0 += 40
                tickets.append(service.submit(plan(10 + 7 * i, 500 + 3 * i)))
            outcomes = [t.result(timeout=30) for t in tickets]
        finally:
            service.stop()
        metrics = service.metrics()
        assert metrics["writer"]["batches"] == fed
        assert metrics["writer"]["errors"] == 0
        assert all(o is not None and o.status == "answered" for o in outcomes)
        assert system.catalog.get("t").nrows == 4000 + 40 * fed
        assert_pool_identity(system)

    def test_feed_batch_without_writer_sheds(self):
        from repro.serve import QueryService

        system = make_system()
        service = QueryService(system, workers=1, adapt=False)
        assert service.feed_batch("t", batch_rows(np.random.default_rng(0), 5)) is False


class TestLedgerFields:
    def test_charge_maintenance_accumulates_and_merges(self):
        ledger = CostLedger(make_system().cluster)
        ledger.charge_maintenance(2.5, routed=10, applied=8, patched=3, rebuilt=1)
        assert ledger.maint_s == 2.5
        assert ledger.delta_rows_routed == 10
        assert ledger.delta_rows_applied == 8
        assert ledger.fragments_patched == 3
        assert ledger.fragments_rebuilt == 1
        assert ledger.total_seconds >= 2.5
        other = CostLedger(ledger.cluster)
        other.merge(ledger)
        assert other.maint_s == 2.5
        assert other.fragments_patched == 3

    def test_pristine_ledger_has_no_maintenance(self):
        ledger = CostLedger(make_system().cluster)
        assert ledger.is_pristine
        ledger.charge_maintenance(0.1, patched=1)
        assert not ledger.is_pristine
