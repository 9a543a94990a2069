"""Integration tests for the DeepSea driver (Algorithm 1).

These exercise the full pipeline over a small star schema: candidate
registration, evidence-gated materialization, adaptive partitioning,
fragment reuse, refinement (split and overlapping), eviction under a pool
bound, and — the master invariant — result equivalence with direct
execution under every policy.
"""

import numpy as np
import pytest

from repro import Catalog, DeepSea, Interval, Policy, Q
from repro.baselines import (
    deepsea,
    equidepth,
    hive,
    nectar,
    nectar_plus,
    no_repartition,
    non_partitioned,
)
from repro.engine.schema import Column, Schema
from repro.engine.table import Table

DOMAIN = Interval.closed(0, 1000)


def make_catalog(nrows=4000, nitems=1000, scale=2.0e5, seed=3):
    """A sales/item star schema with a nominal size in the tens of GB."""
    rng = np.random.default_rng(seed)
    sales_schema = Schema.of(
        Column("ss_id"), Column("ss_item_sk"), Column("ss_qty"), Column("ss_price")
    )
    item_schema = Schema.of(Column("i_item_sk"), Column("i_category"))
    sales = Table.from_dict(
        sales_schema,
        {
            "ss_id": np.arange(nrows),
            "ss_item_sk": rng.integers(0, nitems + 1, nrows),
            "ss_qty": rng.integers(1, 10, nrows),
            "ss_price": rng.integers(1, 500, nrows),
        },
        scale=scale,
    )
    item = Table.from_dict(
        item_schema,
        {
            "i_item_sk": np.arange(nitems + 1),
            "i_category": rng.integers(0, 10, nitems + 1),
        },
        scale=scale,
    )
    catalog = Catalog()
    catalog.register("store_sales", sales)
    catalog.register("item", item)
    return catalog


def template(lo, hi):
    return (
        Q("store_sales")
        .join("item", on=("ss_item_sk", "i_item_sk"))
        .where_between("i_item_sk", lo, hi)
        .group_by("i_category", agg=[("sum", "ss_qty", "total")])
        .plan
    )


DOMAINS = {"i_item_sk": DOMAIN, "ss_item_sk": DOMAIN}



def partitioned_view(system):
    """The resident view that carries a partition (the join view)."""
    for vid in system.pool.resident_view_ids():
        if system.pool.partition_attrs(vid):
            return vid
    raise AssertionError("no partitioned view resident")

@pytest.fixture
def catalog():
    return make_catalog()


def reference_answers(catalog, plans):
    system = hive(catalog, domains=DOMAINS)
    return [system.execute(p).result.sorted_rows() for p in plans]


class TestBasicFlow:
    def test_first_query_no_views_direct(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=1.0)
        report = system.execute(template(100, 200))
        assert report.view_used is None
        assert report.execution_s > 0

    def test_eager_materializes_on_first_query(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0)
        report = system.execute(template(100, 200))
        assert report.views_created
        assert report.creation_s > 0
        assert system.pool.used_bytes > 0

    def test_identical_query_reuses_aggregate_view(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0)
        system.execute(template(100, 200))
        report = system.execute(template(100, 200))
        # the exact repeat is answered from the (tiny) aggregate view
        assert report.view_used is not None

    def test_narrower_query_reuses_join_fragments(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0)
        system.execute(template(100, 200))
        report = system.execute(template(120, 180))
        assert report.view_used is not None
        assert report.fragments_read >= 1

    def test_reuse_is_cheaper_than_first_run(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0)
        first = system.execute(template(100, 200))
        second = system.execute(template(100, 200))
        assert second.total_s < first.total_s

    def test_evidence_gate_defers_materialization(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=1e9)
        for _ in range(3):
            report = system.execute(template(100, 200))
        assert not report.views_created
        assert system.pool.used_bytes == 0

    def test_evidence_accumulates_then_materializes(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=1.0)
        created_at = None
        for i in range(1, 31):
            report = system.execute(template(100, 200))
            if report.views_created:
                created_at = i
                break
        assert created_at is not None, "evidence never reached the threshold"
        assert created_at > 1  # not eager


class TestPartitioningShapes:
    def test_adaptive_partition_matches_selection_boundaries(self, catalog):
        system = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0, bounds=None)
        system.execute(template(100, 200))
        view_id = partitioned_view(system)
        intervals = system.pool.intervals_of(view_id, "i_item_sk")
        assert len(intervals) == 3
        assert any(iv == Interval.closed(100, 200) for iv in intervals)

    def test_partition_covers_domain(self, catalog):
        from repro.partitioning.fragmentation import union_covers

        system = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0, bounds=None)
        system.execute(template(100, 200))
        view_id = partitioned_view(system)
        intervals = system.pool.intervals_of(view_id, "i_item_sk")
        assert union_covers(intervals, DOMAIN)

    def test_equidepth_partition_fragment_count(self, catalog):
        system = equidepth(catalog, 6, domains=DOMAINS, evidence_factor=0.0, bounds=None)
        system.execute(template(100, 200))
        view_id = partitioned_view(system)
        assert len(system.pool.intervals_of(view_id, "i_item_sk")) == 6

    def test_np_stores_whole_views_only(self, catalog):
        system = non_partitioned(catalog, domains=DOMAINS, evidence_factor=0.0)
        system.execute(template(100, 200))
        view_ids = system.pool.resident_view_ids()
        assert view_ids
        for view_id in view_ids:
            assert system.pool.whole_view_entry(view_id) is not None
            assert system.pool.partition_attrs(view_id) == []

    def test_hive_never_materializes(self, catalog):
        system = hive(catalog, domains=DOMAINS)
        for lo in (100, 100, 100):
            system.execute(template(lo, lo + 100))
        assert system.pool.used_bytes == 0


class TestRefinement:
    def run_shifted(self, system):
        # establish the view, then query a sub-range of an existing fragment
        # until the accumulated hits justify the refinement's write cost
        system.execute(template(100, 500))
        for _ in range(6):
            system.execute(template(100, 500))
        for _ in range(20):
            system.execute(template(150, 200))
        return system

    def test_overlapping_refinement_creates_overlap(self, catalog):
        system = deepsea(
            catalog, domains=DOMAINS, evidence_factor=0.0, overlapping=True, bounds=None
        )
        self.run_shifted(system)
        view_id = partitioned_view(system)
        from repro.partitioning.fragmentation import pairwise_disjoint

        intervals = system.pool.intervals_of(view_id, "i_item_sk")
        # a small fragment covering the hot range exists (widened by the
        # refinement margin), and the parent is kept → overlap
        hot = Interval.closed(150, 200)
        small = [iv for iv in intervals if iv.contains(hot) and iv.width < 200]
        assert small, intervals
        assert not pairwise_disjoint(intervals)
        assert any(r.refinements for r in system.reports)

    def test_split_refinement_stays_disjoint(self, catalog):
        system = deepsea(
            catalog, domains=DOMAINS, evidence_factor=0.0, overlapping=False, bounds=None
        )
        self.run_shifted(system)
        view_id = partitioned_view(system)
        from repro.partitioning.fragmentation import pairwise_disjoint

        intervals = system.pool.intervals_of(view_id, "i_item_sk")
        assert pairwise_disjoint(intervals)
        assert any(r.refinements for r in system.reports)

    def test_nr_never_refines(self, catalog):
        system = no_repartition(catalog, domains=DOMAINS, evidence_factor=0.0, bounds=None)
        self.run_shifted(system)
        assert all(r.refinements == 0 for r in system.reports)


class TestPoolBound:
    def test_smax_respected_throughout(self, catalog):
        base = catalog.total_size_bytes
        smax = base * 0.05
        system = deepsea(catalog, domains=DOMAINS, smax_bytes=smax, evidence_factor=0.0)
        rng = np.random.default_rng(5)
        for _ in range(15):
            lo = int(rng.integers(0, 900))
            system.execute(template(lo, lo + 50))
            assert system.pool.used_bytes <= smax + 1e-6

    def test_used_bytes_memo_equals_a_fresh_sum_at_every_step(self, catalog):
        """A 10 % pool: after every admit and evict, and after every
        query, the memoized total is exactly (same float) the sum over
        the resident entries."""
        smax = catalog.total_size_bytes * 0.10
        system = deepsea(catalog, domains=DOMAINS, smax_bytes=smax, evidence_factor=0.0)
        pool = system.pool
        kinds = []

        def fresh_sum():
            return sum(e.size_bytes for e in pool.all_entries())

        for name in ("add_fragment", "add_whole_view", "patch_entry", "evict", "rollback"):
            mutate = getattr(pool, name)

            def checked(*args, _mutate=mutate, _name=name, **kwargs):
                out = _mutate(*args, **kwargs)
                kinds.append(_name)
                assert pool.used_bytes == fresh_sum()
                return out

            setattr(pool, name, checked)
        rng = np.random.default_rng(11)
        for _ in range(40):
            lo = int(rng.integers(0, 900))
            system.execute(template(lo, lo + int(rng.integers(20, 200))))
            assert pool.used_bytes == fresh_sum()
        assert {"add_fragment", "evict"} <= set(kinds)

    def test_eviction_happens_under_pressure(self, catalog):
        """A fresh hot view displaces decayed views when space runs out."""
        from repro.core.policies import Policy
        from repro.costmodel.decay import ProportionalDecay

        # First, learn how big one materialized aggregate view is.
        probe = deepsea(catalog, domains=DOMAINS, evidence_factor=0.0)
        probe.execute(template(100, 130))
        agg_entry = min(probe.pool.all_entries(), key=lambda e: e.size_bytes)
        smax = agg_entry.size_bytes * 3.2  # room for three aggregate views

        system = DeepSea(
            catalog,
            domains=DOMAINS,
            smax_bytes=smax,
            policy=Policy(evidence_factor=0.0, decay=ProportionalDecay(t_max=6)),
        )
        evictions = 0
        for lo in (100, 300, 500):  # fill the pool with three views
            for _ in range(2):
                evictions += system.execute(template(lo, lo + 30)).evictions
        for _ in range(6):  # a new hot range must displace a stale view
            evictions += system.execute(template(700, 730)).evictions
        assert evictions > 0
        assert system.pool.used_bytes <= smax + 1e-6

    def test_infeasible_creation_skipped_without_thrash(self, catalog):
        """A pool smaller than any fragment never admits, never oscillates."""
        system = deepsea(
            catalog,
            domains=DOMAINS,
            smax_bytes=1.0,  # effectively zero space
            evidence_factor=0.0,
        )
        for _ in range(6):
            report = system.execute(template(100, 200))
        assert system.pool.used_bytes == 0
        assert not report.views_created


class TestEquivalence:
    """Master invariant: every policy returns exactly the direct answer."""

    def workload(self):
        rng = np.random.default_rng(11)
        plans = []
        for _ in range(12):
            lo = int(rng.integers(0, 900))
            plans.append(template(lo, lo + int(rng.integers(10, 120))))
        # repeat a hot template to force reuse and refinement
        plans += [template(300, 400)] * 5 + [template(320, 360)] * 5
        return plans

    @pytest.mark.parametrize(
        "factory",
        [
            hive,
            non_partitioned,
            lambda c, **kw: equidepth(c, 6, **kw),
            no_repartition,
            nectar,
            nectar_plus,
            deepsea,
            lambda c, **kw: deepsea(c, overlapping=False, **kw),
        ],
        ids=["H", "NP", "E6", "NR", "N", "N+", "DS", "DS-split"],
    )
    def test_all_policies_equivalent(self, catalog, factory):
        plans = self.workload()
        expected = reference_answers(catalog, plans)
        kwargs = {"domains": DOMAINS}
        if factory is not hive:
            kwargs["evidence_factor"] = 0.0
        system = factory(catalog, **kwargs)
        for plan, exp in zip(plans, expected):
            got = system.execute(plan).result.sorted_rows()
            assert got == exp

    def test_equivalence_under_small_pool(self, catalog):
        plans = self.workload()
        expected = reference_answers(catalog, plans)
        system = deepsea(
            catalog,
            domains=DOMAINS,
            smax_bytes=catalog.total_size_bytes * 0.03,
            evidence_factor=0.0,
        )
        for plan, exp in zip(plans, expected):
            assert system.execute(plan).result.sorted_rows() == exp
