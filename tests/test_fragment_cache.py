"""Tests for fragment-level prune decisions (repro/matching/fragment_cache).

The contract under test:

* pruning is wall-clock only — for any fragment layout, clips, and
  conjunction, the pruned executor path returns tables and ledgers
  bit-identical to the unpruned seed path;
* entries validate against per-view cover versions from the pool's
  CoverDelta stream: repartitioning view V invalidates exactly V's
  entries while other views' entries — and result-cache entries of plans
  not reading V — stay live;
* a journal rollback restores the prior versions, so entries recorded
  before the transaction re-validate for free;
* the cache registers with :mod:`repro.caches`, so its counters surface
  in :func:`repro.caches.cache_stats`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import caches
from repro.engine.catalog import Catalog
from repro.engine.cost import CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.matching import fragment_cache
from repro.matching.fragment_cache import EMPTY, FULL, PARTIAL, FragmentPruneCache
from repro.partitioning.intervals import Interval
from repro.query.algebra import MaterializedScan, Relation, Select
from repro.query.predicates import between
from repro.storage.pool import MaterializedViewPool


def _make_catalog() -> Catalog:
    schema = Schema.of(
        Column("s_id", ColumnKind.INT64),
        Column("s_item_sk", ColumnKind.INT64),
        Column("s_qty", ColumnKind.INT64),
    )
    rng = np.random.default_rng(7)
    n = 400
    table = Table.from_dict(
        schema,
        {
            "s_id": np.arange(n),
            "s_item_sk": rng.integers(0, 100, size=n),
            "s_qty": rng.integers(1, 10, size=n),
        },
    )
    cat = Catalog()
    cat.register("sales", table)
    return cat


# Module-level: immutable, shared by every example (function-scoped
# fixtures don't mix with @given).
CATALOG = _make_catalog()
SALES = CATALOG.get("sales")

LEDGER_FIELDS = (
    "read_s", "write_s", "shuffle_s", "overhead_s", "jobs", "map_tasks",
    "bytes_read", "bytes_written", "files_written", "fault_s",
    "task_retries", "speculative_tasks", "fault_events",
)


def ledger_tuple(ledger: CostLedger) -> tuple:
    return tuple(getattr(ledger, f) for f in LEDGER_FIELDS)


def partitioned_pool(cuts: "list[float]", view_id: str = "v") -> "tuple[MaterializedViewPool, tuple[str, ...]]":
    """Pool with ``view_id`` partitioned on s_item_sk at ``cuts``."""
    pool = MaterializedViewPool()
    pool.define_view(view_id, Relation("sales"))
    col = SALES.column("s_item_sk")
    bounds = [0.0] + sorted(cuts) + [100.0]
    fids = []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        interval = Interval.closed(lo, hi) if i == 0 else Interval.open_closed(lo, hi)
        entry = pool.add_fragment(view_id, "s_item_sk", interval, SALES.filter(interval.mask(col)))
        fids.append(entry.fragment_id)
    return pool, tuple(fids)


def run_plan(pool, plan, *, pruned: bool):
    """Execute ``plan`` from cold caches with pruning on or off."""
    caches.clear_all_caches()
    fragment_cache.GLOBAL.enabled = pruned
    try:
        return Executor(ExecutionContext(CATALOG, pool)).execute(plan)
    finally:
        fragment_cache.GLOBAL.enabled = True


def assert_tables_identical(a: Table, b: Table) -> None:
    assert a.schema.names == b.schema.names
    assert a.nrows == b.nrows
    for name in a.schema.names:
        ca, cb = np.asarray(a.column(name)), np.asarray(b.column(name))
        assert ca.dtype == cb.dtype
        assert np.array_equal(ca, cb)


# ----------------------------------------------------------------------
# Property: pruned execution == unpruned execution, bit for bit.
# ----------------------------------------------------------------------
BOUND = st.integers(0, 100)


@st.composite
def scan_cases(draw):
    cuts = sorted(set(draw(st.lists(st.integers(1, 99), max_size=3))))
    nfrags = len(cuts) + 1
    clipped = draw(st.booleans())
    clips = None
    if clipped:
        clips = []
        for _ in range(nfrags):
            if draw(st.booleans()):
                lo = draw(BOUND)
                clips.append(Interval.closed(float(lo), float(lo + draw(st.integers(0, 40)))))
            else:
                clips.append(None)
        clips = tuple(clips)
    npreds = draw(st.integers(1, 3))
    preds = []
    for _ in range(npreds):
        lo = draw(BOUND)
        preds.append(between("s_item_sk", float(lo), float(lo + draw(st.integers(0, 60)))))
    if draw(st.booleans()):
        # Multi-attribute conjunction: exercises the unprunable fallback.
        preds.append(between("s_qty", 2.0, 8.0))
    return [float(c) for c in cuts], clips, tuple(preds)


@given(case=scan_cases())
@settings(max_examples=80, deadline=None)
def test_pruned_execution_is_bit_identical_to_unpruned(case):
    cuts, clips, predicates = case
    pool, fids = partitioned_pool(cuts)
    scan = MaterializedScan("v", fids, "s_item_sk", clips if clips is not None else ())
    plan = Select(scan, predicates)

    pruned = run_plan(pool, plan, pruned=True)
    unpruned = run_plan(pool, plan, pruned=False)

    assert_tables_identical(pruned.table, unpruned.table)
    assert ledger_tuple(pruned.ledger) == ledger_tuple(unpruned.ledger)


# ----------------------------------------------------------------------
# Classification unit tests.
# ----------------------------------------------------------------------
class TestClassification:
    def setup_method(self):
        self.pool, self.fids = partitioned_pool([50.0])
        self.cache = FragmentPruneCache()

    def _classify(self, predicates, clips=()):
        scan = MaterializedScan("v", self.fids, "s_item_sk", clips)
        return self.cache.classify(self.pool, scan, predicates)

    def test_disjoint_predicate_is_empty(self):
        decisions = self._classify((between("s_item_sk", 60.0, 70.0),))
        assert decisions[0].state == EMPTY  # fragment [0, 50] misses [60, 70]
        assert decisions[1].state == PARTIAL

    def test_covering_predicate_is_full(self):
        decisions = self._classify((between("s_item_sk", 0.0, 100.0),))
        assert [d.state for d in decisions] == [FULL, FULL]

    def test_partial_carries_fused_interval(self):
        clip = Interval.closed(10.0, 90.0)
        decisions = self._classify((between("s_item_sk", 20.0, 60.0),), (clip, clip))
        assert decisions[0].state == PARTIAL
        # predicates ∧ clip, fused; not clamped to the fragment interval
        # (the piece only holds rows inside it anyway).
        assert decisions[0].eff == Interval.closed(20.0, 60.0)

    def test_observed_minmax_upgrades_to_empty(self):
        # Key interval says [0, 100] but the payload only holds values
        # below 10: the observed bounds prove the miss.
        pool = MaterializedViewPool()
        pool.define_view("w", Relation("sales"))
        col = SALES.column("s_item_sk")
        narrow = Interval.closed(0.0, 9.0)
        entry = pool.add_fragment(
            "w", "s_item_sk", Interval.closed(0.0, 100.0), SALES.filter(narrow.mask(col))
        )
        scan = MaterializedScan("w", (entry.fragment_id,), "s_item_sk")
        decisions = self.cache.classify(pool, scan, (between("s_item_sk", 50.0, 60.0),))
        assert decisions[0].state == EMPTY

    def test_multi_attribute_conjunction_not_prunable(self):
        preds = (between("s_item_sk", 0.0, 50.0), between("s_qty", 1.0, 5.0))
        assert self._classify(preds) is None

    def test_disabled_cache_declines(self):
        self.cache.enabled = False
        assert self._classify((between("s_item_sk", 0.0, 100.0),)) is None


# ----------------------------------------------------------------------
# Pruning never changes the charge sequence.
# ----------------------------------------------------------------------
def test_pruned_scan_still_charges_all_fragment_bytes():
    pool, fids = partitioned_pool([50.0])
    entries = [pool.get_fragment(fid) for fid in fids]
    # [60, 70] misses the [0, 50] fragment entirely: it is pruned...
    plan = Select(MaterializedScan("v", fids, "s_item_sk"), (between("s_item_sk", 60.0, 70.0),))
    result = run_plan(pool, plan, pruned=True)
    assert fragment_cache.GLOBAL.stats()["pruned_fragments"] == 1

    # ...yet the ledger charges both fragments' bytes in one batched
    # read, exactly like the unpruned path (economics are simulated; the
    # prune only skips the real payload work).
    expected = CostLedger(ExecutionContext(CATALOG, pool).cluster)
    expected.charge_read(sum(e.size_bytes for e in entries), nfiles=len(entries))
    expected.charge_jobs(1)
    assert ledger_tuple(result.ledger) == ledger_tuple(expected)


# ----------------------------------------------------------------------
# Cover-delta invalidation + rollback revalidation.
# ----------------------------------------------------------------------
def two_view_setup():
    pool = MaterializedViewPool()
    plans = {}
    for vid in ("va", "vb"):
        pool.define_view(vid, Relation("sales"))
    col = SALES.column("s_item_sk")
    for vid in ("va", "vb"):
        a, b = Interval.closed(0.0, 50.0), Interval.open_closed(50.0, 100.0)
        fa = pool.add_fragment(vid, "s_item_sk", a, SALES.filter(a.mask(col)))
        fb = pool.add_fragment(vid, "s_item_sk", b, SALES.filter(b.mask(col)))
        scan = MaterializedScan(vid, (fa.fragment_id, fb.fragment_id), "s_item_sk")
        plans[vid] = Select(scan, (between("s_item_sk", 10.0, 60.0),))
    return pool, plans


class TestCoverDeltaInvalidation:
    def test_repartitioning_one_view_invalidates_only_its_entries(self):
        caches.clear_all_caches()
        pool, plans = two_view_setup()
        executor = Executor(ExecutionContext(CATALOG, pool))
        executor.execute(plans["va"])
        executor.execute(plans["vb"])
        cache = fragment_cache.GLOBAL
        assert cache.stats()["misses"] == 2
        assert cache.stats()["invalidations"] == 0

        # Repartition vb: admit a fragment → vb's cover version bumps.
        extra = Interval.open_closed(100.0, 200.0)
        pool.add_fragment("vb", "s_item_sk", extra, SALES.filter(extra.mask(SALES.column("s_item_sk"))))

        scan_a, scan_b = plans["va"].child, plans["vb"].child
        assert cache.classify(pool, scan_a, plans["va"].predicates) is not None
        stats = cache.stats()
        assert stats["hits"] >= 1  # va entry survived the vb mutation
        assert stats["invalidations"] == 0

        assert cache.classify(pool, scan_b, plans["vb"].predicates) is not None
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["invalidations_by_view"] == {"vb": 1}

    def test_result_cache_entries_for_other_views_stay_live(self):
        caches.clear_all_caches()
        pool, plans = two_view_setup()
        executor = Executor(ExecutionContext(CATALOG, pool))
        executor.execute(plans["va"])
        executor.execute(plans["vb"])
        from repro.engine.result_cache import GLOBAL as results

        assert results.stats()["entries"] == 2

        extra = Interval.open_closed(100.0, 200.0)
        pool.add_fragment("vb", "s_item_sk", extra, SALES.filter(extra.mask(SALES.column("s_item_sk"))))

        hits_before = results.stats()["hits"]
        executor.execute(plans["va"])  # doesn't read vb: replayed from cache
        assert results.stats()["hits"] == hits_before + 1
        executor.execute(plans["vb"])  # reads vb: version vector changed
        assert results.stats()["hits"] == hits_before + 1
        assert results.stats()["entries"] == 3  # the re-execution stored anew

    def test_rollback_revalidates_pre_transaction_entries(self):
        caches.clear_all_caches()
        pool, plans = two_view_setup()
        executor = Executor(ExecutionContext(CATALOG, pool))
        before = executor.execute(plans["vb"])
        cache = fragment_cache.GLOBAL
        versions = pool.cover_version("vb")

        pool.begin("step")
        extra = Interval.open_closed(100.0, 200.0)
        pool.add_fragment("vb", "s_item_sk", extra, SALES.filter(extra.mask(SALES.column("s_item_sk"))))
        assert pool.cover_version("vb") != versions
        pool.rollback()
        assert pool.cover_version("vb") == versions

        # Fragment-cache entry recorded before the transaction is valid
        # again — a hit, not an invalidation.
        hits = cache.stats()["hits"]
        assert cache.classify(pool, plans["vb"].child, plans["vb"].predicates) is not None
        stats = cache.stats()
        assert stats["hits"] == hits + 1
        assert stats["invalidations"] == 0

        # And the result cache replays the pre-transaction entry.
        from repro.engine.result_cache import GLOBAL as results

        rc_hits = results.stats()["hits"]
        after = executor.execute(plans["vb"])
        assert results.stats()["hits"] == rc_hits + 1
        assert_tables_identical(before.table, after.table)


# ----------------------------------------------------------------------
# Registry integration.
# ----------------------------------------------------------------------
def test_fragment_cache_registered_in_registry():
    caches.clear_all_caches()
    pool, fids = partitioned_pool([50.0])
    plan = Select(MaterializedScan("v", fids, "s_item_sk"), (between("s_item_sk", 10.0, 90.0),))
    Executor(ExecutionContext(CATALOG, pool)).execute(plan)
    stats = caches.cache_stats()["matching.fragment_cache"]
    for key in (
        "hits", "misses", "evictions", "entries", "invalidations",
        "invalidations_by_view", "pruned_fragments", "rows_pruned", "rows_scanned",
    ):
        assert key in stats
    assert stats["misses"] >= 1
    assert stats["rows_scanned"] > 0


def test_plan_pure_tier_fills_on_use_and_clears_with_registry():
    caches.clear_all_caches()
    assert fragment_cache.normalize_conjuncts.cache_info().currsize == 0
    pool, fids = partitioned_pool([50.0])
    plan = Select(MaterializedScan("v", fids, "s_item_sk"), (between("s_item_sk", 10.0, 90.0),))
    Executor(ExecutionContext(CATALOG, pool)).execute(plan)
    assert fragment_cache.normalize_conjuncts.cache_info().currsize >= 1
    caches.clear_all_caches()
    assert fragment_cache.normalize_conjuncts.cache_info().currsize == 0


def test_clear_resets_counters_but_not_enabled():
    cache = FragmentPruneCache()
    cache.enabled = False
    cache.hits = 3
    cache.clear()
    assert cache.stats()["hits"] == 0
    assert cache.enabled is False
    cache.enabled = True
