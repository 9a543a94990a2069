"""Tests for fragment-level prune decisions (repro/engine/prune.py).

The contract under test:

* pruning is wall-clock only — for any fragment layout, clips, and
  conjunction, the pruned executor path returns tables and ledgers
  bit-identical to the unpruned seed path;
* a fragment's observed min/max lives on its pool entry and leaves with
  it: ingest patches mint new entries, and evicted ones take their range
  with them;
* a journal rollback restores a view's cover version, and the answer
  after it is the answer before the transaction.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import caches
from repro.engine import prune
from repro.engine.catalog import Catalog
from repro.engine.cost import CostLedger
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.prune import EMPTY, FULL, PARTIAL
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
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


def run_plan(pool, plan, *, pruned: bool, executor: "Executor | None" = None):
    """Execute ``plan`` from cold caches; unpruned, the classifier declines."""
    caches.clear_all_caches()
    executor = executor or Executor(ExecutionContext(CATALOG, pool))
    with pytest.MonkeyPatch.context() as patched:
        if not pruned:
            patched.setattr(prune, "classify", lambda pool, scan, predicates: None)
        return executor.execute(plan)


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

    def _classify(self, predicates, clips=()):
        scan = MaterializedScan("v", self.fids, "s_item_sk", clips)
        return prune.classify(self.pool, scan, predicates)

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
        decisions = prune.classify(pool, scan, (between("s_item_sk", 50.0, 60.0),))
        assert decisions[0].state == EMPTY
        assert entry.observed == Interval.closed(
            float(SALES.filter(narrow.mask(col)).column("s_item_sk").min()), 9.0
        )

    def test_multi_attribute_conjunction_not_prunable(self):
        preds = (between("s_item_sk", 0.0, 50.0), between("s_qty", 1.0, 5.0))
        assert self._classify(preds) is None


# ----------------------------------------------------------------------
# Pruning never changes the charge sequence.
# ----------------------------------------------------------------------
def test_pruned_scan_still_charges_all_fragment_bytes():
    pool, fids = partitioned_pool([50.0])
    entries = [pool.get_fragment(fid) for fid in fids]
    # [60, 70] misses the [0, 50] fragment entirely: it is pruned...
    plan = Select(MaterializedScan("v", fids, "s_item_sk"), (between("s_item_sk", 60.0, 70.0),))
    executor = Executor(ExecutionContext(CATALOG, pool))
    result = run_plan(pool, plan, pruned=True, executor=executor)
    assert executor.pruning.pruned_fragments == 1

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
    def test_rollback_revalidates_pre_transaction_entries(self):
        """A rollback restores the view's cover version, so memo entries
        keyed on it before the transaction hold again, and the answer
        after the rollback is the one before it."""
        caches.clear_all_caches()
        pool, plans = two_view_setup()
        executor = Executor(ExecutionContext(CATALOG, pool))
        before = executor.execute(plans["vb"])
        versions = pool.cover_version("vb")

        pool.begin("step")
        extra = Interval.open_closed(100.0, 200.0)
        pool.add_fragment("vb", "s_item_sk", extra, SALES.filter(extra.mask(SALES.column("s_item_sk"))))
        assert pool.cover_version("vb") != versions
        pool.rollback()
        assert pool.cover_version("vb") == versions

        after = executor.execute(plans["vb"])
        assert_tables_identical(before.table, after.table)


# ----------------------------------------------------------------------
# The observed min/max lives and dies with its pool entry.
# ----------------------------------------------------------------------
def test_observed_range_leaves_with_patched_and_evicted_entries():
    """200 drip batches against the 10 % pool, drip queries interleaved with
    fig-5a ones: every entry still holding an observed min/max is resident
    (nothing is retained without a lease).  A sidecar keyed on fragment ids
    kept 41 ranges here for 5 resident fragments."""
    from repro.baselines import deepsea
    from repro.bench.harness import sdss_fixture
    from repro.bench.ingest_bench import BatchSpec, scenario_plans, scenario_schedule
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(2.0)
    catalog = fx.catalog.fork()
    domains = dict(fx.domains)
    domains["ss_item_sk"] = fx.item_domain
    system = deepsea(catalog, domains=domains, smax_bytes=catalog.total_size_bytes * 0.10)
    pool = system.pool
    admitted = []
    admit = pool._admit

    def tracked_admit(key, table):
        entry = admit(key, table)
        admitted.append(weakref.ref(entry))
        return entry

    pool._admit = tracked_admit
    ranges, batches = scenario_schedule("drip", 400, fx.item_domain, seed=1)
    drip = scenario_plans(ranges, "drip")
    mapped = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=200, seed=2)
    plans = [drip[i // 2] if i % 2 == 0 else mapped[i // 2] for i in range(400)]
    by_index: dict[int, list[BatchSpec]] = {}
    for spec in batches:
        by_index.setdefault(spec.at, []).append(spec)
    id0 = catalog.get("store_sales").nrows
    for i, plan in enumerate(plans):
        for spec in by_index.get(i, ()):
            system.ingest("store_sales", spec.rows(id0))
        system.execute(plan)
    assert len(system.maintenance.reports) == 200
    assert sum(r.fragments_patched for r in system.maintenance.reports) > 0

    gc.collect()
    alive = [ref() for ref in admitted]
    observed = [entry for entry in alive if entry is not None and entry.observed]
    assert observed, "no pruned scan filled a min/max"
    resident = {id(entry) for entry in pool.all_entries()}
    assert [e.fragment_id for e in observed if id(e) not in resident] == []
