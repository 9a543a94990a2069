"""Tests for the concurrent serving layer (repro.serve).

The serving invariant under test throughout: admission control, faults,
and concurrency change *latency and cost* — never answers.  Answers are
compared as sorted-row digests against serial, fault-free, direct
execution of the same plans.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.baselines import deepsea, hive
from repro.bench.harness import sdss_fixture
from repro.engine.catalog import Catalog
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.errors import DeadlineExceeded, Overloaded
from repro.faults.schedule import FaultSchedule
from repro.partitioning.intervals import Interval
from repro.query.algebra import Relation
from repro.query.builder import Q
from repro.serve.driver import answer_digest, check_gates, reference_digests
from repro.serve.queue import AdmissionQueue
from repro.serve.service import QueryService
from repro.serve.snapshot import SnapshotManager
from repro.storage.pool import MaterializedViewPool
from repro.workloads.generator import sdss_mapped_workload
from tests.test_plan_record import planned_from_scratch

TIMEOUT = 60.0


@pytest.fixture(scope="module")
def fx():
    return sdss_fixture(20.0)


@pytest.fixture(scope="module")
def plans(fx):
    return sdss_mapped_workload(fx.log, fx.item_domain, n_queries=40, seed=2)


@pytest.fixture(scope="module")
def digests(fx, plans):
    return reference_digests(fx, plans)


def drain(service, plans, *, pace_s=0.004):
    """Submit every plan (paced so nothing is shed) and collect outcomes."""
    tickets = []
    for plan in plans:
        time.sleep(pace_s)
        tickets.append(service.submit(plan))
    return [t.result(timeout=TIMEOUT) for t in tickets]


class TestAdmissionQueue:
    def test_fifo_order(self):
        q = AdmissionQueue(4)
        for i in range(4):
            q.offer(i)
        assert [q.take(0) for _ in range(4)] == [0, 1, 2, 3]

    def test_full_queue_sheds_typed_and_counted(self):
        q = AdmissionQueue(2)
        q.offer("a")
        q.offer("b")
        with pytest.raises(Overloaded) as info:
            q.offer("c")
        assert info.value.kind == "overloaded"
        assert info.value.depth == 2
        assert (q.offered, q.shed, len(q)) == (3, 1, 2)

    def test_take_timeout_returns_none(self):
        q = AdmissionQueue(1)
        start = time.monotonic()
        assert q.take(0.02) is None
        assert time.monotonic() - start < 1.0

    def test_close_sheds_offers_and_drains_takes(self):
        q = AdmissionQueue(4)
        q.offer("a")
        q.close()
        with pytest.raises(Overloaded):
            q.offer("b")
        assert q.take(0) == "a"  # queued work still drains
        assert q.take(0) is None  # then immediate None, no waiting

    def test_close_wakes_blocked_taker(self):
        q = AdmissionQueue(1)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(None)))
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(5.0)
        assert not t.is_alive() and got == [None]

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_accounting_offered_equals_taken_plus_shed_plus_queued(self):
        q = AdmissionQueue(3)
        for i in range(7):
            try:
                q.offer(i)
            except Overloaded:
                pass
        q.take(0)
        assert q.offered == q.taken + q.shed + len(q)


def snapshot_pool(small=3):
    """A pool with two fragments of one view, plus its snapshot manager."""
    pool = MaterializedViewPool()
    pool.define_view("v1", Relation("sales"))
    schema = Schema.of(Column("v"))
    lo = Table.from_dict(schema, {"v": list(range(small))})
    hi = Table.from_dict(schema, {"v": list(range(100, 100 + small))})
    a = pool.add_fragment("v1", "v", Interval.closed(0, 10), lo)
    b = pool.add_fragment("v1", "v", Interval.open_closed(10, 20), hi)
    return pool, SnapshotManager(pool), a, b


def unheld_snapshot_pool():
    """``snapshot_pool`` minus the entries: only leases pin a payload."""
    pool, snaps, a, _ = snapshot_pool()
    return pool, snaps, a.fragment_id


class TestSnapshotLeases:
    def test_lease_pins_epoch_and_entries(self):
        pool, snaps, a, b = snapshot_pool()
        with snaps.acquire() as lease:
            view = lease.pool_view()
            assert view.epoch == pool.epoch
            assert view.get_fragment(a.fragment_id) is a
            assert view.whole_view_entry("v1") is None
            before = view.read_entry(a.fragment_id).sorted_rows()
            pool.evict(a.fragment_id)  # writer races the reader
            assert view.read_entry(a.fragment_id).sorted_rows() == before
            assert snaps.active_leases == 1
        assert snaps.active_leases == 0

    def test_eviction_with_no_lease_retains_nothing(self):
        pool, snaps, fid = unheld_snapshot_pool()
        payload = weakref.ref(pool.read_entry(fid))
        pool.evict(fid)
        assert payload() is None  # dead at once, no collection needed

    def test_release_prunes_retained_payloads(self):
        pool, snaps, fid = unheld_snapshot_pool()
        payload = weakref.ref(pool.read_entry(fid))
        lease = snaps.acquire()
        pool.evict(fid)
        gc.collect()
        assert payload() is not None
        lease.release()
        gc.collect()
        assert payload() is None
        assert snaps.active_leases == 0

    def test_older_lease_keeps_payload_alive(self):
        pool, snaps, fid = unheld_snapshot_pool()
        rows = pool.read_entry(fid).sorted_rows()
        payload = weakref.ref(pool.read_entry(fid))
        old = snaps.acquire()
        pool.evict(fid)
        new = snaps.acquire()  # pinned after the eviction
        new.release()
        gc.collect()
        assert payload() is not None  # the old lease may still read it
        assert old.pool_view().read_entry(fid).sorted_rows() == rows
        old.release()
        gc.collect()
        assert payload() is None

    def test_lost_then_evicted_entry_still_readable(self):
        # The entry holds its file past replica loss, so a fragment that
        # was lost *and* evicted is still served byte-identical from the
        # snapshot.
        pool, snaps, a, _ = snapshot_pool()
        with snaps.acquire() as lease:
            view = lease.pool_view()
            before = view.read_entry(a.fragment_id).sorted_rows()
            pool.hdfs.lose_replicas(a.path)
            pool.evict(a.fragment_id)
            assert view.read_entry(a.fragment_id).sorted_rows() == before

    def test_rollback_mid_read_keeps_prestep_bytes(self):
        # Satellite: a reader holding a lease across a journal rollback
        # sees the exact pre-step bytes at every point of the transaction.
        pool, snaps, a, b = snapshot_pool()
        schema = Schema.of(Column("v"))
        with snaps.acquire() as lease:
            view = lease.pool_view()
            before_a = view.read_entry(a.fragment_id).sorted_rows()
            before_b = view.read_entry(b.fragment_id).sorted_rows()

            pool.begin("repartition")
            pool.evict(a.fragment_id)
            pool.add_fragment(
                "v1", "v", Interval.open_closed(20, 30),
                Table.from_dict(schema, {"v": [7, 8, 9]}),
            )
            # Mid-transaction: the lease still serves the pre-step bytes
            # (the evicted entry from its own file, the survivor live).
            assert view.read_entry(a.fragment_id).sorted_rows() == before_a
            assert view.read_entry(b.fragment_id).sorted_rows() == before_b
            pool.rollback()

            # Post-rollback: both via the lease and via the live pool.
            assert view.read_entry(a.fragment_id).sorted_rows() == before_a
            assert pool.read_entry(a.fragment_id).sorted_rows() == before_a
            assert len(pool.fragments_of("v1", "v")) == 2

    def test_snapshot_is_immune_to_entries_added_later(self):
        pool, snaps, a, _ = snapshot_pool()
        lease = snaps.acquire()
        schema = Schema.of(Column("v"))
        fresh = pool.add_fragment(
            "v1", "v", Interval.open_closed(20, 30),
            Table.from_dict(schema, {"v": [42]}),
        )
        view = lease.pool_view()
        from repro.errors import PoolError

        with pytest.raises(PoolError):
            view.get_fragment(fresh.fragment_id)
        lease.release()


class TestQueryService:
    def test_serial_equivalence_across_worker_counts(self, fx, plans, digests):
        for workers in (1, 3):
            system = deepsea(fx.catalog, domains=fx.domains)
            with QueryService(system, workers=workers, queue_depth=64) as svc:
                outs = drain(svc, plans)
            assert all(o is not None and o.status == "answered" for o in outs)
            got = [answer_digest(o.table) for o in outs]
            assert got == digests
            m = svc.metrics()
            assert m["accounting_ok"] and m["failed"] == 0

    def test_writer_keeps_reports_but_not_answer_tables(self, fx, plans, digests):
        """The writer learns from each query; it must not retain its answer."""
        system = deepsea(fx.catalog, domains=fx.domains)
        with QueryService(system, workers=2, queue_depth=64) as svc:
            outs = drain(svc, plans)
        assert [answer_digest(o.table) for o in outs] == digests
        assert svc.metrics()["writer"]["steps"] == len(system.reports) == len(plans)
        assert all(r.result is None for r in system.reports)
        # the counters the layer trace reads survive
        assert sum(len(r.views_created) for r in system.reports) > 0
        assert any(r.view_used is not None for r in system.reports)
        assert all(r.evictions == 0 and r.refinements >= 0 for r in system.reports)

    def test_chaos_answers_byte_identical_with_retries(self, fx, plans, digests):
        system = deepsea(fx.catalog, domains=fx.domains)
        system.attach_faults("perfect-storm")
        svc = QueryService(system, workers=3, queue_depth=64).start()
        outs = drain(svc, plans)
        svc.stop()
        assert all(o is not None and o.status == "answered" for o in outs)
        assert [answer_digest(o.table) for o in outs] == digests
        m = svc.metrics()
        assert m["accounting_ok"] and m["failed"] == 0
        assert m["fault_events"] > 0
        assert m["pool_epoch"] > 0  # the writer repartitioned throughout

    def test_burst_sheds_typed_and_accounted(self, fx, plans):
        system = deepsea(fx.catalog, domains=fx.domains)
        svc = QueryService(system, workers=1, queue_depth=2, adapt=False).start()
        shed = 0
        tickets = []
        for plan in plans:  # back-to-back: must overflow depth 2
            try:
                tickets.append(svc.submit(plan))
            except Overloaded as exc:
                assert exc.kind == "overloaded"
                shed += 1
        outs = [t.result(timeout=TIMEOUT) for t in tickets]
        svc.stop()
        assert shed > 0
        assert all(o is not None for o in outs)
        m = svc.metrics()
        assert m["shed"] == shed
        assert m["accounting_ok"]

    def test_expired_deadline_is_typed_never_a_hang(self, fx, plans):
        system = hive(fx.catalog, domains=fx.domains)
        svc = QueryService(system, workers=1, queue_depth=64, adapt=False)
        # Not started: tickets expire in the queue, then readers drain them.
        tickets = [svc.submit(p, deadline_s=0.01) for p in plans[:5]]
        time.sleep(0.05)
        svc.start()
        outs = [t.result(timeout=TIMEOUT) for t in tickets]
        svc.stop()
        assert all(o is not None and o.status == "timed_out" for o in outs)
        assert all(o.error_kind == "deadline_exceeded" for o in outs)
        m = svc.metrics()
        assert m["timed_out"] == 5 and m["accounting_ok"]

    def test_deadline_exception_carries_timing(self):
        exc = DeadlineExceeded(0.5, 0.75)
        assert exc.kind == "deadline_exceeded"
        assert exc.deadline_s == 0.5 and exc.waited_s == 0.75

    def test_certain_crashes_degrade_to_direct_not_failure(self, fx, plans, digests):
        # worker_kill at rate 1.0 makes every planned attempt die, so every
        # query must walk the full ladder and answer from the base tables.
        always = FaultSchedule.of("always-kill", seed=5, worker_kill=1.0)
        system = deepsea(fx.catalog, domains=fx.domains)
        system.attach_faults(always)
        svc = QueryService(
            system, workers=2, queue_depth=64, retries=1, backoff_s=0.0, adapt=False
        ).start()
        outs = drain(svc, plans[:10])
        svc.stop()
        assert all(o is not None and o.status == "answered" for o in outs)
        assert all(o.degraded == "direct" for o in outs)
        assert all(o.error_kind == "worker_crash" for o in outs)
        assert all(o.retries == 1 for o in outs)
        assert [answer_digest(o.table) for o in outs] == digests[:10]
        m = svc.metrics()
        assert m["degraded_direct"] == 10
        assert m["retries"] == 10
        assert m["accounting_ok"] and m["failed"] == 0

    def test_engine_bug_fails_the_ticket_and_spares_the_reader(self, fx, plans, monkeypatch):
        # An exception that is not a ReproError is a bug, not adversity: the
        # ticket resolves "failed" with the exception's type, no retry, and
        # the reader thread lives on to answer the next one.
        from repro.engine.executor import Executor

        real = Executor.execute
        raised = []

        def execute_raising_once(self, *args, **kwargs):
            if not raised:
                raised.append(True)
                raise RuntimeError("bug inside the executor")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Executor, "execute", execute_raising_once)
        system = deepsea(fx.catalog, domains=fx.domains)
        svc = QueryService(system, workers=1, adapt=False).start()
        first, second = drain(svc, plans[:2])
        svc.stop()
        assert first is not None and first.status == "failed"
        assert first.error_kind == "RuntimeError" and first.retries == 0
        assert second is not None and second.status == "answered"
        m = svc.metrics()
        assert (m["offered"], m["failed"], m["answered"]) == (2, 1, 1)
        assert m["accounting_ok"]

    def test_a_writer_bug_is_counted_and_the_writer_lives_on(
        self, fx, plans, digests, monkeypatch
    ):
        # An exception that is not a ReproError, raised inside the writer's
        # step 3, must neither end the writer thread nor go uncounted.
        from repro.core.selection import Selection

        real = Selection.plan_view_creations
        calls = []

        def raising_on_the_third_step(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("bug inside selection")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Selection, "plan_view_creations", raising_on_the_third_step)
        system = deepsea(fx.catalog, domains=fx.domains)
        with QueryService(system, workers=2, queue_depth=64) as svc:
            outs = drain(svc, plans)
        assert [answer_digest(o.table) for o in outs] == digests
        writer = svc.metrics()["writer"]
        assert writer["errors"] == 1
        assert writer["steps"] == len(plans) - 1  # it stepped on past the bug
        (error,) = svc.writer.errors
        assert error.startswith("RuntimeError: bug inside selection")
        assert "Traceback" in error and "raising_on_the_third_step" in error

    def test_stop_is_idempotent(self, fx, plans, digests):
        system = deepsea(fx.catalog, domains=fx.domains)
        svc = QueryService(system, workers=1).start()
        (out,) = drain(svc, plans[:1])
        svc.stop()
        svc.stop()
        assert answer_digest(out.table) == digests[0]
        assert svc.snapshots.active_leases == 0

    def test_constructor_validation(self, fx):
        system = hive(fx.catalog, domains=fx.domains)
        with pytest.raises(ValueError):
            QueryService(system, workers=0)
        with pytest.raises(ValueError):
            QueryService(system, retries=-1)


class TestOnePlanPerQuery:
    """More readers than cores race the writer over one plan record.  Each
    query is planned by whichever of reader and writer comes first and
    read (or extended) by the other, so once the service is stopped every
    record must still equal planning from scratch, and every answer the
    serial one.  Run by CI under a 1 µs switch interval too."""

    def test_records_and_answers_survive_four_readers(self, fx, plans, digests):
        rng = np.random.default_rng(4)
        order = list(range(len(plans))) + list(rng.integers(0, len(plans), len(plans)))
        system = deepsea(fx.catalog, domains=fx.domains)
        svc = QueryService(system, workers=4, queue_depth=128).start()
        try:
            outs = drain(svc, [plans[i] for i in order], pace_s=0.001)
        finally:
            svc.stop(timeout=TIMEOUT)
        assert not any(t.is_alive() for t in [*svc._readers, svc.writer._thread])
        assert all(o is not None and o.status == "answered" for o in outs)
        assert [answer_digest(o.table) for o in outs] == [digests[i] for i in order]
        metrics = svc.metrics()
        assert metrics["writer"]["errors"] == 0
        assert metrics["writer"]["steps"] == len(order)
        rewriter = system.rewriter
        with svc.plan_lock:
            for plan in plans:
                assert rewriter.plan(plan) == planned_from_scratch(rewriter, plan)


class TestFeedBatchUnderReaders:
    """Readers run while the writer appends in place to storage they are
    reading a prefix of: every answer must be the serial answer over the
    table as it stood after *some* whole number of batches — never a torn
    or shifted row — and the drained service must match the serial end state."""

    N_ROWS, N_BATCHES, BATCH = 1500, 8, 60
    SCHEMA = Schema.of(Column("id"), Column("k"), Column("s", ColumnKind.STRING))

    def rows(self, id0: int, n: int) -> dict:
        rng = np.random.default_rng(id0)
        # "zeta" first appears in a batch: that append re-unifies the
        # dictionary into a fresh buffer while readers hold the old one.
        words = np.array(["alpha", "beta", "gamma", "zeta"][: 4 if id0 else 3])
        return {
            "id": np.arange(id0, id0 + n),
            "k": rng.integers(0, 1001, n),
            "s": words[rng.integers(0, len(words), n)],
        }

    def plan(self, i: int):
        lo = 40 * (i % 12)
        return Q("t").select("id", "k", "s").where_between("k", lo, lo + 420).plan

    def test_every_answer_is_a_serial_answer_at_a_batch_boundary(self):
        base = Catalog()
        base.register("t", Table.from_dict(self.SCHEMA, self.rows(0, self.N_ROWS), scale=1000.0))
        batches = [
            self.rows(10_000 * (b + 1), self.BATCH) for b in range(self.N_BATCHES)
        ]
        distinct = [self.plan(i) for i in range(12)]

        # Serial reference: the digest of every plan at every batch boundary.
        serial = base.fork()
        direct = hive(serial)
        boundaries = [{p: answer_digest(direct.execute(p).result) for p in distinct}]
        for rows in batches:
            serial.ingest("t", rows)
            boundaries.append({p: answer_digest(direct.execute(p).result) for p in distinct})

        system = deepsea(base.fork(), domains={"k": Interval.closed(0, 1000)})
        svc = QueryService(system, workers=3, queue_depth=128).start()
        plans, tickets, fed = [], [], 0
        try:
            # Queries keep arriving, one batch outstanding at a time, until
            # the writer has applied them all: appends land mid-traffic.
            deadline = time.monotonic() + TIMEOUT
            while svc.writer.batches < self.N_BATCHES and time.monotonic() < deadline:
                if fed == svc.writer.batches and fed < self.N_BATCHES:
                    assert svc.feed_batch("t", batches[fed])
                    fed += 1
                plans.append(distinct[len(plans) % len(distinct)])
                tickets.append(svc.submit(plans[-1]))
                time.sleep(0.002)
            outs = [t.result(timeout=TIMEOUT) for t in tickets]
        finally:
            svc.stop()
        metrics = svc.metrics()
        assert metrics["writer"]["batches"] == self.N_BATCHES
        assert metrics["writer"]["errors"] == 0 and metrics["failed"] == 0
        assert all(o is not None and o.status == "answered" for o in outs)
        seen = set()
        for plan, out in zip(plans, outs):
            digest = answer_digest(out.table)
            at = [b for b, known in enumerate(boundaries) if known[plan] == digest]
            assert at, "answer matches the table at no batch boundary"
            seen.update(at)
        assert len(seen) > 1  # the answers really did straddle appends
        # Drained: the live table is the serial end state, row for row.
        live, want = system.catalog.get("t"), serial.get("t")
        assert live.nrows == self.N_ROWS + self.N_BATCHES * self.BATCH
        assert live.to_rows() == want.to_rows()
        assert base.get("t").nrows == self.N_ROWS  # the shared parent never grew


class TestDriverGates:
    def phase(self, **over):
        base = {
            "offered": 10, "answered": 10, "shed": 0, "timed_out": 0,
            "failed": 0, "retries": 1, "digest_mismatches": [],
            "accounting_ok": True, "unresolved": 0, "pool_epoch": 3,
            "writer": {"steps": 5},
        }
        base.update(over)
        return base

    def test_clean_report_passes(self):
        phases = {
            "steady": self.phase(),
            "burst": self.phase(shed=4, answered=6),
            "chaos": self.phase(),
        }
        assert check_gates(phases) == []

    def test_each_gate_fires(self):
        assert check_gates({"steady": self.phase(digest_mismatches=[3])})
        assert check_gates({"steady": self.phase(accounting_ok=False)})
        assert check_gates({"steady": self.phase(failed=1)})
        assert check_gates({"steady": self.phase(unresolved=1)})
        assert check_gates({"burst": self.phase(shed=0)})
        assert check_gates({"chaos": self.phase(retries=0)})
        assert check_gates({"chaos": self.phase(writer={"steps": 0})})
        assert check_gates({"chaos": self.phase(pool_epoch=0)})
        assert check_gates({"steady": self.phase(writer={"steps": 5, "errors": 1})})
