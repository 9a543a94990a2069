"""Tests for the simulated HDFS and the materialized-view pool."""

import pytest

from repro.engine.cost import CostLedger
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import BlockLostError, PoolError, RecoveryError
from repro.partitioning.intervals import Interval
from repro.query.algebra import Relation
from repro.storage.hdfs import SimulatedHDFS
from repro.storage.pool import FragmentKey, MaterializedViewPool


@pytest.fixture
def small_table():
    schema = Schema.of(Column("v"))
    return Table.from_dict(schema, {"v": [1, 2, 3]})


class TestSimulatedHDFS:
    def test_write_read_roundtrip(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        assert fs.read("/a").to_rows() == small_table.to_rows()

    def test_write_charges_ledger(self, small_table):
        fs = SimulatedHDFS()
        ledger = CostLedger()
        fs.write("/a", small_table, ledger)
        assert ledger.write_s > 0
        assert ledger.bytes_written == small_table.size_bytes

    def test_read_charges_ledger(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        ledger = CostLedger()
        fs.read("/a", ledger)
        assert ledger.read_s > 0

    def test_duplicate_write_raises(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        with pytest.raises(PoolError):
            fs.write("/a", small_table)

    def test_delete(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.delete("/a")
        assert not fs.exists("/a")
        with pytest.raises(PoolError):
            fs.read("/a")

    def test_used_bytes(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.write("/b", small_table)
        assert fs.used_bytes == 2 * small_table.size_bytes


class TestPool:
    def make_pool(self, smax=None):
        pool = MaterializedViewPool(smax_bytes=smax)
        pool.define_view("v1", Relation("sales"))
        return pool

    def test_whole_view_residency(self, small_table):
        pool = self.make_pool()
        pool.add_whole_view("v1", small_table)
        assert pool.is_resident("v1")
        entry = pool.whole_view_entry("v1")
        assert entry is not None
        assert pool.read_entry(entry.fragment_id).nrows == 3

    def test_fragment_residency_sorted(self, small_table):
        pool = self.make_pool()
        pool.add_fragment("v1", "v", Interval.closed(10, 20), small_table)
        pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        intervals = pool.intervals_of("v1", "v")
        assert intervals[0].lo == 0 and intervals[1].lo == 10

    def test_duplicate_fragment_raises(self, small_table):
        pool = self.make_pool()
        pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        with pytest.raises(PoolError):
            pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)

    def test_undefined_view_raises(self, small_table):
        pool = MaterializedViewPool()
        with pytest.raises(PoolError):
            pool.add_whole_view("ghost", small_table)

    def test_smax_enforced(self, small_table):
        pool = self.make_pool(smax=small_table.size_bytes * 1.5)
        pool.add_whole_view("v1", small_table)
        pool.define_view("v2", Relation("item"))
        with pytest.raises(PoolError):
            pool.add_whole_view("v2", small_table)

    def test_evict_frees_space_and_file(self, small_table):
        pool = self.make_pool(smax=small_table.size_bytes)
        entry = pool.add_whole_view("v1", small_table)
        pool.evict(entry.fragment_id)
        assert pool.used_bytes == 0
        assert not pool.is_resident("v1")
        assert pool.hdfs.file_count == 0

    def test_evict_one_fragment_keeps_siblings(self, small_table):
        pool = self.make_pool()
        left = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        pool.add_fragment("v1", "v", Interval.open_closed(10, 20), small_table)
        pool.evict(left.fragment_id)
        assert pool.is_resident("v1")
        assert len(pool.fragments_of("v1", "v")) == 1

    def test_find_fragment_by_key(self, small_table):
        pool = self.make_pool()
        pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        hit = pool.find_fragment(FragmentKey("v1", "v", Interval.closed(0, 10)))
        assert hit is not None
        miss = pool.find_fragment(FragmentKey("v1", "v", Interval.closed(0, 11)))
        assert miss is None

    def test_multiple_partitions_same_view(self, small_table):
        pool = self.make_pool()
        pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        pool.add_fragment("v1", "w", Interval.closed(0, 99), small_table)
        assert pool.partition_attrs("v1") == ["v", "w"]

    def test_configuration_snapshot(self, small_table):
        pool = self.make_pool()
        pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        snap = pool.configuration()
        assert snap["v1"]["partitions"]["v"] == [Interval.closed(0, 10)]

    def test_fragment_key_validation(self):
        with pytest.raises(PoolError):
            FragmentKey("v", "a", None)
        with pytest.raises(PoolError):
            FragmentKey("v", None, Interval.closed(0, 1))

    def test_view_id_collision_detection(self):
        pool = self.make_pool()
        with pytest.raises(PoolError):
            pool.define_view("v1", Relation("other"))
        # idempotent when the plan matches
        pool.define_view("v1", Relation("sales"))


class TestHDFSFaultSurface:
    """Edge semantics of simulated block loss, corruption, and healing.

    The load-bearing property: a *failed* operation leaves the file map
    and its counters exactly as they were, and recoverable cluster damage
    (BlockLostError) is typed distinctly from caller bugs (PoolError).
    """

    def test_read_after_replica_loss_raises_typed(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.lose_replicas("/a")
        assert fs.is_lost("/a")
        with pytest.raises(BlockLostError):
            fs.read("/a")

    def test_lose_replicas_of_unknown_path_is_a_caller_bug(self):
        fs = SimulatedHDFS()
        with pytest.raises(PoolError):
            fs.lose_replicas("/ghost")

    def test_restore_heals_the_file(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.lose_replicas("/a")
        fs.restore("/a", small_table)
        assert not fs.is_lost("/a")
        assert fs.read("/a").to_rows() == small_table.to_rows()

    def test_restore_size_mismatch_raises_and_stays_lost(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.lose_replicas("/a")
        bigger = Table.from_dict(small_table.schema, {"v": [1, 2, 3, 4, 5]})
        with pytest.raises(RecoveryError):
            fs.restore("/a", bigger)
        assert fs.is_lost("/a")

    def test_peek_ignores_replica_loss(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.lose_replicas("/a")
        assert fs.peek("/a").to_rows() == small_table.to_rows()

    def test_counters_unchanged_by_failed_operations(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.lose_replicas("/a")
        bytes_before, files_before = fs.used_bytes, fs.file_count
        for failing_op in (
            lambda: fs.write("/a", small_table),
            lambda: fs.delete("/ghost"),
            lambda: fs.read("/ghost"),
            lambda: fs.read("/a"),
            lambda: fs.lose_replicas("/ghost"),
            lambda: fs.restore("/ghost", small_table),
        ):
            with pytest.raises((PoolError, BlockLostError, RecoveryError)):
                failing_op()
            assert fs.used_bytes == bytes_before
            assert fs.file_count == files_before

    def test_delete_clears_the_lost_marker(self, small_table):
        fs = SimulatedHDFS()
        fs.write("/a", small_table)
        fs.lose_replicas("/a")
        fs.delete("/a")
        fs.write("/a", small_table)
        assert not fs.is_lost("/a")
        assert fs.read("/a").to_rows() == small_table.to_rows()


class TestPoolJournal:
    """Write-ahead journal: rollback restores the exact configuration."""

    def make_pool(self):
        pool = MaterializedViewPool()
        pool.define_view("v1", Relation("sales"))
        return pool

    def test_rollback_restores_exact_configuration(self, small_table):
        pool = self.make_pool()
        keep = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        victim = pool.add_fragment("v1", "v", Interval.open_closed(10, 20), small_table)
        before_config = pool.configuration()
        before_bytes = pool.hdfs.used_bytes
        before_files = pool.hdfs.file_count

        pool.begin("repartition")
        pool.evict(victim.fragment_id)
        pool.add_fragment("v1", "v", Interval.open_closed(20, 30), small_table)
        undone = pool.rollback()

        assert undone == 2
        assert pool.configuration() == before_config
        assert pool.hdfs.used_bytes == before_bytes
        assert pool.hdfs.file_count == before_files
        assert pool.journal.rolled_back == 1
        # Both original entries readable, the aborted admit gone.
        assert pool.read_entry(keep.fragment_id).nrows == 3
        assert pool.read_entry(victim.fragment_id).nrows == 3
        assert len(pool.fragments_of("v1", "v")) == 2

    def test_used_bytes_memo_follows_every_mutation(self, small_table):
        pool = self.make_pool()
        pool.define_view("v2", Relation("item"))
        wide = Table.from_dict(small_table.schema, {"v": list(range(7))})

        def fresh_sum():
            return sum(e.size_bytes for e in pool.all_entries())

        assert pool.used_bytes == fresh_sum() == 0
        a = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        assert pool.used_bytes == fresh_sum()
        pool.add_whole_view("v2", wide)
        assert pool.used_bytes == fresh_sum()
        a = pool.patch_entry(a.fragment_id, wide)
        assert pool.used_bytes == fresh_sum()
        pool.begin("repartition")
        pool.evict(a.fragment_id)
        pool.add_fragment("v1", "v", Interval.open_closed(10, 20), small_table)
        assert pool.used_bytes == fresh_sum()
        pool.rollback()
        assert pool.used_bytes == fresh_sum() == 2 * wide.size_bytes
        pool.evict(a.fragment_id)
        assert pool.used_bytes == fresh_sum() == wide.size_bytes

    def test_rollback_replay_cost_lands_on_ledger(self, small_table):
        pool = self.make_pool()
        victim = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        ledger = CostLedger()
        pool.begin("repartition")
        pool.evict(victim.fragment_id)
        pool.rollback(ledger)
        assert ledger.write_s > 0
        assert ledger.bytes_written == small_table.size_bytes

    def test_commit_keeps_changes(self, small_table):
        pool = self.make_pool()
        victim = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        pool.begin("merge")
        pool.evict(victim.fragment_id)
        pool.commit()
        assert not pool.is_resident("v1")
        assert pool.journal.committed == 1
        assert not pool.journal.journaling

    def test_transactions_do_not_nest(self):
        pool = self.make_pool()
        pool.begin("a")
        with pytest.raises(PoolError, match="do not nest"):
            pool.begin("b")

    def test_commit_and_rollback_require_open_transaction(self):
        pool = self.make_pool()
        with pytest.raises(PoolError):
            pool.commit()
        with pytest.raises(PoolError):
            pool.rollback()

    def test_mutations_outside_transaction_are_unjournaled(self, small_table):
        pool = self.make_pool()
        entry = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        pool.evict(entry.fragment_id)  # no begin(): plain eviction
        assert pool.journal.committed == 0
        assert pool.journal.rolled_back == 0

    def test_lost_entry_without_recovery_raises_typed(self, small_table):
        pool = self.make_pool()
        entry = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        pool.hdfs.lose_replicas(entry.path)
        assert pool.recovery is None
        with pytest.raises(RecoveryError, match="no recovery"):
            pool.read_entry(entry.fragment_id)


class TestEntryHoldsItsFile:
    """An entry keeps the immutable file written at its admission."""

    def make_pool(self, small_table):
        pool = MaterializedViewPool()
        pool.define_view("v1", Relation("sales"))
        entry = pool.add_fragment("v1", "v", Interval.closed(0, 10), small_table)
        return pool, entry

    def test_evicted_entry_keeps_its_admitted_payload(self, small_table):
        pool, entry = self.make_pool(small_table)
        assert entry.stored.table is pool.hdfs.peek(entry.path)
        pool.evict(entry.fragment_id)
        assert entry.stored.table.sorted_rows() == small_table.sorted_rows()

    def test_lost_then_evicted_entry_keeps_its_payload(self, small_table):
        pool, entry = self.make_pool(small_table)
        pool.hdfs.lose_replicas(entry.path)
        pool.evict(entry.fragment_id)
        assert entry.stored.table.sorted_rows() == small_table.sorted_rows()

    def test_rollback_restores_the_entry_with_its_payload(self, small_table):
        pool, entry = self.make_pool(small_table)
        pool.begin("repartition")
        pool.evict(entry.fragment_id)
        pool.rollback()
        assert pool.get_fragment(entry.fragment_id) is entry
        assert pool.read_entry(entry.fragment_id).sorted_rows() == small_table.sorted_rows()

    def test_eviction_deletes_the_file(self, small_table):
        pool, entry = self.make_pool(small_table)
        pool.evict(entry.fragment_id)
        assert not pool.hdfs.exists(entry.path)
