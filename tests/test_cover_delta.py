"""Tests for cover-delta invalidation (per-view versions + patched mirrors).

The contract under test (see ``repro/matching/cover_cache.py``):

* a residency mutation of view V invalidates only V's memoized covers —
  entries for every other view stay live across the mutation;
* the sorted interval mirror is patched in place from pool deltas and
  always equals the pool's canonical per-attribute order;
* a journal rollback restores the exact pre-transaction cover versions,
  so memo entries computed before the transaction validate again;
* under arbitrary interleavings of mutations and lookups the memoized
  covers are identical to a memo-free ``greedy_cover`` oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.matching.cover_cache import CoverCache
from repro.matching.partition_match import greedy_cover
from repro.partitioning.intervals import Interval, IntervalIndex, sort_key
from repro.query.algebra import Relation
from repro.storage.pool import MaterializedViewPool


def payload(nrows: int = 3) -> Table:
    schema = Schema.of(Column("v"))
    return Table.from_dict(schema, {"v": list(range(nrows))})


def make_pool(*view_ids: str) -> MaterializedViewPool:
    pool = MaterializedViewPool()
    for view_id in view_ids:
        pool.define_view(view_id, Relation(f"base_{view_id}"))
    return pool


class TestPerViewInvalidation:
    def test_mutating_one_view_keeps_other_views_entries_live(self):
        pool = make_pool("va", "vb")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        pool.add_fragment("vb", "v", Interval.closed(0, 10), payload())
        cache = CoverCache(pool)
        theta = Interval.closed(2, 8)
        cache.cover("va", "v", theta)
        cache.cover("vb", "v", theta)
        assert cache.stats()["misses"] == 2

        pool.add_fragment("vb", "v", Interval.open_closed(10, 20), payload())

        before = cache.stats()["hits"]
        cache.cover("va", "v", theta)  # untouched view: still a hit
        assert cache.stats()["hits"] == before + 1
        assert cache.stats()["invalidations"] == 0

        cache.cover("vb", "v", theta)  # mutated view: invalidated
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["by_view"] == {"vb": 1}

    def test_eviction_invalidates_only_its_view(self):
        pool = make_pool("va", "vb")
        left = pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        pool.add_fragment("vb", "v", Interval.closed(0, 20), payload())
        cache = CoverCache(pool)
        theta = Interval.closed(0, 15)
        assert cache.cover("va", "v", theta) is not None
        assert cache.cover("vb", "v", theta) is not None

        pool.evict(left.fragment_id)

        assert cache.cover("va", "v", theta) is None  # hole at [0, 10]
        assert cache.cover("vb", "v", theta) is not None
        stats = cache.stats()
        assert stats["by_view"] == {"va": 1}
        assert stats["hits"] == 1  # the vb re-lookup

    def test_memoized_cover_matches_oracle_after_mutations(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        cache = CoverCache(pool)
        theta = Interval.closed(0, 18)
        assert cache.cover("va", "v", theta) is None
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        got = cache.cover("va", "v", theta)
        oracle = greedy_cover(theta, pool.intervals_of("va", "v"))
        assert got == oracle


class TestMirrorPatching:
    def test_mirror_tracks_pool_order_across_admit_and_evict(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(20, 30), payload())
        cache = CoverCache(pool)
        cache.cover("va", "v", Interval.closed(21, 29))  # seeds the mirror
        mirror = cache._mirrors[("va", "v")]
        assert mirror == pool.intervals_of("va", "v")

        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        middle = pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        assert mirror == pool.intervals_of("va", "v")
        assert mirror == sorted(mirror, key=sort_key)

        pool.evict(middle.fragment_id)
        assert mirror == pool.intervals_of("va", "v")

    def test_unseeded_mirror_ignores_deltas_then_seeds_from_pool(self):
        pool = make_pool("va")
        cache = CoverCache(pool)
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        assert ("va", "v") not in cache._mirrors
        assert cache.cover("va", "v", Interval.closed(1, 9)) is not None
        assert cache._mirrors[("va", "v")] == pool.intervals_of("va", "v")

    def test_whole_view_deltas_do_not_touch_mirrors(self):
        pool = make_pool("va", "vw")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        cache = CoverCache(pool)
        cache.cover("va", "v", Interval.closed(1, 9))
        pool.add_whole_view("vw", payload())  # attr=None delta
        assert list(cache._mirrors) == [("va", "v")]

    def test_from_sorted_equals_fresh_index(self):
        intervals = [
            Interval.closed(0, 10),
            Interval.open_closed(10, 20),
            Interval.closed(5, 15),
        ]
        ordered = sorted(intervals, key=sort_key)
        fresh = IntervalIndex(ordered)
        patched = IntervalIndex.from_sorted(ordered)
        assert fresh.intervals == patched.intervals
        assert fresh.order == patched.order
        assert fresh.lower_keys == patched.lower_keys
        assert fresh.upper_keys == patched.upper_keys
        # And against an unsorted fresh index, the sorted traversal agrees.
        unsorted = IntervalIndex(intervals)
        assert [unsorted.intervals[i] for i in unsorted.order] == patched.intervals


class TestRollbackRestoresVersions:
    def test_rollback_restores_exact_versions_and_revalidates_memo(self):
        pool = make_pool("va", "vb")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        frag_b = pool.add_fragment("vb", "v", Interval.closed(0, 10), payload())
        cache = CoverCache(pool)
        theta = Interval.closed(2, 8)
        pre_cover = cache.cover("vb", "v", theta)
        pre_versions = {v: pool.cover_version(v) for v in ("va", "vb")}

        pool.begin("step")
        pool.add_fragment("vb", "v", Interval.open_closed(10, 20), payload())
        pool.evict(frag_b.fragment_id)
        assert pool.cover_version("vb") != pre_versions["vb"]
        pool.rollback()

        assert {v: pool.cover_version(v) for v in ("va", "vb")} == pre_versions
        hits_before = cache.stats()["hits"]
        assert cache.cover("vb", "v", theta) == pre_cover
        assert cache.stats()["hits"] == hits_before + 1  # entry valid again
        assert cache._mirrors[("vb", "v")] == pool.intervals_of("vb", "v")

    def test_mid_transaction_versions_are_never_reissued(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        pool.begin("step")
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        mid_version = pool.cover_version("va")
        pool.rollback()
        assert pool.cover_version("va") < mid_version
        # The next mutation draws a fresh epoch strictly beyond the
        # rolled-back transaction's versions.
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        assert pool.cover_version("va") > mid_version

    def test_commit_keeps_new_versions(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        v0 = pool.cover_version("va")
        pool.begin("step")
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        pool.commit()
        assert pool.cover_version("va") > v0


# ----------------------------------------------------------------------
# Property: interleaved mutations + lookups == memo-free oracle.
# ----------------------------------------------------------------------
GRID = st.integers(0, 12)


@st.composite
def op_sequences(draw):
    n = draw(st.integers(1, 24))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["admit", "admit", "query", "query", "query", "evict"]))
        lo = draw(GRID)
        width = draw(st.integers(1, 5))
        ops.append((kind, float(lo), float(lo + width), draw(st.integers(0, 10**6))))
    return ops


@given(ops=op_sequences())
@settings(max_examples=120, deadline=None)
def test_interleaved_mutations_and_matches_equal_oracle(ops):
    pool = make_pool("va")
    cache = CoverCache(pool)
    resident: dict[Interval, str] = {}
    for kind, lo, hi, salt in ops:
        interval = Interval.closed(lo, hi)
        if kind == "admit":
            if interval in resident:
                continue
            entry = pool.add_fragment("va", "v", interval, payload())
            resident[interval] = entry.fragment_id
        elif kind == "evict":
            if not resident:
                continue
            victim = sorted(resident, key=sort_key)[salt % len(resident)]
            pool.evict(resident.pop(victim))
        else:
            got = cache.cover("va", "v", interval)
            oracle = greedy_cover(interval, pool.intervals_of("va", "v"))
            assert got == oracle
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == sum(1 for op in ops if op[0] == "query")


def test_cover_cache_registered_in_registry():
    from repro.caches import cache_stats

    pool = make_pool("va")
    pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
    cache = CoverCache(pool)
    cache.cover("va", "v", Interval.closed(1, 9))
    stats = cache_stats()["matching.cover_cache"]
    for key in ("hits", "misses", "evictions", "entries", "invalidations", "by_view"):
        assert key in stats
    assert stats["misses"] >= 1


def test_bucket_eviction_is_bounded_fifo():
    from repro.matching import cover_cache as mod

    pool = make_pool("va")
    pool.add_fragment("va", "v", Interval.closed(0, 1000), payload())
    cache = CoverCache(pool)
    limit = mod._MAX_COVERS_PER_VIEW
    for i in range(limit + 5):
        cache.cover("va", "v", Interval.closed(float(i), float(i) + 0.5))
    stats = cache.stats()
    assert stats["entries"] <= limit
    assert stats["evictions"] >= 1


class TestFilterTreeResidency:
    """§8.3 registry counters ride the same delta stream as the memo."""

    @staticmethod
    def _tree(pool):
        from repro.matching.filter_tree import FilterTree

        tree = FilterTree()
        tree.subscribe_to(pool)
        return tree

    def test_admit_and_evict_update_counters_incrementally(self):
        pool = make_pool("va", "vb")
        tree = self._tree(pool)
        entry = pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        pool.add_fragment("vb", "v", Interval.closed(0, 10), payload())

        assert tree.residency("va").resident_fragments == 2
        assert tree.residency("va").admits == 2
        assert tree.residency("vb").resident_fragments == 1
        assert tree.stats.resident_views == 2
        assert tree.stats.deltas_applied == 3

        pool.evict(entry.fragment_id)
        assert tree.residency("va").resident_fragments == 1
        assert tree.residency("va").evicts == 1
        assert tree.stats.resident_views == 2

    def test_rollback_deltas_keep_gauge_exact(self):
        pool = make_pool("va")
        tree = self._tree(pool)
        keep = pool.add_fragment("va", "v", Interval.closed(0, 10), payload())

        pool.begin("step")
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        pool.evict(keep.fragment_id)
        pool.rollback()

        cell = tree.residency("va")
        assert cell.resident_fragments == 1  # back to just `keep`
        assert cell.admits == 2
        assert cell.evicts >= 1
        assert cell.restores >= 1
        assert tree.stats.resident_views == 1

    def test_unsubscribed_tree_sees_nothing(self):
        from repro.matching.filter_tree import FilterTree

        pool = make_pool("va")
        tree = FilterTree()
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        assert tree.residency("va") is None
        assert tree.stats.deltas_applied == 0

    def test_deepsea_wires_registry_to_its_pool(self):
        from repro.bench.harness import sdss_fixture
        from repro.baselines import deepsea
        from repro.workloads.generator import sdss_mapped_workload

        fx = sdss_fixture(1.0, seed=3)
        plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=12, seed=3)
        system = deepsea(fx.catalog, domains=fx.domains)
        for plan in plans:
            system.execute(plan)
        stats = system.filter_tree.stats
        assert stats.deltas_applied > 0
        # The gauge agrees with a direct pool scan at quiescence.
        from collections import Counter

        by_view = Counter(entry.key.view_id for entry in system.pool.all_entries())
        for view_id, cell in stats.residency.items():
            assert cell.resident_fragments == by_view.get(view_id, 0), view_id
