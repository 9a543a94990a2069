"""Tests for the pool's per-partition cover index and per-view versions.

The contract under test (``MaterializedViewPool.cover_index``):

* ``cover_index(view, attr)`` always equals a fresh
  ``IntervalIndex(pool.intervals_of(view, attr))``, and ``greedy_cover``
  through it equals ``greedy_cover`` over the interval list;
* a residency mutation of view V rebuilds only V's indexes — every other
  view's index object is reused across the mutation;
* a journal rollback restores the exact pre-transaction cover versions,
  so an index built before the transaction is valid again.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.matching.partition_match import greedy_cover
from repro.partitioning.intervals import Interval, IntervalIndex, sort_key
from repro.query.algebra import Relation
from repro.storage.pool import FragmentKey, MaterializedViewPool
from tests.conftest import examples


def payload(nrows: int = 3) -> Table:
    schema = Schema.of(Column("v"))
    return Table.from_dict(schema, {"v": list(range(nrows))})


def make_pool(*view_ids: str) -> MaterializedViewPool:
    pool = MaterializedViewPool()
    for view_id in view_ids:
        pool.define_view(view_id, Relation(f"base_{view_id}"))
    return pool


def index_fields(index: IntervalIndex) -> tuple:
    return (index.intervals, index.lower_keys, index.upper_keys)


def cover_via_pool(pool, view_id: str, attr: str, theta: Interval):
    return greedy_cover(theta, pool.cover_index(view_id, attr))


class TestPerViewInvalidation:
    def test_mutating_one_view_keeps_other_views_entries_live(self):
        pool = make_pool("va", "vb")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        pool.add_fragment("vb", "v", Interval.closed(0, 10), payload())
        index_a = pool.cover_index("va", "v")
        index_b = pool.cover_index("vb", "v")
        assert pool.cover_index("va", "v") is index_a  # memoized

        pool.add_fragment("vb", "v", Interval.open_closed(10, 20), payload())

        assert pool.cover_index("va", "v") is index_a  # untouched view
        rebuilt = pool.cover_index("vb", "v")
        assert rebuilt is not index_b
        assert index_fields(rebuilt) == index_fields(IntervalIndex(pool.intervals_of("vb", "v")))

    def test_eviction_invalidates_only_its_view(self):
        pool = make_pool("va", "vb")
        left = pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        pool.add_fragment("vb", "v", Interval.closed(0, 20), payload())
        theta = Interval.closed(0, 15)
        assert cover_via_pool(pool, "va", "v", theta) is not None
        assert cover_via_pool(pool, "vb", "v", theta) is not None
        index_b = pool.cover_index("vb", "v")

        pool.evict(left.fragment_id)

        assert cover_via_pool(pool, "va", "v", theta) is None  # hole at [0, 10]
        assert cover_via_pool(pool, "vb", "v", theta) is not None
        assert pool.cover_index("vb", "v") is index_b

    def test_memoized_cover_matches_oracle_after_mutations(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        theta = Interval.closed(0, 18)
        assert cover_via_pool(pool, "va", "v", theta) is None
        pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        got = cover_via_pool(pool, "va", "v", theta)
        assert got is not None
        assert got == greedy_cover(theta, IntervalIndex(pool.intervals_of("va", "v")))


class TestMirrorPatching:
    def test_mirror_tracks_pool_order_across_admit_and_evict(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(20, 30), payload())
        assert pool.cover_index("va", "v").intervals == pool.intervals_of("va", "v")

        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        middle = pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        intervals = pool.cover_index("va", "v").intervals
        assert intervals == pool.intervals_of("va", "v")
        assert intervals == sorted(intervals, key=sort_key)

        pool.evict(middle.fragment_id)
        assert pool.cover_index("va", "v").intervals == pool.intervals_of("va", "v")

    def test_whole_view_deltas_do_not_touch_mirrors(self):
        pool = make_pool("va", "vw")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        index = pool.cover_index("va", "v")
        pool.add_whole_view("vw", payload())
        assert pool.cover_index("va", "v") is index
        assert len(pool.cover_index("vw", "v")) == 0

    def test_from_sorted_equals_fresh_index(self):
        intervals = [
            Interval.closed(0, 10),
            Interval.open_closed(10, 20),
            Interval.closed(5, 15),
        ]
        ordered = sorted(intervals, key=sort_key)
        fresh = IntervalIndex(ordered)
        patched = IntervalIndex.from_sorted(ordered)
        assert index_fields(fresh) == index_fields(patched)
        # And an unsorted list is sorted once, into the same index.
        assert index_fields(IntervalIndex(intervals)) == index_fields(patched)


class TestRollbackRestoresVersions:
    def test_rollback_restores_exact_versions_and_revalidates_memo(self):
        pool = make_pool("va", "vb")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        frag_b = pool.add_fragment("vb", "v", Interval.closed(0, 10), payload())
        theta = Interval.closed(2, 8)
        pre_cover = cover_via_pool(pool, "vb", "v", theta)
        pre_index = pool.cover_index("vb", "v")
        pre_versions = {v: pool.cover_version(v) for v in ("va", "vb")}

        pool.begin("step")
        pool.add_fragment("vb", "v", Interval.open_closed(10, 20), payload())
        pool.evict(frag_b.fragment_id)
        assert pool.cover_version("vb") != pre_versions["vb"]
        pool.rollback()

        assert {v: pool.cover_version(v) for v in ("va", "vb")} == pre_versions
        assert cover_via_pool(pool, "vb", "v", theta) == pre_cover
        assert index_fields(pool.cover_index("vb", "v")) == index_fields(pre_index)

    def test_rollback_revalidates_an_index_not_rebuilt_mid_transaction(self):
        pool = make_pool("va")
        pool.add_fragment("va", "v", Interval.closed(0, 10), payload())
        keep = pool.add_fragment("va", "v", Interval.open_closed(10, 20), payload())
        index = pool.cover_index("va", "v")
        pool.begin("step")
        pool.add_fragment("va", "v", Interval.open_closed(20, 30), payload())
        pool.rollback()
        assert pool.cover_index("va", "v") is index  # valid again, no rebuild
        assert keep.fragment_id in {f.fragment_id for f in pool.fragments_of("va", "v")}

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
# Property: after every step of a random mutation sequence, the pool's
# cover index (and greedy_cover through it) equals a from-scratch oracle.
# ----------------------------------------------------------------------
VIEWS = ("va", "vb")
ATTRS = ("a", "b")
GRID = st.integers(0, 12)
KINDS = ("admit", "admit", "admit", "evict", "patch", "begin", "rollback", "commit")


@st.composite
def op_sequences(draw):
    n = draw(st.integers(1, 30))
    ops = []
    for _ in range(n):
        lo = draw(GRID)
        ops.append(
            (
                draw(st.sampled_from(KINDS)),
                draw(st.sampled_from(VIEWS)),
                draw(st.sampled_from(ATTRS)),
                float(lo),
                float(lo + draw(st.integers(1, 5))),
                draw(st.integers(0, 10**6)),
            )
        )
    return ops


def assert_indexes_equal_oracle(pool, theta: Interval) -> None:
    for view_id in VIEWS:
        for attr in ATTRS:
            intervals = pool.intervals_of(view_id, attr)
            index = pool.cover_index(view_id, attr)
            assert index_fields(index) == index_fields(IntervalIndex(intervals))
            assert greedy_cover(theta, index) == greedy_cover(theta, IntervalIndex(intervals))


@given(ops=op_sequences())
@settings(max_examples=examples(dev=30, deep=150), deadline=None)
def test_interleaved_mutations_and_matches_equal_oracle(ops):
    pool = make_pool(*VIEWS)
    for kind, view_id, attr, lo, hi, salt in ops:
        interval = Interval.closed(lo, hi)
        resident = sorted(pool.all_entries(), key=lambda e: e.fragment_id)
        if kind == "admit":
            if pool.find_fragment(FragmentKey(view_id, attr, interval)) is None:
                pool.add_fragment(view_id, attr, interval, payload())
        elif kind in ("evict", "patch"):
            if resident:
                victim = resident[salt % len(resident)]
                if kind == "evict":
                    pool.evict(victim.fragment_id)
                else:
                    pool.patch_entry(victim.fragment_id, payload(1 + salt % 4))
        elif kind == "begin":
            if not pool.journal.journaling:
                pool.begin("step")
        elif pool.journal.journaling:
            if kind == "rollback":
                pool.rollback()
            else:
                pool.commit()
        assert_indexes_equal_oracle(pool, interval)
