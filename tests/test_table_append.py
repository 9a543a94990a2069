"""``Table.append`` and the index caches that extend across it.

The contract (DESIGN.md §16): ``parent.append(batch)`` is column for
column ``Table.concat_many([parent, batch])``; it never changes a row any
existing table can see, whichever of its storage paths it took — in place
at the tip of a shared tail buffer, or one of the fallbacks into a fresh
buffer; the probe index of the grown table, inherited from its parent
and extended by the appended rows only, and its sort index, built afresh,
equal cold-built ones element for element.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import indexes
from repro.engine.executor import hash_join
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind, EncodedColumn, decoded
from repro.errors import SchemaError

SCHEMA = Schema.of(
    Column("k"), Column("v", ColumnKind.FLOAT64), Column("s", ColumnKind.STRING)
)
WORDS = ["ant", "bee", "cat", "dog", "eel"]


def make(keys, words=None, scale=1.0):
    keys = list(keys)
    words = [WORDS[k % len(WORDS)] for k in keys] if words is None else words
    return Table.from_dict(
        SCHEMA, {"k": keys, "v": [k / 4 for k in keys], "s": words}, scale=scale
    )


def assert_same(a: Table, b: Table):
    """Exact equality: schema, row order, values, dtypes, dictionaries."""
    assert a.schema.names == b.schema.names and a.nrows == b.nrows
    assert a.scale == b.scale
    for name in a.schema.names:
        ca, cb = a.column(name), b.column(name)
        assert type(ca) is type(cb)
        if isinstance(ca, EncodedColumn):
            np.testing.assert_array_equal(ca.values, cb.values)
            assert ca.codes.dtype == cb.codes.dtype
            np.testing.assert_array_equal(ca.codes, cb.codes)
        else:
            assert ca.dtype == cb.dtype
            np.testing.assert_array_equal(ca, cb)


def frozen(table: Table) -> list:
    """A deep copy of what ``table`` shows, to compare against later."""
    return [np.array(decoded(table.column(n)), copy=True) for n in table.schema.names]


def assert_unchanged(table: Table, before: list):
    for name, old in zip(table.schema.names, before):
        np.testing.assert_array_equal(decoded(table.column(name)), old)


def in_place(parent: Table, child: Table) -> bool:
    return child._tail is parent._tail and np.shares_memory(
        parent.column("k"), child.column("k")
    )


class TestAppendEqualsConcat:
    def test_first_append_of_a_plain_table(self):
        base, batch = make(range(10)), make([3, 3, 12])
        out = base.append(batch)
        assert_same(out, Table.concat_many([base, batch]))
        assert base._tail is None  # the parent is never adopted into a buffer

    def test_chain_of_appends_numeric_and_encoded(self):
        table = reference = make(range(8))
        versions = []
        for i in range(12):
            batch = make(range(100 + 3 * i, 103 + 3 * i))
            versions.append((table, frozen(table)))
            table = table.append(batch)
            reference = Table.concat_many([reference, batch])
            assert_same(table, reference)
        # The parent and every earlier version still show exactly their rows.
        for version, before in versions:
            assert_unchanged(version, before)

    def test_batch_with_a_subset_dictionary_extends_in_place(self):
        base = make(range(10)).append(make([1]))
        batch = make([7, 7], words=["cat", "ant"])  # its own, smaller dictionary
        out = base.append(batch)
        assert in_place(base, out)
        assert_same(out, Table.concat_many([base, batch]))

    def test_batch_with_a_new_string_reunifies_the_dictionary(self):
        base = make(range(10)).append(make([1]))
        before = frozen(base)
        batch = make([7, 8], words=["bat", "zebra"])
        out = base.append(batch)
        assert not in_place(base, out)  # fallback: codes are renumbered
        assert_same(out, Table.concat_many([base, batch]))
        assert list(out.column("s").values) == sorted(set(WORDS) | {"bat", "zebra"})
        assert_unchanged(base, before)
        # The fresh buffer is a tip again: the next append is in place.
        assert in_place(out, out.append(make([2])))

    def test_a_dtype_numpy_would_promote_falls_back(self):
        schema = Schema.of(Column("k"))
        base = Table(schema, {"k": np.arange(4, dtype=np.int32)}).append(
            Table(schema, {"k": np.arange(2, dtype=np.int32)})
        )
        batch = Table(schema, {"k": np.array([2**40])})
        out = base.append(batch)
        assert not in_place(base, out)
        assert_same(out, Table.concat_many([base, batch]))

    def test_filling_the_buffer_doubles_it(self):
        table = make(range(4)).append(make([0]))  # capacity 10, filled 5
        first = table._tail
        reference = table
        for i in range(6):
            batch = make([i])
            table, reference = table.append(batch), Table.concat_many([reference, batch])
        assert table._tail is not first and table._tail.capacity > first.capacity
        assert_same(table, reference)

    def test_views_are_accepted_on_both_sides(self):
        base = make(range(20))
        view = base.filter(base.column("k") % 2 == 0)
        batch = make(range(30, 40)).take(np.array([5, 1, 1]))
        assert_same(view.append(batch), Table.concat_many([view, batch]))

    def test_empty_batch_and_empty_parent(self):
        base = make(range(5)).append(make([9]))
        assert_same(base.append(make([])), Table.concat_many([base, make([])]))
        assert_same(make([]).append(make([1, 2])), Table.concat_many([make([]), make([1, 2])]))

    def test_scale_follows_concat_many(self):
        base = make(range(5), scale=10.0).append(make([1], scale=10.0))
        batch = make([2], scale=30.0)
        assert base.append(batch).scale == Table.concat_many([base, batch]).scale == 30.0

    def test_schema_mismatch_rejected(self):
        other = Table.from_dict(Schema.of(Column("x")), {"x": [1]})
        with pytest.raises(SchemaError):
            make(range(3)).append(other)

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # which live version to grow
                st.lists(st.integers(min_value=0, max_value=30), max_size=6),
                st.booleans(),  # bring a string no dictionary has seen
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_any_tree_of_appends_equals_concat(self, steps):
        """Appends to the tip, to older versions (forks) and with new
        strings, in any order: every version always equals its own
        concatenation, before and after the others grow."""
        live = [(make(range(6)), make(range(6)))]  # (appended, concat reference)
        for n, (pick, keys, fresh) in enumerate(steps):
            table, reference = live[pick % len(live)]
            words = [f"w{n}" if fresh else WORDS[k % 5] for k in keys]
            batch = make(keys, words=words)
            live.append((table.append(batch), Table.concat_many([reference, batch])))
            for got, want in live:
                assert_same(got, want)


class TestOwnership:
    def test_append_to_the_tip_shares_storage(self):
        v1 = make(range(100)).append(make([1]))
        v2 = v1.append(make([2, 3]))
        assert in_place(v1, v2)
        assert v2._tail.filled == v2.nrows == 103

    def test_two_forks_of_one_parent_never_see_each_other(self):
        parent = make(range(50)).append(make([1]))
        before = frozen(parent)
        left = parent.append(make([100, 101]))
        right = parent.append(make([200]))  # not the tip any more: fresh buffer
        assert in_place(parent, left) and not in_place(parent, right)
        assert_same(left, Table.concat_many([parent, make([100, 101])]))
        assert_same(right, Table.concat_many([parent, make([200])]))
        # Both keep growing without disturbing the other or the parent.
        left2, right2 = left.append(make([102])), right.append(make([201, 202]))
        assert list(left2.column("k")[-3:]) == [100, 101, 102]
        assert list(right2.column("k")[-3:]) == [200, 201, 202]
        assert_unchanged(parent, before)

    def test_an_older_version_is_not_the_tip(self):
        v1 = make(range(10)).append(make([1]))
        v2 = v1.append(make([2]))
        fork = v1.append(make([3]))  # e.g. the retry after a journal rollback
        assert not in_place(v1, fork)
        assert list(v2.column("k")[-2:]) == [1, 2]
        assert list(fork.column("k")[-2:]) == [1, 3]

    def test_visible_columns_are_read_only(self):
        out = make(range(5)).append(make([1]))
        with pytest.raises(ValueError):
            out.column("k")[0] = 99
        with pytest.raises(ValueError):
            out.column("s").codes[0] = 0

    def test_concurrent_forks_of_one_parent(self):
        """More appenders than cores racing for one tip: exactly one may
        win it, and every result is still its own concatenation."""
        parent = make(range(200)).append(make([1]))
        before = frozen(parent)
        results: dict = {}
        barrier = threading.Barrier(8)

        def grow(i: int) -> None:
            barrier.wait(timeout=10)
            table = parent
            for j in range(20):
                table = table.append(make([1000 * i + j]))
            results[i] = table

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        for i, table in results.items():
            want = list(range(200)) + [1] + [1000 * i + j for j in range(20)]
            assert list(table.column("k")) == want
        assert sum(in_place(parent, t) or t._tail is parent._tail for t in results.values()) <= 1
        assert_unchanged(parent, before)


class TestPickling:
    def test_pickled_table_carries_only_its_visible_rows(self):
        v1 = make(range(1000)).append(make([1]))
        v2 = v1.append(make(range(5000, 5900)))  # in place, behind v1's back
        assert in_place(v1, v2)
        restored = pickle.loads(pickle.dumps(v1))
        assert_same(restored, Table.concat_many([make(range(1000)), make([1])]))
        assert restored._tail is None
        plain = pickle.dumps(Table.concat_many([make(range(1000)), make([1])]))
        assert len(pickle.dumps(v1)) == len(plain)


# ----------------------------------------------------------------------
# Index inheritance
# ----------------------------------------------------------------------
def cold_sort_index(table: Table, column: str):
    indexes.clear_caches()
    fresh = pickle.loads(pickle.dumps(table))  # no parent link, no cache entry
    return indexes.sort_index(fresh, column)


class Recorder:
    """Records the length of every array a numpy function is handed."""

    def __init__(self, monkeypatch, name: str, arg: int = 0):
        self.sizes: list[int] = []
        real = getattr(np, name)

        def spy(*args, **kwargs):
            self.sizes.append(len(args[arg]))
            return real(*args, **kwargs)

        monkeypatch.setattr(f"repro.engine.indexes.np.{name}", spy)


class TestSortIndexInheritance:
    """A grown table's sort index is built afresh and equals a cold build."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        indexes.clear_caches()
        yield
        indexes.clear_caches()

    @pytest.mark.parametrize("batch, unique", [([41, 3, 45], True), ([41, 8], False)])
    def test_extended_uniqueness_equals_cold_build(self, batch, unique):
        parent = make(range(0, 40, 2))
        assert indexes.sort_index(parent, "k").unique
        child = parent.append(make(batch))  # 8 is already a key
        got = indexes.sort_index(child, "k")
        assert got.unique is cold_sort_index(child, "k").unique is unique

    def test_new_string_batch_still_inherits(self):
        parent = make(range(50))
        indexes.sort_index(parent, "s")
        child = parent.append(make([1, 2, 3], words=["aaa", "cow", "zzz"]))
        got = indexes.sort_index(child, "s")
        want = cold_sort_index(child, "s")
        np.testing.assert_array_equal(got.order, want.order)
        np.testing.assert_array_equal(got.sorted_keys, want.sorted_keys)

    def test_dead_parent_means_a_cold_build(self):
        child = make(range(20)).append(make([3]))  # parent already collected
        got = indexes.sort_index(child, "k")
        np.testing.assert_array_equal(
            got.order, np.argsort(child.column("k"), kind="stable")
        )


class TestProbeInheritance:
    DIM = Schema.of(Column("d"), Column("label"))

    @pytest.fixture(autouse=True)
    def _cold(self):
        indexes.clear_caches()
        yield
        indexes.clear_caches()

    def dim(self):
        keys = np.repeat(np.arange(0, 40, 2), 2)  # duplicates: multi-match probes
        return Table.from_dict(self.DIM, {"d": keys, "label": np.arange(len(keys))})

    def unique_dim(self):
        keys = np.arange(0, 40, 2)  # distinct: the probe caches row ids
        return Table.from_dict(self.DIM, {"d": keys, "label": np.arange(len(keys))})

    def probe(self, left, dim):
        return indexes._PROBE_CACHE.probe(left, "k", dim, "d", indexes.sort_index(dim, "d"))

    def test_extended_probe_equals_cold_probe(self, monkeypatch):
        dim = self.dim()
        parent = make(np.random.default_rng(1).integers(0, 45, 500))
        self.probe(parent, dim)
        assert self.probe(parent, dim).schema.names == ("starts", "ends")
        child = parent.append(make([4, 4, 41, 0]))
        assert self.probe(child, dim) is None  # a new table: its own strikes
        searches = Recorder(monkeypatch, "searchsorted", arg=1)
        got = self.probe(child, dim)
        assert searches.sizes == [504, 504]  # the grown root, probed whole
        monkeypatch.undo()
        keys, sorted_d = child.column("k"), indexes.sort_index(dim, "d").sorted_keys
        np.testing.assert_array_equal(
            got.column("starts"), np.searchsorted(sorted_d, keys, side="left")
        )
        np.testing.assert_array_equal(
            got.column("ends"), np.searchsorted(sorted_d, keys, side="right")
        )
        assert self.probe(child, dim) is got  # and a plain hit from now on
        assert self.probe(parent, dim).nrows == 500  # the parent's entry is its own

    def test_extended_match_equals_cold_build(self):
        dim = self.unique_dim()
        parent = make(np.random.default_rng(1).integers(0, 45, 500))
        self.probe(parent, dim)
        assert self.probe(parent, dim).schema.names == ("match",)
        child = parent.append(make([4, 4, 41, 0]))
        self.probe(child, dim)
        got = self.probe(child, dim).column("match")
        indexes.clear_caches()
        fresh = pickle.loads(pickle.dumps(child))  # no buffer, no entry
        self.probe(fresh, dim)
        cold = self.probe(fresh, dim).column("match")
        np.testing.assert_array_equal(got, cold)
        assert got.dtype == cold.dtype
        keys = child.column("k")
        want = np.where(keys % 2 == 0, keys // 2, -1)  # -1: 41 and odd keys
        want[keys >= 40] = -1
        np.testing.assert_array_equal(got, want)

    def test_a_grown_table_counts_its_own_strikes(self):
        dim = self.dim()
        parent = make(range(100))
        assert self.probe(parent, dim) is None
        child = parent.append(make([2]))
        assert self.probe(child, dim) is None  # the parent's strike is not its
        entry = self.probe(child, dim)
        assert entry is not None and entry.nrows == 101

    def test_no_ancestor_no_shortcut(self):
        dim = self.dim()
        child = make(range(100)).append(make([2]))
        assert self.probe(child, dim) is None

    def test_join_over_a_grown_table_is_identical_warm_or_cold(self):
        self.check_grown_join(self.dim())

    def test_row_id_join_over_a_grown_table_is_identical_warm_or_cold(self):
        self.check_grown_join(self.unique_dim())

    def check_grown_join(self, dim):
        table = make(np.random.default_rng(2).integers(0, 45, 300))
        versions = []  # a reader may hold any of them
        for step in range(4):
            hash_join(table, dim, "k", "d")
            hash_join(table.filter(table.column("k") > 10), dim, "k", "d")
            versions.append(table)
            table = table.append(make(np.random.default_rng(step).integers(0, 45, 25)))
        hash_join(table, dim, "k", "d")
        hash_join(table, dim, "k", "d")  # the grown root's own two strikes
        selected = table.filter(table.column("k") % 3 == 0)
        warm = hash_join(selected, dim, "k", "d").materialize()
        assert indexes.probe_cache_stats()[0] > 0
        indexes.clear_caches()
        cold = hash_join(selected.materialize(), dim, "k", "d").materialize()
        for name in warm.schema.names:
            np.testing.assert_array_equal(
                decoded(warm.column(name)), decoded(cold.column(name))
            )


class TestDimensionIngest:
    """Batches appended to a *dimension* (the build side of fact ⋈ dim):
    uniqueness is re-decided for the grown root, and answers never move."""

    DIM = Schema.of(Column("d"), Column("label"))
    CAT = Schema.of(Column("c"), Column("name", ColumnKind.STRING))

    @pytest.fixture(autouse=True)
    def _cold(self):
        indexes.clear_caches()
        yield
        indexes.clear_caches()

    def catalog(self):
        from repro.engine.catalog import Catalog

        catalog = Catalog()
        keys = np.arange(0, 60, 2)
        catalog.register(
            "dim", Table.from_dict(self.DIM, {"d": keys, "label": keys % 7})
        )
        catalog.register(
            "cat", Table.from_dict(self.CAT, {"c": np.arange(7), "name": list("abcdefg")})
        )
        return catalog

    @staticmethod
    def joins(fact, dim):
        """Three sightings (the third is a cache hit) of whole and
        filtered build sides, each checked against a cold join."""
        sub = dim.filter(dim.column("label") < 4)
        warm = [hash_join(fact, side, "k", "d") for side in (dim, sub) for _ in range(3)]
        indexes.clear_caches()
        cold = [
            hash_join(fact.materialize(), side.materialize(), "k", "d")
            for side in (dim, sub) for _ in range(3)
        ]
        for w, c in zip(warm, cold):
            assert w.schema.names == c.schema.names and w.nrows == c.nrows
            for name in w.schema.names:
                want = decoded(c.column(name))
                got = decoded(w.column(name))
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def fact(self):
        return make(np.random.default_rng(4).integers(0, 70, 400))

    def test_duplicate_key_falls_back_to_the_general_path(self):
        catalog = self.catalog()
        assert indexes.sort_index(catalog.get("dim"), "d").unique
        catalog.ingest("dim", {"d": [10, 61], "label": [1, 2]})  # 10 is resident
        grown = catalog.get("dim")
        assert not indexes.sort_index(grown, "d").unique
        fact = self.fact()
        before = indexes._PROBE_CACHE.stats()
        self.joins(fact, grown)
        assert before["fk_rows"] == 0 and indexes._PROBE_CACHE.fk_rows == 0
        assert indexes._PROBE_CACHE.fk_fallback == 6  # the cold pass after the clear

    def test_fresh_keys_keep_the_row_id_path(self, monkeypatch):
        catalog = self.catalog()
        dim = catalog.get("dim")
        indexes.sort_index(dim, "d")
        for _ in range(2):
            hash_join(dim, catalog.get("cat"), "label", "c")  # dim as probe root
        catalog.ingest("dim", {"d": [61, 63, 65], "label": [3, 5, 6]})
        grown = catalog.get("dim")
        index = indexes.sort_index(grown, "d")
        cat = catalog.get("cat")
        cat_index = indexes.sort_index(cat, "c")
        assert indexes._PROBE_CACHE.probe(grown, "label", cat, "c", cat_index) is None
        searches = Recorder(monkeypatch, "searchsorted", arg=1)
        entry = indexes._PROBE_CACHE.probe(grown, "label", cat, "c", cat_index)
        assert searches.sizes == [33, 33]  # the grown root, probed whole
        monkeypatch.undo()
        assert index.unique and entry.schema.names == ("match",)
        np.testing.assert_array_equal(entry.column("match"), grown.column("label"))
        fact = self.fact()
        hash_join(fact, grown, "k", "d")
        hash_join(fact, grown, "k", "d")
        served = indexes._PROBE_CACHE.fk_rows
        hash_join(fact, grown, "k", "d")
        assert indexes._PROBE_CACHE.fk_rows == served + 1
        self.joins(fact, grown)
