"""Zero-copy execution core: late-materialized views.

Late-materialized selection/join views hold the rows the plain tables
they stand for would, gather each column at most once, and never cross a
pickle or disk boundary as views (the answers of whole plans are checked
against SQLite by ``tests/test_sql_oracle.py``).
"""

import pickle

import numpy as np
import pytest

from repro.engine.executor import aggregate, hash_join
from repro.engine.schema import Column, Schema
from repro.engine.table import JoinView, Table, TableView
from repro.engine.types import ColumnKind
from repro.errors import SchemaError
from repro.query.algebra import AggSpec


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
STR_SCHEMA = Schema.of(
    Column("k", ColumnKind.INT64),
    Column("name", ColumnKind.STRING),
    Column("v", ColumnKind.FLOAT64),
)


def str_table() -> Table:
    return Table.from_dict(
        STR_SCHEMA,
        {
            "k": [3, 1, 2, 1, 3],
            "name": ["cherry", "apple", "beet", "apple", "date"],
            "v": [0.5, 1.5, 2.5, 3.5, 4.5],
        },
    )


class TestTableView:
    def test_filter_returns_view_with_equal_rows(self):
        t = str_table()
        view = t.filter(np.array([True, False, True, True, False]))
        assert isinstance(view, TableView)
        rows = t.to_rows()
        assert view.to_rows() == [rows[0], rows[2], rows[3]]

    def test_composed_selections_stay_one_level_deep(self):
        t = str_table()
        v = t.filter(np.array([True, True, True, True, False])).take([3, 0])
        assert isinstance(v, TableView)
        assert v.gather_plan()[0] is t
        assert v.to_rows() == [t.to_rows()[3], t.to_rows()[0]]

    def test_projected_away_column_raises_despite_shared_cache(self):
        # Regression: the gather cache is shared between a view and its
        # narrowed projection; schema membership must be checked first.
        t = str_table()
        wide = t.filter(np.array([True] * 5))
        wide.column("v")  # populate the shared cache
        narrow = wide.project(("k", "name"))
        with pytest.raises(SchemaError):
            narrow.column("v")

    def test_pickle_materializes_a_plain_table(self):
        t = str_table()
        view = t.filter(np.array([False, True, False, True, False]))
        restored = pickle.loads(pickle.dumps(view))
        assert type(restored) is Table
        assert restored.to_rows() == view.to_rows()
        assert restored.column("name").dtype == object

    def test_empty_selection(self):
        t = str_table()
        view = t.filter(np.zeros(5, dtype=bool))
        assert view.nrows == 0
        assert view.to_rows() == []
        assert view.materialize().nrows == 0

    def test_empty_table_filter(self):
        t = Table.empty(STR_SCHEMA)
        assert t.filter(np.zeros(0, dtype=bool)).to_rows() == []

    def test_concat_many_single_piece_is_identity(self):
        t = str_table()
        assert Table.concat_many([t]) is t

    def test_concat_many_gathers_views(self):
        t = str_table()
        a = t.filter(np.array([True, True, False, False, False]))
        b = t.filter(np.array([False, False, True, True, True]))
        out = Table.concat_many([a, b])
        assert out.to_rows() == t.to_rows()


class TestJoinView:
    def make_join(self):
        left_schema = Schema.of(Column("k"), Column("lv"), Column("tag", ColumnKind.STRING))
        right_schema = Schema.of(Column("k"), Column("rv"))
        left = Table.from_dict(
            left_schema,
            {"k": [1, 2, 3, 2], "lv": [10, 20, 30, 21], "tag": list("abca")},
        )
        right = Table.from_dict(right_schema, {"k": [2, 3, 5], "rv": [200, 300, 500]})
        return left, right

    def test_join_output_is_lazy_and_correct(self):
        left, right = self.make_join()
        out = hash_join(left, right, "k", "k")
        assert isinstance(out, JoinView)
        assert sorted(out.to_rows()) == [
            (2, 20, "b", 200), (2, 21, "a", 200), (3, 30, "c", 300),
        ]

    def test_unconsumed_columns_never_gathered(self):
        left, right = self.make_join()
        out = hash_join(left, right, "k", "k").project(("rv",))
        assert out.column("rv").tolist() == [200, 300, 200]
        assert "lv" not in out._gathered  # never touched, never copied

    def test_filter_composes_into_both_sides(self):
        left, right = self.make_join()
        out = hash_join(left, right, "k", "k")
        picked = out.take(np.array([2, 0]))
        assert isinstance(picked, JoinView)
        assert picked.to_rows() == [out.to_rows()[2], out.to_rows()[0]]

    def test_pickle_ships_plain_decoded_table(self):
        left, right = self.make_join()
        out = hash_join(left, right, "k", "k")
        restored = pickle.loads(pickle.dumps(out))
        assert type(restored) is Table
        assert restored.sorted_rows() == out.sorted_rows()

    def test_hdfs_write_is_a_materialization_boundary(self):
        from repro.storage.hdfs import SimulatedHDFS

        left, right = self.make_join()
        out = hash_join(left, right, "k", "k")
        hdfs = SimulatedHDFS()
        stored = hdfs.write("/views/j", out)
        assert type(stored.table) is Table  # self-contained, pins no roots
        assert stored.table.to_rows() == out.to_rows()


# ----------------------------------------------------------------------
# Aggregation over string keys / bincount fast path
# ----------------------------------------------------------------------
class TestAggregate:
    def test_string_group_keys_come_out_sorted(self):
        t = str_table()
        out = aggregate(t, ("name",), (AggSpec("count", None, "n"),))
        assert out.column("name").dtype == object
        assert out.to_rows() == [
            ("apple", 2), ("beet", 1), ("cherry", 1), ("date", 1),
        ]

    def test_bincount_path_matches_sorted_path(self):
        rng = np.random.default_rng(3)
        schema = Schema.of(Column("g"), Column("x"))
        t = Table.from_dict(
            schema,
            {"g": rng.integers(10, 40, 200), "x": rng.integers(-50, 50, 200)},
        )
        specs = (
            AggSpec("sum", "x", "s"),
            AggSpec("count", None, "n"),
            AggSpec("avg", "x", "m"),
        )
        fast = aggregate(t, ("g",), specs)
        # Force the sorted reference path by making the key span huge.
        wide = Table.from_dict(
            schema,
            {"g": t.column("g") * 10**9, "x": t.column("x")},
        )
        slow = aggregate(wide, ("g",), specs)
        assert fast.column("s").tolist() == slow.column("s").tolist()
        assert fast.column("n").tolist() == slow.column("n").tolist()
        assert fast.column("m").tolist() == slow.column("m").tolist()
        assert fast.column("s").dtype == slow.column("s").dtype == np.int64

    def test_min_max_and_floats_use_sorted_path(self):
        schema = Schema.of(Column("g"), Column("x", ColumnKind.FLOAT64))
        t = Table.from_dict(schema, {"g": [1, 2, 1, 2], "x": [0.5, 1.5, 2.5, 3.5]})
        out = aggregate(
            t, ("g",), (AggSpec("min", "x", "lo"), AggSpec("max", "x", "hi"))
        )
        assert out.to_rows() == [(1, 0.5, 2.5), (2, 1.5, 3.5)]

    def test_narrow_int_sums_widen(self):
        # Satellite: int accumulation happens in int64 even when the input
        # column arrives as a narrower dtype.
        schema = Schema.of(Column("g"), Column("x"))
        big = np.full(4, 2**30, dtype=np.int64)
        t = Table(
            schema,
            {"g": np.array([1, 1, 1, 1]), "x": big.astype(np.int32)},
        )
        out = aggregate(t, ("g",), (AggSpec("sum", "x", "s"),))
        assert out.column("s").tolist() == [4 * 2**30]


class TestMaskDeferral:
    """filter() keeps the boolean mask; flatnonzero happens on demand."""

    MASK = np.array([True, False, True, True, False])

    def test_filter_defers_flatnonzero(self):
        view = str_table().filter(self.MASK)
        assert view._rows_arr is None  # still mask-backed
        assert view.nrows == 3  # count straight off the mask

    def test_chained_filters_combine_masks_without_indices(self):
        view = str_table().filter(self.MASK)
        narrowed = view.filter(np.array([True, False, True]))
        assert isinstance(narrowed, TableView)
        assert narrowed._rows_arr is None
        assert view._rows_arr is None  # refining didn't resolve the parent
        assert narrowed.to_rows() == [str_table().to_rows()[0], str_table().to_rows()[3]]

    def test_mask_gather_bit_identical_to_index_gather(self):
        masked = str_table().filter(self.MASK)
        col_masked = masked.column("v")
        resolved = str_table().filter(self.MASK)
        _ = resolved._rows  # force index resolution first
        col_indexed = resolved.column("v")
        assert np.array_equal(col_masked, col_indexed)
        assert col_masked.dtype == col_indexed.dtype

    def test_take_resolves_and_composes(self):
        view = str_table().filter(self.MASK)
        picked = view.take([2, 0])
        assert picked.to_rows() == [str_table().to_rows()[3], str_table().to_rows()[0]]
        assert view._rows_arr is not None  # composition needed indices

    def test_lineage_resolves_lazily(self):
        t = str_table()
        view = t.filter(self.MASK)
        assert view._rows_arr is None
        root, rows, monotonic = view._lineage
        assert root is t
        assert rows.tolist() == [0, 2, 3]
        assert monotonic

    def test_projection_shares_mask_and_gather_cache(self):
        view = str_table().filter(self.MASK)
        narrow = view.project(["k", "v"])
        assert isinstance(narrow, TableView)
        assert narrow._rows_arr is None
        a = view.column("v")
        assert narrow.column("v") is a  # shared gather cache

    def test_string_columns_gather_through_mask(self):
        view = str_table().filter(self.MASK)
        col = view.column("name")
        assert col.dtype == object
        assert list(col) == ["cherry", "beet", "apple"]
