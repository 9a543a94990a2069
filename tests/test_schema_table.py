"""Tests for schemas and columnar tables."""

import numpy as np
import pytest

from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind, coerce_array
from repro.errors import SchemaError


class TestColumnKind:
    def test_widths(self):
        assert ColumnKind.INT64.default_width == 8
        assert ColumnKind.FLOAT64.default_width == 8
        assert ColumnKind.STRING.default_width == 32

    def test_coerce(self):
        arr = coerce_array(ColumnKind.INT64, [1, 2])
        assert arr.dtype == np.int64
        arr = coerce_array(ColumnKind.FLOAT64, [1, 2])
        assert arr.dtype == np.float64
        arr = coerce_array(ColumnKind.STRING, ["a"])
        assert arr.dtype == object


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(Column("a"), Column("a"))

    def test_row_bytes(self):
        s = Schema.of(Column("a"), Column("b", ColumnKind.STRING))
        assert s.row_bytes == 8 + 32

    def test_custom_width(self):
        s = Schema.of(Column("name", ColumnKind.STRING, width=64))
        assert s.row_bytes == 64

    def test_subset_preserves_order(self):
        s = Schema.of(Column("a"), Column("b"), Column("c"))
        sub = s.subset(("c", "a"))
        assert sub.names == ("c", "a")

    def test_subset_unknown_raises(self):
        s = Schema.of(Column("a"))
        with pytest.raises(SchemaError):
            s.subset(("z",))

    def test_concat_with_drop(self):
        s1 = Schema.of(Column("a"))
        s2 = Schema.of(Column("a"), Column("b"))
        merged = s1.concat(s2, drop={"a"})
        assert merged.names == ("a", "b")

    def test_contains(self):
        s = Schema.of(Column("a"))
        assert "a" in s and "b" not in s


class TestTable:
    def test_from_dict_and_nrows(self, sales_table):
        assert sales_table.nrows == 500

    def test_size_bytes_uses_scale(self, sales_schema):
        t = Table.from_dict(
            sales_schema,
            {"s_id": [1], "s_item_sk": [2], "s_qty": [3], "s_price": [4.0]},
            scale=1000.0,
        )
        assert t.size_bytes == sales_schema.row_bytes * 1000.0

    def test_ragged_columns_rejected(self, sales_schema):
        with pytest.raises(SchemaError):
            Table.from_dict(
                sales_schema,
                {"s_id": [1, 2], "s_item_sk": [2], "s_qty": [3], "s_price": [4.0]},
            )

    def test_wrong_columns_rejected(self, sales_schema):
        with pytest.raises(SchemaError):
            Table(sales_schema, {"bogus": np.array([1])})

    def test_filter(self, sales_table):
        mask = sales_table.column("s_item_sk") < 50
        out = sales_table.filter(mask)
        assert out.nrows == int(mask.sum())
        assert (out.column("s_item_sk") < 50).all()

    def test_take_with_repeats(self, sales_table):
        out = sales_table.take(np.array([0, 0, 1]))
        assert out.nrows == 3
        assert out.column("s_id")[0] == out.column("s_id")[1]

    def test_project(self, sales_table):
        out = sales_table.project(("s_qty", "s_id"))
        assert out.schema.names == ("s_qty", "s_id")
        assert out.nrows == sales_table.nrows

    def test_concat(self, sales_table):
        both = sales_table.concat(sales_table)
        assert both.nrows == 2 * sales_table.nrows

    def test_concat_schema_mismatch(self, sales_table, item_table):
        with pytest.raises(SchemaError):
            sales_table.concat(item_table)

    def test_sorted_rows_roundtrip(self, sales_schema):
        t = Table.from_dict(
            sales_schema,
            {"s_id": [2, 1], "s_item_sk": [1, 1], "s_qty": [1, 1], "s_price": [0.0, 0.0]},
        )
        rows = t.sorted_rows()
        assert rows[0][0] == 1 and rows[1][0] == 2
