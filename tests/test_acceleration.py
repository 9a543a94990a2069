"""Tests for the hot-path acceleration layer.

Covers the join-key index / probe caches (cold vs warm equivalence, bag
semantics, empty inputs, dtype preservation), the one-allocation
``concat_many`` fragment assembly, the process-wide ``clear_caches``
helper, and the profiler null hook.  The common theme: every cache and
fast path must be invisible — identical tables out, identical simulated
seconds — whether it is cold, warm, or cleared mid-run.
"""

from contextlib import contextmanager

import numpy as np

from repro.baselines import deepsea
from repro.bench.harness import clear_caches, run_system
from repro.engine import indexes
from repro.engine.executor import hash_join
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind


def tables_equal(a: Table, b: Table) -> bool:
    """Exact equality: schema, row order, values, and dtypes."""
    if a.schema.names != b.schema.names or a.nrows != b.nrows:
        return False
    for name in a.schema.names:
        ca, cb = a.columns[name], b.columns[name]
        if ca.dtype != cb.dtype or not np.array_equal(ca, cb):
            return False
    return True


# ----------------------------------------------------------------------
# concat_many: O(n) fragment assembly
# ----------------------------------------------------------------------
class TestConcatMany:
    def test_64_fragments_allocate_each_column_once(self, monkeypatch):
        """Assembling 64 fragments must call np.concatenate once per column."""
        schema = Schema.of(
            Column("k", ColumnKind.INT64),
            Column("v", ColumnKind.FLOAT64),
            Column("w", ColumnKind.INT64),
        )
        pieces = [
            Table.from_dict(
                schema,
                {"k": [i, i + 1], "v": [float(i), float(i)], "w": [7, 8]},
            )
            for i in range(64)
        ]
        calls = []
        real_concatenate = np.concatenate

        def counting(arrays, *args, **kwargs):
            calls.append(len(list(arrays)))
            return real_concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr("repro.engine.table.np.concatenate", counting)
        out = Table.concat_many(pieces)
        assert len(calls) == len(schema.names)  # one allocation per column
        assert all(n == 64 for n in calls)  # each sees every fragment
        assert out.nrows == 128

    def test_matches_pairwise_fold(self):
        schema = Schema.of(Column("k", ColumnKind.INT64))
        pieces = [Table.from_dict(schema, {"k": list(range(i, i + 3))}) for i in range(5)]
        folded = pieces[0]
        for p in pieces[1:]:
            folded = folded.concat(p)
        assert tables_equal(Table.concat_many(pieces), folded)

    def test_singleton_is_identity(self):
        schema = Schema.of(Column("k", ColumnKind.INT64))
        t = Table.from_dict(schema, {"k": [1, 2]})
        assert Table.concat_many([t]) is t


# ----------------------------------------------------------------------
# hash_join through the index / probe caches
# ----------------------------------------------------------------------
class TestJoinCaches:
    def setup_method(self):
        clear_caches()

    def test_bag_semantics_preserved(self):
        sa = Schema.of(Column("a_k", ColumnKind.INT64), Column("a_v", ColumnKind.INT64))
        sb = Schema.of(Column("b_k", ColumnKind.INT64), Column("b_v", ColumnKind.INT64))
        a = Table.from_dict(sa, {"a_k": [1, 1, 2, 3], "a_v": [10, 11, 12, 13]})
        b = Table.from_dict(sb, {"b_k": [1, 1, 2, 2], "b_v": [20, 21, 22, 23]})
        out = hash_join(a, b, "a_k", "b_k")
        # 2 left dups x 2 right dups on key 1, 1 x 2 on key 2, 0 on key 3
        assert out.nrows == 6
        assert sorted(zip(out.columns["a_v"].tolist(), out.columns["b_v"].tolist())) == [
            (10, 20), (10, 21), (11, 20), (11, 21), (12, 22), (12, 23),
        ]

    def test_empty_inputs(self):
        sa = Schema.of(Column("a_k", ColumnKind.INT64))
        sb = Schema.of(Column("b_k", ColumnKind.INT64), Column("b_v", ColumnKind.FLOAT64))
        a = Table.from_dict(sa, {"a_k": [1, 2]})
        empty_b = Table.empty(sb)
        out = hash_join(a, empty_b, "a_k", "b_k")
        assert out.nrows == 0
        assert out.schema.names == ("a_k", "b_k", "b_v")
        out2 = hash_join(Table.empty(sa), Table.from_dict(sb, {"b_k": [1], "b_v": [2.0]}),
                         "a_k", "b_k")
        assert out2.nrows == 0

    def test_dtype_preservation(self):
        sa = Schema.of(
            Column("a_k", ColumnKind.INT64),
            Column("a_f", ColumnKind.FLOAT64),
            Column("a_s", ColumnKind.STRING),
        )
        sb = Schema.of(Column("b_k", ColumnKind.INT64), Column("b_f", ColumnKind.FLOAT64))
        a = Table.from_dict(sa, {"a_k": [1, 2], "a_f": [0.5, 1.5], "a_s": ["x", "y"]})
        b = Table.from_dict(sb, {"b_k": [1, 2], "b_f": [9.0, 8.0]})
        out = hash_join(a, b, "a_k", "b_k")
        assert out.columns["a_k"].dtype == a.columns["a_k"].dtype
        assert out.columns["a_f"].dtype == np.float64
        assert out.columns["a_s"].dtype == a.columns["a_s"].dtype
        assert out.columns["b_f"].dtype == np.float64

    def test_warm_cache_identical_to_cold(self, sales_table, item_table):
        """Joining the same pair repeatedly must be bitwise stable.

        The third join exercises the full two-strikes probe-cache path:
        first sighting probes directly, second pays the full-root probe,
        third is served from the cache.
        """
        cold = hash_join(sales_table, item_table, "s_item_sk", "i_item_sk")
        warm1 = hash_join(sales_table, item_table, "s_item_sk", "i_item_sk")
        warm2 = hash_join(sales_table, item_table, "s_item_sk", "i_item_sk")
        hits, _misses = indexes.probe_cache_stats()
        assert hits >= 1  # the cache really served the third join
        assert tables_equal(cold, warm1) and tables_equal(cold, warm2)
        clear_caches()
        assert tables_equal(cold, hash_join(sales_table, item_table, "s_item_sk", "i_item_sk"))

    def test_derived_build_side_identical_to_cold(self, sales_table, item_table):
        """A filtered (monotonic-subset) build side of a distinct-key root
        is served by row id: a membership test against the subset."""
        sub = item_table.filter(item_table.column("i_category") < 4)
        results = [hash_join(sales_table, sub, "s_item_sk", "i_item_sk") for _ in range(3)]
        clear_caches()
        cold = hash_join(sales_table, sub, "s_item_sk", "i_item_sk")
        for r in results:
            assert tables_equal(cold, r)

    def test_clear_caches_resets_stats(self, sales_table, item_table):
        hash_join(sales_table, item_table, "s_item_sk", "i_item_sk")
        clear_caches()
        assert indexes.cache_stats() == (0, 0)
        assert indexes.probe_cache_stats() == (0, 0)


# ----------------------------------------------------------------------
# The profiler null hook (the protocol perfbench/trace.py implements)
# ----------------------------------------------------------------------
class _StageRecorder:
    """Minimal ``system.profiler``: ``stage(name)`` and a ``queries`` counter."""

    def __init__(self):
        self.queries = 0
        self.stages = []

    @contextmanager
    def stage(self, name):
        self.stages.append(name)
        yield


class TestProfiler:
    def _plans(self, catalog):
        from repro.query.predicates import between
        from repro.query.algebra import Aggregate, AggSpec, Join, Relation, Select

        join = Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk")
        return [
            Aggregate(
                Select(join, (between("i_item_sk", lo, lo + 30),)),
                ("i_category",),
                (AggSpec("sum", "s_qty", "total_qty"),),
            )
            for lo in (0, 10, 0, 10, 20, 0)
        ]

    def test_stages_recorded_and_ledgers_untouched(self, catalog):
        plans = self._plans(catalog)
        baseline = run_system("DS", deepsea(catalog), plans)
        system = deepsea(catalog)
        system.profiler = recorder = _StageRecorder()
        profiled = run_system("DS", system, plans)
        assert recorder.queries == len(plans)
        assert set(recorder.stages) == {"matching", "selection", "execution", "materialization"}
        # an attached recorder must not perturb the simulated cost model
        assert [r.total_s for r in profiled.reports] == [r.total_s for r in baseline.reports]
