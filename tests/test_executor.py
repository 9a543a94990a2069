"""Executor tests: operator semantics and cost charging."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.catalog import Catalog
from repro.engine.cost import ClusterSpec
from repro.engine.executor import ExecutionContext, Executor, aggregate, hash_join
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind, decoded, sort_key
from repro.errors import SchemaError
from repro.query.algebra import Aggregate, AggSpec, Join, Project, Relation, Select
from repro.query.predicates import between


@pytest.fixture
def executor(catalog):
    return Executor(ExecutionContext(catalog))


def brute_force_join(left, right, lattr, rattr):
    """Reference nested-loop join for comparison."""
    out = []
    rrows = right.to_rows()
    rnames = right.schema.names
    for lrow in left.to_rows():
        lmap = dict(zip(left.schema.names, lrow))
        for rrow in rrows:
            rmap = dict(zip(rnames, rrow))
            if lmap[lattr] == rmap[rattr]:
                merged = list(lrow) + [rmap[n] for n in rnames if n != rattr or rattr != lattr]
                out.append(tuple(merged))
    return sorted(out, key=repr)


class TestHashJoin:
    def test_matches_nested_loop(self, sales_table, item_table):
        joined = hash_join(sales_table, item_table, "s_item_sk", "i_item_sk")
        expected = brute_force_join(sales_table, item_table, "s_item_sk", "i_item_sk")
        assert joined.sorted_rows() == expected

    def test_duplicates_on_both_sides(self):
        schema_a = Schema.of(Column("a_k"), Column("a_v"))
        schema_b = Schema.of(Column("b_k"), Column("b_v"))
        a = Table.from_dict(schema_a, {"a_k": [1, 1, 2], "a_v": [10, 11, 12]})
        b = Table.from_dict(schema_b, {"b_k": [1, 1, 3], "b_v": [20, 21, 22]})
        out = hash_join(a, b, "a_k", "b_k")
        assert out.nrows == 4  # 2 x 2 matches on key 1

    def test_no_matches(self):
        schema_a = Schema.of(Column("a_k"))
        schema_b = Schema.of(Column("b_k"))
        a = Table.from_dict(schema_a, {"a_k": [1]})
        b = Table.from_dict(schema_b, {"b_k": [2]})
        assert hash_join(a, b, "a_k", "b_k").nrows == 0

    def test_same_name_key_kept_once(self):
        schema_a = Schema.of(Column("k"), Column("a_v"))
        schema_b = Schema.of(Column("k"), Column("b_v"))
        a = Table.from_dict(schema_a, {"k": [1], "a_v": [10]})
        b = Table.from_dict(schema_b, {"k": [1], "b_v": [20]})
        out = hash_join(a, b, "k", "k")
        assert out.schema.names == ("k", "a_v", "b_v")

    def test_non_key_collision_raises(self):
        schema_a = Schema.of(Column("a_k"), Column("dup"))
        schema_b = Schema.of(Column("b_k"), Column("dup"))
        a = Table.from_dict(schema_a, {"a_k": [1], "dup": [1]})
        b = Table.from_dict(schema_b, {"b_k": [1], "dup": [1]})
        with pytest.raises(SchemaError):
            hash_join(a, b, "a_k", "b_k")

    @given(
        keys_l=st.lists(st.integers(0, 5), max_size=30),
        keys_r=st.lists(st.integers(0, 5), max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_join_cardinality_property(self, keys_l, keys_r):
        """|A ⋈ B| = Σ_k count_A(k) · count_B(k)."""
        schema_a = Schema.of(Column("a_k"))
        schema_b = Schema.of(Column("b_k"))
        a = Table.from_dict(schema_a, {"a_k": keys_l})
        b = Table.from_dict(schema_b, {"b_k": keys_r})
        out = hash_join(a, b, "a_k", "b_k")
        expected = sum(keys_l.count(k) * keys_r.count(k) for k in set(keys_l))
        assert out.nrows == expected


class TestAggregate:
    def test_group_by_sum_count(self):
        schema = Schema.of(Column("g"), Column("v"))
        t = Table.from_dict(schema, {"g": [1, 1, 2], "v": [10, 20, 5]})
        out = aggregate(
            t, ("g",), (AggSpec("sum", "v", "total"), AggSpec("count", None, "n"))
        )
        rows = dict((r[0], (r[1], r[2])) for r in out.to_rows())
        assert rows == {1: (30, 2), 2: (5, 1)}

    def test_min_max_avg(self):
        schema = Schema.of(Column("g"), Column("v", ColumnKind.FLOAT64))
        t = Table.from_dict(schema, {"g": [1, 1, 1], "v": [1.0, 5.0, 3.0]})
        out = aggregate(
            t,
            ("g",),
            (
                AggSpec("min", "v", "lo"),
                AggSpec("max", "v", "hi"),
                AggSpec("avg", "v", "mean"),
            ),
        )
        row = out.to_rows()[0]
        assert row == (1, 1.0, 5.0, 3.0)

    def test_global_aggregate_no_group(self):
        schema = Schema.of(Column("v"))
        t = Table.from_dict(schema, {"v": [1, 2, 3]})
        out = aggregate(t, (), (AggSpec("sum", "v", "s"),))
        assert out.to_rows() == [(6,)]

    def test_empty_input(self):
        schema = Schema.of(Column("g"), Column("v"))
        t = Table.empty(schema)
        out = aggregate(t, ("g",), (AggSpec("sum", "v", "s"),))
        assert out.nrows == 0
        assert out.schema.names == ("g", "s")

    def test_multi_column_group(self):
        schema = Schema.of(Column("g1"), Column("g2"), Column("v"))
        t = Table.from_dict(schema, {"g1": [1, 1, 1], "g2": [1, 2, 1], "v": [10, 20, 30]})
        out = aggregate(t, ("g1", "g2"), (AggSpec("sum", "v", "s"),))
        assert sorted(out.to_rows()) == [(1, 1, 40), (1, 2, 20)]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-50, 50)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_sum_partition_property(self, rows):
        """Grouped sums add up to the global sum."""
        schema = Schema.of(Column("g"), Column("v"))
        t = Table.from_dict(schema, {"g": [r[0] for r in rows], "v": [r[1] for r in rows]})
        out = aggregate(t, ("g",), (AggSpec("sum", "v", "s"),))
        assert sum(r[1] for r in out.to_rows()) == sum(r[1] for r in rows)


class TestPlanExecution:
    def test_select_project(self, executor, sales_table):
        plan = Project(
            Select(Relation("sales"), (between("s_item_sk", 10, 20),)),
            ("s_id", "s_item_sk"),
        )
        result = executor.execute(plan)
        col = result.table.column("s_item_sk")
        assert ((col >= 10) & (col <= 20)).all()
        expected = int(((sales_table.column("s_item_sk") >= 10)
                        & (sales_table.column("s_item_sk") <= 20)).sum())
        assert result.table.nrows == expected

    def test_join_aggregate_pipeline(self, executor):
        plan = Aggregate(
            Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk"),
            ("i_category",),
            (AggSpec("sum", "s_qty", "total_qty"),),
        )
        result = executor.execute(plan)
        assert result.table.nrows > 0
        assert result.table.schema.names == ("i_category", "total_qty")

    def test_scan_only_charges_one_job(self, executor):
        result = executor.execute(Relation("sales"))
        assert result.ledger.jobs == 1

    def test_join_agg_charges_two_jobs(self, executor):
        plan = Aggregate(
            Join(Relation("sales"), Relation("item"), "s_item_sk", "i_item_sk"),
            ("i_category",),
            (AggSpec("count", None, "n"),),
        )
        result = executor.execute(plan)
        assert result.ledger.jobs == 2

    def test_cost_scales_with_table_size(self, sales_table, item_table):
        small_cat = Catalog()
        small_cat.register("sales", sales_table)
        big = Table(sales_table.schema, sales_table.columns, scale=1000.0)
        big_cat = Catalog()
        big_cat.register("sales", big)
        cheap = Executor(ExecutionContext(small_cat)).execute(Relation("sales"))
        costly = Executor(ExecutionContext(big_cat)).execute(Relation("sales"))
        assert costly.elapsed_s > cheap.elapsed_s


class TestClusterCost:
    def test_map_tasks_one_per_file_minimum(self):
        spec = ClusterSpec(block_bytes=1000)
        assert spec.map_tasks(nbytes=100, nfiles=10) == 10

    def test_map_tasks_one_per_block(self):
        spec = ClusterSpec(block_bytes=1000)
        assert spec.map_tasks(nbytes=5000, nfiles=1) == 5

    def test_more_files_cost_more_to_read(self):
        spec = ClusterSpec(block_bytes=1 << 20, task_overhead_s=1.0, map_slots=4)
        one = spec.read_elapsed(1000, nfiles=1)
        many = spec.read_elapsed(1000, nfiles=100)
        assert many > one

    def test_write_costs_more_than_read_per_byte(self):
        spec = ClusterSpec()
        assert spec.write_s_per_byte > spec.read_s_per_byte

    def test_more_fragment_files_cost_more_to_write(self):
        spec = ClusterSpec()
        assert spec.write_elapsed(1e9, nfiles=60) > spec.write_elapsed(1e9, nfiles=6)

    def test_zero_bytes(self):
        spec = ClusterSpec()
        assert spec.read_elapsed(0, 0) == 0.0
        assert spec.shuffle_elapsed(0) == 0.0


class TestMultiKeyBincount:
    """The packed-code bincount path is bit-identical to sort+reduceat."""

    @staticmethod
    def _sorted_reference(table, group_by, aggregates):
        """The general path with the bincount dispatch disabled."""
        from unittest import mock

        import repro.engine.executor as executor_mod

        with mock.patch.object(executor_mod, "_pack_group_codes", lambda keys: None):
            return aggregate(table, group_by, aggregates)

    @staticmethod
    def _assert_bit_identical(fast, slow):
        assert fast.schema.names == slow.schema.names
        assert fast.nrows == slow.nrows
        for name in fast.schema.names:
            a, b = np.asarray(decoded(fast.column(name))), np.asarray(decoded(slow.column(name)))
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(-3, 3), st.integers(-100, 100)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_two_int_keys_match_sorted_path(self, rows):
        schema = Schema.of(Column("g1"), Column("g2"), Column("v"))
        t = Table.from_dict(
            schema,
            {
                "g1": [r[0] for r in rows],
                "g2": [r[1] for r in rows],
                "v": [r[2] for r in rows],
            },
        )
        aggs = (
            AggSpec("sum", "v", "total"),
            AggSpec("count", None, "n"),
            AggSpec("avg", "v", "mean"),
        )
        fast = aggregate(t, ("g1", "g2"), aggs)
        slow = self._sorted_reference(t, ("g1", "g2"), aggs)
        self._assert_bit_identical(fast, slow)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["ale", "ipa", "stout"]),
                st.integers(0, 3),
                st.integers(0, 50),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_encoded_string_key_plus_int_key(self, rows):
        schema = Schema.of(
            Column("cat", ColumnKind.STRING), Column("bucket"), Column("v")
        )
        t = Table.from_dict(
            schema,
            {
                "cat": [r[0] for r in rows],
                "bucket": [r[1] for r in rows],
                "v": [r[2] for r in rows],
            },
        )
        aggs = (AggSpec("sum", "v", "s"), AggSpec("count", None, "n"))
        fast = aggregate(t, ("cat", "bucket"), aggs)
        slow = self._sorted_reference(t, ("cat", "bucket"), aggs)
        self._assert_bit_identical(fast, slow)
        # Group order is the lexicographic order the sorted path emits.
        heads = [r[:2] for r in fast.to_rows()]
        assert heads == sorted(heads)

    def test_three_keys_take_fast_path(self):
        import repro.engine.executor as executor_mod

        schema = Schema.of(Column("a"), Column("b"), Column("c"), Column("v"))
        t = Table.from_dict(
            schema,
            {"a": [1, 1, 2, 2], "b": [0, 0, 1, 1], "c": [5, 5, 5, 6], "v": [1, 2, 3, 4]},
        )
        raw_keys = [t.column(g) for g in ("a", "b", "c")]
        keys = [sort_key(k) for k in raw_keys]
        out_schema = Schema.of(Column("a"), Column("b"), Column("c"), Column("s"))
        fast = executor_mod._aggregate_bincount(
            t, out_schema, ("a", "b", "c"), raw_keys, keys, (AggSpec("sum", "v", "s"),)
        )
        assert fast is not None
        assert fast.to_rows() == [(1, 0, 5, 3), (2, 1, 5, 3), (2, 1, 6, 4)]

    def test_wide_key_space_falls_back(self):
        import repro.engine.executor as executor_mod

        schema = Schema.of(Column("a"), Column("b"), Column("v"))
        t = Table.from_dict(
            schema,
            {"a": [0, 1_000_000], "b": [0, 1_000_000], "v": [1, 2]},
        )
        raw_keys = [t.column(g) for g in ("a", "b")]
        keys = [sort_key(k) for k in raw_keys]
        out_schema = Schema.of(Column("a"), Column("b"), Column("s"))
        fast = executor_mod._aggregate_bincount(
            t, out_schema, ("a", "b"), raw_keys, keys, (AggSpec("sum", "v", "s"),)
        )
        assert fast is None
        # ...but the public entry point still answers via the sorted path.
        out = aggregate(t, ("a", "b"), (AggSpec("sum", "v", "s"),))
        assert sorted(out.to_rows()) == [(0, 0, 1), (1_000_000, 1_000_000, 2)]

    def test_float_values_fall_back_to_sorted_path(self):
        schema = Schema.of(Column("g1"), Column("g2"), Column("v", ColumnKind.FLOAT64))
        t = Table.from_dict(
            schema, {"g1": [1, 1, 2], "g2": [0, 0, 1], "v": [0.1, 0.2, 0.3]}
        )
        aggs = (AggSpec("sum", "v", "s"),)
        fast = aggregate(t, ("g1", "g2"), aggs)
        slow = self._sorted_reference(t, ("g1", "g2"), aggs)
        self._assert_bit_identical(fast, slow)


# ----------------------------------------------------------------------
# hash_join through the probe caches == the range-expansion join
# ----------------------------------------------------------------------
def _direct_index(table, attr):
    keys = table.column(attr)
    order = np.argsort(sort_key(keys), kind="stable")
    return order, decoded(keys)[order]


def oracle_join_probe(left, right, left_attr, right_attr):
    """The range probe with a derived build subset, its cache lookups
    replaced by the direct computations they are equal to."""
    lin_l = left._lineage
    if lin_l is None:
        lroot, lrows = left, None
    else:
        lroot, lrows = lin_l[0], lin_l[1]

    lin_r = right._lineage
    if lin_r is None:
        rroot, rrows = right, None
    else:
        rroot, rrows, rmono = lin_r
        if rrows is not None and not rmono:
            rroot, rrows = right, None  # reordered subset: underivable

    root_order, root_sorted = _direct_index(rroot, right_attr)
    keys = decoded(lroot.column(left_attr))
    starts_full = np.searchsorted(root_sorted, keys, side="left")
    ends_full = np.searchsorted(root_sorted, keys, side="right")
    if lrows is not None:
        starts_full, ends_full = starts_full[lrows], ends_full[lrows]
    if rrows is None:
        return starts_full, ends_full, root_order

    member = np.zeros(rroot.nrows, dtype=bool)
    member[rrows] = True
    member_sorted = member[root_order]
    cum = np.zeros(rroot.nrows + 1, dtype=np.int64)
    np.cumsum(member_sorted, out=cum[1:])
    starts = cum[starts_full]
    ends = cum[ends_full]
    order = np.searchsorted(rrows, root_order[member_sorted])
    return starts, ends, order


def oracle_hash_join(left, right, left_attr, right_attr):
    """Range probe + repeat/cumsum expansion, gathered eagerly."""
    drop_right = {right_attr} if right_attr == left_attr else set()
    starts, ends, order = oracle_join_probe(left, right, left_attr, right_attr)
    counts = ends - starts
    total = int(counts.sum())
    schema = left.schema.concat(right.schema, drop=drop_right)
    if total == 0:
        return Table.empty(schema, max(left.scale, right.scale))
    if total == int(np.count_nonzero(counts)):
        left_idx = np.flatnonzero(counts)
        right_idx = order[starts[left_idx]]
    else:
        left_idx = np.repeat(np.arange(left.nrows), counts)
        offsets = np.zeros(left.nrows, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        right_idx = order[np.repeat(starts, counts) + within]
    cols = {name: left.column(name)[left_idx] for name in left.schema.names}
    for name in right.schema.names:
        if name not in drop_right:
            cols[name] = right.column(name)[right_idx]
    return Table(schema, cols, max(left.scale, right.scale))


@st.composite
def join_cases(draw):
    n_build = draw(st.integers(0, 12))
    unique = draw(st.booleans())
    build = draw(
        st.lists(
            st.integers(0, 16 if unique else 6),
            min_size=n_build, max_size=n_build, unique=unique,
        )
    )
    case = {
        "strings": draw(st.booleans()),
        "build": build,
        "probe": draw(st.lists(st.integers(0, 20), max_size=30)),  # > 16: no partner
        "batch": draw(st.lists(st.integers(0, 20), max_size=6)),
        "probe_mask": draw(st.none() | st.lists(st.booleans(), min_size=40, max_size=40)),
        "lazy": draw(st.booleans()),
    }
    shape = draw(st.sampled_from(["whole", "project", "filter", "reordered"]))
    if shape == "filter":
        case["build_rows"] = draw(st.lists(st.booleans(), min_size=n_build, max_size=n_build))
    elif shape == "reordered":
        perm = draw(st.permutations(range(n_build)))
        case["build_rows"] = list(perm[: draw(st.integers(0, n_build))])
    case["shape"] = shape
    return case


class TestJoinKernelOracle:
    FACT = Schema.of(Column("k"), Column("v", ColumnKind.FLOAT64))
    DIM = Schema.of(Column("d"), Column("label"))
    SFACT = Schema.of(Column("k", ColumnKind.STRING), Column("v", ColumnKind.FLOAT64))
    SDIM = Schema.of(Column("d", ColumnKind.STRING), Column("label"))

    @staticmethod
    def assert_same(got, want):
        assert got.schema == want.schema and got.nrows == want.nrows
        for name in want.schema.names:
            g, w = got.column(name), want.column(name)
            assert type(g) is type(w)
            g, w = decoded(g), decoded(w)
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def tables(self, case):
        def key(values):
            return [f"key{k:02d}" for k in values] if case["strings"] else values

        fact_schema = self.SFACT if case["strings"] else self.FACT
        dim_schema = self.SDIM if case["strings"] else self.DIM

        def fact(keys):
            return Table.from_dict(fact_schema, {"k": key(keys), "v": [k / 8 for k in keys]})

        dim = Table.from_dict(  # encoded on its own: another dictionary
            dim_schema, {"d": key(case["build"]), "label": range(len(case["build"]))}
        )
        shape = case["shape"]
        if shape == "whole":
            right = dim
        elif shape == "project":
            right = dim.project(["d"])
        elif shape == "filter":
            right = dim.filter(np.array(case["build_rows"], dtype=bool))
        else:
            right = dim.take(np.array(case["build_rows"], dtype=np.int64))
        return fact(case["probe"]), fact(case["batch"]), dim, right

    def probe_side(self, case, fact):
        mask = case["probe_mask"]
        if mask is None:
            return fact
        return fact.filter(np.array(mask[: fact.nrows], dtype=bool))

    @settings(max_examples=200, deadline=None)
    @given(join_cases())
    def test_equals_range_expansion_cold_and_warm(self, case):
        from repro.engine import indexes
        from repro.engine.table import set_lazy_views

        previous = set_lazy_views(case["lazy"])
        try:
            indexes.clear_caches()
            fact, batch, _dim, right = self.tables(case)

            def check(probe_root):
                left = self.probe_side(case, probe_root)
                want = oracle_hash_join(left, right, "k", "d")
                self.assert_same(hash_join(left, right, "k", "d").materialize(), want)

            check(fact)  # cold: first strike
            check(fact)  # second: pays the full-root probe
            check(fact)  # warm: third sighting, served from the cache
            grown = fact.append(batch)
            check(grown)  # the cached probe extended by the batch alone
            check(grown)
        finally:
            set_lazy_views(previous)
            indexes.clear_caches()
