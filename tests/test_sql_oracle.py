"""The engine against an independent reference: SQLite (``tests/sql_oracle.py``).

Hypothesis draws three small tables — a fact table, a dimension joined
by an integer key and a tag table joined by a string key — and plans over
them: scans, range selections with open, closed and unbounded ends,
projections, equi-joins and group-bys with every aggregate function.
Each plan runs on the engine three times, so a join meets the probe
caches cold, on its second strike and warm, and every answer must equal
SQLite's as a multiset.  The sharp edges are drawn on purpose:

* integer keys at and beyond ±2⁵³, with integer and float bounds;
* keys the dimension does not hold (the row-id join's −1 sentinel), and
  dimensions whose keys are not distinct;
* string columns as join and group keys;
* tables grown by ``Table.append``, at the tip of the tail buffer, as a
  version the buffer has since grown past, and as the second fork of one
  parent;
* selections and joins that keep no row.
"""

import sqlite3

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.partitioning.intervals import Interval
from repro.query.algebra import Aggregate, AggSpec, Join, Project, Relation, Select
from repro.query.predicates import RangePredicate
from tests.conftest import examples
from tests.sql_oracle import SqlOracle

INT, FLOAT, STR = ColumnKind.INT64, ColumnKind.FLOAT64, ColumnKind.STRING
SQL_TYPE = {INT: "INTEGER", FLOAT: "REAL", STR: "TEXT"}

SCHEMAS = {
    "fact": Schema.of(
        Column("f_id", INT),
        Column("f_k", INT),
        Column("f_v", INT),
        Column("f_x", FLOAT),
        Column("f_s", STR),
    ),
    "dim": Schema.of(Column("d_k", INT), Column("d_c", INT), Column("d_name", STR)),
    "tag": Schema.of(Column("t_s", STR), Column("t_w", INT)),
}
KIND = {col.name: col.kind for schema in SCHEMAS.values() for col in schema.columns}
# SUM and AVG read only these columns.  Over the ±2⁶² keys an int64 SUM
# can overflow: SQLite raises when a partial sum does, the engine when the
# total does (test_int64_sum_overflow_is_not_silent), so the two raise on
# different inputs; and AVG's float sum can cancel to a result no fixed
# tolerance bounds.
SUMMABLE = {"f_v", "f_x", "d_c", "t_w"}

EDGE = 2**53
BIG_KEYS = [EDGE - 1, EDGE, EDGE + 1, EDGE + 2, -EDGE - 1, -EDGE, 2**62, -(2**62)]
keys = st.one_of(st.integers(-12, 12), st.sampled_from(BIG_KEYS))
bounds = st.one_of(
    st.integers(-14, 14),
    st.sampled_from(BIG_KEYS),
    st.floats(-14, 14, allow_nan=False),
    st.sampled_from([float(EDGE), float(EDGE + 2), -float(EDGE), 2.0**62]),
)
words = st.text(alphabet="abé😀", max_size=3)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
@st.composite
def fact_rows(draw):
    n = draw(st.integers(0, 24))
    return [
        (
            i,
            draw(keys),
            draw(st.integers(-1000, 1000)),
            draw(st.floats(-1e3, 1e3, allow_nan=False)),
            draw(words),
        )
        for i in range(n)
    ]


@st.composite
def dim_rows(draw):
    dim_keys = draw(st.lists(keys, max_size=10, unique=draw(st.booleans())))
    return [(k, draw(st.integers(0, 3)), draw(words)) for k in dim_keys]


@st.composite
def tag_rows(draw):
    tags = draw(st.lists(words, max_size=6, unique=draw(st.booleans())))
    return [(t, draw(st.integers(-50, 50))) for t in tags]


growths = st.sampled_from(["plain", "tip", "grown_past", "second_fork"])


def build(schema: Schema, rows: list, growth: str, cuts: list) -> Table:
    """A table holding ``rows``, built the way ``growth`` names.

    ``tip``: appended batch by batch, each append in place.
    ``grown_past``: the same, then grown once more in place, so the
    version returned is no longer its buffer's tip.
    ``second_fork``: a sibling is appended to the parent first, so the
    last append cannot write in place and falls back to a fresh buffer.
    """

    def table(part):
        columns = {c: [row[i] for row in part] for i, c in enumerate(schema.names)}
        return Table.from_dict(schema, columns)

    if growth == "plain":
        return table(rows)
    stops = sorted({min(c, len(rows)) for c in cuts} | {len(rows)})
    out = table(rows[: stops[0]])
    for start, stop in zip(stops, stops[1:]):
        if growth == "second_fork" and stop == stops[-1]:
            out.append(table(rows[:1]))
        out = out.append(table(rows[start:stop]))
    if growth == "grown_past":
        out.append(table(rows[-1:]))
    return out


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@st.composite
def intervals(draw):
    low, high = draw(st.none() | bounds), draw(st.none() | bounds)
    if low is not None and high is not None and high < low:
        low, high = high, low
    if low is not None and low == high:
        return Interval.point(low)
    return Interval(low, high, draw(st.booleans()), draw(st.booleans()))


@st.composite
def selections(draw, child, columns):
    numeric = [c for c in columns if KIND[c] is not STR]
    attrs = draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=2))
    return Select(child, tuple(RangePredicate(a, draw(intervals())) for a in attrs))


@st.composite
def leaves(draw, name):
    columns = list(SCHEMAS[name].names)
    leaf = Relation(name)
    if draw(st.booleans()):
        leaf = draw(selections(leaf, columns))
    return leaf, columns


@st.composite
def plans(draw):
    fact, columns = draw(leaves("fact"))
    plan = fact
    shape = draw(st.sampled_from(["scan", "dim", "tag", "both"]))
    if shape in ("dim", "both"):
        dim, dim_columns = draw(leaves("dim"))
        plan, columns = Join(plan, dim, "f_k", "d_k"), columns + dim_columns
    if shape in ("tag", "both"):
        tag, tag_columns = draw(leaves("tag"))
        plan, columns = Join(plan, tag, "f_s", "t_s"), columns + tag_columns
    if draw(st.booleans()):
        plan = draw(selections(plan, columns))
    if draw(st.booleans()):
        columns = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=4, unique=True))
        plan = Project(plan, tuple(columns))
    if draw(st.booleans()):
        group_by = tuple(draw(st.lists(st.sampled_from(columns), max_size=2, unique=True)))
        specs = []
        for i in range(draw(st.integers(1, 3))):
            func = draw(st.sampled_from(["count", "sum", "avg", "min", "max"]))
            summable = [c for c in columns if c in SUMMABLE]
            if func in ("sum", "avg") and not summable:
                func = "count"
            if func == "count":
                specs.append(AggSpec("count", None, f"a{i}"))
                continue
            pool = summable if func in ("sum", "avg") else columns
            specs.append(AggSpec(func, draw(st.sampled_from(pool)), f"a{i}"))
        plan = Aggregate(plan, group_by, tuple(specs))
    return plan


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
@example(  # an int64 key one past 2⁵³ against the float bound 2⁵³
    data={"fact": [(0, EDGE + 1, 0, 0.0, "")], "dim": [], "tag": []},
    growth=dict.fromkeys(SCHEMAS, "plain"),
    cuts=[0],
    queries=[Select(Relation("fact"), (RangePredicate("f_k", Interval.at_most(float(EDGE))),))],
)
@given(
    data=st.fixed_dictionaries({"fact": fact_rows(), "dim": dim_rows(), "tag": tag_rows()}),
    growth=st.fixed_dictionaries({name: growths for name in SCHEMAS}),
    cuts=st.lists(st.integers(0, 24), min_size=1, max_size=3),
    queries=st.lists(plans(), min_size=1, max_size=4),
)
@settings(
    max_examples=examples(dev=40, deep=2000),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_engine_answers_equal_sqlite(data, growth, cuts, queries):
    catalog = Catalog()
    for name, schema in SCHEMAS.items():
        catalog.register(name, build(schema, data[name], growth[name], cuts))
    oracle = SqlOracle(
        {
            name: ([(c.name, SQL_TYPE[c.kind]) for c in schema.columns], data[name])
            for name, schema in SCHEMAS.items()
        }
    )
    try:
        executor = Executor(ExecutionContext(catalog))
        for plan in queries:
            want = oracle.answer(plan)
            for _ in range(3):  # probe cache cold, second strike, warm
                got = executor.execute(plan).table.to_rows()
                problem = want.differs_from(got)
                assert problem is None, f"{problem}\n{plan}\n{want.sql}"
    finally:
        oracle.close()


def test_int64_sum_overflow_is_not_silent():
    """SQLite refuses a SUM beyond int64, and so does the engine, where
    a wrapping sum would answer 2·2⁶² with −2⁶³."""
    rows = [(0, 2**62, 0, 0.0, ""), (1, 2**62, 0, 0.0, "")]
    catalog = Catalog()
    catalog.register("fact", build(SCHEMAS["fact"], rows, "plain", []))
    columns = [(c.name, SQL_TYPE[c.kind]) for c in SCHEMAS["fact"].columns]
    oracle = SqlOracle({"fact": (columns, rows)})
    plan = Aggregate(Relation("fact"), (), (AggSpec("sum", "f_k", "total"),))
    try:
        oracle.answer(plan)
    except sqlite3.OperationalError as error:
        assert "integer overflow" in str(error)
    else:
        raise AssertionError("SQLite summed past int64")
    finally:
        oracle.close()
    with pytest.raises(OverflowError):
        Executor(ExecutionContext(catalog)).execute(plan)
