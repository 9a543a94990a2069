"""Joins and ingest by position, held to the binary search they replace.

* ``SortIndex.search`` answers int64 probes against a build side of
  compact key span from a position table; every answer must equal
  ``np.searchsorted(sorted_keys, keys, "left" / "right")`` element for
  element and in dtype, whichever path served it.  Drawn: duplicate
  keys, spans at and just past the density rule, keys at and next to
  ±2⁶³, empty build and probe sides, and float, object or narrower
  integer probe keys (the binary-search fallback).
* The ingest router (``route_rows`` + ``fragment_rows``) must hand each
  fragment exactly the rows ``Interval.mask`` + ``Table.filter`` did, in
  the same order.  Drawn: open, closed and unbounded ends, float bounds
  on integer columns past ±2⁵³, overlapping fragments, float columns
  with NaN and infinities, and an empty delta.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import caches
from repro.engine.indexes import SortIndex, _PROBE_CACHE, direct_addressable
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import ColumnKind
from repro.errors import IntervalError
from repro.partitioning.intervals import Interval
from repro.storage.ingest import fragment_rows, route_rows
from tests.conftest import examples

INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
EDGE = 2**53


# ----------------------------------------------------------------------
# SortIndex.search
# ----------------------------------------------------------------------
@st.composite
def build_keys(draw):
    """int64 keys whose span sits at, just inside or past the density
    rule, anchored at -2⁶³, around 0 or at 2⁶³ - 1."""
    n = draw(st.integers(0, 24))
    limit = 8 * n + 1024
    span = draw(
        st.one_of(
            st.sampled_from([1, 2, 3, limit - 1, limit, limit + 1, limit + 2]),
            st.integers(1, 4 * limit),
        )
    )
    lo = draw(st.sampled_from([INT64_MIN, -(span // 2), INT64_MAX - span + 1]))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    if n >= 2:  # both ends present: the span drawn is the span built
        offsets[0], offsets[-1] = 0, span - 1
    return np.array([lo + o for o in offsets], dtype=np.int64)


@st.composite
def probe_keys(draw, built):
    near = [INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]
    if len(built):
        lo, hi = int(built.min()), int(built.max())
        near += [k for k in range(lo - 2, lo + 3)] + [k for k in range(hi - 2, hi + 3)]
        near += [int(k) for k in built]
    near = [k for k in near if INT64_MIN <= k <= INT64_MAX]
    values = draw(
        st.lists(st.one_of(st.sampled_from(near), st.integers(INT64_MIN, INT64_MAX)), max_size=30)
    )
    return np.array(values, dtype=np.int64)


@settings(max_examples=examples(dev=60, deep=2000), deadline=None)
@given(data=st.data())
def test_search_equals_searchsorted(data):
    built = data.draw(build_keys())
    build_kind = data.draw(st.sampled_from(["int64", "int64", "int64", "float64", "object"]))
    probes = data.draw(probe_keys(built))
    probe_kind = data.draw(st.sampled_from(["int64", "int64", "int64", "float64", "object", "int32"]))
    if build_kind != "int64":
        built = built.astype(build_kind)
    if probe_kind == "int32":
        probes = probes[(probes >= -(2**31)) & (probes < 2**31)]
    probes = probes.astype(probe_kind)

    index = SortIndex.build(built)
    caches.clear_all_caches()
    starts, ends = index.search(probes)

    want_starts = np.searchsorted(index.sorted_keys, probes, side="left")
    want_ends = np.searchsorted(index.sorted_keys, probes, side="right")
    assert starts.dtype == want_starts.dtype and ends.dtype == want_ends.dtype
    np.testing.assert_array_equal(starts, want_starts)
    np.testing.assert_array_equal(ends, want_ends)

    compact = build_kind == "int64" and (
        len(built) == 0 or int(built.max()) - int(built.min()) + 1 <= 8 * len(built) + 1024
    )
    positional = compact and probe_kind == "int64"
    assert (index.positions is not None) == compact
    assert (_PROBE_CACHE.positional, _PROBE_CACHE.binary) == (int(positional), int(not positional))


def test_a_position_table_up_to_the_density_rule_and_not_past_it():
    for n in (2, 100):
        limit = 8 * n + 1024
        for span in (limit, limit + 1):
            keys = np.zeros(n, dtype=np.int64)
            keys[-1] = span - 1
            assert direct_addressable(span, n) == (span == limit)
            assert (SortIndex.build(keys).positions is not None) == (span == limit)


def test_workload_shaped_keys_are_served_by_position():
    """Surrogate keys 0..n-1, probed by a fact column: two gathers."""
    index = SortIndex.build(np.arange(40_001, dtype=np.int64))
    probes = np.random.default_rng(3).integers(-5, 40_010, 1000)
    caches.clear_all_caches()
    starts, ends = index.search(probes)
    np.testing.assert_array_equal(starts, np.searchsorted(index.sorted_keys, probes, "left"))
    np.testing.assert_array_equal(ends, np.searchsorted(index.sorted_keys, probes, "right"))
    assert (_PROBE_CACHE.positional, _PROBE_CACHE.binary) == (1, 0)


# ----------------------------------------------------------------------
# The ingest router
# ----------------------------------------------------------------------
INT_VALUES = st.one_of(
    st.integers(-12, 12),
    st.sampled_from([EDGE - 1, EDGE, EDGE + 1, EDGE + 2, -EDGE - 1, -EDGE, -EDGE + 1]),
    st.sampled_from([INT64_MIN, INT64_MAX, 2**62, -(2**62)]),
)
FLOAT_VALUES = st.one_of(
    st.floats(-14, 14),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, float(EDGE), 2.0**62]),
)
BOUNDS = st.one_of(
    st.none(),
    st.integers(-14, 14),
    st.floats(-14, 14, allow_nan=False),
    st.sampled_from([EDGE, EDGE + 1, -EDGE - 1, 2**62, INT64_MAX, INT64_MIN]),
    st.sampled_from(
        [float(EDGE), float(EDGE + 2), -float(EDGE), 2.0**62, 2.0**63, -(2.0**63), 1e19,
         math.inf, -math.inf]
    ),
)


@st.composite
def intervals(draw):
    low, high = draw(BOUNDS), draw(BOUNDS)
    if low is not None and high is not None and low > high:
        low, high = high, low
    try:
        return Interval(low, high, draw(st.booleans()), draw(st.booleans()))
    except IntervalError:  # an open end at a point: make it the point
        return Interval(low, high)


@settings(max_examples=examples(dev=60, deep=2000), deadline=None)
@given(
    ints=st.lists(INT_VALUES, max_size=30),
    floats=st.lists(FLOAT_VALUES, max_size=30),
    fragments=st.lists(intervals(), min_size=1, max_size=6),
)
@example(ints=[], floats=[], fragments=[Interval(0, None)])  # an empty delta
@example(ints=[EDGE + 1], floats=[1.0, math.nan, 3.0], fragments=[Interval(0, None)])
@example(ints=[EDGE + 1, EDGE], floats=[], fragments=[Interval(float(EDGE), None, True)])
def test_router_equals_mask_and_filter(ints, floats, fragments):
    for kind, values in ((ColumnKind.INT64, ints), (ColumnKind.FLOAT64, floats)):
        schema = Schema.of(Column("v", kind), Column("tag"))
        delta = Table.from_dict(schema, {"v": values, "tag": list(range(len(values)))})
        route = route_rows(delta.column("v"))
        for interval in fragments:
            rows = fragment_rows(route, interval)
            mask = interval.mask(delta.column("v"))
            np.testing.assert_array_equal(rows, np.flatnonzero(mask))
            got, want = delta.take(rows), delta.filter(mask)
            for name in schema.names:
                np.testing.assert_array_equal(got.column(name), want.column(name))
