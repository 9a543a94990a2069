"""Property-based end-to-end equivalence (the library's master invariant).

Hypothesis drives random workloads — random templates, ranges, pool
limits, and policies — through DeepSea and asserts every answer equals
SQLite's answer to the query as written (``tests/sql_oracle.py``, which
shares no code with the engine).  This is the multiset-equality guarantee
the rewriter's sufficient matching condition promises (§8.1), exercised
across materialization, fragment covers, overlapping refinement,
eviction, and re-creation.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Catalog, DeepSea, Interval, Policy
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.query.algebra import Aggregate, AggSpec, Join, Project, Relation, Select
from repro.query.predicates import between
from tests.sql_oracle import SqlOracle

DOMAIN = Interval.closed(0, 200)
DOMAINS = {"f_k": DOMAIN, "d_k": DOMAIN}


def build_rows(seed: int) -> dict:
    """Each table's schema and rows, as plain Python values."""
    rng = np.random.default_rng(seed)
    n = 300
    fact = zip(range(n), rng.integers(0, 201, n).tolist(), rng.integers(0, 50, n).tolist())
    dim = zip(range(201), rng.integers(0, 6, 201).tolist())
    return {
        "fact": (Schema.of(Column("f_id"), Column("f_k"), Column("f_v")), list(fact)),
        "dim": (Schema.of(Column("d_k"), Column("d_c")), list(dim)),
    }


_ROWS = build_rows(0)
_CATALOG = Catalog()
for _name, (_schema, _rows) in _ROWS.items():
    _columns = {c: [row[i] for row in _rows] for i, c in enumerate(_schema.names)}
    _CATALOG.register(_name, Table.from_dict(_schema, _columns, scale=5e5))
_ORACLE = SqlOracle(
    {name: ([(c, "INTEGER") for c in schema.names], rows) for name, (schema, rows) in _ROWS.items()}
)

join = Join(Relation("fact"), Relation("dim"), "f_k", "d_k")


def make_query(kind: int, lo: float, hi: float):
    selected = Select(
        Project(join, ("d_k", "d_c", "f_v")), (between("d_k", lo, hi),)
    )
    if kind == 0:
        return selected
    if kind == 1:
        return Aggregate(selected, ("d_c",), (AggSpec("sum", "f_v", "s"),))
    if kind == 2:
        return Aggregate(selected, ("d_c",), (AggSpec("count", None, "n"),))
    return Aggregate(selected, (), (AggSpec("min", "f_v", "lo"), AggSpec("max", "f_v", "hi")))


query_strategy = st.tuples(
    st.integers(0, 3),
    st.integers(0, 200),
    st.integers(0, 200),
).map(lambda t: make_query(t[0], min(t[1], t[2]), max(t[1], t[2])))


@given(
    plans=st.lists(query_strategy, min_size=4, max_size=14),
    pool_fraction=st.sampled_from([None, 0.5, 0.1, 0.02]),
    overlapping=st.booleans(),
    eager=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_deepsea_always_matches_direct_execution(plans, pool_fraction, overlapping, eager):
    """Named for its first reference, direct execution; SQLite is the
    reference now."""
    smax = _CATALOG.total_size_bytes * pool_fraction if pool_fraction is not None else None
    system = DeepSea(
        _CATALOG,
        domains=DOMAINS,
        smax_bytes=smax,
        policy=Policy(
            overlapping=overlapping,
            evidence_factor=0.0 if eager else 1.0,
            creation_cooldown=2.0,
        ),
    )
    # repeat the workload to force reuse / refinement / eviction paths
    for plan in plans + plans:
        got = system.execute(plan).result.to_rows()
        want = _ORACLE.answer(plan)
        problem = want.differs_from(got)
        assert problem is None, f"{problem}\n{plan}\n{want.sql}"
        if smax is not None:
            assert system.pool.used_bytes <= smax + 1e-6
