"""Ingest benchmark: append scenarios proving delta maintenance correct.

Four micro-batch append scenarios drive ``python -m repro ingest-bench``
(the fig-10-style adaptation view of incremental ingest):

* **drip** — a steady trickle: a small batch every other query, rows
  uniform over the item domain, queries hammering one hot range;
* **burst** — a flash crowd: no appends for the first 40% of the run,
  then a batch *every* query (3x the drip size) concentrated in a narrow
  item range, then quiet again;
* **drift** — a moving hot spot: both the query ranges and the appended
  rows track a window that slides across the item domain over the run;
* **joined** — the drip schedule under fact ⋈ dim queries, so the resident
  views are joins with the ingested table on the probe side: the delta
  path must maintain them (Δ(R ⋈ S) = ΔR ⋈ S) without one rebuild.

Each scenario runs in two modes over identical inputs: ``delta`` (the
:class:`~repro.storage.ingest.DeltaMaintainer` routes batch rows to
affected fragments through the interval structure) and ``rebuild`` (the
always-correct recompute-from-base fallback, forced).  The harness
verifies, after **every** batch, that each resident pool entry's payload
is byte-identical to a from-scratch recompute of its view over the grown
base table — and, per query, that the system's answer matches a direct
base-table evaluation (the stale-read probe: a cache tier serving a
pre-append entry would diverge here).  Per-query answer digests must
match across the two modes, which is the end-to-end proof that delta
maintenance never changes an answer while charging less ``maint_s``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.table import Table
from repro.partitioning.intervals import Interval
from repro.query.algebra import Join, walk
from repro.query.builder import Q

SCENARIOS = ("drip", "burst", "drift", "joined")
MODES = ("delta", "rebuild")
# The scenario whose views join the ingested table (probe side) to a
# dimension: its delta mode must patch them and rebuild nothing.
PROBE_JOIN_SCENARIO = "joined"

# Fraction of the item domain one query's selection range spans.
_QUERY_WIDTH = 0.06
# Appended rows per drip/drift batch (burst batches are 3x).
_ROWS_PER_BATCH = 400


@dataclass(frozen=True)
class BatchSpec:
    """One scheduled micro-batch: apply before query ``at``.

    ``offset`` is the cumulative row count of earlier batches, so the
    appended ``ss_id`` sequence continues the base table's without gaps
    or collisions no matter how the schedule is replayed.
    """

    at: int
    nrows: int
    lo: int
    hi: int
    offset: int
    seed: int

    def rows(self, id0: int) -> dict:
        """Materialize the batch rows (deterministic per spec)."""
        rng = np.random.default_rng([self.seed, self.at, self.nrows])
        n = self.nrows
        return {
            "ss_id": np.arange(id0 + self.offset, id0 + self.offset + n),
            "ss_item_sk": rng.integers(self.lo, self.hi + 1, n),
            "ss_customer_sk": rng.integers(0, 1_000, n),
            "ss_quantity": rng.integers(1, 12, n),
            "ss_sales_price": rng.integers(1, 1_000, n),
            "ss_payload": np.zeros(n, dtype=np.int64),
        }


def scenario_schedule(
    scenario: str,
    n_queries: int,
    domain: Interval,
    seed: int = 1,
    rows_per_batch: int = _ROWS_PER_BATCH,
) -> "tuple[list[tuple[int, int]], list[BatchSpec]]":
    """Build one scenario: query ranges plus the batch schedule.

    Everything is a deterministic function of the arguments — the
    determinism harness replays a schedule across worker counts and
    expects bit-identical ledgers.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown ingest scenario: {scenario!r}")
    rng = np.random.default_rng([seed, len(scenario), n_queries])
    span = domain.hi - domain.lo
    width = span * _QUERY_WIDTH

    def centre(i: int) -> float:
        jitter = float(rng.uniform(-0.03, 0.03)) * span
        if scenario == "drift":
            frac = 0.2 + 0.6 * (i / max(1, n_queries - 1))
        elif scenario == "burst":
            frac = 0.5
        else:  # drip, joined
            frac = 0.35
        return domain.lo + frac * span + jitter

    ranges: list[tuple[int, int]] = []
    for i in range(n_queries):
        mid = centre(i)
        lo = max(domain.lo, mid - width / 2)
        hi = min(domain.hi, mid + width / 2)
        ranges.append((int(lo), int(hi)))

    batches: list[BatchSpec] = []
    offset = 0
    for i in range(n_queries):
        if scenario == "burst":
            if not (int(n_queries * 0.4) <= i < int(n_queries * 0.6)):
                continue
            nrows = 3 * rows_per_batch
            lo = int(domain.lo + 0.45 * span)
            hi = int(domain.lo + 0.55 * span)
        elif scenario == "drift":
            if i % 2 == 0:
                continue
            nrows = rows_per_batch
            frac = 0.2 + 0.6 * (i / max(1, n_queries - 1))
            lo = int(max(domain.lo, domain.lo + (frac - 0.1) * span))
            hi = int(min(domain.hi, domain.lo + (frac + 0.1) * span))
        else:  # drip, joined: uniform appends over the whole domain
            if i % 2 == 0:
                continue
            nrows = rows_per_batch
            lo, hi = int(domain.lo), int(domain.hi)
        batches.append(BatchSpec(i, nrows, lo, hi, offset, seed))
        offset += nrows
    return ranges, batches


def scenario_plans(ranges: "list[tuple[int, int]]", scenario: str = "drip"):
    """Delta-able plans over the scenario's query ranges: single-table
    select/project, or for ``joined`` the same over ``store_sales ⋈ item``."""
    source = Q("store_sales")
    columns = ("ss_id", "ss_item_sk", "ss_quantity", "ss_sales_price")
    if scenario == PROBE_JOIN_SCENARIO:
        source = source.join("item", on=("ss_item_sk", "i_item_sk"))
        columns += ("i_category_id",)
    return [
        source.select(*columns).where_between("ss_item_sk", lo, hi).plan for lo, hi in ranges
    ]


# ----------------------------------------------------------------------
# Correctness probes
# ----------------------------------------------------------------------
def table_digest(table: Table) -> str:
    """Row-order-insensitive content digest (rows stay associated)."""
    names = table.schema.names
    cols = [np.asarray(table.column(n)) for n in names]
    order = np.lexsort(tuple(reversed(cols))) if cols else np.array([], dtype=np.int64)
    h = hashlib.sha256()
    for name, col in zip(names, cols):
        h.update(name.encode())
        h.update(np.ascontiguousarray(col[order]).tobytes())
    return h.hexdigest()


def _recompute(plan, catalog: Catalog, cluster) -> Table:
    """Evaluate ``plan`` directly over base tables, without the pool."""
    executor = Executor(ExecutionContext(catalog, None, cluster))
    return executor.execute(plan, None).table


def verify_pool_identity(system) -> "tuple[int, list[str]]":
    """Check every resident entry's payload against a full recompute.

    Byte-exact and *order*-exact: a delta patch appends the batch's view
    rows after the old payload, which is precisely where a from-scratch
    recompute of the view over the grown table puts them.  Returns
    ``(entries_checked, problems)``.
    """
    pool = system.pool
    problems: list[str] = []
    checked = 0
    for view_id in pool.resident_view_ids():
        plan = pool.definition(view_id).plan
        expected = _recompute(plan, system.catalog, system.cluster)
        entries = []
        whole = pool.whole_view_entry(view_id)
        if whole is not None:
            entries.append((None, whole))
        for attr in pool.partition_attrs(view_id):
            entries.extend((attr, e) for e in pool.fragments_of(view_id, attr))
        for attr, entry in entries:
            want = (
                expected
                if attr is None
                else expected.filter(entry.key.interval.mask(expected.column(attr)))
            )
            got = pool.hdfs.peek(entry.path)
            checked += 1
            if got.schema.names != want.schema.names or got.nrows != want.nrows:
                problems.append(
                    f"{view_id}/{entry.fragment_id}: shape "
                    f"{got.nrows}x{len(got.schema.names)} != "
                    f"{want.nrows}x{len(want.schema.names)}"
                )
                continue
            for name in want.schema.names:
                if not np.array_equal(got.column(name), want.column(name)):
                    problems.append(
                        f"{view_id}/{entry.fragment_id}: column {name} diverged"
                    )
                    break
    return checked, problems


# ----------------------------------------------------------------------
# Scenario runner
# ----------------------------------------------------------------------
def run_scenario(
    scenario: str,
    mode: str = "delta",
    *,
    queries: int = 40,
    instance_gb: float = 2.0,
    seed: int = 1,
    pool_fraction: float = 0.5,
    probe_answers: bool = True,
) -> dict:
    """Run one (scenario x mode) unit and return its report dict."""
    from repro.baselines import deepsea
    from repro.bench.harness import uniform_fixture

    if mode not in MODES:
        raise ValueError(f"unknown ingest mode: {mode!r}")
    fx = uniform_fixture(instance_gb)
    # Fork: ingest mutates the catalog, and fixtures are cached/shared.
    catalog = fx.catalog.fork()
    domains = dict(fx.domains)
    domains["ss_item_sk"] = fx.item_domain
    system = deepsea(
        catalog,
        domains=domains,
        smax_bytes=catalog.total_size_bytes * pool_fraction,
    )
    if mode == "rebuild":
        system.maintenance.force_rebuild = True

    ranges, batches = scenario_schedule(scenario, queries, fx.item_domain, seed)
    plans = scenario_plans(ranges, scenario)
    by_index: dict[int, list[BatchSpec]] = {}
    for spec in batches:
        by_index.setdefault(spec.at, []).append(spec)
    id0 = catalog.get("store_sales").nrows

    per_query_s: list[float] = []
    per_query_maint_s: list[float] = []
    digests: list[str] = []
    identity_checks = 0
    identity_problems: list[str] = []
    stale_reads = 0
    rows_ingested = 0
    reports = []
    for i, plan in enumerate(plans):
        for spec in by_index.get(i, ()):
            system.ingest("store_sales", spec.rows(id0))
            rows_ingested += spec.nrows
            checked, problems = verify_pool_identity(system)
            identity_checks += checked
            identity_problems.extend(problems[:3])
        report = system.execute(plan)
        reports.append(report)
        per_query_s.append(report.total_s)
        per_query_maint_s.append(report.creation_ledger.maint_s)
        digest = table_digest(report.result)
        digests.append(digest)
        if probe_answers:
            truth = _recompute(plan, catalog, system.cluster)
            if table_digest(truth) != digest:
                stale_reads += 1

    ingest_reports = system.maintenance.reports
    views_delta = sorted({v for r in ingest_reports for v in r.views_delta})
    merged = {
        "maint_s": sum(r.maint_s for r in ingest_reports),
        "fragments_patched": sum(r.fragments_patched for r in ingest_reports),
        "fragments_rebuilt": sum(r.fragments_rebuilt for r in ingest_reports),
        "fragments_dropped": sum(r.fragments_dropped for r in ingest_reports),
        "delta_rows_routed": sum(r.ledger.delta_rows_routed for r in ingest_reports),
        "delta_rows_applied": sum(r.ledger.delta_rows_applied for r in ingest_reports),
    }
    return {
        "scenario": scenario,
        "mode": mode,
        "queries": queries,
        "instance_gb": instance_gb,
        "seed": seed,
        "batches": len(ingest_reports),
        "rows_ingested": rows_ingested,
        **merged,
        "views_delta": views_delta,
        "views_rebuilt": sorted({v for r in ingest_reports for v in r.views_rebuilt}),
        "join_views_delta": sum(
            any(isinstance(node, Join) for node in walk(system.pool.definition(v).plan))
            for v in views_delta
        ),
        "identity_checks": identity_checks,
        "identity_ok": not identity_problems,
        "identity_problems": identity_problems[:10],
        "stale_reads": stale_reads,
        "total_s": sum(per_query_s),
        "per_query_s": per_query_s,
        "per_query_maint_s": per_query_maint_s,
        "cumulative_s": list(np.cumsum(per_query_s)),
        "reuse_count": sum(1 for r in reports if r.reused_view),
        "answer_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }


def gate_problems(results: "list[dict]") -> list[str]:
    """The ingest invariants CI enforces over a set of scenario runs."""
    problems: list[str] = []
    by_scenario: dict[str, dict[str, dict]] = {}
    for res in results:
        name = f"{res['scenario']}/{res['mode']}"
        by_scenario.setdefault(res["scenario"], {})[res["mode"]] = res
        if res["batches"] == 0:
            problems.append(f"{name}: no batches ran")
        if not res["identity_ok"]:
            problems.append(
                f"{name}: fragment payloads diverged from recompute: "
                + "; ".join(res["identity_problems"][:3])
            )
        if res["stale_reads"]:
            problems.append(f"{name}: {res['stale_reads']} stale cache read(s)")
        if res["maint_s"] <= 0.0:
            problems.append(f"{name}: maint_s not charged")
        if res["mode"] == "delta" and res["fragments_patched"] < 1:
            problems.append(f"{name}: no fragment was delta-patched")
        if res["mode"] == "delta" and res["scenario"] == PROBE_JOIN_SCENARIO:
            if res["join_views_delta"] < 1:
                problems.append(f"{name}: no probe-side join view was delta-maintained")
            if res["fragments_rebuilt"] != 0:
                problems.append(
                    f"{name}: {res['fragments_rebuilt']} fragment(s) rebuilt, not patched"
                )
    for scenario, modes in by_scenario.items():
        if "delta" in modes and "rebuild" in modes:
            if modes["delta"]["answer_digest"] != modes["rebuild"]["answer_digest"]:
                problems.append(
                    f"{scenario}: delta and rebuild answers diverged"
                )
    return problems


def run_ingest_bench(
    scenarios: "tuple[str, ...]" = SCENARIOS,
    *,
    modes: "tuple[str, ...]" = MODES,
    queries: int = 40,
    instance_gb: float = 2.0,
    seed: int = 1,
    workers: int = 0,
) -> dict:
    """Run (scenario x mode) units, serially or over a process pool."""
    units = [(s, m) for s in scenarios for m in modes]

    def unit(s: str, m: str):
        return lambda: run_scenario(
            s, m, queries=queries, instance_gb=instance_gb, seed=seed
        )

    if workers >= 2 and len(units) > 1:
        from repro.parallel.pool import fan_out

        results = list(fan_out([unit(s, m) for s, m in units], workers))
    else:
        results = [unit(s, m)() for s, m in units]
    problems = gate_problems(results)
    return {
        "queries": queries,
        "instance_gb": instance_gb,
        "seed": seed,
        "workers": workers,
        "results": results,
        "problems": problems,
        "ok": not problems,
    }
