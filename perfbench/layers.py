"""Per-layer metrics of one traced run, named ``<module>.<metric>``.

Seconds are *self* times over the whole measured stretch, so they add up
to the traced wall.  Counts are read over the workload's fixed prefix of
queries, which makes them repeat exactly on the single-caller workloads
however far past the prefix the time budget reached.  Gauges called
``*_final`` are read when the stretch ends.
"""

from __future__ import annotations

from perfbench import trace
from perfbench.stats import percentile

_STAGES = ("matching", "selection", "execution", "materialization")
_REWRITER_CALLS = ("find_matches", "build_rewritings", "estimate_plan_cost", "estimate_saving")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ms_percentile(seconds, q: float) -> float:
    return percentile(seconds, q) * 1e3 if seconds else 0.0


def layer_metrics(inputs, system, stretch, recorder, cache_delta, span_cost_s) -> dict[str, float]:
    spans = recorder.spans
    whole = trace.roll_up(spans)
    prefix = stretch.prefix
    in_prefix = trace.roll_up(
        [s for s in spans if not isinstance(s[5], int) or s[5] <= prefix]
    )
    reports = system.reports[:prefix]
    n_reports = len(reports)

    def self_s(name: str) -> float:
        return whole.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return in_prefix.get(name, {}).get("calls", 0)

    def counted(name: str) -> int:
        return in_prefix.get(name, {}).get("count", 0)

    out: dict[str, float] = {}

    # core: the four driver stages of Algorithm 1 plus the glue around them.
    for stage in _STAGES:
        out[f"core.{stage}_s"] = self_s(f"core.{stage}")
    out["core.other_s"] = self_s("core.execute")
    out["core.views_created"] = sum(len(r.views_created) for r in reports)
    out["core.refinements"] = sum(r.refinements for r in reports)
    out["core.evictions"] = sum(r.evictions for r in reports)
    out["core.reuse_share"] = _share(sum(r.reused_view for r in reports), n_reports)
    quarter = len(stretch.query_s) // 4
    out["core.late_over_early"] = (
        _share(sum(stretch.query_s[-quarter:]), sum(stretch.query_s[:quarter])) if quarter else 0.0
    )

    # matching: the rewriter's public calls.
    for call in _REWRITER_CALLS:
        out[f"matching.{call}_s"] = self_s(f"matching.{call}")
        out[f"matching.{call}_calls"] = calls(f"matching.{call}")
    for call, found in (("find_matches", "matches"), ("build_rewritings", "rewritings")):
        out[f"matching.{found}_per_query"] = _share(
            counted(f"matching.{call}"), calls(f"matching.{call}")
        )

    # engine: the executor, and what the cost model charged the executions.
    out["engine.execute_s"] = self_s("engine.execute")
    out["engine.execute_calls"] = calls("engine.execute")
    ledgers = [r.execution_ledger for r in reports]
    out["engine.bytes_read_per_query"] = _share(sum(l.bytes_read for l in ledgers), n_reports)
    out["engine.map_tasks_per_query"] = _share(sum(l.map_tasks for l in ledgers), n_reports)
    out["engine.jobs_per_query"] = _share(sum(l.jobs for l in ledgers), n_reports)

    # storage: the view pool, its journal, and ingest maintenance.
    pool = system.pool
    out["storage.pool_read_s"] = self_s("storage.pool_read")
    out["storage.pool_reads"] = calls("storage.pool_read")
    out["storage.admit_s"] = self_s("storage.admit")
    out["storage.admits"] = calls("storage.admit")
    out["storage.evicts"] = calls("storage.evict")
    out["storage.journal_txns"] = calls("storage.journal_begin")
    out["storage.journal_s"] = sum(
        self_s(f"storage.journal_{op}") for op in ("begin", "commit", "rollback")
    )
    out["storage.rollbacks"] = calls("storage.journal_rollback")
    out["storage.pool_entries_final"] = len(pool.all_entries())
    out["storage.pool_bytes_per_base_byte"] = (
        _share(reports[-1].pool_bytes, inputs.catalog.total_size_bytes) if reports else 0.0
    )
    n_batches = sum(1 for at in inputs.batches if at < prefix)
    ingests = system.maintenance.reports[:n_batches]
    patched = sum(r.fragments_patched for r in ingests)
    rebuilt = sum(r.fragments_rebuilt for r in ingests)
    out["storage.ingest_s"] = self_s("storage.ingest")
    out["storage.ingest_ms_p50"] = _ms_percentile(stretch.ingest_s, 50)
    out["storage.ingest_ms_p90"] = _ms_percentile(stretch.ingest_s, 90)
    out["storage.maint_sim_s_per_batch"] = _share(sum(r.maint_s for r in ingests), len(ingests))
    out["storage.fragments_patched"] = patched
    out["storage.fragments_rebuilt"] = rebuilt
    out["storage.fragments_dropped"] = sum(r.fragments_dropped for r in ingests)
    out["storage.delta_rows_routed"] = sum(r.ledger.delta_rows_routed for r in ingests)
    out["storage.patched_share"] = _share(patched, patched + rebuilt)

    # caches: every registered cache, over the whole stretch.
    for name, stats in cache_delta.items():
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        out[f"caches.{name}.hit_rate"] = _share(stats.get("hits", 0), lookups)
        out[f"caches.{name}.evictions"] = stats.get("evictions", 0)

    # serve: queueing, the plan lock, leases and the writer.
    reader_waits = trace.durations(spans, "serve.plan_lock_wait.readers")
    writer_steps = trace.durations(spans, "core.execute") if stretch.service_metrics else []
    out["serve.queue_wait_ms_p50"] = _ms_percentile(recorder.samples["serve.queue_wait"], 50)
    out["serve.queue_wait_ms_p95"] = _ms_percentile(recorder.samples["serve.queue_wait"], 95)
    out["serve.plan_lock_wait_ms_p50"] = _ms_percentile(reader_waits, 50)
    out["serve.plan_lock_wait_ms_p95"] = _ms_percentile(reader_waits, 95)
    out["serve.plan_lock_hold_s_readers"] = sum(
        trace.durations(spans, "serve.plan_lock_hold.readers")
    )
    out["serve.plan_lock_hold_s_writer"] = sum(
        trace.durations(spans, "serve.plan_lock_hold.writer")
    )
    out["serve.lease_hold_ms_p50"] = _ms_percentile(recorder.samples["serve.lease_hold"], 50)
    out["serve.writer_step_ms_p50"] = _ms_percentile(writer_steps, 50)
    out["serve.writer_step_ms_p95"] = _ms_percentile(writer_steps, 95)
    service = stretch.service_metrics or {}
    writer = service.get("writer", {})
    out["serve.writer_steps"] = writer.get("steps", 0)
    out["serve.writer_dropped"] = writer.get("dropped", 0)
    out["serve.retries"] = service.get("retries", 0)
    out["serve.degraded_direct"] = service.get("degraded_direct", 0)
    out["serve.via_view_share"] = _share(service.get("via_view", 0), service.get("answered", 0))
    out["serve.pool_epoch_final"] = service.get("pool_epoch", 0)

    # proc / trace: is the run itself valid?
    out["proc.cpu_over_wall"] = _share(stretch.cpu_s, stretch.wall_s)
    # With one caller the top-level spans must cover the stretch; with the
    # service's threads they overlap and the check does not apply.
    top_level = sum(end - start for _id, _n, start, end, parent, *_ in spans if parent == 0)
    out["trace.unattributed_share"] = (
        1.0 - _share(top_level, stretch.wall_s) if stretch.service_metrics is None else 0.0
    )
    out["trace.overhead_share"] = _share(len(spans) * span_cost_s, stretch.wall_s)
    out["trace.queries_per_s"] = _share(len(stretch.answers), stretch.wall_s)
    return out
