"""One run of one workload, in this process: sessions, verification, report.

A run is SESSIONS independent sessions.  Each is set up from cold caches
with its own inputs (drawn from the run's seed), adapts from an empty
view pool for its share of ``--seconds``, and is verified after its
measured stretch.  Every metric is computed per session and the run
reports the median over its sessions: one session's partitioning
history is chaotic in its inputs, and a run must repeat to a few percent
whatever seed it is given.  Set-up time is likewise the median over the
sessions' set-ups, plus the imports, which happen once.

The last line printed to standard output is the result object the
benchmark driver reads; the lines before it name every metric with its
unit for a human, including diagnostics that are not gated.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from repro import caches

from perfbench.cli import BENCHMARK
from perfbench.layers import layer_metrics
from perfbench.stats import percentile
from perfbench.trace import SpanRecorder
from perfbench.workloads import WORKLOADS, set_up, verify

SESSIONS = 5


def session_summary(stretch) -> dict:
    """One session's numbers, printed per session for the reader.  The
    gated metrics are formed from these in :func:`run`; the rest are
    diagnostics (README, 'What is not gated')."""
    sim = stretch.sim_s[: stretch.prefix]
    out = {
        "queries": len(stretch.answers),
        "prefix": stretch.prefix,
        "wall_s": stretch.wall_s,
        # Verified answers only: a failed operation is not throughput.
        "queries_per_s": max(len(stretch.answers) - stretch.failed, 0) / stretch.wall_s,
        "query_ms_p50": percentile(stretch.query_s, 50) * 1e3,
        "query_ms_p95": percentile(stretch.query_s, 95) * 1e3,
        "query_ms_p99": percentile(stretch.query_s, 99) * 1e3,
        "sim_s_per_query": statistics.fmean(sim) if sim else 0.0,
        "failed_share": stretch.failed / stretch.attempted,
        "cpu_over_wall": stretch.cpu_s / stretch.wall_s,
    }
    if stretch.ingest_s:
        out["batches"] = len(stretch.ingest_s)
        out["ingest_ms_p50"] = percentile(stretch.ingest_s, 50) * 1e3
        out["ingest_ms_p90"] = percentile(stretch.ingest_s, 90) * 1e3
        out["maint_sim_s_per_batch"] = statistics.fmean(stretch.maint_sim_s)
    return out


def run(name: str, *, seed: int, seconds: float, scale: float, traced: bool,
        out_dir: Path, import_s: float) -> int:
    workload = WORKLOADS[name]
    span_cost_s = SpanRecorder.per_span_cost_s() if traced else 0.0
    spans_path = out_dir / f"{name}.spans.jsonl"
    if traced:
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path.write_text("")
    setups, sessions, layers, query_s, sim_s = [], [], [], [], []
    attempted = failed = 0
    for session in range(SESSIONS):
        gc.collect()
        started = time.perf_counter()
        inputs, system = set_up(workload, seed * 1000 + session, scale)
        setups.append(time.perf_counter() - started)

        recorder = SpanRecorder() if traced else None
        gc.collect()
        caches_before = caches.cache_stats()
        stretch = workload.drive(system, inputs, seconds / SESSIONS, recorder)
        cache_delta = caches.stats_delta(caches_before, caches.cache_stats())
        stretch.prefix = workload.prefix_of(len(stretch.answers), scale)

        verify(workload, inputs, system, stretch)
        for problem in stretch.problems:
            print(f"perfbench: {name}: session {session}: {problem}", file=sys.stderr)
        attempted += stretch.attempted
        failed += stretch.failed
        sessions.append(session_summary(stretch))
        query_s.extend(stretch.query_s)
        sim_s.extend(stretch.sim_s[: stretch.prefix])
        if traced:
            layers.append(
                layer_metrics(inputs, system, stretch, recorder, cache_delta, span_cost_s)
            )
            recorder.write(spans_path, session)
        del inputs, system, stretch, recorder  # sessions share no memory

    for key in sessions[0]:
        print(f"{name:14s} {key:24s} " + " ".join(f"{s[key]:10.4g}" for s in sessions))
    if traced:
        values = {key: statistics.median(s[key] for s in layers) for key in layers[0]}
        declared = BENCHMARK["per_layer"]
    else:
        values = {
            "queries_per_s": statistics.median(s["queries_per_s"] for s in sessions),
            # A tail percentile of one short session sits on the cliff between
            # cheap queries and the few that materialize or evict; read over
            # all the run's queries together it does not flip between the two.
            "query_ms_p50": percentile(query_s, 50) * 1e3,
            "query_ms_p95": percentile(query_s, 95) * 1e3,
            # Exact for a seed, so there are no outliers to take a median against.
            "sim_s_per_query": statistics.fmean(sim_s) if sim_s else 0.0,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = BENCHMARK["end_to_end"]
    # A cache that a later change removes reads 0; it does not break the run.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    for key, metric in metrics.items():
        per_session = " ".join(f"{s[key]:.4g}" for s in layers if key in s)
        print(f"{name:14s} {key:42s} {metric['value']:16.4f} {metric['unit']:6s} {per_session}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1
