"""CI gate: delta maintenance equals recompute, patches fire, reads stay fresh.

Re-derives the ingest invariants from an ``ingest-bench`` JSON report
(``python -m repro ingest-bench --output ...``) instead of trusting the
run's own ``ok`` flag:

1. every scenario that ran in both modes has **identical per-query answer
   digests** for ``delta`` and ``rebuild`` — delta maintenance never
   changes an answer;
2. every run passed its per-batch fragment identity proof (each resident
   payload byte-identical to a from-scratch recompute over the grown
   base table) and actually checked at least one entry;
3. every ``delta`` run patched at least one fragment (``fragments_patched
   >= 1`` — the delta path genuinely ran, it did not silently fall back
   to rebuilds or do nothing);
4. zero stale cache reads: every per-query answer matched a direct
   base-table evaluation of the post-append catalog;
5. maintenance was charged (``maint_s > 0`` with at least one batch);
6. the ``joined`` scenario — resident views that join the ingested table,
   on the probe side, to a dimension — delta-maintained at least one such
   view and **rebuilt nothing** in ``delta`` mode (``fragments_rebuilt ==
   0``): Δ(R ⋈ S) = ΔR ⋈ S is taken, not the recompute fallback.

Runnable locally:

    PYTHONPATH=src python -m repro ingest-bench --scenario drip \\
        --scenario joined --output /tmp/ingest.json
    python benchmarks/ci_checks/check_ingest_delta.py /tmp/ingest.json
"""

from __future__ import annotations

import argparse
import json
import sys


def check_report(report: dict) -> list[str]:
    problems: list[str] = []
    results = report.get("results", [])
    if not results:
        return ["report contains no scenario results"]
    by_scenario: dict[str, dict[str, dict]] = {}
    for res in results:
        name = f"{res['scenario']}/{res['mode']}"
        by_scenario.setdefault(res["scenario"], {})[res["mode"]] = res
        if res.get("batches", 0) < 1:
            problems.append(f"{name}: no micro-batch ran")
        if res.get("identity_checks", 0) < 1:
            problems.append(f"{name}: identity proof checked no entries")
        if not res.get("identity_ok", False):
            detail = "; ".join(res.get("identity_problems", [])[:3])
            problems.append(f"{name}: fragment identity proof failed: {detail}")
        if res.get("stale_reads", 0) != 0:
            problems.append(f"{name}: {res['stale_reads']} stale cache read(s)")
        if res.get("maint_s", 0.0) <= 0.0:
            problems.append(f"{name}: maint_s was never charged")
        if res["mode"] == "delta" and res.get("fragments_patched", 0) < 1:
            problems.append(f"{name}: delta path patched no fragments")
        if res["mode"] == "delta" and res["scenario"] == "joined":
            if res.get("join_views_delta", 0) < 1:
                problems.append(f"{name}: no probe-side join view was delta-maintained")
            # Absent counts as a failure: the gate exists for this number.
            if res.get("fragments_rebuilt", -1) != 0:
                problems.append(
                    f"{name}: probe-side join views took the rebuild path "
                    f"(fragments_rebuilt={res.get('fragments_rebuilt')})"
                )
    for scenario, modes in sorted(by_scenario.items()):
        if "delta" in modes and "rebuild" in modes:
            if modes["delta"]["answer_digest"] != modes["rebuild"]["answer_digest"]:
                problems.append(
                    f"{scenario}: delta answers diverged from full recompute "
                    f"({modes['delta']['answer_digest'][:12]} != "
                    f"{modes['rebuild']['answer_digest'][:12]})"
                )
        else:
            problems.append(
                f"{scenario}: needs both delta and rebuild modes for the "
                f"cross-mode digest check (got {sorted(modes)})"
            )
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="ingest-bench JSON report path")
    args = parser.parse_args(argv)

    with open(args.report) as fh:
        report = json.load(fh)
    problems = check_report(report)
    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    if problems:
        print("ingest delta gate FAILED", file=sys.stderr)
        return 1
    n = len(report["results"])
    patched = sum(r.get("fragments_patched", 0) for r in report["results"])
    print(
        f"ingest delta gate passed: {n} runs, {patched} fragments patched, "
        "answers identical to recompute, zero stale reads"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
