"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig5a            # regenerate one figure
    python -m repro run fig5a fig6       # several
    python -m repro run all              # the whole evaluation
    python -m repro run all --workers 4  # same, over a process pool
    python -m repro compare --queries 200 --pool 0.25
                                          # ad-hoc H/NP/DS comparison
    python -m repro determinism --workers 1,2,4
                                          # ledger byte-identity harness

Each experiment prints the same paper-shaped table as its pytest
benchmark; the CLI simply drives the ``run_experiment`` functions that the
benchmarks define, so results are identical to
``pytest benchmarks/ --benchmark-only -s``.

``--workers N`` fans independent units out over a forked process pool
(experiments for ``run``, task specs for ``chaos`` and ``ingest-bench``)
and merges outputs back in canonical order — simulated-second results are
byte-identical to a serial run for any worker count, which ``python -m
repro determinism`` verifies end to end.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

from repro.bench.reporting import format_table

_BENCH_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"

EXPERIMENTS = {
    "table1": ("bench_table1_parameters", "Table 1 — parameter grid"),
    "fig1": ("bench_fig1_sdss_histogram", "Figure 1 — SDSS histogram"),
    "fig2": ("bench_fig2_sdss_evolution", "Figure 2 — selection-range evolution"),
    "fig5a": ("bench_fig5a_overall", "Figure 5a — DS vs NP vs H"),
    "fig5b": ("bench_fig5b_selection_strategies", "Figure 5b — N / N+ / DS"),
    "fig6": ("bench_fig6_equidepth", "Figure 6 — equi-depth vs adaptive"),
    "fig7a": ("bench_fig7a_selectivity_skew", "Figure 7a — selectivity x skew"),
    "fig7b": ("bench_fig7b_recoup", "Figure 7b — queries to recoup"),
    "fig8a": ("bench_fig8a_correlation_normal", "Figure 8a — correlations (normal)"),
    "fig8b": ("bench_fig8b_correlation_zipf", "Figure 8b — correlations (Zipf)"),
    "fig9": ("bench_fig9_overlapping", "Figure 9 — overlapping partitioning"),
    "fig10a": ("bench_fig10a_adaptation", "Figure 10a — workload change"),
    "fig10b": ("bench_fig10b_ratio", "Figure 10b — DS/NR ratio"),
    "decay": ("bench_ablation_decay", "Ablation A1 — decay"),
    "bounding": ("bench_ablation_bounding", "Ablation A2 — size bounding"),
    "filtertree": ("bench_ablation_filtertree", "Ablation A3 — filter tree"),
    "mle": ("bench_ablation_mle", "Ablation A4 — MLE smoothing"),
    "merging": ("bench_ablation_merging", "Ablation A5 — fragment merging"),
}


def _load_bench(module_name: str):
    """Import a benchmark module from the benchmarks/ directory."""
    if str(_BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(_BENCH_DIR))
    path = _BENCH_DIR / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


class _PrintingBenchmark:
    """Duck-typed pytest-benchmark fixture: run once, report wall time."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    def __call__(self, fn, *args, **kwargs):
        return self.pedantic(fn, args=args, kwargs=kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1, warmup_rounds=0):
        start = time.perf_counter()
        result = fn(*args, **(kwargs or {}))
        self.elapsed = time.perf_counter() - start
        return result


def run_experiment(key: str) -> None:
    module_name, title = EXPERIMENTS[key]
    module = _load_bench(module_name)
    print(f"\n### {title} ###")
    bench = _PrintingBenchmark()
    once = lambda fn: bench.pedantic(fn)
    test_fns = [
        getattr(module, name)
        for name in dir(module)
        if name.startswith("test_") and callable(getattr(module, name))
    ]
    for fn in test_fns:
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        kwargs = {}
        if "once" in params:
            kwargs["once"] = once
        if "benchmark" in params:
            kwargs["benchmark"] = bench
        fn(**kwargs)
    print(f"(experiment wall time: {bench.elapsed:.1f}s; all assertions held)")


def cmd_list() -> int:
    rows = [(key, desc) for key, (_, desc) in EXPERIMENTS.items()]
    print(format_table(["id", "experiment"], rows, title="Available experiments"))
    return 0


def _run_experiment_captured(key: str) -> str:
    """Run one experiment with its stdout captured (pool-worker body)."""
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_experiment(key)
    return buffer.getvalue()


def cmd_run(keys: list[str], workers: int = 0) -> int:
    targets = list(EXPERIMENTS) if keys == ["all"] else keys
    unknown = [k for k in targets if k not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list` to see what's available", file=sys.stderr)
        return 2
    if workers >= 2 and len(targets) > 1:
        # Whole figures are the fan-out unit: each runs in a pool worker
        # with captured stdout, and the reports print in the canonical
        # experiment order no matter which worker finished first.
        from repro.parallel.pool import fan_out

        outputs = fan_out(
            [lambda key=key: _run_experiment_captured(key) for key in targets],
            workers,
        )
        for text in outputs:
            print(text, end="")
        return 0
    for key in targets:
        run_experiment(key)
    return 0


def cmd_compare(queries: int, pool: float | None, instance_gb: float, seed: int) -> int:
    from repro.baselines import deepsea, hive, non_partitioned
    from repro.bench.harness import sdss_fixture
    from repro.workloads.generator import sdss_mapped_workload

    fx = sdss_fixture(instance_gb)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=queries, seed=seed)
    smax = fx.catalog.total_size_bytes * pool if pool is not None else None
    rows = []
    for label, factory in (
        ("H", lambda: hive(fx.catalog, domains=fx.domains)),
        ("NP", lambda: non_partitioned(fx.catalog, domains=fx.domains, smax_bytes=smax)),
        ("DS", lambda: deepsea(fx.catalog, domains=fx.domains, smax_bytes=smax)),
    ):
        system = factory()
        reports = [system.execute(p) for p in plans]
        total = sum(r.total_s for r in reports)
        reuse = sum(1 for r in reports if r.reused_view)
        rows.append((label, total, reuse, system.pool.used_bytes / 1e9))
    baseline = rows[0][1]
    rows = [(l, t, t / baseline, r, p) for (l, t, r, p) in rows]
    print(
        format_table(
            ["system", "total (s)", "vs H", "reuses", "pool (GB)"],
            rows,
            title=f"Ad-hoc comparison — {queries} SDSS-mapped queries, "
            f"{instance_gb:.0f}GB instance, pool "
            f"{'unlimited' if pool is None else f'{pool:.0%} of base'}",
        )
    )
    return 0


def cmd_determinism(
    queries: int,
    instance_gb: float,
    seed: int,
    worker_counts: list[int],
    ingest: str = "off",
) -> int:
    """Verify parallel runs are byte-identical to serial (CI smoke gate).

    Runs the Figure-5a (H / NP / DS) task specs serially, then once per
    requested worker count — submitting tasks in *reversed* order to
    exercise the canonical-order merge — and compares full result
    fingerprints (both simulated-second ledgers, all decision counters,
    and every result table's sorted rows).  ``--ingest on`` adds a fourth
    task — DS with the steady-drip micro-batch schedule interleaved
    against a forked catalog — so the fingerprints also cover ingest's
    maintenance ledgers (``maint_s``, rows routed/applied, fragments
    patched) across worker counts.  A DS task at the 10 % pool always runs
    beside them and is fingerprinted on its own (the fig-5a digest stays
    comparable with its history): the unbounded systems never evict, so
    only this row sees §7.3's bounded selection.
    Exits non-zero, printing the first divergences, if any run changes a
    single byte.
    """
    from repro.parallel.determinism import diff_results, fingerprint
    from repro.parallel.pool import fan_out
    from repro.parallel.tasks import FixtureSpec, RunTask, SystemSpec, WorkloadSpec

    fixture = FixtureSpec("sdss", instance_gb)
    workload = WorkloadSpec(queries, seed)
    tasks = [
        RunTask(label, SystemSpec.of(factory), fixture, workload)
        for label, factory in (
            ("H", "hive"),
            ("NP", "non_partitioned"),
            ("DS", "deepsea"),
        )
    ]
    if ingest == "on":
        tasks.append(
            RunTask("DS+ingest", SystemSpec.of("deepsea"), fixture, workload, ingest="drip")
        )
    groups = {"fig5a": [t.label for t in tasks], "10% pool": ["DS@10%"]}
    tasks.append(RunTask("DS@10%", SystemSpec.of("deepsea", pool_fraction=0.10), fixture, workload))
    labels = [t.label for t in tasks]

    def digests(results: dict) -> list[str]:
        return [fingerprint({label: results[label] for label in g}) for g in groups.values()]

    serial = {t.label: t.run() for t in tasks}
    reference = digests(serial)
    rows = [("serial", *(d[:16] for d in reference), "baseline")]
    status = 0

    def check(name: str, results: dict) -> None:
        nonlocal status
        found = digests(results)
        rows.append(
            (name, *(d[:16] for d in found), "identical" if found == reference else "DIVERGED")
        )
        if found != reference:
            status = 1
            for line in diff_results(serial, results, b_name=name):
                print(line, file=sys.stderr)

    for n in worker_counts:
        shuffled = list(reversed(range(len(tasks))))
        outputs = fan_out(tasks, n, submission_order=shuffled)
        check(f"workers={n}", dict(zip(labels, outputs)))
    print(
        format_table(
            ["run", *(f"{name} fingerprint" for name in groups), "verdict"],
            rows,
            title=f"Determinism harness — fig5a, {queries} queries, "
            f"{instance_gb:.0f}GB, systems {'/'.join(labels)}",
        )
    )
    print(
        "ledgers byte-identical across worker counts"
        if status == 0
        else "LEDGER DIVERGENCE — parallel run is not byte-identical to serial",
        file=sys.stderr if status else sys.stdout,
    )
    return status


def cmd_chaos(
    schedules: list[str],
    queries: int,
    instance_gb: float,
    seed: int,
    workers: int = 0,
    list_schedules: bool = False,
) -> int:
    """Run fig5a under fault schedules and verify the chaos invariant.

    For each schedule the H / NP / DS systems run twice over the same
    workload — fault-free and with the schedule attached — and
    :func:`repro.faults.verify.verify_run` checks both directions of the
    contract: result tables and decision trails byte-identical, ledgers
    strictly costlier.  Exits non-zero on any divergence, printing which
    query and which field diverged.
    """
    from repro.errors import FaultError
    from repro.faults import FaultSchedule, builtin_schedule_names, verify_run
    from repro.parallel.pool import fan_out
    from repro.parallel.tasks import FixtureSpec, RunTask, SystemSpec, WorkloadSpec

    if list_schedules:
        from repro.faults import BUILTIN_SCHEDULES

        rows = [
            (
                name,
                sched.seed,
                ", ".join(f"{s.kind}={s.rate:g}" for s in sched.specs),
            )
            for name, sched in sorted(BUILTIN_SCHEDULES.items())
        ]
        print(
            format_table(
                ["schedule", "seed", "fault rates"],
                rows,
                title="Built-in fault schedules",
            )
        )
        return 0

    names = schedules or builtin_schedule_names()
    try:
        for name in names:
            FaultSchedule.resolve(name)
    except FaultError as exc:
        print(f"bad --schedule: {exc}", file=sys.stderr)
        return 2

    fixture = FixtureSpec("sdss", instance_gb)
    workload = WorkloadSpec(queries, seed)
    systems = (("H", "hive"), ("NP", "non_partitioned"), ("DS", "deepsea"))
    base_tasks = [
        RunTask(label, SystemSpec.of(factory), fixture, workload)
        for label, factory in systems
    ]
    chaos_tasks = [
        RunTask(label, SystemSpec.of(factory), fixture, workload, faults=name)
        for name in names
        for label, factory in systems
    ]
    # Schedules with a worker_kill rate also attack the harness itself:
    # pool workers are hard-killed on their first dispatch of the drawn
    # tasks and the orphaned runs re-dispatch — byte-identical results
    # (the re-run executes the same spec) or fan_out raises, never hangs.
    all_tasks = base_tasks + chaos_tasks
    kill_plan: dict[int, int] = {}
    for name in names:
        sched = FaultSchedule.resolve(name)
        if sched.rate("worker_kill") > 0:
            for index, crashes in sched.injector().worker_kill_plan(len(all_tasks)).items():
                kill_plan[index] = max(kill_plan.get(index, 0), crashes)
    outputs = fan_out(all_tasks, workers, fault_plan=kill_plan or None)
    baselines = {task.label: result for task, result in zip(base_tasks, outputs)}

    status = 0
    rows = []
    for task, faulted in zip(chaos_tasks, outputs[len(base_tasks) :]):
        report = verify_run(baselines[task.label], faulted, task.faults)
        rows.append(
            (
                report.schedule,
                report.label,
                "ok" if report.ok else "FAIL",
                report.events,
                f"{report.baseline_s:.1f}",
                f"{report.faulted_s:.1f}",
                f"{report.overhead_s:+.1f}",
            )
        )
        if not report.ok:
            status = 1
            for problem in report.problems:
                print(
                    f"{report.schedule} / {report.label}: {problem}",
                    file=sys.stderr,
                )
    print(
        format_table(
            ["schedule", "system", "verdict", "events", "fault-free (s)",
             "faulted (s)", "overhead (s)"],
            rows,
            title=f"Chaos harness — fig5a, {queries} queries, "
            f"{instance_gb:.0f}GB, schedules {'/'.join(names)}",
        )
    )
    print(
        "answers byte-identical under every schedule; all ledgers strictly costlier"
        if status == 0
        else "CHAOS INVARIANT VIOLATED — faults changed answers or cost did not rise",
        file=sys.stderr if status else sys.stdout,
    )
    return status


def cmd_serve_bench(
    queries: int,
    instance_gb: float,
    seed: int,
    workers: int,
    queue_depth: int,
    deadline: float | None,
    chaos: str,
    rate: float,
    phases: list[str],
    output: str | None,
) -> int:
    """Open-loop load over the serving layer; verify the serving invariant.

    Drives steady / burst / chaos phases through :class:`repro.serve
    .QueryService` — concurrent snapshot readers, a single journaling
    writer repartitioning throughout, admission control and deadlines in
    front — and checks every answered query's digest against a serial
    fault-free direct run.  Exits non-zero if any answer diverged, the
    accounting invariant broke, any query failed outright, burst shed
    nothing, or chaos never exercised the retry path.
    """
    import json

    from repro.serve.driver import PHASES, run_serve_bench

    wanted = tuple(phases) if phases else PHASES
    unknown = [p for p in wanted if p not in PHASES]
    if unknown:
        print(f"unknown phase(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    report = run_serve_bench(
        queries=queries,
        instance_gb=instance_gb,
        seed=seed,
        workers=workers,
        queue_depth=queue_depth,
        deadline_s=deadline,
        chaos_schedule=chaos,
        rate_qps=rate,
        phases=wanted,
    )
    rows = []
    for name, phase in report["phases"].items():
        rows.append(
            (
                name,
                phase["offered"],
                phase["answered"],
                phase["shed"],
                phase["timed_out"],
                phase["retries"],
                phase["pool_epoch"],
            )
        )
    print(
        format_table(
            ["phase", "offered", "answered", "shed", "timed out", "retries", "epoch"],
            rows,
            title=f"Serve bench — {queries} SDSS-mapped queries, "
            f"{instance_gb:.0f}GB, {workers} readers, queue depth "
            f"{queue_depth}, chaos schedule {chaos}",
        )
    )
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {output}")
    for problem in report["problems"]:
        print(f"GATE: {problem}", file=sys.stderr)
    print(
        "all answers byte-identical to the serial fault-free run; accounting holds"
        if report["ok"]
        else "SERVING INVARIANT VIOLATED",
        file=sys.stdout if report["ok"] else sys.stderr,
    )
    return 0 if report["ok"] else 1


def cmd_ingest_bench(
    scenarios: list[str],
    modes: list[str],
    queries: int,
    instance_gb: float,
    seed: int,
    workers: int,
    output: str | None,
) -> int:
    """Micro-batch ingest scenarios; verify delta maintenance end to end.

    Each scenario (steady drip, flash-crowd burst, drifting hot range,
    drip under probe-side join views) runs in ``delta`` and ``rebuild``
    modes over identical inputs.  After
    every batch the harness proves each resident fragment payload
    byte-identical to a from-scratch recompute over the grown base table,
    and probes every query answer against a direct base-table evaluation
    (stale cache reads must be zero).  Exits non-zero if any identity
    check fails, maintenance is never charged, no fragment is
    delta-patched, the join scenario's delta mode rebuilds a fragment, or
    the two modes' per-query answers diverge.
    """
    import json

    from repro.bench.ingest_bench import MODES, SCENARIOS, run_ingest_bench

    wanted = tuple(scenarios) if scenarios else SCENARIOS
    unknown = [s for s in wanted if s not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    mode_set = tuple(modes) if modes else MODES
    unknown = [m for m in mode_set if m not in MODES]
    if unknown:
        print(f"unknown mode(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    report = run_ingest_bench(
        wanted,
        modes=mode_set,
        queries=queries,
        instance_gb=instance_gb,
        seed=seed,
        workers=workers,
    )
    rows = []
    for res in report["results"]:
        third = max(1, len(res["per_query_s"]) // 3)
        early = sum(res["per_query_s"][:third]) / third
        late = sum(res["per_query_s"][-third:]) / third
        rows.append(
            (
                res["scenario"],
                res["mode"],
                res["batches"],
                res["rows_ingested"],
                f"{res['maint_s']:.1f}",
                res["fragments_patched"],
                res["fragments_rebuilt"],
                res["fragments_dropped"],
                f"{res['total_s']:.1f}",
                f"{early:.1f}",
                f"{late:.1f}",
                "yes" if res["identity_ok"] else "NO",
                res["stale_reads"],
            )
        )
    print(
        format_table(
            ["scenario", "mode", "batches", "rows", "maint (s)", "patched",
             "rebuilt", "dropped", "total (s)", "early q (s)", "late q (s)",
             "identity", "stale"],
            rows,
            title=f"Ingest bench — {queries} queries/scenario, "
            f"{instance_gb:.0f}GB instance, per-batch identity proof"
            + (f", {workers} workers" if workers >= 2 else ""),
        )
    )
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=float)
        print(f"report written to {output}")
    for problem in report["problems"]:
        print(f"GATE: {problem}", file=sys.stderr)
    print(
        "delta-maintained answers byte-identical to full recompute after every batch"
        if report["ok"]
        else "INGEST INVARIANT VIOLATED",
        file=sys.stdout if report["ok"] else sys.stderr,
    )
    return 0 if report["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DeepSea (EDBT 2017) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run experiments by id (or 'all')")
    run_p.add_argument("experiments", nargs="+", metavar="ID")
    run_p.add_argument("--workers", type=int, default=0,
                       help="fan experiments out over N pool workers")
    cmp_p = sub.add_parser("compare", help="ad-hoc H/NP/DS comparison")
    cmp_p.add_argument("--queries", type=int, default=200)
    cmp_p.add_argument("--pool", type=float, default=None,
                       help="pool budget as a fraction of base size")
    cmp_p.add_argument("--instance-gb", type=float, default=500.0)
    cmp_p.add_argument("--seed", type=int, default=2)
    det_p = sub.add_parser(
        "determinism",
        help="verify parallel ledgers are byte-identical to serial",
    )
    det_p.add_argument("--queries", type=int, default=80)
    det_p.add_argument("--instance-gb", type=float, default=20.0)
    det_p.add_argument("--seed", type=int, default=2)
    det_p.add_argument(
        "--workers", default="1,2,4", metavar="N[,N...]",
        help="comma-separated worker counts to check against serial",
    )
    det_p.add_argument(
        "--ingest", choices=("on", "off"), default="off",
        help="add a DS task with the steady-drip ingest schedule interleaved",
    )
    chaos_p = sub.add_parser(
        "chaos",
        help="run fig5a under fault schedules; verify answers never change",
    )
    chaos_p.add_argument(
        "--schedule", action="append", default=[], metavar="NAME|JSON",
        help="fault schedule (built-in name or FaultSchedule JSON); "
        "repeatable; default: every built-in schedule",
    )
    chaos_p.add_argument("--queries", type=int, default=80)
    chaos_p.add_argument("--instance-gb", type=float, default=20.0)
    chaos_p.add_argument("--seed", type=int, default=2)
    chaos_p.add_argument("--workers", type=int, default=0,
                         help="fan (system x schedule) runs out over N pool workers")
    chaos_p.add_argument("--list-schedules", action="store_true",
                         help="print the built-in schedules and exit")
    serve_p = sub.add_parser(
        "serve-bench",
        help="open-loop load driver for the concurrent serving layer",
    )
    serve_p.add_argument("--queries", type=int, default=120)
    serve_p.add_argument("--instance-gb", type=float, default=20.0)
    serve_p.add_argument("--seed", type=int, default=2)
    serve_p.add_argument("--workers", type=int, default=2,
                         help="executor reader threads")
    serve_p.add_argument("--queue-depth", type=int, default=16,
                         help="admission queue bound (excess load is shed)")
    serve_p.add_argument("--deadline", type=float, default=5.0,
                         help="per-query deadline in wall seconds (0 = none)")
    serve_p.add_argument("--chaos", default="perfect-storm", metavar="NAME|JSON",
                         help="fault schedule for the chaos phase")
    serve_p.add_argument("--rate", type=float, default=150.0,
                         help="steady/chaos arrival rate (queries per second)")
    serve_p.add_argument("--phase", action="append", default=[], metavar="NAME",
                         help="run only these phases (steady, burst, chaos); "
                         "repeatable; default: all three")
    serve_p.add_argument("--output", default=None, metavar="PATH",
                         help="write the JSON report here")

    ing_p = sub.add_parser(
        "ingest-bench",
        help="micro-batch ingest scenarios with per-batch identity proof",
    )
    ing_p.add_argument("--scenario", action="append", default=[], metavar="NAME",
                       help="run only these scenarios (drip, burst, drift, joined); "
                       "repeatable; default: all four")
    ing_p.add_argument("--mode", action="append", default=[], metavar="NAME",
                       help="maintenance mode (delta, rebuild); repeatable; "
                       "default: both, with cross-mode answer check")
    ing_p.add_argument("--queries", type=int, default=40)
    ing_p.add_argument("--instance-gb", type=float, default=2.0)
    ing_p.add_argument("--seed", type=int, default=1)
    ing_p.add_argument("--workers", type=int, default=0,
                       help="fan (scenario x mode) units out over N pool workers")
    ing_p.add_argument("--output", default=None, metavar="PATH",
                       help="write the JSON report here")

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.experiments, args.workers)
    if args.command == "determinism":
        try:
            counts = [int(part) for part in str(args.workers).split(",") if part]
        except ValueError:
            counts = []
        if not counts or min(counts) < 1:
            print(
                f"invalid --workers list: {args.workers!r} "
                "(need one or more comma-separated counts >= 1)",
                file=sys.stderr,
            )
            return 2
        return cmd_determinism(
            args.queries, args.instance_gb, args.seed, counts, args.ingest
        )
    if args.command == "chaos":
        return cmd_chaos(
            args.schedule, args.queries, args.instance_gb, args.seed,
            args.workers, args.list_schedules,
        )
    if args.command == "ingest-bench":
        return cmd_ingest_bench(
            args.scenario, args.mode, args.queries, args.instance_gb,
            args.seed, args.workers, args.output,
        )
    if args.command == "serve-bench":
        return cmd_serve_bench(
            args.queries, args.instance_gb, args.seed, args.workers,
            args.queue_depth, args.deadline or None, args.chaos, args.rate,
            args.phase, args.output,
        )
    return cmd_compare(args.queries, args.pool, args.instance_gb, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
