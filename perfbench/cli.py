"""Command line of ``python -m perfbench``.

Three modes.  Exactly one ``--workload`` and no ``--repeat``: run it in
this process (what the benchmark driver calls).  Otherwise: run every
requested workload in a fresh subprocess each, ``--repeat`` times, and
summarise.  ``--compare A.json B.json``: judge two such summaries
against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from perfbench.stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run; repeat the flag for several (default: all)")
    parser.add_argument("--seed", type=int, default=2,
                        help="drives input generation only (default 2)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="length of the measured stretch")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: a traced run that reports the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scales every workload's stream length and prefix")
    parser.add_argument("--out", type=Path, default=Path("perfbench_out"),
                        help="where span files and results.json go")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the suite N times, seeds seed..seed+N-1, order alternating")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two results.json files against the recorded bounds")
    return parser.parse_args(argv)


def main(argv: list[str], *, started: float) -> int:
    args = parse(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload and len(args.workload) == 1 and not args.repeat:
        from perfbench.run import run  # imports numpy and repro: part of set-up

        return run(args.workload[0], seed=args.seed, seconds=args.seconds, scale=args.scale,
                   traced=bool(args.trace), out_dir=args.out,
                   import_s=time.perf_counter() - started)
    return suite(args)


# ----------------------------------------------------------------------
# Suite: every workload in a fresh subprocess
# ----------------------------------------------------------------------
def run_child(name: str, args: argparse.Namespace, seed: int, traced: int, echo: bool) -> dict:
    command = [sys.executable, "-m", "perfbench", "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--scale", str(args.scale),
               "--trace", str(traced), "--out", str(args.out)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench: {name} (seed {seed}) printed no result, "
                         f"exit status {done.returncode}")
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def suite(args: argparse.Namespace) -> int:
    names = args.workload or WORKLOAD_NAMES
    repeats = max(args.repeat, 1)
    args.out = args.out.resolve()  # children run from the repository root
    kinds = ["end_to_end", "per_layer"] if args.trace else ["end_to_end"]
    samples = {kind: {name: {} for name in names} for kind in kinds}
    failed = {name: 0 for name in names}
    for rep in range(repeats):
        for name in names if rep % 2 == 0 else reversed(names):
            for traced, kind in enumerate(kinds):
                result = run_child(name, args, args.seed + rep, traced, echo=repeats == 1)
                failed[name] += result["failed"]
                for metric, entry in result["metrics"].items():
                    samples[kind][name].setdefault(metric, []).append(entry["value"])
            if args.trace:
                slowdown = 1.0 - (samples["per_layer"][name]["trace.queries_per_s"][-1]
                                  / samples["end_to_end"][name]["queries_per_s"][-1])
                print(f"{name:14s} traced run slower than the untraced one by {slowdown:.1%}")
        if repeats > 1:
            print(f"perfbench: repeat {rep + 1}/{repeats} done", file=sys.stderr)
    summary = {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
               "repeats": repeats, "failed": failed, **samples}
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(summary, indent=1) + "\n")
    if repeats > 1:
        print_summary(summary)
    print(f"failed operations: {sum(failed.values())} "
          f"({', '.join(f'{n} {c}' for n, c in failed.items())})")
    return 1 if any(failed.values()) else 0


def print_summary(summary: dict) -> None:
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    print(f"{'workload':14s} {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s}  unit   (n={summary['repeats']})")
    for kind in ("end_to_end", "per_layer"):
        for name, metrics in summary.get(kind, {}).items():
            for metric, values in metrics.items():
                q1, mid, q3 = quartiles(values)
                print(f"{name:14s} {metric:42s} {mid:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{spread(values):7.1%}  {units[metric]}")


# ----------------------------------------------------------------------
# Compare: two result sets against the recorded bounds
# ----------------------------------------------------------------------
def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, share by which B's median is worse than A's, widest spread)."""
    mid_a, mid_b = quartiles(a)[1], quartiles(b)[1]
    worse = (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    if better == "higher":
        worse = -worse
    widest = max(spread(a), spread(b))
    if worse > max(bound, widest):
        return "REGRESSION", worse, widest
    if widest > bound:
        # Too noisy to call either way: unresolved, never "unchanged".
        return "unresolved", worse, widest
    return ("improved" if worse < -bound else "unchanged"), worse, widest


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    regressions = 0
    print(f"{'workload':14s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'B worse by':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in a["end_to_end"]:
        if name not in b["end_to_end"]:
            continue
        for metric in BENCHMARK["end_to_end"]:
            va = a["end_to_end"][name][metric["name"]]
            vb = b["end_to_end"][name][metric["name"]]
            word, worse, widest = verdict(va, vb, metric["better"], metric["bound"])
            regressions += word == "REGRESSION"
            print(f"{name:14s} {metric['name']:18s} {quartiles(va)[1]:12.4f} "
                  f"{quartiles(vb)[1]:12.4f} {worse:+10.1%} {widest:7.1%} "
                  f"{metric['bound']:6.0%}  {word}")
        if b["failed"].get(name, 0) > a["failed"].get(name, 0):
            regressions += 1
            print(f"{name:14s} failed operations {a['failed'][name]} -> {b['failed'][name]}"
                  "  REGRESSION")
    return 1 if regressions else 0
