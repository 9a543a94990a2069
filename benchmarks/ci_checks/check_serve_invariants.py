"""CI gate: audit a serve-bench report against the serving invariants.

Reads the JSON artifact ``python -m repro serve-bench --output`` wrote and
re-derives every gate from the raw phase counters (a stale ``ok`` flag in
the report cannot pass the check):

* every answered query's digest matched the serial fault-free run,
* the accounting invariant held — ``answered + shed + timed_out +
  failed == offered`` in every phase, nothing vanished into the queue,
* no query failed outright and no ticket went unresolved,
* the writer failed no step (``writer.errors`` is 0 in every phase),
* the burst phase actually shed load (admission control fired),
* the chaos phase actually retried readers, applied writer steps, and
  advanced the pool epoch (degradation raced real repartitioning).

Runnable locally:

    PYTHONPATH=src python -m repro serve-bench --queries 60 --output /tmp/serve.json
    PYTHONPATH=src python benchmarks/ci_checks/check_serve_invariants.py /tmp/serve.json
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="serve-bench JSON report")
    args = parser.parse_args(argv)

    from repro.serve.driver import check_gates

    with open(args.report) as fh:
        report = json.load(fh)
    phases = report.get("phases", {})
    if not phases:
        print("FAIL report has no phases", file=sys.stderr)
        return 1
    problems = check_gates(phases)
    for name, phase in sorted(phases.items()):
        print(
            f"{name}: offered={phase['offered']} answered={phase['answered']} "
            f"shed={phase['shed']} timed_out={phase['timed_out']} "
            f"failed={phase['failed']} retries={phase['retries']}"
        )
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    print("serving invariants hold: identical answers, complete accounting")
    return 0


if __name__ == "__main__":
    sys.exit(main())
