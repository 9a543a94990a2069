"""Deterministic process-parallel experiment execution.

The experiment suite runs independent units of work — (system variant ×
workload) runs as :class:`~repro.parallel.tasks.RunTask` specs, whole
benchmark figures inside ``python -m repro run all`` — strictly serially
in the seed.  All of them share nothing but read-only inputs, so this
package fans them out over a process pool and merges the result
streams back in *canonical task order*, making every ledger and table
byte-identical to a serial run for any worker count.

Three modules:

* :mod:`repro.parallel.pool` — the executor: one pool loop over forked
  workers, :func:`~repro.parallel.pool.fan_out` (one task per dispatch,
  workers initialized with :func:`repro.caches.clear_all_caches` for
  isolation), returning results indexed by task position, never by
  completion order.
* :mod:`repro.parallel.tasks` — picklable task specs (fixture + system
  factory + workload instead of live objects), so units of work can
  cross process boundaries without dragging megabyte tables along.
* :mod:`repro.parallel.determinism` — the harness that fingerprints and
  diffs ``RunResult`` streams across worker counts; the CI smoke job and
  the determinism tests are built on it.
"""

from repro.parallel.determinism import (
    diff_results,
    fingerprint,
    result_fingerprint,
)
from repro.parallel.pool import fan_out
from repro.parallel.tasks import FixtureSpec, RunTask, SystemSpec, WorkloadSpec

__all__ = [
    "FixtureSpec",
    "RunTask",
    "SystemSpec",
    "WorkloadSpec",
    "diff_results",
    "fan_out",
    "fingerprint",
    "result_fingerprint",
]
