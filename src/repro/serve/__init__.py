"""The concurrent serving layer: DeepSea as a long-lived query service.

The batch harness (:mod:`repro.bench.harness`) runs one query at a time
to completion; a production DeepSea is a *service* — many clients submit
interleaved queries while the pool is being progressively repartitioned
underneath them.  This package puts the classic serving shape in front of
the existing engine:

* :mod:`repro.serve.queue` — a **bounded admission queue** (queue-based
  load leveling).  Overload is answered with a typed
  :class:`~repro.errors.Overloaded` rejection at submit time, never with
  an unbounded queue or a blocking put.
* :mod:`repro.serve.snapshot` — **epoch-pinned snapshot leases** over the
  view pool.  A reader plans and executes against the exact pool
  configuration of one epoch; a lease holds its entries and each entry
  holds its immutable file, so a fragment evicted mid-read is still read
  from the file the lease holds.  Readers never block on the writer and
  never see a half-applied repartitioning.
* :mod:`repro.serve.writer` — the **single writer**: one thread applying
  repartitioning steps as journaled transactions (the PR-3 WAL), feeding
  DeepSea's adaptive loop with the admitted query stream.
* :mod:`repro.serve.service` — :class:`~repro.serve.service.QueryService`
  wiring it together: N reader threads, per-query deadlines
  (:class:`~repro.errors.DeadlineExceeded`), bounded retry-with-backoff on
  worker crash, and a graceful degradation ladder whose last rung is
  direct base-table execution — a query can be *shed* or *timed out*, but
  an answered query is always answered correctly.
* :mod:`repro.serve.driver` — the open-loop load driver behind
  ``python -m repro serve-bench``: steady, burst, and chaos load with
  every answer's digest checked against the serial fault-free run and the
  accounting, shed and retry gates audited.

The serving invariant extends DESIGN.md §9: **admission control, faults,
and concurrency change latency and cost — never answers.**
"""

from repro.serve.queue import AdmissionQueue
from repro.serve.service import QueryOutcome, QueryService
from repro.serve.snapshot import EpochLease, SnapshotManager
from repro.serve.writer import IngestBatch, PoolWriter

__all__ = [
    "AdmissionQueue",
    "EpochLease",
    "IngestBatch",
    "PoolWriter",
    "QueryOutcome",
    "QueryService",
    "SnapshotManager",
]
