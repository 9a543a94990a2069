"""Fragment merging — the paper's first listed future extension (§11).

"...there are several interesting ways in which we can improve DeepSea
including considering how to merge consecutive fragments that are mostly
accessed together."

Two adjacent resident fragments that almost always appear in the same
query's cover cost an extra file per read (an extra map task and its
dispatch) without buying any pruning.  This module finds such pairs and
decides, with the same cost-benefit discipline as refinement, whether to
coalesce them into one fragment:

* **co-access** — the fraction of either fragment's (decayed) hits shared
  with the other must reach ``threshold``;
* **benefit** — per co-accessed query, reading one merged file instead of
  two separate ones;
* **cost** — reading both fragments and writing the merged file once;
* the merged fragment must respect the size bound φ·S(V) when bounds are
  configured.

Disabled by default (`Policy.merge_fragments`); the ablation benchmark
``bench_ablation_merging.py`` demonstrates the effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.decay import Decay
from repro.costmodel.stats import FragmentStats
from repro.engine.cost import ClusterSpec
from repro.partitioning.intervals import Interval
from repro.storage.pool import FragmentEntry


@dataclass(frozen=True)
class MergeCandidate:
    """Two adjacent resident fragments proposed for coalescing."""

    view_id: str
    attr: str
    left: Interval
    right: Interval

    @property
    def merged(self) -> Interval:
        return self.left.hull(self.right)


def co_access_fraction(a: FragmentStats, b: FragmentStats, t_now: float, decay: Decay) -> float:
    """Decayed fraction of hits the two fragments share.

    A hit timestamp present on both fragments means one query touched
    both.  The fraction is taken against the *busier* fragment, so a hot
    fragment is never merged into a cold neighbour it rarely drags along.
    """
    times_a = set(a.times_array().tolist())
    times_b = set(b.times_array().tolist())
    if not times_a or not times_b:
        return 0.0
    shared = times_a & times_b
    weight = lambda times: sum(decay(t_now, t) for t in times)
    denominator = max(weight(times_a), weight(times_b))
    if denominator <= 0:
        return 0.0
    return weight(shared) / denominator


def merge_saving_per_hit(left_bytes: float, right_bytes: float, cluster: ClusterSpec) -> float:
    """Per-co-accessed-query saving of reading one file instead of two."""
    separate = cluster.read_elapsed(left_bytes, nfiles=1) + cluster.read_elapsed(
        right_bytes, nfiles=1
    )
    together = cluster.read_elapsed(left_bytes + right_bytes, nfiles=1)
    return max(separate - together, 0.0)


def merge_cost(left_bytes: float, right_bytes: float, cluster: ClusterSpec) -> float:
    """One-off price: read both fragments, write the coalesced file."""
    return (
        cluster.read_elapsed(left_bytes, nfiles=1)
        + cluster.read_elapsed(right_bytes, nfiles=1)
        + cluster.write_elapsed(left_bytes + right_bytes, nfiles=1)
    )


def find_merge_candidates(
    entries: list[FragmentEntry],
    stats_for: dict[Interval, FragmentStats],
    t_now: float,
    decay: Decay,
    cluster: ClusterSpec,
    *,
    threshold: float = 0.8,
    min_shared_hits: float = 3.0,
    max_merged_bytes: float | None = None,
    safety: float = 1.5,
) -> list[MergeCandidate]:
    """Adjacent pairs worth coalescing, best saving first.

    ``entries`` must belong to one (view, attr) partition.  Only
    *disjoint, touching* neighbours are considered (merging overlapping
    fragments would duplicate rows); each fragment joins at most one
    candidate per round.
    """
    ordered = sorted(entries, key=lambda e: (e.key.interval.lo, e.key.interval.hi))
    candidates: list[tuple[float, MergeCandidate]] = []
    used: set[str] = set()
    for left, right in zip(ordered, ordered[1:]):
        if left.fragment_id in used or right.fragment_id in used:
            continue
        a, b = left.key.interval, right.key.interval
        if not a.adjacent_to(b):
            continue
        merged_bytes = left.size_bytes + right.size_bytes
        if max_merged_bytes is not None and merged_bytes > max_merged_bytes:
            continue
        sa, sb = stats_for.get(a), stats_for.get(b)
        if sa is None or sb is None:
            continue
        fraction = co_access_fraction(sa, sb, t_now, decay)
        if fraction < threshold:
            continue
        shared = set(sa.times_array().tolist()) & set(sb.times_array().tolist())
        shared_weight = sum(decay(t_now, t) for t in shared)
        if shared_weight < min_shared_hits:
            continue
        saving = merge_saving_per_hit(left.size_bytes, right.size_bytes, cluster)
        cost = merge_cost(left.size_bytes, right.size_bytes, cluster)
        if shared_weight * saving < safety * cost:
            continue
        candidate = MergeCandidate(left.key.view_id, left.key.attr, a, b)
        candidates.append((shared_weight * saving - cost, candidate))
        used.add(left.fragment_id)
        used.add(right.fragment_id)
    candidates.sort(key=lambda pair: -pair[0])
    return [c for _, c in candidates]
