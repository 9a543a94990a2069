"""Φ valuation (§7.1, §7.3): what a view, a fragment, a pool entry is worth.

Admission and eviction must speak the same currency — §7.3 ranks ALLCAND
and the resident fragments together — so :class:`Valuation` is the one
producer of Φ for the selector (which asks "would this win space?") and
for the repartitioner (which admits and evicts by it).  It reads the
statistics store, the pool, the tentative designs and the domains; it
writes none of them except PSTAT bookkeeping Φ itself needs (a fragment's
measured size, a split piece's inherited hits).

Two things are memoized, each with one lifetime:

* a :class:`ResidentPartition` per (view, attr) — everything derived from
  the partition's resident fragments — valid while :meth:`partition`'s one
  check holds;
* the tick's MLE fits, keyed (view, attr), emptied when the tick advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.admission import AdmissionController
from repro.core.domains import DomainResolver
from repro.core.policies import Policy
from repro.core.tentative import TentativePartitions
from repro.costmodel.estimate import ResidentProfile
from repro.costmodel.mle import adjusted_hits_density_many
from repro.costmodel.nectar import (
    nectar_fragment_value,
    nectar_plus_fragment_value,
    nectar_plus_view_value,
    nectar_view_value,
)
from repro.costmodel.stats import StatisticsStore, ViewStats
from repro.costmodel.value import (
    fragment_value,
    partition_distribution,
    view_value,
)
from repro.engine.cost import ClusterSpec
from repro.partitioning.candidates import SplitCandidate
from repro.partitioning.fragmentation import Fragmentation
from repro.partitioning.intervals import Interval
from repro.storage.pool import FragmentEntry, MaterializedViewPool

# Fit marker: the tick's fit was asked for and found unnecessary.
_OWED = object()


@dataclass
class ResidentPartition:
    """One (view, attr) partition as the pool holds it right now.

    Pool fragment entries are immutable after admission and every admit /
    evict / restore bumps the view's cover version, so everything here is
    current for as long as :meth:`Valuation.partition` keeps handing the
    record out; candidate evaluations within a step (and across steps
    while the pool is stable) share it.
    """

    version: int
    domain: Interval | None
    design: Fragmentation | None
    sizes: dict[Interval, float]  # resident interval -> bytes, in interval order
    cluster: ClusterSpec
    mean_width: float | None = None
    # (what Φ read besides this record, {interval: Φ}); see entry_value
    values: tuple | None = None
    _profile: ResidentProfile | None = None

    def __post_init__(self) -> None:
        self.intervals = list(self.sizes)

    @property
    def profile(self) -> ResidentProfile:
        """The vectorized size/cost estimator over the resident fragments."""
        if self._profile is None:
            self._profile = ResidentProfile(list(self.sizes.items()), self.domain, self.cluster)
        return self._profile


@dataclass(eq=False)
class Valuation:
    """Φ of views, fragments and resident entries at a query time ``t``."""

    stats: StatisticsStore
    pool: MaterializedViewPool
    tentative: TentativePartitions
    domains: DomainResolver
    policy: Policy
    cluster: ClusterSpec
    _partitions: dict[tuple[str, str], ResidentPartition] = field(default_factory=dict, init=False)
    _tick: float | None = field(default=None, init=False)
    _fits: dict[tuple[str, str], object] = field(default_factory=dict, init=False)

    # ------------------------------------------------------------------
    # The per-partition record
    # ------------------------------------------------------------------
    def partition(self, view_id: str, attr: str) -> ResidentPartition:
        """The partition's record, rebuilt when what it was built from moved.

        That is the view's cover version (the resident fragments and their
        sizes), the attribute's domain, and — only while nothing is
        resident, when the mean width falls back to it — the tentative
        design, which is replaced, never mutated.
        """
        version = self.pool.cover_version(view_id)
        domain = self.domains(attr)
        design = self.tentative.get(view_id, attr)
        part = self._partitions.get((view_id, attr))
        if (
            part is None
            or part.version != version
            or part.domain is not domain
            or (not part.sizes and part.design is not design)
        ):
            sizes = {e.key.interval: e.size_bytes for e in self.pool.fragments_of(view_id, attr)}
            part = self._partitions[(view_id, attr)] = ResidentPartition(
                version, domain, design, sizes, self.cluster
            )
        return part

    def mean_fragment_width(self, view_id: str, attr: str) -> float:
        """Mean resident fragment width — the density-normalization scale.

        With nothing resident, the mean width of the tentative design.
        """
        part = self.partition(view_id, attr)
        if part.mean_width is None:
            intervals = part.intervals or self.tentative.intervals(view_id, attr)
            clamped = [iv.intersect(part.domain) for iv in intervals]
            positive = [c.width for c in clamped if c is not None and c.width > 0]
            part.mean_width = sum(positive) / len(positive) if positive else part.domain.width
        return part.mean_width

    # ------------------------------------------------------------------
    # The tick's MLE fits (§7.1)
    # ------------------------------------------------------------------
    def open_tick(self, t: float) -> dict:
        """Open tick ``t`` and return its fits; an earlier tick's are dropped,
        as they can never be read again."""
        if t != self._tick:
            self._tick, self._fits = t, {}
        return self._fits

    def distribution(self, view_id: str, attr: str, t: float):
        """The partition's hit distribution over its domain, fitted once per tick."""
        fits = self.open_tick(t)
        fit = fits.get((view_id, attr), _OWED)
        if fit is _OWED:
            fit = fits[(view_id, attr)] = partition_distribution(
                self.stats,
                view_id,
                attr,
                self.domains(attr),
                t,
                self.policy.effective_decay,
                self.policy.mle_parts,
            )
        return fit

    def defer_fit(self, view_id: str, attr: str, t: float) -> None:
        """Note that the tick's fit was asked for and could not matter."""
        self.open_tick(t).setdefault((view_id, attr), _OWED)

    def settle_fit(self, view_id: str, attr: str, t: float) -> None:
        """Compute a fit :meth:`defer_fit` left owing, before a hit list it reads changes.

        A tick's fit is taken over the hit lists as they stand at its first
        demand; a skipped demand must not move that moment past a mutation.
        """
        if self.open_tick(t).get((view_id, attr)) is _OWED:
            self.distribution(view_id, attr, t)

    def inherit_fragment_stats(
        self, view_id: str, attr: str, candidate: SplitCandidate, t: float
    ) -> bool:
        """Track split pieces in PSTAT, giving them the parent's hit history.

        Each piece inherits the hits whose recorded query range touched it
        (hits without a range wholesale) — a membership in the partition's
        hit log, not a copy; decay and the MLE smoothing keep any residual
        over-count from distorting values.

        Returns whether every piece now holds a hit.  From then on this call
        changes nothing for the candidate: PSTAT rows are never removed and
        a hit never leaves one.
        """
        parent = self.stats.fragment(view_id, attr, candidate.parent)
        held = True
        for piece in candidate.pieces:
            piece_stats = self.stats.ensure_fragment(view_id, attr, piece)
            if not piece_stats.hit_count():
                if parent is not None:
                    self.settle_fit(view_id, attr, t)
                    piece_stats.inherit_hits(parent, piece)
                held = held and piece_stats.hit_count() > 0
        return held

    # ------------------------------------------------------------------
    # Φ (admission and eviction ranking, §7.3 / §10.1)
    # ------------------------------------------------------------------
    def view_admission_value(self, vstats: ViewStats, t: float) -> float:
        model = self.policy.value_model
        if model == "nectar":
            return nectar_view_value(vstats, t)
        if model == "nectar+":
            return nectar_plus_view_value(vstats, t)
        return view_value(vstats, t, self.policy.effective_decay)

    def fragment_values(
        self, view_id: str, attr: str, intervals: list[Interval], t: float
    ) -> list[float]:
        """Φ(I) of several fragments of one partition — the one producer.

        A cold fragment of a valuable view must not evict a hot fragment
        of another view, so candidates and residents are valued here
        alike.  The partition-level inputs (fit, mean width) are read once
        per pass.
        """
        vstats = self.stats.view(view_id)
        if vstats is None:
            return [0.0] * len(intervals)
        fragments = [self.stats.ensure_fragment(view_id, attr, iv) for iv in intervals]
        model = self.policy.value_model
        if model == "nectar":
            return [nectar_fragment_value(f, vstats, t) for f in fragments]
        if model == "nectar+":
            return [nectar_plus_fragment_value(f, vstats, t) for f in fragments]
        overrides: "list[float | None]" = [None] * len(intervals)
        domain = self.domains(attr) if self.policy.smoothing_enabled else None
        if domain is not None:
            dist = self.distribution(view_id, attr, t)
            if dist is not None:
                overrides = adjusted_hits_density_many(
                    intervals, *dist, domain, self.mean_fragment_width(view_id, attr)
                )
        decay = self.policy.effective_decay
        return [fragment_value(f, vstats, t, decay, h) for f, h in zip(fragments, overrides)]

    def fragment_value(self, view_id: str, attr: str, interval: Interval, t: float) -> float:
        """Φ of one fragment about to be admitted."""
        return self.fragment_values(view_id, attr, [interval], t)[0]

    def entry_value(self, entry: FragmentEntry, t: float) -> float:
        """Φ of a resident entry: a look-up in its partition's value pass.

        A partition's resident fragments are valued together, once per
        token.  The token names what Φ(I) reads at a fixed ``t`` that can
        move without the partition's record being rebuilt — the hit
        revision, the view's size and cost; the tick's fit is fixed once
        taken, and a resident fragment's size changes only with its
        admission (a new record) or in the pass itself.
        """
        view_id, attr = entry.key.view_id, entry.key.attr
        vstats = self.stats.view(view_id)
        if vstats is None:
            return 0.0
        if attr is None:
            return self.view_admission_value(vstats, t)
        part = self.partition(view_id, attr)
        token = (
            t,
            self.stats.hit_revision(view_id, attr),
            vstats.size_bytes,
            vstats.creation_cost_s,
        )
        if part.values is None or part.values[0] != token:
            for interval, size_bytes in part.sizes.items():
                fstats = self.stats.ensure_fragment(view_id, attr, interval)
                if not fstats.size_is_actual:
                    # before the value is formed: Φ reads this size
                    fstats.set_actual_size(size_bytes)
            values = self.fragment_values(view_id, attr, part.intervals, t)
            part.values = (token, dict(zip(part.intervals, values)))
        return part.values[1][entry.key.interval]

    def controller(self, t: float) -> AdmissionController:
        """The Φ-ranked knapsack over the pool as valued at ``t``."""
        return AdmissionController(
            self.pool, partial(self.entry_value, t=t), self.policy.admission_hysteresis
        )
