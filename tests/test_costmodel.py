"""Tests for decay, statistics, benefit/value, Nectar models, and estimates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.decay import NoDecay, ProportionalDecay
from repro.costmodel.estimate import (
    estimate_fragment_cost,
    estimate_fragment_size,
    estimate_view_size,
)
from repro.costmodel.nectar import (
    nectar_fragment_value,
    nectar_plus_fragment_value,
    nectar_plus_view_value,
    nectar_view_value,
)
from repro.costmodel.stats import FragmentStats, StatisticsStore, ViewStats
from repro.costmodel.value import (
    fragment_benefit,
    fragment_hits,
    fragment_value,
    view_benefit,
    view_value,
)
from repro.engine.cost import ClusterSpec
from repro.errors import ReproError
from repro.partitioning.intervals import Interval
from repro.query.algebra import Relation

DOMAIN = Interval.closed(0, 100)


# ----------------------------------------------------------------------
# Decay
# ----------------------------------------------------------------------
class TestDecay:
    def test_recent_events_weighted_near_one(self):
        dec = ProportionalDecay(t_max=100)
        assert dec(100, 100) == 1.0
        assert dec(100, 99) == pytest.approx(0.99)

    def test_times_out_after_tmax(self):
        dec = ProportionalDecay(t_max=10)
        assert dec(100, 89) == 0.0
        assert dec(100, 90) == pytest.approx(0.9)

    def test_monotone_in_age(self):
        dec = ProportionalDecay(t_max=1000)
        weights = [dec(100, t) for t in range(1, 101)]
        assert weights == sorted(weights)

    def test_future_event_raises(self):
        with pytest.raises(ReproError):
            ProportionalDecay()(10, 11)
        with pytest.raises(ReproError):
            NoDecay()(10, 11)

    def test_no_decay_constant(self):
        dec = NoDecay()
        assert dec(1000, 1) == 1.0

    @given(
        t_now=st.integers(1, 10_000),
        t=st.integers(1, 10_000),
        t_max=st.integers(1, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_property(self, t_now, t, t_max):
        if t > t_now:
            return
        w = ProportionalDecay(t_max=t_max)(t_now, t)
        assert 0.0 <= w <= 1.0


# ----------------------------------------------------------------------
# Statistics store
# ----------------------------------------------------------------------
class TestStatisticsStore:
    def test_ensure_view_idempotent(self):
        store = StatisticsStore()
        a = store.ensure_view("v1", Relation("t"))
        b = store.ensure_view("v1", Relation("t"))
        assert a is b

    def test_ensure_fragment_tracks_partition(self):
        store = StatisticsStore()
        store.ensure_fragment("v1", "a", Interval.closed(10, 20))
        store.ensure_fragment("v1", "a", Interval.closed(0, 10))
        ivs = store.intervals_for("v1", "a")
        assert ivs[0] == Interval.closed(0, 10)  # sorted
        assert store.partition_attrs("v1") == ["a"]

    def test_record_benefit_updates_last_access(self):
        stats = ViewStats("v", Relation("t"))
        stats.record_benefit(5.0, 100.0)
        stats.record_benefit(3.0, 50.0)  # out of order
        assert stats.last_access_t == 5.0
        assert len(stats.benefit_events) == 2

    def test_actual_overrides(self):
        stats = ViewStats("v", Relation("t"), size_bytes=10.0, creation_cost_s=1.0)
        stats.set_actual_size(99.0)
        stats.set_actual_cost(42.0)
        assert stats.size_bytes == 99.0 and stats.size_is_actual
        assert stats.creation_cost_s == 42.0 and stats.cost_is_actual


class TestStatisticsCaches:
    """The per-partition caches replay exactly what a cold store computes."""

    def _store(self):
        store = StatisticsStore()
        a = store.ensure_fragment("v", "a", Interval.closed(0, 10))
        b = store.ensure_fragment("v", "a", Interval.open_closed(10, 60))
        store.ensure_fragment("v", "a", Interval.open_closed(60, 100))
        for t in (1.0, 2.0, 3.0):
            a.record_hit(t)
        b.record_hit(2.0)  # shared timestamp: distinct set must dedupe
        b.record_hit(4.0)
        return store

    def test_partition_log_matches_naive(self):
        store = self._store()
        log = store.hit_log("v", "a")
        frags = store.fragments_for("v", "a")
        assert [f.times_array().tolist() for f in frags] == [[1.0, 2.0, 3.0], [2.0, 4.0], []]
        assert len(log) == 5  # one entry per recorded hit
        per_row, total = log.decayed_hits(NoDecay(), 10.0)
        assert per_row[log.rows()].tolist() == [3.0, 2.0, 0.0]
        assert total == 4.0  # distinct times: the shared 2.0 counts once

    def test_partition_log_cached_until_next_hit(self):
        store = self._store()
        log = store.hit_log("v", "a")
        decay = ProportionalDecay(t_max=100)
        first, _ = log.decayed_hits(decay, 10.0)
        assert log.decayed_hits(decay, 10.0)[0] is first  # memo hit: same object
        hot = store.fragments_for("v", "a")[0]
        hot.record_hit(9.0)
        per_row, _ = log.decayed_hits(decay, 10.0)
        assert per_row is not first
        assert per_row[hot._row] == sum(decay.weights(10.0, hot.times_array()).tolist())
        assert hot.times_array().tolist()[-1] == 9.0

    def test_partition_log_invalidated_by_fragment_changes(self):
        store = self._store()
        log = store.hit_log("v", "a")
        log.decayed_hits(NoDecay(), 10.0)
        store.ensure_fragment("v", "a", Interval.open_closed(100, 200))
        per_row, _ = log.decayed_hits(NoDecay(), 10.0)
        assert len(log.rows()) == 4 and per_row[log.rows()[-1]] == 0.0

    def test_partition_bounds_parallel_intervals(self):
        store = self._store()
        ivs, lk, uk = store.partition_bounds("v", "a")
        assert ivs == store.intervals_for("v", "a")
        for i, iv in enumerate(ivs):
            assert tuple(lk[i]) == iv._lower_key()
            assert tuple(uk[i]) == iv._upper_key()
        store.ensure_fragment("v", "a", Interval.open_closed(100, 200))
        ivs2, lk2, uk2 = store.partition_bounds("v", "a")
        assert len(ivs2) == 4 and lk2.shape == (4, 2)

    def test_overlapping_intervals_equals_scalar_filter(self):
        store = self._store()
        for theta in (
            Interval.closed(5, 65),
            Interval.point(10.0),
            Interval.open(10, 10.5),
            Interval.closed(200, 300),
            Interval.unbounded(),
        ):
            expected = [iv for iv in store.intervals_for("v", "a") if iv.overlaps(theta)]
            assert store.overlapping_intervals("v", "a", theta) == expected

    def test_fragments_for_cached_and_ordered(self):
        store = self._store()
        frags = store.fragments_for("v", "a")
        assert store.fragments_for("v", "a") is frags
        assert [f.interval for f in frags] == store.intervals_for("v", "a")
        store.ensure_fragment("v", "b", Interval.closed(0, 1))
        assert store.fragments_for("v", "a") is frags  # other partitions untouched

    def test_hit_cell_shared_across_partition(self):
        store = self._store()
        frags = store.fragments_for("v", "a")
        assert {id(f._log) for f in frags} == {id(store.hit_log("v", "a"))}  # one log
        before = store.hit_revision("v", "a")
        frags[1].record_hit(7.0)
        assert store.hit_revision("v", "a") == before + 1
        store.ensure_fragment("v", "a", Interval.open_closed(100, 200))  # holds no hit
        assert store.hit_revision("v", "a") == before + 1


# ----------------------------------------------------------------------
# View benefit and value
# ----------------------------------------------------------------------
class TestViewValue:
    def make_view(self, cost=100.0, size=1000.0):
        v = ViewStats("v", Relation("t"), size_bytes=size, creation_cost_s=cost)
        return v

    def test_benefit_sums_decayed_savings(self):
        v = self.make_view()
        v.record_benefit(50.0, 10.0)
        v.record_benefit(100.0, 20.0)
        dec = ProportionalDecay(t_max=1000)
        expected = 10.0 * (50 / 100) + 20.0 * 1.0
        assert view_benefit(v, 100.0, dec) == pytest.approx(expected)

    def test_value_formula(self):
        v = self.make_view(cost=100.0, size=1000.0)
        v.record_benefit(100.0, 30.0)
        dec = NoDecay()
        assert view_value(v, 100.0, dec) == pytest.approx(100.0 * 30.0 / 1000.0)

    def test_larger_views_less_competitive(self):
        small = self.make_view(size=100.0)
        big = self.make_view(size=10_000.0)
        for v in (small, big):
            v.record_benefit(10.0, 50.0)
        dec = NoDecay()
        assert view_value(small, 10.0, dec) > view_value(big, 10.0, dec)

    def test_benefit_decays_after_workload_shift(self):
        v = self.make_view()
        v.record_benefit(10.0, 100.0)
        dec = ProportionalDecay(t_max=50)
        early = view_benefit(v, 11.0, dec)
        late = view_benefit(v, 61.0, dec)  # age > t_max
        assert early > 0 and late == 0.0


# ----------------------------------------------------------------------
# Fragment benefit and value
# ----------------------------------------------------------------------
class TestFragmentValue:
    def setup_method(self):
        self.view = ViewStats("v", Relation("t"), size_bytes=1000.0, creation_cost_s=200.0)
        self.frag = FragmentStats("v", "a", Interval.closed(0, 10), size_bytes=100.0)

    def test_hits_decayed(self):
        self.frag.record_hit(50.0)
        self.frag.record_hit(100.0)
        dec = ProportionalDecay(t_max=1000)
        assert fragment_hits(self.frag, 100.0, dec) == pytest.approx(0.5 + 1.0)

    def test_benefit_formula(self):
        self.frag.record_hit(100.0)
        dec = NoDecay()
        expected = 1.0 * (100.0 / 1000.0) * 200.0
        assert fragment_benefit(self.frag, self.view, 100.0, dec) == pytest.approx(expected)

    def test_value_formula(self):
        self.frag.record_hit(100.0)
        dec = NoDecay()
        benefit = fragment_benefit(self.frag, self.view, 100.0, dec)
        expected = 200.0 * benefit / 100.0
        assert fragment_value(self.frag, self.view, 100.0, dec) == pytest.approx(expected)

    def test_hits_override_for_mle(self):
        dec = NoDecay()
        v0 = fragment_value(self.frag, self.view, 100.0, dec)
        v_adj = fragment_value(self.frag, self.view, 100.0, dec, hits_override=3.0)
        assert v0 == 0.0 and v_adj > 0.0


# ----------------------------------------------------------------------
# Nectar / Nectar+
# ----------------------------------------------------------------------
class TestNectar:
    def setup_method(self):
        self.view = ViewStats("v", Relation("t"), size_bytes=1000.0, creation_cost_s=200.0)
        self.frag = FragmentStats("v", "a", Interval.closed(0, 10), size_bytes=100.0)

    def test_nectar_ignores_benefit(self):
        lo = nectar_view_value(self.view, 10.0)
        self.view.record_benefit(9.0, 1e6)
        hi = nectar_view_value(self.view, 10.0)
        assert hi == pytest.approx(self.view.creation_cost_s / (self.view.size_bytes * 1.0))
        assert hi >= lo  # only via ΔT shrinking

    def test_nectar_plus_uses_undecayed_benefit(self):
        self.view.record_benefit(1.0, 10.0)
        self.view.record_benefit(9.0, 10.0)
        v = nectar_plus_view_value(self.view, 10.0)
        assert v == pytest.approx(200.0 * 20.0 / (1000.0 * 1.0))

    def test_staleness_penalizes(self):
        self.view.record_benefit(10.0, 10.0)
        fresh = nectar_plus_view_value(self.view, 11.0)
        stale = nectar_plus_view_value(self.view, 100.0)
        assert fresh > stale

    def test_fragment_variants(self):
        self.frag.record_hit(10.0)
        n = nectar_fragment_value(self.frag, self.view, 11.0)
        np_ = nectar_plus_fragment_value(self.frag, self.view, 11.0)
        assert n > 0 and np_ > 0
        # Nectar+ scales with hit count, plain Nectar does not
        self.frag.record_hit(10.5)
        assert nectar_plus_fragment_value(self.frag, self.view, 11.0) > np_
        assert nectar_fragment_value(self.frag, self.view, 11.0) == pytest.approx(n)


# ----------------------------------------------------------------------
# Estimates
# ----------------------------------------------------------------------
class TestEstimates:
    def test_size_estimate_proportional_overlap(self):
        resident = [(Interval.closed(0, 10), 100.0), (Interval.open_closed(10, 20), 200.0)]
        # candidate [5, 15] overlaps half of each
        est = estimate_fragment_size(Interval.closed(5, 15), resident, DOMAIN)
        assert est == pytest.approx(0.5 * 100 + 0.5 * 200)

    def test_size_estimate_no_overlap(self):
        resident = [(Interval.closed(0, 10), 100.0)]
        assert estimate_fragment_size(Interval.closed(50, 60), resident, DOMAIN) == 0.0

    def test_size_estimate_contained(self):
        resident = [(Interval.closed(0, 100), 1000.0)]
        est = estimate_fragment_size(Interval.closed(0, 10), resident, DOMAIN)
        assert est == pytest.approx(100.0)

    def test_cost_estimate_reads_all_overlapping(self):
        cluster = ClusterSpec()
        resident = [(Interval.closed(0, 50), 1e9), (Interval.open_closed(50, 100), 1e9)]
        cost_one = estimate_fragment_cost(Interval.closed(0, 10), resident, DOMAIN, cluster)
        cost_two = estimate_fragment_cost(Interval.closed(40, 60), resident, DOMAIN, cluster)
        assert cost_two > cost_one  # must read both fragments

    def test_cost_estimate_write_dominates_for_large_candidates(self):
        cluster = ClusterSpec()
        resident = [(Interval.closed(0, 100), 1e9)]
        small = estimate_fragment_cost(Interval.closed(0, 1), resident, DOMAIN, cluster)
        large = estimate_fragment_cost(Interval.closed(0, 99), resident, DOMAIN, cluster)
        assert large > small

    def test_view_size_estimate(self):
        assert estimate_view_size(100.0, 0.5) == 50.0
