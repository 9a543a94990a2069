"""Tests for the newer value-model helpers: weighted/realizing hits and
density-normalized adjusted hits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.decay import NoDecay, ProportionalDecay
from repro.costmodel.mle import (
    FittedNormal,
    adjusted_hits,
    adjusted_hits_density,
    adjusted_hits_density_many,
    fit_partition_distribution,
)
from repro.costmodel.stats import FragmentStats, StatisticsStore
from repro.costmodel.value import (
    RealizingHitsIndex,
    fragment_hits,
    fragment_weighted_hits,
    partition_distribution,
    realizing_hits,
)
from repro.partitioning.intervals import Interval

DOMAIN = Interval.closed(0, 100)
DEC = NoDecay()


def frag(interval=Interval.closed(0, 100)):
    return FragmentStats("v", "a", interval, size_bytes=100.0)


class TestWeightedHits:
    def test_containing_query_counts_fully(self):
        f = frag()
        f.record_hit(1.0, Interval.closed(0, 50))
        piece = Interval.closed(10, 20)
        assert fragment_weighted_hits(f, piece, 2.0, DEC) == pytest.approx(1.0)

    def test_partial_overlap_weighted(self):
        f = frag()
        f.record_hit(1.0, Interval.closed(15, 25))  # covers half of [10, 20]
        piece = Interval.closed(10, 20)
        assert fragment_weighted_hits(f, piece, 2.0, DEC) == pytest.approx(0.5)

    def test_disjoint_query_ignored(self):
        f = frag()
        f.record_hit(1.0, Interval.closed(50, 60))
        assert fragment_weighted_hits(f, Interval.closed(10, 20), 2.0, DEC) == 0.0

    def test_rangeless_hit_counts_fully(self):
        f = frag()
        f.record_hit(1.0, None)
        assert fragment_weighted_hits(f, Interval.closed(10, 20), 2.0, DEC) == 1.0

    def test_decay_applied(self):
        f = frag()
        f.record_hit(5.0, Interval.closed(0, 100))
        dec = ProportionalDecay(t_max=100)
        assert fragment_weighted_hits(f, Interval.closed(10, 20), 10.0, dec) == (pytest.approx(0.5))


class TestRealizingHits:
    PARENT = Interval.closed(0, 100)

    def test_need_inside_piece_realizes(self):
        parent = frag(self.PARENT)
        parent.record_hit(1.0, Interval.closed(10, 20))
        piece = Interval.closed(5, 25)
        assert realizing_hits(parent, self.PARENT, piece, 2.0, DEC) == 1.0

    def test_need_wider_than_piece_does_not(self):
        parent = frag(self.PARENT)
        parent.record_hit(1.0, Interval.closed(10, 60))
        piece = Interval.closed(5, 25)
        assert realizing_hits(parent, self.PARENT, piece, 2.0, DEC) == 0.0

    def test_need_clamped_to_parent(self):
        """A query extending past the parent only needs θ∩parent from it."""
        parent = frag(Interval.closed(0, 30))
        parent.record_hit(1.0, Interval.closed(20, 90))  # needs (20, 30] here
        piece = Interval.closed(15, 30)
        assert realizing_hits(parent, Interval.closed(0, 30), piece, 2.0, DEC) == 1.0

    def test_rangeless_hits_never_realize(self):
        parent = frag(self.PARENT)
        parent.record_hit(1.0, None)
        assert realizing_hits(parent, self.PARENT, Interval.closed(0, 100), 2.0, DEC) == 0.0

    def test_edge_sliver_not_backed_by_wide_queries(self):
        """The anti-sliver property: wide jittering queries don't justify
        carving a thin boundary sliver."""
        parent = frag(self.PARENT)
        for i in range(10):
            parent.record_hit(float(i + 1), Interval.closed(10 + i, 60 + i))
        sliver = Interval.closed(10, 12)
        assert realizing_hits(parent, self.PARENT, sliver, 11.0, DEC) == 0.0


class TestAdjustedHitsDensity:
    FITTED = FittedNormal(mu=50.0, sigma2=100.0)

    def test_equal_width_matches_plain(self):
        iv = Interval.closed(40, 60)
        plain = adjusted_hits(iv, self.FITTED, 10.0, DOMAIN)
        dens = adjusted_hits_density(iv, self.FITTED, 10.0, DOMAIN, reference_width=20.0)
        assert dens == pytest.approx(plain)

    def test_whale_deflated(self):
        whale = Interval.closed(0, 100)
        sliver = Interval.closed(45, 55)
        ref = 10.0
        whale_d = adjusted_hits_density(whale, self.FITTED, 10.0, DOMAIN, ref)
        sliver_d = adjusted_hits_density(sliver, self.FITTED, 10.0, DOMAIN, ref)
        # per reference width, the hot sliver is denser than the whale
        assert sliver_d > whale_d

    def test_neighbour_beats_distant_equal_width(self):
        near = Interval.closed(60, 70)   # near the mu=50 hot spot
        far = Interval.closed(85, 95)
        ref = 10.0
        assert adjusted_hits_density(near, self.FITTED, 10.0, DOMAIN, ref) > (
            adjusted_hits_density(far, self.FITTED, 10.0, DOMAIN, ref)
        )

    def test_out_of_domain_zero(self):
        assert adjusted_hits_density(
            Interval.closed(500, 600), self.FITTED, 10.0, DOMAIN, 10.0
        ) == 0.0

    def test_point_interval_capped(self):
        point = Interval.point(50.0)
        value = adjusted_hits_density(point, self.FITTED, 10.0, DOMAIN, 10.0)
        assert value >= 0.0  # degenerate width handled without blowing up


# ----------------------------------------------------------------------
# Bit-exactness oracles for the vectorized value helpers: identical
# floats to the scalar loops, so every comparison is ``==``.
# ----------------------------------------------------------------------
_grid = st.sampled_from([0.0, 10.0, 25.0, 40.0, 60.0, 85.0, 100.0])


@st.composite
def _ranges(draw):
    if draw(st.booleans()) and draw(st.booleans()):
        return None  # rangeless hit
    lo = draw(_grid)
    hi = draw(_grid.filter(lambda x: x >= lo))
    if hi == lo:
        return Interval.point(lo)
    kind = draw(st.sampled_from(["closed", "open_closed", "closed_open", "open"]))
    return getattr(Interval, kind)(lo, hi)


class TestRealizingHitsIndexOracle:
    PARENT = Interval.closed(0, 100)

    def _parent_with(self, ranges):
        parent = frag(self.PARENT)
        for i, rng in enumerate(ranges):
            parent.record_hit(float(i + 1), rng)
        return parent

    @given(st.lists(_ranges(), min_size=0, max_size=15), st.lists(_ranges(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_both_paths_equal_scalar(self, ranges, piece_ranges):
        pieces = [p for p in piece_ranges if p is not None] or [Interval.closed(10, 20)]
        parent = self._parent_with(ranges)
        t_now = float(len(ranges) + 2)
        decay = ProportionalDecay(t_max=1000)
        index = RealizingHitsIndex(parent, self.PARENT, t_now, decay)
        for piece in pieces:  # call 1 builds the arrays, 2+ reuse them
            expected = realizing_hits(parent, self.PARENT, piece, t_now, decay)
            assert index.hits_for(piece) == expected
        # re-query after the arrays exist: still exact
        for piece in pieces:
            assert index.hits_for(piece) == realizing_hits(
                parent, self.PARENT, piece, t_now, decay
            )

    def test_no_ranged_hits_lazy_build(self):
        parent = self._parent_with([None, None])
        index = RealizingHitsIndex(parent, self.PARENT, 5.0, DEC)
        piece = Interval.closed(0, 50)
        assert index.hits_for(piece) == 0.0  # builds empty arrays
        assert index.hits_for(piece) == 0.0  # and reads them

    def test_parent_interval_clamping_matches(self):
        parent_iv = Interval.closed(0, 30)
        parent = FragmentStats("v", "a", parent_iv, size_bytes=10.0)
        parent.record_hit(1.0, Interval.closed(20, 90))
        parent.record_hit(2.0, Interval.closed(25, 28))
        index = RealizingHitsIndex(parent, parent_iv, 3.0, DEC)
        for piece in (Interval.closed(15, 30), Interval.closed(24, 29)):
            expected = realizing_hits(parent, parent_iv, piece, 3.0, DEC)
            assert index.hits_for(piece) == expected


def _scalar_adjusted_hits_density(interval, fitted, total_hits, domain, reference_width):
    """The pre-batching scalar, verbatim: the oracle of the partition pass."""
    clamped = interval.intersect(domain)
    if clamped is None:
        return 0.0
    hits = total_hits * fitted.mass(clamped)
    width = clamped.width
    if width <= 0 or reference_width <= 0:
        return hits
    return hits * min(reference_width / width, 1e6)


# bounds on, beside and outside DOMAIN = [0, 100]; None is an unbounded end
_bound = st.sampled_from([None, -20.0, 0.0, 10.0, 25.0, 40.0, 60.0, 85.0, 100.0, 130.0])


@st.composite
def _fragments(draw):
    lo, hi = draw(_bound), draw(_bound)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    if lo is not None and lo == hi:
        return Interval.point(lo)  # zero width
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


class TestAdjustedHitsDensityManyOracle:
    @given(
        st.lists(_fragments(), min_size=0, max_size=12),
        st.sampled_from(
            [FittedNormal(50.0, 100.0), FittedNormal(0.0, 1e-12), FittedNormal(97.0, 2500.0)]
        ),
        st.sampled_from([0.0, 7.5, 20.0, 1e-9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_pass_equals_scalar_loop(self, intervals, fitted, reference_width):
        many = adjusted_hits_density_many(intervals, fitted, 17.0, DOMAIN, reference_width)
        assert many == [
            _scalar_adjusted_hits_density(iv, fitted, 17.0, DOMAIN, reference_width)
            for iv in intervals
        ]
        # the scalar entry point is the same pass over one interval
        for iv, value in zip(intervals, many):
            assert adjusted_hits_density(iv, fitted, 17.0, DOMAIN, reference_width) == value


class TestPartitionDistributionsOracle:
    def _store(self):
        store = StatisticsStore()
        spec = {
            ("v1", "a"): [(Interval.closed(0, 20), 6), (Interval.open_closed(20, 100), 2)],
            ("v1", "b"): [(Interval.closed(0, 100), 0)],
            ("v2", "a"): [
                (Interval.closed(0, 50), 3),
                (Interval.closed(40, 80), 3),  # overlapping: shared hit times
                (Interval.open_closed(80, 100), 1),
            ],
        }
        for (view_id, attr), frags in spec.items():
            for iv, nhits in frags:
                f = store.ensure_fragment(view_id, attr, iv)
                for t in range(1, nhits + 1):
                    f.record_hit(float(t), iv)
        return store

    def test_batched_equals_scalar_recomputation(self):
        store = self._store()
        decay = ProportionalDecay(t_max=50)
        t_now = 10.0
        partitions = [("v1", "a", DOMAIN), ("v1", "b", DOMAIN), ("v2", "a", DOMAIN)]
        for view_id, attr, domain in partitions:
            frags = store.fragments_for(view_id, attr)
            hit_times = [f.times_array().tolist() for f in frags]
            values = [sum(decay(t_now, t) for t in times) if times else 0.0 for times in hit_times]
            distinct = {t for times in hit_times for t in times}
            total = sum(decay(t_now, t) for t in sorted(distinct))
            got = partition_distribution(store, view_id, attr, domain, t_now, decay)
            if total <= 0:
                assert got is None
                continue
            pairs = [(f.interval, v) for f, v in zip(frags, values)]
            expected = fit_partition_distribution(domain, pairs, 256)
            assert got is not None
            fitted, got_total = got
            assert got_total == pytest.approx(total)
            assert fitted.mu == pytest.approx(expected.mu)
            assert fitted.sigma2 == pytest.approx(expected.sigma2)

    def test_seeds_fragment_hits_memo(self, monkeypatch):
        store = self._store()
        decay = ProportionalDecay(t_max=50)
        partition_distribution(store, "v1", "a", DOMAIN, 10.0, decay)
        expected = {
            f.interval: sum(decay.weights(10.0, f.times_array()).tolist())
            if f.hit_count()
            else 0.0
            for f in store.fragments_for("v1", "a")
        }

        def no_recompute(self, t_now, times):
            raise AssertionError("fragment_hits recomputed what the fit already summed")

        monkeypatch.setattr(ProportionalDecay, "weights", no_recompute)
        for f in store.fragments_for("v1", "a"):
            assert fragment_hits(f, 10.0, decay) == expected[f.interval]
