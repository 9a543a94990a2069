"""Tests for Algorithm 1's collaborators, each in the module that owns the
method: jitter estimation, piece widening and admission feasibility
(selection), mean fragment width and Φ (valuation), view reconstruction
and the step's cuts (repartition)."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.selection as selection_module
import repro.core.valuation as valuation_module
import repro.costmodel.estimate as estimate_module
import repro.costmodel.value as value_module
from repro import Catalog, DeepSea, Interval, Policy, caches
from repro.baselines import deepsea
from repro.bench.harness import sdss_fixture
from repro.core.admission import AdmissionController
from repro.core.repartition import _Pieces
from repro.core.selection import _piece_refinement_passes
from repro.core.valuation import _OWED, Valuation
from repro.costmodel.estimate import ResidentProfile
from repro.costmodel.nectar import nectar_fragment_value, nectar_plus_fragment_value
from repro.costmodel.value import fragment_value, partition_distribution
from repro.engine.cost import ClusterSpec, CostLedger
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.parallel.determinism import report_fingerprint
from repro.partitioning.candidates import SplitCandidate
from repro.partitioning.fragmentation import Fragmentation
from repro.partitioning.intervals import IntervalIndex
from repro.query.algebra import Aggregate, AggSpec, Join, Relation, Select
from repro.query.predicates import between
from repro.workloads.generator import sdss_mapped_workload
from tests import list_pstat
from tests.test_core_components import _double_evaluating_plan_eviction
from tests.test_fragmentation import _rebuilding_replace
from tests.test_value_functions import _scalar_adjusted_hits_density

DOMAIN = Interval.closed(0, 1000)
DOMAINS = {"d_k": DOMAIN, "f_k": DOMAIN}


@pytest.fixture
def catalog():
    rng = np.random.default_rng(6)
    n = 1500
    fact = Schema.of(Column("f_id"), Column("f_k"), Column("f_v"))
    dim = Schema.of(Column("d_k"), Column("d_c"))
    cat = Catalog()
    cat.register(
        "fact",
        Table.from_dict(
            fact,
            {
                "f_id": np.arange(n),
                "f_k": rng.integers(0, 1001, n),
                "f_v": rng.integers(0, 9, n),
            },
            scale=2e6,
        ),
    )
    cat.register(
        "dim",
        Table.from_dict(
            dim,
            {"d_k": np.arange(1001), "d_c": rng.integers(0, 4, 1001)},
            scale=2e6,
        ),
    )
    return cat


def query(lo, hi):
    return Aggregate(
        Select(
            Join(Relation("fact"), Relation("dim"), "f_k", "d_k"),
            (between("d_k", lo, hi),),
        ),
        ("d_c",),
        (AggSpec("sum", "f_v", "total"),),
    )


@pytest.fixture
def system(catalog):
    return DeepSea(catalog, domains=DOMAINS, policy=Policy(evidence_factor=0.0))


def the_partitioned_view(system):
    for vid in system.pool.resident_view_ids():
        if system.pool.partition_attrs(vid):
            return vid
    raise AssertionError


class TestObservedJitter:
    def test_no_stats_zero(self, system):
        assert system.selection.observed_jitter("ghost", "d_k", DOMAIN, DOMAIN) == 0.0

    def test_repeated_identical_queries_zero_jitter(self, system):
        for _ in range(5):
            system.execute(query(100, 200))
        vid = the_partitioned_view(system)
        parent = system.tentative.intervals(vid, "d_k")[0]
        jitter = system.selection.observed_jitter(vid, "d_k", parent, Interval.closed(100, 200))
        assert jitter == pytest.approx(0.0)

    def test_drifting_queries_positive_jitter(self, system):
        for i in range(8):
            system.execute(query(100 + 10 * i, 200 + 10 * i))
        vid = the_partitioned_view(system)
        # use a parent that saw all the hits
        intervals = system.stats.intervals_for(vid, "d_k")
        jitters = [
            system.selection.observed_jitter(vid, "d_k", iv, Interval.closed(140, 240))
            for iv in intervals
        ]
        assert max(jitters) > 0.0

    def test_different_width_queries_excluded(self, system):
        # wide queries should not contribute jitter for narrow theta
        for _ in range(4):
            system.execute(query(0, 900))
        vid = the_partitioned_view(system)
        parent = system.stats.intervals_for(vid, "d_k")[0]
        jitter = system.selection.observed_jitter(vid, "d_k", parent, Interval.closed(100, 110))
        assert jitter == 0.0


class TestWidenPiece:
    def test_margin_scales_with_theta(self, system):
        theta = Interval.closed(100, 300)
        parent = Interval.closed(0, 1000)
        piece = Interval.closed(100, 300)
        widened = system.selection.widen_piece(piece, theta, parent, DOMAIN)
        margin = system.policy.refinement_margin * theta.width
        assert widened.lo == pytest.approx(100 - margin)
        assert widened.hi == pytest.approx(300 + margin)

    def test_clamped_to_parent(self, system):
        theta = Interval.closed(0, 400)
        parent = Interval.closed(0, 350)
        piece = Interval.closed(0, 350)
        widened = system.selection.widen_piece(piece, theta, parent, DOMAIN)
        assert parent.contains(widened)

    def test_jitter_dominates_small_margin(self, system):
        theta = Interval.closed(100, 110)
        parent = Interval.closed(0, 1000)
        piece = Interval.closed(100, 110)
        widened = system.selection.widen_piece(piece, theta, parent, DOMAIN, jitter=50.0)
        assert widened.width >= 100.0  # 2 * 2*jitter / sides


class TestMeanFragmentWidth:
    def test_falls_back_to_domain(self, system):
        assert system.valuation.mean_fragment_width("ghost", "d_k") == DOMAIN.width

    def test_uses_resident_fragments(self, system):
        system.execute(query(100, 200))
        vid = the_partitioned_view(system)
        width = system.valuation.mean_fragment_width(vid, "d_k")
        intervals = system.pool.intervals_of(vid, "d_k")
        expected = sum(iv.width for iv in intervals) / len(intervals)
        assert width == pytest.approx(expected)


class TestReconstructView:
    def test_from_partition(self, system, catalog):
        system.execute(query(100, 200))
        vid = the_partitioned_view(system)
        ledger = CostLedger(system.cluster)
        table = system.repartitioner.reconstruct_view(vid, ledger)
        assert table is not None
        assert ledger.bytes_read > 0
        # the reconstruction equals the defining plan's result
        from repro.engine.executor import ExecutionContext, Executor

        plan = system.pool.definition(vid).plan
        direct = Executor(ExecutionContext(catalog, system.pool)).execute(plan)
        assert table.sorted_rows() == direct.table.sorted_rows()

    def test_unreconstructable_returns_none(self, system):
        system.execute(query(100, 200))
        vid = the_partitioned_view(system)
        # evict one fragment: the cover over the domain now has a hole
        entry = system.pool.fragments_of(vid, "d_k")[0]
        system.pool.evict(entry.fragment_id)
        ledger = CostLedger(system.cluster)
        assert system.repartitioner.reconstruct_view(vid, ledger) is None


class TestAdmissionFeasible:
    def test_unlimited_pool_always_feasible(self, system):
        assert system.selection.admission_feasible("anything", None, 1.0)

    def test_small_pool_blocks_large_view(self, catalog):
        system = DeepSea(
            catalog,
            domains=DOMAINS,
            smax_bytes=10.0,
            policy=Policy(evidence_factor=0.0),
        )
        # prime statistics so the view has a size estimate
        system.execute(query(100, 200))
        for view in system.stats.all_views():
            if system.tentative.attrs_of(view.view_id):
                assert not system.selection.admission_feasible(view.view_id, "d_k", 2.0)
                break
        else:
            pytest.fail("no partitionable view registered")


# ----------------------------------------------------------------------
# _piece_refinement_passes memoization: the §7.2 filter prefix cached on
# the estimator must replay the cold path's decision exactly.
# ----------------------------------------------------------------------
class TestPieceRefinementMemo:
    DOMAIN = Interval.closed(0, 1000)
    RESIDENT = [
        (Interval.closed(0, 500), 4e8),
        (Interval.open_closed(500, 1000), 4e8),
    ]

    def _call(self, piece, estimator, *, realizing=None, safety=1.0):
        sizes = {iv: s for iv, s in self.RESIDENT}
        return _piece_refinement_passes(
            piece,
            estimator=estimator,
            resident_sizes=sizes,
            resident_index=IntervalIndex(list(sizes)),
            domain=self.DOMAIN,
            cluster=self._cluster(),
            realizing=realizing,
            dist_fn=None,
            safety=safety,
        )

    def _cluster(self):
        from repro.engine.cost import ClusterSpec

        return ClusterSpec()

    def _profile(self):
        from repro.costmodel.estimate import ResidentProfile

        return ResidentProfile(self.RESIDENT, self.DOMAIN, self._cluster())

    def _realizing(self, parent_iv, n_hits):
        from repro.costmodel.decay import NoDecay
        from repro.costmodel.stats import FragmentStats
        from repro.costmodel.value import RealizingHitsIndex

        parent = FragmentStats("v", "a", parent_iv, size_bytes=4e8)
        for i in range(n_hits):
            parent.record_hit(float(i + 1), Interval.closed(100, 140))
        return RealizingHitsIndex(parent, parent_iv, float(n_hits + 1), NoDecay())

    def test_warm_memo_replays_cold_decision(self):
        parent_iv = Interval.closed(0, 500)
        pieces = [
            Interval.closed(100, 140),  # hot, well-backed piece
            Interval.closed(100, 141),  # near-identical jittered sibling
            Interval.closed(0, 499),    # nearly the whole cover: rejected
            Interval.closed(600, 601),  # sliver in the other fragment
        ]
        warm = self._profile()
        warm_realizing = self._realizing(parent_iv, 500)
        cold_decisions = []
        for piece in pieces:
            cold_decisions.append(
                self._call(piece, self._profile(), realizing=self._realizing(parent_iv, 500))
            )
        for piece, expected in zip(pieces, cold_decisions):
            self._call(piece, warm, realizing=warm_realizing)  # populate memo
        for piece, expected in zip(pieces, cold_decisions):
            assert self._call(piece, warm, realizing=warm_realizing) is expected

    def test_hot_piece_passes_and_cold_piece_fails(self):
        """Sanity that the fixture exercises both decisions."""
        parent_iv = Interval.closed(0, 500)
        assert self._call(
            Interval.closed(100, 140), self._profile(), realizing=self._realizing(parent_iv, 500)
        )
        assert not self._call(Interval.closed(100, 140), self._profile(), realizing=None)

    def test_rejected_prefix_memoized_as_false(self):
        estimator = self._profile()
        whale = Interval.closed(0, 499)
        assert not self._call(whale, estimator)
        assert estimator.piece_memo[whale][0] is False
        assert not self._call(whale, estimator)  # memo short-circuit, same answer

    def test_uncovered_piece_rejected(self):
        resident_half = [(Interval.closed(0, 500), 4e8)]
        estimator = ResidentProfile(resident_half, self.DOMAIN, self._cluster())
        sizes = {iv: s for iv, s in resident_half}
        piece = Interval.closed(600, 700)  # hole: nothing resident to refine
        assert not _piece_refinement_passes(
            piece,
            estimator=estimator,
            resident_sizes=sizes,
            resident_index=IntervalIndex(list(sizes)),
            domain=self.DOMAIN,
            cluster=self._cluster(),
            realizing=None,
            dist_fn=None,
            safety=1.0,
        )
        assert estimator.piece_memo[piece][0] is False


def test_a_long_stable_stream_keeps_the_piece_memo_bounded():
    """Endpoint jitter widens pieces to new bounds for as long as a cover
    stands, so each profile keeps only its latest ``_PIECE_MEMO_MAX``
    pieces; a run so bounded reports what the unbounded run does."""
    fx = sdss_fixture(20.0)
    hot = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=20, seed=2)
    popularity = 1.0 / np.arange(1, len(hot) + 1) ** 1.1
    draws = np.random.default_rng(2).choice(len(hot), 200, p=popularity / popularity.sum())
    plans = [hot[i] for i in draws]

    def run():
        caches.clear_all_caches()
        system = deepsea(fx.catalog, domains=fx.domains)
        fingerprints, largest = [], 0
        for plan in plans:
            fingerprints.append(report_fingerprint(system.execute(plan)))
            profiles = [p._profile for p in system.valuation._partitions.values() if p._profile]
            largest = max([largest] + [len(profile.piece_memo) for profile in profiles])
        return fingerprints, largest

    reference, unbounded = run()
    bound = 4
    assert unbounded > bound
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(estimate_module, "_PIECE_MEMO_MAX", bound)
        assert run() == (reference, bound)


# ----------------------------------------------------------------------
# Tight-pool admission oracles (DESIGN.md §12): the valuation as it was
# before Φ was valued once per partition — verbatim scalar code, compared
# with ``==``.  The oracles take the :class:`Valuation` and read the same
# per-tick fit it does (``distribution`` is unchanged), so a differing
# float is a differing computation, never a differing input.
# ----------------------------------------------------------------------
def scalar_mean_fragment_width(valuation, view_id, attr, domain):
    intervals = valuation.pool.intervals_of(view_id, attr) or valuation.tentative.intervals(
        view_id, attr
    )
    widths = [iv.intersect(domain).width for iv in intervals if iv.intersect(domain)]
    positive = [w for w in widths if w > 0]
    if not positive:
        return domain.width
    return sum(positive) / len(positive)


def scalar_fragment_value(valuation, view_id, attr, interval, t):
    vstats = valuation.stats.view(view_id)
    if vstats is None:
        return 0.0
    fstats = valuation.stats.ensure_fragment(view_id, attr, interval)
    model = valuation.policy.value_model
    if model == "nectar":
        return nectar_fragment_value(fstats, vstats, t)
    if model == "nectar+":
        return nectar_plus_fragment_value(fstats, vstats, t)
    hits_override = None
    if valuation.policy.smoothing_enabled:
        domain = valuation.domains(attr)
        if domain is not None:
            dist = valuation.distribution(view_id, attr, t)
            if dist is not None:
                fitted, total = dist
                hits_override = _scalar_adjusted_hits_density(
                    interval, fitted, total, domain,
                    scalar_mean_fragment_width(valuation, view_id, attr, domain),
                )
    return fragment_value(fstats, vstats, t, valuation.policy.effective_decay, hits_override)


def scalar_entry_value(valuation, entry, t):
    key = entry.key
    vstats = valuation.stats.view(key.view_id)
    if vstats is None:
        return 0.0
    if key.attr is None:
        return valuation.view_admission_value(vstats, t)
    fstats = valuation.stats.ensure_fragment(key.view_id, key.attr, key.interval)
    if not fstats.size_is_actual:
        fstats.set_actual_size(entry.size_bytes)
    return scalar_fragment_value(valuation, key.view_id, key.attr, key.interval, t)


_bound = st.sampled_from([None, -50.0, 0.0, 100.0, 250.0, 400.0, 600.0, 850.0, 1000.0, 1300.0])


@st.composite
def _fragment_intervals(draw):
    """Distinct intervals on, beside and outside DOMAIN; unbounded ends
    and zero-width points included."""
    out = []
    for _ in range(draw(st.integers(0, 7))):
        lo, hi = draw(_bound), draw(_bound)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        if lo is not None and lo == hi:
            out.append(Interval.point(lo))
        else:
            out.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return list(dict.fromkeys(out))


_PIECE = Table.from_dict(Schema.of(Column("d_k")), {"d_k": np.arange(4)}, scale=1e6)

VALUE_POLICIES = {
    "deepsea": Policy(),
    "deepsea, raw hits": Policy(use_mle=False),
    "nectar": Policy(value_model="nectar"),
    "nectar+": Policy(value_model="nectar+"),
}


def valued_system(policy, resident, hits, *, smax=None):
    """A system with one view "v", ``resident`` fragments on d_k and a hit
    per drawn ``(fragment index, time)`` — no query needed."""
    system = DeepSea(Catalog(), domains=DOMAINS, policy=policy, smax_bytes=smax)
    system.pool.define_view("v", Relation("fact"))
    vstats = system.stats.ensure_view("v", Relation("fact"))
    vstats.size_bytes, vstats.creation_cost_s = 5e8, 120.0
    vstats.record_benefit(1.0, 30.0)
    for interval in resident:
        system.pool.add_fragment("v", "d_k", interval, _PIECE)
        system.stats.ensure_fragment("v", "d_k", interval)
    for index, when in hits:
        if resident:
            target = resident[index % len(resident)]
            system.stats.fragment("v", "d_k", target).record_hit(float(when), target)
    system.clock = 20
    return system


class TestMeanFragmentWidthOracle:
    @given(
        resident=_fragment_intervals(),
        design_cuts=st.lists(st.integers(1, 999), max_size=4, unique=True),
    )
    @settings(max_examples=120, deadline=None)
    def test_memo_equals_scalar_loop_through_every_change(self, resident, design_cuts):
        system = valued_system(Policy(), resident, [])
        valuation = system.valuation
        check = lambda domain=DOMAIN: valuation.mean_fragment_width("v", "d_k") == (  # noqa: E731
            scalar_mean_fragment_width(valuation, "v", "d_k", domain)
        )
        assert check() and check()  # cold, then from the memo
        # the tentative design is what is read once nothing is resident;
        # it is replaced, never mutated
        design = system.tentative.ensure("v", "d_k", DOMAIN)
        for cut in design_cuts:
            parent = next(iv for iv in design.intervals if iv.contains_point(cut))
            if parent.lo < cut:
                system.tentative.apply_split(
                    "v", "d_k", SplitCandidate(parent, parent.split_before(cut))
                )
                design = system.tentative.get("v", "d_k")
            assert check()
        for entry in system.pool.fragments_of("v", "d_k"):
            system.pool.evict(entry.fragment_id)  # a new cover version each time
            assert check()
        other = Interval.closed(0, 500)
        system.domains.declare("d_k", other)  # the record follows the domain too
        assert check(other)


class TestFragmentValuesOracle:
    @pytest.mark.parametrize("model", sorted(VALUE_POLICIES))
    @given(
        resident=_fragment_intervals(),
        extra=_fragment_intervals(),
        hits=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 19)), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_one_scalar_phi_each(self, model, resident, extra, hits):
        # ``hits == []`` leaves the partition without hit mass: ``dist is None``
        system = valued_system(VALUE_POLICIES[model], resident, hits)
        t = float(system.clock)
        intervals = resident + [iv for iv in extra if iv not in resident]
        valuation = system.valuation
        assert valuation.fragment_values("v", "d_k", intervals, t) == [
            scalar_fragment_value(valuation, "v", "d_k", iv, t) for iv in intervals
        ]
        for entry in system.pool.all_entries():
            assert valuation.entry_value(entry, t) == scalar_entry_value(valuation, entry, t)

    @pytest.mark.parametrize("model", sorted(VALUE_POLICIES))
    def test_valuation_built_from_the_stores_alone_agrees_with_the_systems(self, model):
        resident = [Interval.closed(0, 500), Interval.open_closed(500, 1000)]
        system = valued_system(VALUE_POLICIES[model], resident, [(0, 3), (0, 5), (1, 7)])
        alone = Valuation(  # no DeepSea: its own memos over the same stores
            system.stats, system.pool, system.tentative, system.domains, system.policy,
            system.cluster,
        )
        t = float(system.clock)
        candidates = resident + [Interval.closed(100, 200), Interval.open(600, 1300)]
        assert alone.fragment_values("v", "d_k", candidates, t) == (
            system.valuation.fragment_values("v", "d_k", candidates, t)
        )
        for entry in system.pool.all_entries():
            assert alone.entry_value(entry, t) == system.valuation.entry_value(entry, t)
        assert all(alone.entry_value(e, t) for e in system.pool.all_entries())

    def test_unknown_view_is_worthless_and_untracked(self):
        system = valued_system(Policy(), [], [])
        assert system.valuation.fragment_values("ghost", "d_k", [DOMAIN], 3.0) == [0.0]
        assert system.stats.fragment("ghost", "d_k", DOMAIN) is None

    def test_entry_value_settles_the_size_before_valuing(self):
        resident = [Interval.closed(0, 500), Interval.open_closed(500, 1000)]
        system = valued_system(Policy(), resident, [(0, 3), (0, 5), (1, 7)])
        t = float(system.clock)
        stats = [system.stats.fragment("v", "d_k", iv) for iv in resident]
        assert not any(s.size_is_actual for s in stats)
        entries = system.pool.fragments_of("v", "d_k")
        values = [system.valuation.entry_value(e, t) for e in entries]
        assert [s.size_bytes for s in stats] == [e.size_bytes for e in entries]
        assert all(s.size_is_actual for s in stats)
        # the value formed is the one over the settled size
        assert values == [scalar_entry_value(system.valuation, e, t) for e in entries]
        assert all(values)

    def test_token_follows_every_input_phi_reads(self):
        resident = [Interval.closed(0, 500), Interval.open_closed(500, 1000)]
        system = valued_system(Policy(), resident, [(0, 3), (1, 7)])
        t = float(system.clock)
        agree = lambda at: all(  # noqa: E731
            system.valuation.entry_value(e, at) == scalar_entry_value(system.valuation, e, at)
            for e in system.pool.all_entries()
        )
        assert agree(t)
        vstats = system.stats.view("v")
        vstats.set_actual_size(7e8)
        assert agree(t)
        vstats.set_actual_cost(45.0)
        assert agree(t)
        system.stats.fragment("v", "d_k", resident[0]).record_hit(t, resident[0])
        assert agree(t)
        system.pool.add_fragment("v", "d_k", Interval.closed(100, 200), _PIECE)
        assert agree(t)
        system.clock += 1
        assert agree(float(system.clock))


class TestFitShortCutsOracle:
    """``_piece_refinement_passes`` against the always-fit verdict it replaced."""

    @staticmethod
    def always_fit_verdict(hits, saving_per_hit, cost_est, smoothed, safety):
        # the tail of the pre-change function, verbatim, with the fit's
        # smoothed count given
        if hits > 0:
            hits = max(hits, min(smoothed, 2.0 * hits))
        return hits * saving_per_hit >= safety * cost_est

    @given(
        hits=st.sampled_from([0.0, 0.25, 1.0, 3.0, 40.0]),
        saving=st.sampled_from([0.0, 0.5, 3.0, 1e3]),
        cost=st.sampled_from([0.0, 1.0, 2.9, 3.0, 6.0, 1e4]),
        smoothed=st.sampled_from([0.0, 0.3, 1.5, 2.0, 79.9, 1e9, float("nan")]),
        safety=st.sampled_from([1.0, 1.5]),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_fits_only_when_it_matters(self, hits, saving, cost, smoothed, safety):
        piece = Interval.closed(100, 140)
        estimator = ResidentProfile(TestPieceRefinementMemo.RESIDENT, DOMAIN, ClusterSpec())
        estimator.piece_memo[piece] = (True, 1.0, cost, saving)

        class Realizing:
            def hits_for(self, _piece):
                return hits

        class Fit:  # adjusted_hits(piece, fit, total, domain) == total * mass
            def mass(self, _clamped):
                return smoothed

        calls = []
        got = _piece_refinement_passes(
            piece,
            estimator=estimator,
            resident_sizes={},
            resident_index=IntervalIndex([]),
            domain=DOMAIN,
            cluster=ClusterSpec(),
            realizing=Realizing(),
            dist_fn=lambda: calls.append("fit") or (Fit(), 1.0),
            safety=safety,
            defer_fn=lambda: calls.append("owed"),
        )
        assert got == self.always_fit_verdict(hits, saving, cost, smoothed, safety)
        needed = safety * cost
        undecided = hits * saving < needed <= (2.0 * hits) * saving
        assert calls == ([] if hits == 0 else ["fit"] if undecided else ["owed"])

    def test_owed_fit_is_taken_before_the_hits_it_reads_change(self, system):
        """A tick's fit is over the hit lists at its first demand; skipping
        the demand must not move that moment past an inherit."""
        for lo in (100, 120, 140):
            system.execute(query(lo, lo + 100))
        vid = the_partitioned_view(system)
        t = float(system.clock)
        valuation, key = system.valuation, (vid, "d_k")
        valuation._fits.pop(key, None)
        before = partition_distribution(
            system.stats, vid, "d_k", DOMAIN, t, system.policy.effective_decay,
            system.policy.mle_parts,
        )
        valuation.defer_fit(vid, "d_k", t)  # what the short-cut leaves
        assert valuation._fits[key] is _OWED
        parent = next(
            iv for iv in system.stats.intervals_for(vid, "d_k")
            if system.stats.fragment(vid, "d_k", iv).hit_count()
        )
        pieces = parent.split_before(parent.lo + 0.37 * parent.width)  # a cut no query made
        assert all(system.stats.fragment(vid, "d_k", p) is None for p in pieces)
        valuation.inherit_fragment_stats(vid, "d_k", SplitCandidate(parent, pieces), t)
        assert any(system.stats.fragment(vid, "d_k", p).hit_count() for p in pieces)
        assert valuation._fits[key] == before
        after = partition_distribution(
            system.stats, vid, "d_k", DOMAIN, t, system.policy.effective_decay,
            system.policy.mle_parts,
        )
        assert after != before  # the inherit did move what a late fit would see


class TestPiecesOracle:
    @given(
        values=st.lists(st.sampled_from([-5, 0, 10, 10, 20, 20, 20, 30, 35, 40, 100]), max_size=40),
        intervals=_fragment_intervals(),
    )
    @settings(max_examples=120, deadline=None)
    def test_each_cut_is_the_masked_filter(self, values, intervals):
        # bounds of the drawn intervals sit on 0 / 100 and the column
        # repeats values on and next to them: open and closed sides differ
        schema = Schema.of(Column("d_k"), Column("row"))
        table = Table.from_dict(
            schema, {"d_k": np.array(values, dtype=np.int64), "row": np.arange(len(values))}
        )
        pieces = _Pieces(table, "d_k")
        for interval in intervals + [Interval.closed(10, 20), Interval.open(10, 20)]:
            expected = table.filter(interval.mask(table.column("d_k")))
            cut = pieces[interval]
            assert cut.to_rows() == expected.to_rows()
            assert cut.size_bytes == expected.size_bytes
            assert pieces[interval] is cut  # masked once

    def test_integer_keys_past_float_precision_still_compare_as_integers(self):
        """The column is cast to float64 once only where that is exact."""
        big = 2**53
        values = np.array([5, 10, big - 1, big, big + 1, big + 2], dtype=np.int64)
        table = Table.from_dict(Schema.of(Column("d_k")), {"d_k": values})
        assert table.column("d_k").dtype == np.int64
        pieces = _Pieces(table, "d_k")
        for interval in (
            Interval.open_closed(big, big + 2),  # integer bounds: exact comparison
            Interval.closed(10, big),
            Interval.closed(5.0, float(big)),
        ):
            expected = table.filter(interval.mask(table.column("d_k")))
            assert pieces[interval].to_rows() == expected.to_rows()


def assert_mutations_journaled(pool):
    """From now on, every mutation of ``pool`` must find a transaction open."""
    for name in ("add_fragment", "add_whole_view", "patch_entry", "evict"):
        mutate = getattr(pool, name)

        def checked(*args, _mutate=mutate, _name=name, **kwargs):
            assert pool.journal.journaling, f"{_name} outside a transaction"
            return _mutate(*args, **kwargs)

        setattr(pool, name, checked)


def list_store_of(stats, view_id, attr):
    """The per-fragment-list store holding what ``stats`` holds for one partition."""
    lists = list_pstat.StatisticsStore()
    for fragment in stats.fragments_for(view_id, attr):
        copy = lists.ensure_fragment(view_id, attr, fragment.interval)
        for t, theta in fragment.hits():
            copy.record_hit(t, theta)
    return lists


def fits_checked_against_the_lists(fit, taken):
    """``partition_distribution`` that also fits the lists' way and compares."""

    def checked(stats, view_id, attr, domain, t_now, decay, n_parts=256):
        got = fit(stats, view_id, attr, domain, t_now, decay, n_parts)
        lists = list_store_of(stats, view_id, attr)
        fits = list_pstat.partition_distributions(
            lists, [(view_id, attr, domain)], t_now, decay, n_parts
        )
        want = fits[(view_id, attr)]
        assert (got is None) == (want is None)
        if got is not None:
            assert (got[0].mu, got[0].sigma2, got[1]) == (want[0].mu, want[0].sigma2, want[1])
        taken.append(1)
        return got

    return checked


def test_stateful_tight_pool_run(monkeypatch):
    """150 SDSS-mapped queries against the 10 % pool: after every query
    every resident entry's Φ is the scalar oracle's, every MLE fit taken is
    the one the per-fragment hit lists gave, nothing cut for the step
    outlives it, every pool mutation happened inside a transaction and
    none is left open; and the whole run — every ledger, decision and
    answer — is the run of the pre-change code paths put back together."""
    fx = sdss_fixture(20.0)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=150, seed=2)

    def make():
        return deepsea(
            fx.catalog, domains=fx.domains, smax_bytes=0.10 * fx.catalog.total_size_bytes
        )

    step_scoped = []
    cut = _Pieces.__getitem__

    def tracking_cut(self, interval):
        piece = cut(self, interval)
        step_scoped.extend((weakref.ref(self), weakref.ref(piece)))
        return piece

    fits_taken: list[int] = []
    system = make()
    assert_mutations_journaled(system.pool)
    with monkeypatch.context() as patched:
        patched.setattr(_Pieces, "__getitem__", tracking_cut)
        # the one site a tick's fit is taken from
        patched.setattr(
            valuation_module,
            "partition_distribution",
            fits_checked_against_the_lists(value_module.partition_distribution, fits_taken),
        )
        for plan in plans:
            system.execute(plan)
            assert not system.pool.journal.journaling
            t = float(system.clock)
            for entry in system.pool.all_entries():
                assert system.valuation.entry_value(entry, t) == scalar_entry_value(
                    system.valuation, entry, t
                )
            assert not any(ref() is not None for ref in step_scoped)
    assert step_scoped and sum(r.evictions for r in system.reports) > 0
    assert sum(fits_taken) > len(plans) // 4  # the run did fit, tick after tick

    def always_fit(piece, *, defer_fn=None, dist_fn, **rest):
        return _piece_refinement_passes(piece, dist_fn=dist_fn, defer_fn=dist_fn, **rest)

    twin = make()
    with monkeypatch.context() as patched:
        patched.setattr(Valuation, "entry_value", scalar_entry_value)
        patched.setattr(Valuation, "fragment_value", scalar_fragment_value)
        patched.setattr(selection_module, "_piece_refinement_passes", always_fit)
        patched.setattr(Fragmentation, "replace", _rebuilding_replace)
        patched.setattr(
            AdmissionController,
            "plan_eviction",
            lambda self, needed, value: _double_evaluating_plan_eviction(
                self.pool, self.value_fn, self.hysteresis, needed, value
            ),
        )
        for plan in plans:
            twin.execute(plan)
    assert [report_fingerprint(r) for r in system.reports] == [
        report_fingerprint(r) for r in twin.reports
    ]


def test_fits_of_earlier_ticks_are_not_retained():
    """300 queries of the fig-5a stream at the 10 % pool: the valuation
    holds the current tick's fits only — at most one per tracked
    partition — however long the stream."""
    fx = sdss_fixture(20.0)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=300, seed=2)
    system = deepsea(
        fx.catalog, domains=fx.domains, smax_bytes=0.10 * fx.catalog.total_size_bytes
    )
    fitted = 0
    for plan in plans:
        system.execute(plan)
        valuation = system.valuation
        assert valuation._tick in (None, float(system.clock))
        partitions = {(v.view_id, a) for v in system.stats.all_views()
                      for a in system.stats.partition_attrs(v.view_id)}
        assert set(valuation._fits) <= partitions
        fitted += len(valuation._fits)
    assert fitted > len(plans) // 4  # the stream did fit, tick after tick
