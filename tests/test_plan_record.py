"""``Rewriter.plan``'s record against planning from scratch.

A planned query is answered from its record while nothing the record read
has moved, and a view registered since that it cannot use yet extends the
record (``repro/matching/rewriter.py``, ``_PlanRecord``).  The
oracle here is the four calls the record stands for — ``find_matches``,
``estimate_saving`` per match, ``build_rewritings``, ``best_rewriting`` —
made afresh, and compared with ``==``: view ids, subplans, compensations,
attribute ranges, rewriting plans, fragment ids, estimated costs, Q_best
and savings.

* A Hypothesis state machine drives one system through every kind of
  change the record must notice or survive, and after every step plans
  every query seen so far both ways.
* Twin runs, with the record and with planning from scratch, must give
  equal reports on repeat-heavy and unique-range streams, unbounded and at
  a 10 % pool; so must twin runs with and without the adaptation record
  DeepSea keeps beside it (``repro/core/adaptation.py``), on those streams
  and with fact batches or faults interleaved.
* Unit tests pin each validity token, the extension, and admission at a
  query's first sighting within a bounded record; and each token of the
  adaptation record.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.matching.rewriter as rewriter_module
import repro.query.signature as signature_module
from repro import Catalog, DeepSea, Interval, Policy, caches
from repro.baselines import deepsea
from repro.bench.harness import sdss_fixture
from repro.bench.ingest_bench import BatchSpec
from repro.core.adaptation import AdaptationRecord, CandidateRecord, RefinementRecord
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.faults.schedule import FaultSchedule
from repro.matching.rewriter import QueryPlan, Rewriter
from repro.parallel.determinism import report_fingerprint
from repro.partitioning.candidates import SplitCandidate, partition_candidates
from repro.partitioning.fragmentation import Fragmentation
from repro.query.algebra import Aggregate, AggSpec, Join, Project, Relation, Select
from repro.query.predicates import between
from repro.workloads.generator import sdss_mapped_workload
from tests.conftest import examples

DOMAIN = Interval.closed(0, 1000)


def planned_from_scratch(rewriter: Rewriter, query) -> QueryPlan:
    """The record's oracle: Algorithm 1's steps 1 and 3 in their old order."""
    matches = rewriter.find_matches(query)
    savings = []
    for match in matches:
        inputs = rewriter.view_inputs(match.view_id)
        savings.append(None if inputs is None else rewriter.estimate_saving(query, match, *inputs))
    rewritings = rewriter.build_rewritings(query, matches)
    chosen = rewriter.best_rewriting(query, rewritings)
    return QueryPlan(tuple(matches), tuple(rewritings), chosen, tuple(savings))


def record_stats() -> dict:
    return caches.cache_stats()["matching.plan_record"]


def small_catalog() -> Catalog:
    rng = np.random.default_rng(6)
    n = 1500
    fact = Schema.of(Column("f_id"), Column("f_k"), Column("f_v"))
    dim = Schema.of(Column("d_k"), Column("d_c"))
    catalog = Catalog()
    catalog.register(
        "fact",
        Table.from_dict(
            fact,
            {"f_id": np.arange(n), "f_k": rng.integers(0, 1001, n), "f_v": rng.integers(0, 9, n)},
            scale=2e6,
        ),
    )
    catalog.register(
        "dim",
        Table.from_dict(dim, {"d_k": np.arange(1001), "d_c": rng.integers(0, 4, 1001)}, scale=2e6),
    )
    return catalog


def _joined(lo, hi):
    return Select(Join(Relation("fact"), Relation("dim"), "f_k", "d_k"), (between("d_k", lo, hi),))


def total(lo, hi):
    return Aggregate(_joined(lo, hi), ("d_c",), (AggSpec("sum", "f_v", "total"),))


def counted(lo, hi):
    return Aggregate(_joined(lo, hi), ("d_c",), (AggSpec("count", "f_id", "n"),))


def rows(lo, hi):
    return Project(_joined(lo, hi), ("f_id", "d_k", "f_v"))


def valued(lo, hi):
    """A second range, on ``f_v``: the join view gains a tentative attribute."""
    joined = _joined(lo, hi)
    return Aggregate(
        Select(joined.child, joined.predicates + (between("f_v", 2, 6),)),
        ("d_c",),
        (AggSpec("sum", "f_v", "total"),),
    )


# Three filter-tree buckets, nested and overlapping ranges within each.
POOL = (
    total(100, 300),
    total(150, 250),
    counted(100, 300),
    rows(400, 700),
    total(0, 1000),
    rows(450, 500),
)
# Zipf-like popularity over POOL.
RANKS = [0] * 8 + [1] * 4 + [2] * 3 + [3] * 2 + [4, 5]
SHAPES = (total, counted, rows, valued)


class PlanRecordMachine(RuleBasedStateMachine):
    """One tight-pool system; after every step, every query seen so far is
    planned through its record and from scratch."""

    def __init__(self):
        super().__init__()
        catalog = small_catalog()
        self.system = DeepSea(
            catalog,
            domains={"d_k": DOMAIN, "f_k": DOMAIN},
            smax_bytes=0.05 * catalog.total_size_bytes,
            policy=Policy(evidence_factor=0.0),
        )
        self.seen: dict = {}
        self.next_id = 10_000

    def run(self, query):
        """Execute ``query``, checking the plan its step 3 used on the spot:
        by the next invariant a view that extended the record may have
        been materialized, and the record replanned."""
        rewriter, used = self.system.rewriter, []

        def checked(q):
            planned = Rewriter.plan(rewriter, q)
            used.append(planned == planned_from_scratch(rewriter, q))
            return planned

        rewriter.plan = checked
        try:
            self.system.execute(query)
        finally:
            del rewriter.plan
        assert used == [True]
        self.seen[query] = None

    @rule(rank=st.sampled_from(RANKS))
    def repeat(self, rank):
        self.run(POOL[rank])

    @rule(shape=st.sampled_from(SHAPES), lo=st.integers(0, 950), width=st.integers(5, 500))
    def reader_first(self, shape, lo, width):
        """A serving reader plans a fresh query before the writer runs it:
        the writer's own new candidates extend the reader's record."""
        query = shape(lo, min(lo + width, 1000))
        self.system.rewriter.plan(query)
        self.run(query)

    @rule(shape=st.sampled_from(SHAPES), lo=st.integers(0, 950), width=st.integers(5, 500))
    def fresh(self, shape, lo, width):
        """A new range: its candidates are appended to an existing bucket."""
        self.run(shape(lo, min(lo + width, 1000)))

    @rule(n=st.integers(1, 60), seed=st.integers(0, 9))
    def ingest(self, n, seed):
        rng = np.random.default_rng(seed)
        batch = {
            "f_id": np.arange(self.next_id, self.next_id + n),
            "f_k": rng.integers(0, 1001, n),
            "f_v": rng.integers(0, 9, n),
        }
        self.next_id += n
        self.system.ingest("fact", batch)

    @rule(data=st.data())
    def evict(self, data):
        entries = sorted(self.system.pool.all_entries(), key=lambda e: e.path)
        if entries:
            self.system.pool.evict(data.draw(st.sampled_from(entries)).fragment_id)

    @rule(rank=st.sampled_from(RANKS), seed=st.integers(0, 9))
    def crash(self, rank, seed):
        """A query whose every repartitioning step crashes once, rolls back
        and is retried by a fresh controller."""
        system = self.system
        system.attach_faults(FaultSchedule.of("crash", seed=seed, controller_crash=1.0))
        try:
            self.run(POOL[rank])
        finally:
            system.faults = None
            system.pool.hdfs.attach_faults(None)
            system.pool.recovery = None

    @rule(data=st.data())
    def aborted_step(self, data):
        """A step that dies before its retry: the rollback restores the pool
        and its cover versions, so records made before it stand again."""
        pool = self.system.pool
        entries = sorted(pool.all_entries(), key=lambda e: e.path)
        if not entries:
            return
        versions = pool.cover_versions_snapshot()
        pool.begin("aborted")
        pool.evict(data.draw(st.sampled_from(entries)).fragment_id)
        pool.rollback()
        assert pool.cover_versions_snapshot() == versions

    @rule(data=st.data(), scale=st.sampled_from([0.01, 0.5, 3.0]))
    def measured_not_admitted(self, data, scale):
        """A creation measures S(V) before it asks for space
        (``Repartitioner.materialize_view``); when the pool says no, the
        size moved and no cover version did."""
        views = sorted(self.system.stats.all_views(), key=lambda v: v.view_id)
        if views:
            vstats = data.draw(st.sampled_from(views))
            vstats.set_actual_size(max(vstats.size_bytes * scale, 1.0))

    @rule(domain=st.sampled_from([DOMAIN, Interval.closed(0, 1200), Interval.closed(-50, 1000)]))
    def declare(self, domain):
        self.system.domains.declare("d_k", domain)

    @rule(data=st.data())
    def remove_from_tree(self, data):
        tree = self.system.filter_tree
        view_ids = sorted(view_id for view_id, _ in tree.all_views())
        if view_ids:
            tree.remove(data.draw(st.sampled_from(view_ids)))

    @invariant()
    def every_record_equals_planning_from_scratch(self):
        rewriter = self.system.rewriter
        for query in self.seen:
            assert rewriter.plan(query) == planned_from_scratch(rewriter, query)


PlanRecordMachine.TestCase.settings = settings(
    max_examples=examples(dev=10, deep=50), stateful_step_count=25, deadline=None
)
test_plan_record_state_machine = PlanRecordMachine.TestCase


# ----------------------------------------------------------------------
# Twin runs: the record changes no report.
# ----------------------------------------------------------------------
def sdss_streams():
    fx = sdss_fixture(20.0)
    unique = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=160, seed=2)
    hot = unique[:20]
    popularity = 1.0 / np.arange(1, len(hot) + 1) ** 1.1
    draws = np.random.default_rng(2).choice(len(hot), 240, p=popularity / popularity.sum())
    return fx, {"repeat_hot": [hot[i] for i in draws], "sdss_long": unique}


def twin_run(fx, plans, smax=None, batches=None, faults=None) -> "tuple[list, int]":
    """Every report's fingerprint, and how many queries found an adaptation record."""
    caches.clear_all_caches()
    catalog = fx.catalog.fork() if batches else fx.catalog
    system = deepsea(catalog, domains=fx.domains, smax_bytes=smax)
    if faults is not None:
        system.attach_faults(faults)
    fingerprints, adapted = [], 0
    for i, plan in enumerate(plans):
        if batches and i in batches:
            system.ingest("store_sales", batches[i])
        kept = system.rewriter.recorded(plan)
        adapted += kept is not None and kept.adaptation is not None
        fingerprints.append(report_fingerprint(system.execute(plan)))
    return fingerprints, adapted


def no_record(self, query):
    """``Rewriter.recorded`` bypassed: DeepSea derives every step afresh."""
    return None


@pytest.mark.parametrize("stream", ["repeat_hot", "sdss_long"])
@pytest.mark.parametrize("pool_share", [None, 0.10])
def test_twin_runs_give_equal_reports(stream, pool_share, monkeypatch):
    fx, streams = sdss_streams()
    plans = streams[stream]
    smax = None if pool_share is None else pool_share * fx.catalog.total_size_bytes

    with_record, adapted = twin_run(fx, plans, smax)
    hits = record_stats()["hits"]
    if stream == "repeat_hot":
        assert hits > len(plans) // 2  # the record did answer
        assert adapted > len(plans) // 2  # and so did the adaptation record
        with monkeypatch.context() as patched:
            patched.setattr(Rewriter, "recorded", no_record)
            assert twin_run(fx, plans, smax) == (with_record, 0)
    monkeypatch.setattr(Rewriter, "plan", planned_from_scratch)
    assert twin_run(fx, plans, smax) == (with_record, 0)


@pytest.mark.parametrize("interleaved", ["ingest", "faults"])
def test_twin_runs_with_batches_or_faults_give_equal_reports(interleaved, monkeypatch):
    """Fact batches move the catalog version and patch resident fragments;
    a fault schedule crashes, rolls back and retries steps.  Neither may
    make the adaptation record answer differently."""
    fx, streams = sdss_streams()
    plans = streams["repeat_hot"][:120]
    run = {}
    if interleaved == "ingest":
        id0, lo, hi = fx.catalog.get("store_sales").nrows, 0, int(fx.item_domain.hi)
        run["batches"] = {
            at: BatchSpec(at, 60, lo, hi, k * 60, 2).rows(id0)
            for k, at in enumerate(range(5, len(plans), 12))
        }
    else:
        run["faults"] = "perfect-storm"
    with_record, adapted = twin_run(fx, plans, **run)
    assert adapted > len(plans) // 4
    monkeypatch.setattr(Rewriter, "recorded", no_record)
    assert twin_run(fx, plans, **run) == (with_record, 0)


def test_long_stream_keeps_both_memos_bounded_with_identical_ledgers(monkeypatch):
    """The estimate memo is an LRU that counts its evictions; the signatures
    live in the one bounded global memo, not a per-rewriter copy."""
    fx = sdss_fixture(20.0)
    plans = sdss_mapped_workload(fx.log, fx.item_domain, n_queries=200, seed=2)

    def run(check=None):
        caches.clear_all_caches()
        system = deepsea(fx.catalog, domains=fx.domains)
        fingerprints = []
        for plan in plans:
            fingerprints.append(report_fingerprint(system.execute(plan)))
            if check is not None:
                check(system)
        return fingerprints

    reference = run()
    bound = 64

    def bounded(system):
        assert len(system.rewriter._estimate_memo) <= bound
        assert len(signature_module._SIGNATURE_CACHE) <= bound

    monkeypatch.setattr(rewriter_module, "_ESTIMATE_MEMO_MAX", bound)
    monkeypatch.setattr(signature_module, "_SIGNATURE_CACHE_MAX", bound)
    assert run(bounded) == reference
    stats = caches.cache_stats()
    assert stats["matching.estimate_memo"]["evictions"] > 0
    assert stats["query.signature"]["evictions"] > 0


# ----------------------------------------------------------------------
# The validity tokens, one at a time.
# ----------------------------------------------------------------------
@pytest.fixture
def system():
    caches.clear_all_caches()
    return DeepSea(small_catalog(), domains={"d_k": DOMAIN}, policy=Policy(evidence_factor=0.0))


def recorded(system, query) -> QueryPlan:
    """Run ``query`` until its candidates exist and its record is made."""
    for _ in range(3):
        system.execute(query)
    planned = system.rewriter.plan(query)
    assert query in system.rewriter._records
    return planned


def test_admitted_on_the_first_sighting(system):
    rewriter, query = system.rewriter, total(100, 300)
    first = rewriter.plan(query)
    assert record_stats() == {"hits": 0, "misses": 1, "evictions": 0, "entries": 1}
    assert rewriter.plan(query) is first  # a lookup, the same object
    assert record_stats()["hits"] == 1


def test_a_unique_stream_stays_bounded(system, monkeypatch):
    bound = 8
    monkeypatch.setattr(rewriter_module, "_PLAN_RECORD_MAX", bound)
    for lo in range(0, 600, 20):
        system.execute(total(lo, lo + 50))
        assert len(system.rewriter._records) <= bound
    assert len(system.rewriter._records) == bound
    assert record_stats()["evictions"] == 30 - bound


def test_an_appended_view_that_matches_nothing_keeps_the_record(system):
    query = total(100, 300)
    planned = recorded(system, query)
    version = system.filter_tree.version
    system.execute(total(500, 600))  # appends to the query's bucket; contains nothing of it
    assert system.filter_tree.version > version
    hits = record_stats()["hits"]
    assert system.rewriter.plan(query) is planned
    assert record_stats()["hits"] == hits + 1
    assert planned == planned_from_scratch(system.rewriter, query)


def test_an_appended_non_resident_view_extends_the_record(system):
    system.execute(total(0, 1000))  # its join view matches a later subplan of the query
    query = rows(150, 250)
    planned = recorded(system, query)
    known = {m.view_id for m in planned.matches}
    # Step 4 as the writer runs it before planning: a wider range's candidate
    # is registered, matches the query's root, and is not resident yet.
    system._register_candidates(rows(100, 300), float(system.clock))
    rewriter, calls = system.rewriter, []
    find_matches = rewriter.find_matches
    rewriter.find_matches = lambda q: calls.append(q) or find_matches(q)
    hits = record_stats()["hits"]
    again = rewriter.plan(query)
    del rewriter.find_matches
    assert record_stats()["hits"] == hits + 1 and calls == []
    (added,) = [i for i, m in enumerate(again.matches) if m.view_id not in known]
    assert not system.pool.is_resident(again.matches[added].view_id)
    # In find_matches' order: after its subplan's earlier matches, before a
    # later subplan's.
    assert 0 < added < len(again.matches) - 1
    assert again.matches[added - 1].subplan == again.matches[added].subplan
    assert again.matches[added + 1].subplan != again.matches[added].subplan
    assert again.rewritings is planned.rewritings and again.chosen is planned.chosen
    assert again == planned_from_scratch(rewriter, query)


def test_an_appended_view_that_matches_replans(system):
    query = rows(150, 250)
    planned = recorded(system, query)
    known = {m.view_id for m in planned.matches}
    system.execute(rows(100, 300))  # a wider range: its candidate answers the query
    misses = record_stats()["misses"]
    again = system.rewriter.plan(query)
    assert record_stats()["misses"] == misses + 1
    appended = [m.view_id for m in again.matches if m.view_id not in known]
    assert appended and all(system.pool.is_resident(v) for v in appended)
    assert again == planned_from_scratch(system.rewriter, query)


def a_matched_entry(system, planned):
    matched = {m.view_id for m in planned.matches}
    return next(e for e in system.pool.all_entries() if e.key.view_id in matched)


def declare(system, planned):
    system.domains.declare("d_k", Interval.closed(0, 1200))


def remove_from_tree(system, planned):
    system.filter_tree.remove(next(v for v, _ in system.filter_tree.all_views()))


def ingest(system, planned):
    rows = {"f_id": np.array([99_999]), "f_k": np.array([5]), "f_v": np.array([1])}
    system.ingest("fact", rows)


def evict(system, planned):
    system.pool.evict(a_matched_entry(system, planned).fragment_id)


@pytest.mark.parametrize("move", [declare, remove_from_tree, ingest, evict])
def test_each_token_replans(system, move):
    query = total(100, 300)
    planned = recorded(system, query)
    misses = record_stats()["misses"]
    move(system, planned)
    assert system.rewriter.plan(query) == planned_from_scratch(system.rewriter, query)
    assert record_stats()["misses"] == misses + 1


def test_a_rolled_back_step_leaves_the_record_valid(system):
    query = total(100, 300)
    planned = recorded(system, query)
    pool = system.pool
    pool.begin("aborted")
    pool.evict(a_matched_entry(system, planned).fragment_id)
    pool.rollback()
    hits = record_stats()["hits"]
    assert system.rewriter.plan(query) is planned
    assert record_stats()["hits"] == hits + 1


def test_a_saving_follows_its_views_size_alone(system):
    query = total(100, 300)
    planned = recorded(system, query)
    system.stats.view(planned.matches[0].view_id).size_bytes = 1.0
    hits = record_stats()["hits"]
    again = system.rewriter.plan(query)
    assert record_stats()["hits"] == hits + 1  # the record stands ...
    assert again.savings != planned.savings  # ... with the moved saving recomputed
    assert again.rewritings is planned.rewritings
    assert again == planned_from_scratch(system.rewriter, query)


# ----------------------------------------------------------------------
# The adaptation record's tokens, one at a time: after each moves, what the
# record hands out is what a fresh derivation gives.
# ----------------------------------------------------------------------
def adapted(system, query):
    """Run ``query`` until an adaptation record is kept beside its plan record."""
    for _ in range(3):
        system.execute(query)
    adaptation = system.rewriter.recorded(query).adaptation
    assert adaptation is not None
    return adaptation


def test_a_cover_version_move_rederives_the_refinement_sites(system):
    query = total(100, 300)
    record = adapted(system, query).refinements
    matches, selection = record.matches, system.selection
    ((view_id, attr, _, _),) = record.sites  # one resident partition the query touches
    for entry in system.pool.fragments_of(view_id, attr):
        system.pool.evict(entry.fragment_id)
    # The same matches object: only the view's cover version says it is gone.
    sites = selection._refinement_sites(matches, record)
    assert sites == selection._refinement_sites(matches, RefinementRecord()) == []


def test_new_matches_rederive_the_refinement_sites(system):
    """The planning record's matches are a token of their own: the same
    views at the same cover versions may be matched with other ranges."""
    query = total(100, 300)
    record = adapted(system, query).refinements
    ((view_id, attr, _, _),) = record.sites
    matches = tuple(
        replace(m, attr_ranges={**m.attr_ranges, attr: Interval.closed(150, 250)})
        if m.view_id == view_id and attr in m.attr_ranges
        else m
        for m in record.matches
    )
    selection = system.selection
    sites = selection._refinement_sites(matches, record)
    assert sites == selection._refinement_sites(matches, RefinementRecord())
    assert [site[2] for site in sites] == [Interval.closed(150, 250)]


def test_a_declared_domain_rederives_every_part(system):
    query = total(100, 300)
    adaptation = adapted(system, query)
    planned = system.rewriter.plan(query)
    narrower = Interval.closed(0, 200)  # clamps the query's θ to [100, 200]
    system.domains.declare("d_k", narrower)
    # step 5
    selection, record = system.selection, adaptation.refinements
    sites = selection._refinement_sites(record.matches, record)
    assert sites == selection._refinement_sites(record.matches, RefinementRecord())
    assert {(site[2], site[3]) for site in sites} == {(Interval.closed(100, 200), narrower)}
    # step 2
    fresh, t = AdaptationRecord(), float(system.clock)
    system._update_match_statistics(planned, t, adaptation)
    system._update_match_statistics(planned, t, fresh)
    views = adaptation.statistics[2]
    assert views == fresh.statistics[2]
    assert ("d_k", Interval.closed(100, 200)) in sum((ranges for _, _, ranges in views), [])
    # step 4 runs before planning, with the record as it was kept
    system.execute(query)
    design_sites = [
        (site.attr, site.domain, site.theta)
        for _, _, designs in adaptation.candidates
        for site in designs.sites
    ]
    assert ("d_k", narrower, Interval.closed(100, 200)) in design_sites


def test_a_design_replaced_mid_query_is_read_again(system, monkeypatch):
    """A later site of the same partition sees what an earlier site's
    refinement made of the design."""
    query = total(100, 300)
    record = adapted(system, query).refinements
    ((view_id, attr, theta, domain),) = record.sites
    (match,) = [m for m in record.matches if m.view_id == view_id and attr in m.attr_ranges]
    earlier = replace(match, attr_ranges={**match.attr_ranges, attr: Interval.closed(500, 600)})
    matches = (earlier, match)
    selection, t = system.selection, float(system.clock)
    selection.plan_refinements(matches, t, record)  # both sites derived
    evaluated = []

    def evaluate(view_id, attr, candidate, theta, domain, t):
        if not evaluated:  # the earlier site's refinement replaces the design
            system.tentative.replace_design(view_id, attr, Fragmentation.single(attr, domain))
        evaluated.append((theta, candidate.split))

    monkeypatch.setattr(selection, "_evaluate_refinement", evaluate)
    selection.plan_refinements(matches, t, record)
    assert [split for th, split in evaluated if th == theta] == partition_candidates(
        theta, [domain], domain
    )


def test_a_design_replaced_between_recurrences_is_split_again():
    """Step 4: a candidate view's design replaced since the record derived
    its splits is split by the query's θ again."""
    caches.clear_all_caches()
    system = DeepSea(small_catalog(), domains={"d_k": DOMAIN}, policy=Policy(evidence_factor=1e9))
    query = total(100, 300)
    adaptation = adapted(system, query)
    (view_id,) = [
        v for v, _, designs in adaptation.candidates if any(s.theta for s in designs.sites)
    ]
    assert not system.pool.is_resident(view_id)
    system.tentative.replace_design(view_id, "d_k", Fragmentation.single("d_k", DOMAIN))
    system.execute(query)
    design = system.tentative.get(view_id, "d_k")
    assert partition_candidates(Interval.closed(100, 300), list(design.intervals), DOMAIN) == []


def test_a_piece_that_gets_its_first_hit_later_inherits_it(system):
    """ADDCANDIDATES keeps running while a piece holds no hit: here the
    candidate's parent has no statistics at first, and later holds hits
    its own parent passed down."""
    query = total(100, 300)
    record = adapted(system, query).refinements
    ((view_id, attr, theta, domain),) = record.sites
    stats, selection, t = system.stats, system.selection, float(system.clock)
    parent, piece = Interval.closed(110, 140), Interval.closed(120, 130)
    grandparent = next(
        f
        for f in stats.fragments_for(view_id, attr)
        if f.interval.contains(parent) and f.hit_count()
    )
    sides = Interval.closed_open(110, 120), Interval.open_closed(130, 140)
    split = SplitCandidate(parent, (sides[0], piece, sides[1]))
    candidate = CandidateRecord(split, [piece])
    assert stats.fragment(view_id, attr, parent) is None
    selection._evaluate_refinement(view_id, attr, candidate, theta, domain, t)
    assert not stats.fragment(view_id, attr, piece).hit_count()
    # the parent is tracked later, inheriting the hits that touch it
    stats.ensure_fragment(view_id, attr, parent).inherit_hits(grandparent, parent)
    selection._evaluate_refinement(view_id, attr, candidate, theta, domain, t)
    got = stats.fragment(view_id, attr, piece).times_array().tolist()
    assert got and got == stats.fragment(view_id, attr, parent).times_array().tolist()
