"""Every O(1)/O(scope) index is checked against the full scan it replaced.

The scans below are the pre-index implementations (whole-die sweeps);
they live only here, as oracles.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro import telemetry
from repro.core.allocation import ClusterAllocator
from repro.errors import ReproError, TopologyError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.model import (
    Fault,
    FaultKind,
    csd_segment_site,
    junction_site,
)
from repro.noc.flit import make_packet
from repro.noc.network import RouterNetwork
from repro.service.fabric import ResidentFabric
from repro.topology.folding import serpentine_order, serpentine_unfold
from repro.topology.s_topology import STopology

GRID = 4

coords = st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1))


# -- NoC: the in-flight flit counter ------------------------------------------


def scanned_in_flight(net):
    return sum(r.occupancy() for r in net.routers.values()) + sum(
        len(b) for b in net._inject_backlog.values()
    )


def scanned_drained(net):
    return all(not b for b in net._inject_backlog.values()) and all(
        r.is_idle for r in net.routers.values()
    )


noc_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("inject"), coords, coords, st.integers(1, 5),
            st.integers(0, 1),
        ),
        st.tuples(st.just("express"), coords, coords, st.integers(1, 5)),
        st.tuples(st.just("step"), st.integers(1, 6)),
        st.tuples(st.just("purge")),
    ),
    min_size=1,
    max_size=30,
)


class TestInFlightCounter:
    @settings(max_examples=80, deadline=None)
    @given(
        actions=noc_actions,
        fault_rate=st.one_of(st.none(), st.sampled_from([0.0, 0.05, 0.3])),
        seed=st.integers(0, 1000),
        capacity=st.integers(1, 4),
    )
    def test_counter_matches_queue_and_backlog_scan(
        self, actions, fault_rate, seed, capacity
    ):
        faults = None
        if fault_rate is not None:
            faults = FaultInjector(FaultPlan(seed=seed, default_rate=fault_rate))
        net = RouterNetwork(
            GRID, GRID, queue_capacity=capacity, n_vcs=2, faults=faults
        )
        for pid, action in enumerate(actions):
            kind = action[0]
            if kind == "inject":
                _, src, dst, n, vc = action
                net.inject(make_packet(src, dst, n_flits=n, vc=vc,
                                       packet_id=pid))
            elif kind == "express":
                _, src, dst, n = action
                packet = make_packet(src, dst, n_flits=n, packet_id=pid)
                if net.express_eligible(packet):
                    before = net.in_flight()
                    net.deliver_express(packet)
                    assert net.in_flight() == before == 0
            elif kind == "step":
                for _ in range(action[1]):
                    net.step()
            else:
                net.purge()
            assert net.in_flight() == scanned_in_flight(net)
            assert net.is_drained() == scanned_drained(net)

    def test_counter_survives_run_until_drained(self):
        net = RouterNetwork(GRID, GRID, queue_capacity=1)
        for i in range(6):
            net.inject(make_packet((0, i % GRID), (GRID - 1, 0), n_flits=3,
                                   packet_id=i))
        assert net.in_flight() == scanned_in_flight(net) == 18
        net.run_until_drained()
        assert net.in_flight() == 0 and scanned_drained(net)


# -- topology: the cached fold -------------------------------------------------


class TestFoldIndex:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12))
    def test_fold_index_matches_unfold(self, rows, cols):
        fabric = STopology(rows, cols)
        order = fabric.linear_order()
        assert list(order) == serpentine_order(rows, cols)
        for r in range(rows):
            for c in range(cols):
                index = fabric.fold_index((r, c))
                assert index == serpentine_unfold((r, c), cols)
                assert order[index] == (r, c)

    def test_outside_coord_raises(self):
        fabric = STopology(3, 4)
        for coord in [(3, 0), (0, 4), (-1, 0)]:
            with pytest.raises(TopologyError):
                fabric.fold_index(coord)

    def test_linear_order_is_cached_and_immutable(self):
        fabric = STopology(4, 4)
        assert fabric.linear_order() is fabric.linear_order()
        assert isinstance(fabric.linear_order(), tuple)


# -- allocator: scope walks ----------------------------------------------------


def scanned_serpentine(fabric, n, within):
    """The whole-fold first-fit scan ``find_serpentine`` used to run."""
    scope = set(within)
    run = []
    for coord in serpentine_order(fabric.rows, fabric.cols):
        if coord in scope and fabric.cluster(coord).is_free:
            run.append(coord)
            if len(run) == n:
                return run
        else:
            run = []
    return None


def scanned_largest_run(fabric, within):
    scope = set(within)
    best = run = 0
    for coord in serpentine_order(fabric.rows, fabric.cols):
        if coord in scope and fabric.cluster(coord).is_free:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


@st.composite
def scoped_fabrics(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    fabric = STopology(rows, cols)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    for coord in cells:
        state = draw(st.sampled_from(["free", "free", "owned", "defect"]))
        if state == "owned":
            fabric.cluster(coord).allocate("other")
        elif state == "defect":
            fabric.cluster(coord).mark_defective()
    within = draw(st.sets(st.sampled_from(cells)))
    # coordinates off the die are ignored, as the whole-fold scan did
    within |= draw(st.sets(st.sampled_from([(rows, 0), (0, cols), (-1, -1)])))
    return fabric, within


class TestScopedAllocator:
    @settings(max_examples=120, deadline=None)
    @given(case=scoped_fabrics(), n=st.integers(1, 6))
    def test_find_serpentine_matches_whole_fold_scan(self, case, n):
        fabric, within = case
        alloc = ClusterAllocator(fabric)
        # a plain set is walked afresh; a frozenset's walk is cached
        for scope in (within, list(within), frozenset(within)):
            region = alloc.find_serpentine(n, within=scope)
            expected = scanned_serpentine(fabric, n, within)
            assert (None if region is None else list(region.path)) == expected
            assert alloc.largest_free_run(scope) == scanned_largest_run(
                fabric, within
            )
            assert alloc.free_count(scope) == sum(
                1 for coord in within
                if coord in fabric and fabric.cluster(coord).is_free
            )

    @settings(max_examples=60, deadline=None)
    @given(
        case=scoped_fabrics(),
        n=st.integers(1, 4),
        flips=st.lists(st.integers(0, 48), max_size=12),
    )
    def test_cached_scope_walk_sees_live_occupancy(self, case, n, flips):
        fabric, within = case
        scope = frozenset(within)
        alloc = ClusterAllocator(fabric)
        cells = sorted(c for c in within if c in fabric)
        for flip in flips:
            region = alloc.find_serpentine(n, within=scope)
            expected = scanned_serpentine(fabric, n, within)
            assert (None if region is None else list(region.path)) == expected
            if not cells:
                break
            cluster = fabric.cluster(cells[flip % len(cells)])
            if cluster.is_free:
                cluster.allocate("flip")
            elif cluster.owner is not None:
                cluster.free()

    @settings(max_examples=40, deadline=None)
    @given(case=scoped_fabrics(), n=st.integers(1, 6))
    def test_unscoped_walk_matches_whole_die(self, case, n):
        fabric, _ = case
        everything = [(r, c) for r in range(fabric.rows)
                      for c in range(fabric.cols)]
        alloc = ClusterAllocator(fabric)
        region = alloc.find_serpentine(n)
        expected = scanned_serpentine(fabric, n, everything)
        assert (None if region is None else list(region.path)) == expected
        assert alloc.largest_free_run() == scanned_largest_run(
            fabric, everything
        )


# -- service: the per-tenant processor index -----------------------------------


TENANTS = ["a", "ab", "b"]
PROCS = ["p", "q"]

fabric_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.sampled_from(TENANTS),
                  st.integers(1, 6)),
        st.tuples(st.just("create"), st.sampled_from(TENANTS),
                  st.sampled_from(PROCS), st.integers(1, 3)),
        st.tuples(st.just("scale_up"), st.sampled_from(TENANTS),
                  st.sampled_from(PROCS), st.integers(1, 2)),
        st.tuples(st.just("scale_down"), st.sampled_from(TENANTS),
                  st.sampled_from(PROCS), st.integers(1, 2)),
        st.tuples(st.just("destroy"), st.sampled_from(TENANTS),
                  st.sampled_from(PROCS)),
        st.tuples(st.just("evict"), st.sampled_from(TENANTS)),
    ),
    min_size=1,
    max_size=60,
)


def scanned_tenant_processors(fabric, name):
    """The prefix scan over every processor on the die."""
    return {p for p in fabric.vlsi.processors if p.startswith(f"{name}/")}


class TestTenantProcessorIndex:
    @settings(max_examples=80, deadline=None)
    @given(ops=fabric_ops, planner=st.sampled_from([None, "minimal"]))
    def test_index_matches_prefix_scan(self, ops, planner):
        fabric = ResidentFabric(4, 4, with_network=False, planner=planner)
        # every tenant starts resident, so most drawn ops reach the fabric
        ops = [("admit", name, 5) for name in TENANTS] + ops
        for op, name, *args in ops:
            try:
                getattr(fabric, op)(name, *args)
            except ReproError:
                pass
            for tenant in TENANTS:
                scanned = scanned_tenant_processors(fabric, tenant)
                assert fabric._tenant_processors(tenant) == scanned
                if tenant in fabric.tenants:
                    assert fabric.owned_clusters(tenant) == sum(
                        len(fabric.vlsi.processor(p).region) for p in scanned
                    )
                else:
                    assert not scanned

    def test_destroy_and_evict_drop_index_entries(self):
        fabric = ResidentFabric(4, 4, with_network=False)
        fabric.admit("a", 8)
        fabric.admit("ab", 8)
        fabric.create("a", "p", 2)
        fabric.create("a", "q", 2)
        fabric.create("ab", "p", 3)
        assert fabric._tenant_processors("a") == {"a/p", "a/q"}
        fabric.destroy("a", "p")
        assert fabric._tenant_processors("a") == {"a/q"}
        assert fabric.owned_clusters("a") == 2
        fabric.evict("a")
        assert fabric._tenant_processors("a") == set()
        assert fabric._tenant_processors("ab") == {"ab/p"}
        assert set(fabric.vlsi.processors) == {"ab/p"}


# -- faults: the per-plan draw memo --------------------------------------------


def fresh_draw(plan, kind, site):
    """The uncached derivation ``FaultPlan.draw`` made on every call."""
    rate = plan.rate_for(kind)
    if rate == 0.0:
        return None
    rng = np.random.default_rng(
        (plan.seed, zlib.crc32(f"{kind.value}:{site}".encode("utf-8")))
    )
    if rng.random() >= rate:
        return None
    transient = bool(rng.random() < plan.transient_fraction)
    duration = int(rng.integers(1, plan.transient_hits + 1)) if transient else 1
    return Fault(kind, site, transient, duration)


fault_rates = st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])


@st.composite
def fault_plans(draw):
    rates = draw(st.dictionaries(st.sampled_from(list(FaultKind)), fault_rates))
    return FaultPlan(
        seed=draw(st.integers(0, 2**31)),
        rates=rates,
        default_rate=draw(fault_rates),
        transient_fraction=draw(st.sampled_from([0.0, 0.5, 0.75, 1.0])),
        transient_hits=draw(st.integers(1, 4)),
    )


# a few site strings, each asked about under every kind
SITES = [csd_segment_site("csd", 0, 0), csd_segment_site("seg1", 2, 5),
         junction_site(1), "link/0,0->0,1", "shared"]


class TestDrawMemo:
    @settings(max_examples=80, deadline=None)
    @given(
        plan=fault_plans(),
        queries=st.lists(
            st.tuples(st.sampled_from(list(FaultKind)),
                      st.sampled_from(SITES)),
            min_size=1, max_size=40,
        ),
    )
    def test_memoized_draw_matches_fresh_derivation(self, plan, queries):
        for kind, site in queries:
            assert plan.draw(kind, site) == fresh_draw(plan, kind, site)


# -- faults: the faulty-segment index of the CSD channel filter ----------------


class UncachedPlan:
    """A plan whose every draw is derived afresh (no memo)."""

    def __init__(self, plan):
        self._plan = plan
        self.fault_free = plan.fault_free

    def rate_for(self, kind):
        return self._plan.rate_for(kind)

    def draw(self, kind, site):
        return fresh_draw(self._plan, kind, site)


class WalkInjector(FaultInjector):
    """The full-segment walk ``csd_channel_blocked`` used to run."""

    def csd_channel_blocked(self, channel, lo, hi, domain="csd"):
        blocked = False
        for segment in range(lo, hi):
            if self._active(
                FaultKind.CSD_SEGMENT, csd_segment_site(domain, channel, segment)
            ):
                blocked = True
        return blocked


DOMAINS = ["csd", "seg1"]
N_CHANNELS = 4
N_SEGMENTS = 16

csd_spans = st.integers(0, N_SEGMENTS - 1).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, N_SEGMENTS))
)

csd_queries = st.lists(
    st.one_of(
        st.tuples(st.just("filter"), st.sampled_from(DOMAINS),
                  st.lists(st.integers(0, N_CHANNELS - 1), max_size=N_CHANNELS),
                  csd_spans),
        st.tuples(st.just("blocked"), st.sampled_from(DOMAINS),
                  st.integers(0, N_CHANNELS - 1), csd_spans),
        st.tuples(st.just("quarantine"), st.sampled_from(DOMAINS),
                  st.integers(0, N_CHANNELS - 1),
                  st.integers(0, N_SEGMENTS - 1)),
        st.tuples(st.just("quarantine_other"), st.integers(0, 3)),
    ),
    min_size=8,
    max_size=60,
)


def run_csd_queries(injector, queries):
    """Drive ``injector`` through ``queries``; return every answer plus
    the ledger, the ``faults.*`` counters and the fault instants."""
    telemetry.reset()
    telemetry.enable_tracing(True)
    try:
        answers = []
        for query in queries:
            op = query[0]
            if op == "filter":
                _, domain, channels, (lo, hi) = query
                answers.append(
                    injector.filter_csd_channels(channels, lo, hi, domain=domain)
                )
            elif op == "blocked":
                _, domain, channel, (lo, hi) = query
                answers.append(
                    injector.csd_channel_blocked(channel, lo, hi, domain=domain)
                )
            elif op == "quarantine":
                _, domain, channel, segment = query
                injector.quarantine(csd_segment_site(domain, channel, segment))
            else:
                injector.quarantine(junction_site(query[1]))
        counters = {
            name: value
            for name, value in telemetry.snapshot()["counters"].items()
            if name.startswith("faults.")
        }
        instants = [(s.name, s.attrs) for s in telemetry.tracer().spans]
    finally:
        telemetry.reset()
    return (
        answers,
        injector.triggered_sites,
        injector.healed_sites,
        injector.total_triggers(),
        counters,
        instants,
    )


def assert_index_matches_walk(plan, queries):
    reference = run_csd_queries(WalkInjector(UncachedPlan(plan)), queries)
    indexed = run_csd_queries(FaultInjector(plan), queries)
    assert indexed == reference


class TestFaultySegmentIndex:
    @settings(max_examples=150, deadline=None)
    @given(plan=fault_plans(), queries=csd_queries)
    def test_index_matches_full_walk(self, plan, queries):
        assert_index_matches_walk(plan, queries)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), queries=csd_queries)
    def test_csd_rate_zero_with_quarantine(self, seed, queries):
        plan = FaultPlan(seed=seed, default_rate=0.3,
                         rates={FaultKind.CSD_SEGMENT: 0.0})
        queries = [("quarantine", "csd", 1, 3)] + queries
        assert_index_matches_walk(plan, queries)

    def test_transient_faults_heal_in_walk_order(self):
        plan = FaultPlan.uniform(11, 0.6, transient_fraction=1.0,
                                 transient_hits=2)
        queries = [("blocked", "csd", 0, (0, 4)), ("blocked", "csd", 0, (0, 12))]
        queries += [("filter", "csd", [0, 1, 2], (2, 18))] * 4
        queries += [("quarantine", "csd", 1, 5), ("quarantine", "csd", 0, 19)]
        queries += [("filter", "csd", [0, 1, 2], (0, N_SEGMENTS))] * 2
        reference = run_csd_queries(WalkInjector(UncachedPlan(plan)), queries)
        assert reference[2], "the sequence must heal some transient fault"
        assert run_csd_queries(FaultInjector(plan), queries) == reference

    def test_quarantine_inside_and_beyond_the_indexed_range(self):
        plan = FaultPlan.none()
        injector = FaultInjector(plan)
        assert not injector.csd_channel_blocked(0, 0, 4)
        injector.quarantine(csd_segment_site("csd", 0, 2))   # indexed
        injector.quarantine(csd_segment_site("csd", 0, 9))   # not yet
        injector.quarantine(csd_segment_site("csd", 1, 2))   # other channel
        assert injector.csd_channel_blocked(0, 2, 3)
        assert not injector.csd_channel_blocked(0, 3, 9)
        assert injector.csd_channel_blocked(0, 9, 10)
        assert injector.filter_csd_channels([0, 1, 2], 0, 3) == [2]
        assert injector.filter_csd_channels([0, 1], 0, 3, domain="seg0") == [0, 1]
