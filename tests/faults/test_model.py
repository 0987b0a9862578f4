"""Unit tests for the fault universe (FaultPlan / Fault / site keys)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.model import (
    Fault,
    FaultKind,
    FaultPlan,
    chain_switch_site,
    csd_segment_site,
    junction_site,
    noc_link_site,
    parse_csd_segment_site,
    worm_flit_site,
)


class TestFaultPlanBasics:
    def test_none_is_fault_free(self):
        plan = FaultPlan.none()
        assert plan.fault_free
        assert plan.draw(FaultKind.CSD_SEGMENT, "csd/ch0/seg0") is None

    def test_uniform_sets_every_kind(self):
        plan = FaultPlan.uniform(1, 0.3)
        for kind in FaultKind:
            assert plan.rate_for(kind) == 0.3
        assert not plan.fault_free

    def test_per_kind_rates_override_default(self):
        plan = FaultPlan(seed=1, rates={FaultKind.NOC_LINK: 0.5})
        assert plan.rate_for(FaultKind.NOC_LINK) == 0.5
        assert plan.rate_for(FaultKind.SWITCH) == 0.0

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(ValueError):
            FaultPlan(default_rate=rate)
        with pytest.raises(ValueError):
            FaultPlan(rates={FaultKind.SWITCH: rate})

    def test_bad_transient_knobs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(transient_hits=0)

    def test_permanent_is_not_transient(self):
        fault = Fault(FaultKind.SWITCH, "junction/0", transient=False)
        assert fault.permanent
        assert not Fault(FaultKind.SWITCH, "junction/0", True).permanent


class TestDrawDeterminism:
    @given(seed=st.integers(0, 10_000), channel=st.integers(0, 63),
           segment=st.integers(0, 63))
    def test_draw_is_pure_in_seed_and_site(self, seed, channel, segment):
        site = csd_segment_site("csd", channel, segment)
        a = FaultPlan.uniform(seed, 0.4).draw(FaultKind.CSD_SEGMENT, site)
        b = FaultPlan.uniform(seed, 0.4).draw(FaultKind.CSD_SEGMENT, site)
        assert a == b

    def test_draw_independent_of_query_order(self):
        sites = [csd_segment_site("csd", c, s) for c in range(8) for s in range(8)]
        plan = FaultPlan.uniform(7, 0.3)
        forward = [plan.draw(FaultKind.CSD_SEGMENT, s) for s in sites]
        fresh = FaultPlan.uniform(7, 0.3)
        backward = [fresh.draw(FaultKind.CSD_SEGMENT, s) for s in reversed(sites)]
        assert forward == list(reversed(backward))

    def test_rate_roughly_respected(self):
        plan = FaultPlan.uniform(3, 0.5)
        sites = [noc_link_site((0, i), (1, i)) for i in range(400)]
        hits = sum(
            plan.draw(FaultKind.NOC_LINK, s) is not None for s in sites
        )
        assert 120 < hits < 280  # ~200 expected

    def test_transient_duration_bounded(self):
        plan = FaultPlan.uniform(5, 1.0, transient_hits=3)
        for i in range(50):
            fault = plan.draw(FaultKind.SWITCH, junction_site(i))
            assert fault is not None
            if fault.transient:
                assert 1 <= fault.duration <= 3

    def test_all_permanent_when_fraction_zero(self):
        plan = FaultPlan.uniform(5, 1.0, transient_fraction=0.0)
        for i in range(20):
            assert plan.draw(FaultKind.SWITCH, junction_site(i)).permanent


class TestRoundTrip:
    def test_as_dict_from_dict(self):
        plan = FaultPlan(
            seed=9, rates={FaultKind.WORM_FLIT: 0.2}, default_rate=0.05,
            transient_fraction=0.5, transient_hits=2,
        )
        clone = FaultPlan.from_dict(plan.as_dict())
        site = worm_flit_site(("chain", (0, 0), (0, 1)))
        assert clone.as_dict() == plan.as_dict()
        assert clone.draw(FaultKind.WORM_FLIT, site) == plan.draw(
            FaultKind.WORM_FLIT, site
        )


class TestReadOnlyPlan:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1),
            ("default_rate", 0.5),
            ("rates", {}),
            ("transient_fraction", 0.1),
            ("transient_hits", 5),
            ("fault_free", True),
        ],
    )
    def test_assignment_after_construction_raises(self, field, value):
        plan = FaultPlan(seed=9, default_rate=0.2)
        before = plan.as_dict()
        with pytest.raises(AttributeError):
            setattr(plan, field, value)
        with pytest.raises(AttributeError):
            delattr(plan, field)
        assert plan.as_dict() == before

    def test_rates_mapping_is_read_only(self):
        plan = FaultPlan(seed=9, rates={FaultKind.SWITCH: 0.2})
        with pytest.raises(TypeError):
            plan.rates[FaultKind.SWITCH] = 0.9  # type: ignore[index]
        with pytest.raises(TypeError):
            plan.rates[FaultKind.NOC_LINK] = 0.9  # type: ignore[index]
        assert plan.rate_for(FaultKind.SWITCH) == 0.2
        assert plan.rate_for(FaultKind.NOC_LINK) == 0.0

    def test_caller_dict_does_not_alias_rates(self):
        rates = {FaultKind.SWITCH: 0.2}
        plan = FaultPlan(seed=9, rates=rates)
        rates[FaultKind.SWITCH] = 1.0
        assert plan.rate_for(FaultKind.SWITCH) == 0.2

    def test_fault_free_fixed_at_construction(self):
        assert FaultPlan(rates={FaultKind.SWITCH: 0.0}).fault_free
        assert not FaultPlan(rates={FaultKind.SWITCH: 0.1}).fault_free

    def test_round_trip_and_pickle_keep_settings(self):
        plan = FaultPlan(
            seed=4, rates={FaultKind.CSD_SEGMENT: 0.3}, default_rate=0.1,
            transient_fraction=0.25, transient_hits=4,
        )
        site = csd_segment_site("csd", 1, 2)
        plan.draw(FaultKind.CSD_SEGMENT, site)  # memo is never carried over
        for clone in (FaultPlan.from_dict(plan.as_dict()),
                      pickle.loads(pickle.dumps(plan))):
            assert clone.as_dict() == plan.as_dict()
            assert clone.draw(FaultKind.CSD_SEGMENT, site) == plan.draw(
                FaultKind.CSD_SEGMENT, site
            )
            with pytest.raises(AttributeError):
                clone.seed = 5


class TestSiteKeys:
    def test_chain_switch_site_is_undirected(self):
        assert chain_switch_site((1, 2), (1, 3)) == chain_switch_site((1, 3), (1, 2))

    def test_noc_link_site_is_directed(self):
        assert noc_link_site((0, 0), (0, 1)) != noc_link_site((0, 1), (0, 0))

    @pytest.mark.parametrize(
        "domain", ["csd", "seg0", "a/ch1/seg2", "x/chan", ""]
    )
    def test_csd_segment_site_parses_back(self, domain):
        site = csd_segment_site(domain, 12, 3)
        assert parse_csd_segment_site(site) == (domain, 12, 3)

    @pytest.mark.parametrize(
        "site",
        ["junction/1", "chainsw/0,0-0,1", "csd/ch1", "csd/chx/seg1",
         "csd/ch01/seg1", "csd/ch1/seg 1", "csd/ch1/seg+1"],
    )
    def test_other_sites_do_not_parse(self, site):
        assert parse_csd_segment_site(site) is None

    def test_sites_are_distinct_across_kinds(self):
        keys = {
            csd_segment_site("csd", 0, 0),
            junction_site(0),
            chain_switch_site((0, 0), (0, 1)),
            noc_link_site((0, 0), (0, 1)),
            worm_flit_site(("chain", (0, 0), (0, 1))),
        }
        assert len(keys) == 5
