"""The live fault injector: plan + trigger state + telemetry.

A :class:`FaultInjector` answers the hooks' one question — *is this
resource misbehaving right now?* — by consulting its
:class:`~repro.faults.model.FaultPlan` (pure, order-independent) and its
own trigger ledger (transient faults heal after their drawn duration of
triggers).  Every trigger is counted into :mod:`repro.telemetry` and, in
scope of an open span, recorded as a span event, so fault activity shows
up in ``--stats`` and ``--trace`` output next to the protocol steps it
corrupted.

One injector is wired into every hook of one simulated chip (the CSD
networks, the router network, the wormhole configurator), so a single
fault ledger spans all layers — exactly how one physical defect would.

The CSD channel filter is the hot hook: every chaining request asks it
about every segment of every candidate channel.  The injector therefore
keeps, per ``(domain, channel)``, a lazily grown index of the channel's
faulty segments (drawn faulty or quarantined), and a query only visits
those — in ascending segment order, so triggers, healing and telemetry
happen exactly as a walk over every segment of the span would make them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple

from repro import telemetry
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

__all__ = ["FaultInjector"]

Coord = Tuple[int, int]


class _SegmentIndex:
    """The faulty segments of one CSD channel among ``[0, known)``."""

    __slots__ = ("known", "faulty", "sites")

    def __init__(self) -> None:
        self.known = 0
        #: ascending segment numbers that drew a fault or are quarantined
        self.faulty: List[int] = []
        #: ``faulty[i]``'s site key
        self.sites: List[str] = []


class FaultInjector:
    """Evaluates fault-site queries against a plan, with healing.

    The injector is deliberately cheap when fault-free: every query
    starts with one ``fault_free`` check and returns immediately, so a
    rate-0 plan (or simply not attaching an injector) leaves the
    simulators byte-identical to an uninstrumented run.

    Draws come from the plan's memo, so each site is derived once.  The
    CSD channel filter additionally reads a per-``(domain, channel)``
    index of faulty segments, extended lazily up to the highest segment
    asked about; :meth:`quarantine` of a CSD segment site folds the site
    into the same index, so there is one code path for both sources of
    faultiness.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: site -> triggers so far (only sites that drew a fault appear)
        self._triggers: Dict[str, int] = {}
        #: sites whose transient fault already healed
        self._healed: set = set()
        #: sites quarantined by the degradation layer (always faulty)
        self._quarantined: set = set()
        #: (domain, channel) -> that channel's faulty-segment index
        self._csd_index: Dict[Tuple[str, int], _SegmentIndex] = {}

    # -- core trigger logic ------------------------------------------------

    def _active(self, kind: FaultKind, site: str) -> bool:
        """Whether ``site`` misbehaves on *this* exercise (and count it)."""
        if site in self._quarantined:
            return True
        if self.plan.fault_free:
            return False
        if site in self._healed:
            return False
        fault = self.plan.draw(kind, site)
        if fault is None:
            return False
        count = self._triggers.get(site, 0) + 1
        self._triggers[site] = count
        if fault.transient and count > fault.duration:
            self._healed.add(site)
            telemetry.counter("faults.healed").inc()
            telemetry.instant("fault.healed", kind=kind.value, site=site)
            return False
        self._record(fault)
        return True

    def _record(self, fault: Fault) -> None:
        telemetry.counter("faults.triggered").inc()
        telemetry.counter(f"faults.{fault.kind.value}.triggered").inc()
        telemetry.counter(
            "faults.transient.triggered"
            if fault.transient
            else "faults.permanent.triggered"
        ).inc()
        telemetry.instant(
            "fault.triggered",
            kind=fault.kind.value,
            site=fault.site,
            transient=fault.transient,
        )

    def peek(self, kind: FaultKind, site: str) -> bool:
        """Like the trigger queries but without consuming a transient
        hit — for assertions and degradation decisions."""
        if site in self._quarantined:
            return True
        if self.plan.fault_free or site in self._healed:
            return False
        fault = self.plan.draw(kind, site)
        if fault is None:
            return False
        if fault.transient and self._triggers.get(site, 0) >= fault.duration:
            return False
        return True

    def is_permanent(self, kind: FaultKind, site: str) -> bool:
        """Whether ``site`` carries a permanent fault (never heals)."""
        if site in self._quarantined:
            return True
        if self.plan.fault_free:
            return False
        fault = self.plan.draw(kind, site)
        return fault is not None and fault.permanent

    def quarantine(self, site: str) -> None:
        """Degradation hook: force ``site`` faulty from now on (the
        extended defect injector routes around it)."""
        self._quarantined.add(site)
        telemetry.counter("faults.quarantined").inc()
        # a CSD segment site joins its channel's index if the index
        # already covers it; a later extension picks it up otherwise
        parsed = parse_csd_segment_site(site)
        if parsed is None:
            return
        domain, channel, segment = parsed
        index = self._csd_index.get((domain, channel))
        if index is None or segment >= index.known:
            return
        position = bisect_left(index.faulty, segment)
        if position == len(index.faulty) or index.faulty[position] != segment:
            index.faulty.insert(position, segment)
            index.sites.insert(position, site)

    # -- per-layer queries (the hook API) ----------------------------------

    def _segment_index(self, domain: str, channel: int, hi: int) -> _SegmentIndex:
        """``(domain, channel)``'s index, extended to cover ``[0, hi)``."""
        index = self._csd_index.get((domain, channel))
        if index is None:
            index = self._csd_index[(domain, channel)] = _SegmentIndex()
        if hi > index.known:
            kind = FaultKind.CSD_SEGMENT
            for segment in range(index.known, hi):
                site = csd_segment_site(domain, channel, segment)
                if (
                    site in self._quarantined
                    or self.plan.draw(kind, site) is not None
                ):
                    index.faulty.append(segment)
                    index.sites.append(site)
            index.known = hi
        return index

    def csd_channel_blocked(
        self, channel: int, lo: int, hi: int, domain: str = "csd"
    ) -> bool:
        """Whether any segment of ``channel`` in ``[lo, hi)`` faults when
        the request broadcast crosses it.  Every faulty segment in the
        span is triggered (the request exercised them all), in ascending
        segment order; healthy segments have nothing to trigger and are
        never visited."""
        index = self._segment_index(domain, channel, hi)
        faulty = index.faulty
        blocked = False
        for i in range(bisect_left(faulty, lo), bisect_left(faulty, hi)):
            if self._active(FaultKind.CSD_SEGMENT, index.sites[i]):
                blocked = True
        return blocked

    def filter_csd_channels(
        self, channels: Iterable[int], lo: int, hi: int, domain: str = "csd"
    ) -> List[int]:
        """The surviving-channel filter for the Figure 2 broadcast: drop
        every candidate channel with an active segment fault on the span."""
        return [
            ch
            for ch in channels
            if not self.csd_channel_blocked(ch, lo, hi, domain=domain)
        ]

    def junction_fault(self, index: int) -> bool:
        """Whether ChainedCSD junction ``index`` misbehaves on crossing."""
        return self._active(FaultKind.SWITCH, junction_site(index))

    def chain_switch_fault(self, a: Coord, b: Coord) -> bool:
        """Whether programming the S-topology chain switch ``a``–``b``
        fails (the worm's instruction is ignored)."""
        return self._active(FaultKind.SWITCH, chain_switch_site(a, b))

    def link_fault(self, src: Coord, dst: Coord) -> bool:
        """Whether the router link ``src``→``dst`` drops this cycle's
        flit (the flit stalls and retries next cycle)."""
        return self._active(FaultKind.NOC_LINK, noc_link_site(src, dst))

    def flit_fault(self, payload: object) -> bool:
        """Whether this payload flit is corrupted on ejection (its
        programming instruction is lost)."""
        if payload is None:
            return False
        return self._active(FaultKind.WORM_FLIT, worm_flit_site(payload))

    def pristine(self) -> bool:
        """Whether this injector can never fire: a fault-free plan and no
        quarantined sites.  (Quarantine overrides the plan — ``_active``
        consults it first — so ``plan.fault_free`` alone is not enough.)
        Fast paths that skip fault hooks entirely must gate on this."""
        return self.plan.fault_free and not self._quarantined

    def quarantined_sites(self) -> Tuple[str, ...]:
        """Sites forced faulty by the degradation layer, sorted."""
        return tuple(sorted(self._quarantined))

    # -- statistics --------------------------------------------------------

    @property
    def triggered_sites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._triggers))

    @property
    def healed_sites(self) -> Tuple[str, ...]:
        return tuple(sorted(self._healed))

    def total_triggers(self) -> int:
        return sum(self._triggers.values())
