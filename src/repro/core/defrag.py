"""Fabric defragmentation (paper section 5).

"[With a mesh,] a host system has to manage the placement, routing,
replacement, and defragmentation.  ...  The VLSI processor is
manageable."  — on the S-topology, defragmentation is just another
scaling operation: INACTIVE processors are re-configured onto the
earliest free serpentine run, compacting live regions toward the head
of the fold and coalescing free clusters into one contiguous tail.

Only INACTIVE processors move (their memory is open and nothing is
executing); ACTIVE/SLEEP processors are left in place, which bounds how
much compaction one pass can achieve — exactly the trade-off a real
system would face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.states import ProcessorState
from repro.core.vlsi_processor import VLSIProcessor
from repro.noc.wormhole import WORM_FAILURES

__all__ = ["MoveRecord", "Defragmenter"]


@dataclass(frozen=True)
class MoveRecord:
    """One processor relocation performed by a defrag pass."""

    name: str
    old_start: Tuple[int, int]
    new_start: Tuple[int, int]
    clusters: int


class Defragmenter:
    """Compacts INACTIVE processors along the fabric's fold order.

    Parameters
    ----------
    vlsi:
        The chip to compact.
    planner:
        Optional reconfiguration planner (e.g.
        :class:`repro.planner.MinimalPlanner`).  When set,
        :meth:`compact_until_stable` plans the whole compaction first and
        executes it as delta rewirings; when ``None`` (the default) the
        legacy release-then-reconfigure loop runs, byte-identical to the
        pre-planner behaviour.
    """

    def __init__(
        self, vlsi: VLSIProcessor, planner: Optional[Any] = None
    ) -> None:
        self.vlsi = vlsi
        self.planner = planner
        #: The :class:`repro.planner.RewirePlan` behind the most recent
        #: planned compaction (``None`` until one runs).
        self.last_plan: Optional[Any] = None

    # -- queries -----------------------------------------------------------

    def fragmentation(self) -> float:
        """1 − (largest free run / free clusters); 0 when free space is
        one contiguous run (or there is none)."""
        free = self.vlsi.allocator.free_count()
        if free == 0:
            return 0.0
        return 1.0 - self.vlsi.allocator.largest_free_run() / free

    def _fold_index(self, coord: Tuple[int, int]) -> int:
        return self.vlsi.fabric.fold_index(coord)

    # -- compaction ---------------------------------------------------------

    def compact(self) -> List[MoveRecord]:
        """One compaction pass.

        Processors are visited in fold order of their first cluster —
        the key is re-derived from the *current* layout on every
        iteration, never from a stale pre-pass sort (fold indices are
        unique, so the order is deterministic).  Each INACTIVE processor
        is re-configured onto the earliest free serpentine run if that
        moves its start earlier.  Mailbox contents move with the
        processor (spill/fill through the open memory blocks, §3.3).

        A move that fails mid-reconfigure (an injected switch fault, a
        conflicting worm) is rolled back: the processor's old region is
        configured straight back before the failure propagates, so no
        processor is ever left regionless.
        """
        moves: List[MoveRecord] = []
        visited = set()
        while True:
            pending = [
                p
                for p in self.vlsi.processors.values()
                if p.name not in visited
                and p.state.state is ProcessorState.INACTIVE
            ]
            if not pending:
                break
            instance = min(
                pending, key=lambda p: self._fold_index(p.region.path[0])
            )
            visited.add(instance.name)
            name = instance.name
            n = instance.n_clusters
            old_region = instance.region
            old_start = old_region.path[0]
            # free our own clusters first so the search can reuse them
            self.vlsi.configurator.release(old_region, owner=name)
            target = self.vlsi.allocator.find_serpentine(n)
            if target is None or self._fold_index(target.path[0]) >= self._fold_index(old_start):
                # no better spot: put it back where it was
                self.vlsi.configurator.configure(old_region, owner=name)
                continue
            try:
                self.vlsi.configurator.configure(target, owner=name)
            except WORM_FAILURES:
                # rollback: restore the released region before propagating
                self.vlsi.configurator.configure(old_region, owner=name)
                raise
            # spill/fill: the mailbox (memory-block state) moves along
            instance.region = target
            moves.append(MoveRecord(name, old_start, target.path[0], n))
        return moves

    def compact_until_stable(self, max_passes: int = 8) -> List[MoveRecord]:
        """Repeat passes until nothing moves (or the pass budget ends).

        With a ``planner`` attached, the whole compaction is planned
        against a snapshot first and executed as minimal delta rewirings
        (the plan lands in :attr:`last_plan`); the returned move records
        are shaped exactly like the legacy loop's.
        """
        if self.planner is not None:
            # imported here: repro.planner depends on this module's
            # MoveRecord, so a top-level import would be circular
            from repro.planner.execute import execute_plan

            plan = self.planner.plan_compaction(
                self.vlsi, max_passes=max_passes
            )
            self.last_plan = plan
            return execute_plan(self.vlsi, plan)
        all_moves: List[MoveRecord] = []
        for _ in range(max_passes):
            moves = self.compact()
            if not moves:
                break
            all_moves.extend(moves)
        return all_moves
