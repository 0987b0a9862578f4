"""Pure simulation of the legacy compaction loop.

Planning must not mutate the fabric, but the naive baseline it prices is
the *actual* :meth:`repro.core.defrag.Defragmenter.compact_until_stable`
loop.  This module replays that loop symbolically over a snapshot of the
chip: same visit order (minimum current fold index among unvisited
INACTIVE processors), same release-before-search semantics (a
processor's own clusters count as free for its target search), same
earliest-free-serpentine-run target, same strict-improvement move test,
and the same put-back when a visit finds nothing better.

The resulting :class:`CompactionSim` is the shared ground truth for both
planners: the naive plan prices every simulated move and put-back at
full release+reconfigure rates, the minimal plan prices the same moves
as directed-edge deltas and drops the put-backs entirely (it never
releases just to search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.states import ProcessorState
from repro.core.vlsi_processor import VLSIProcessor
from repro.topology.regions import Region, path_region

__all__ = ["SimMove", "SimVisit", "CompactionSim", "simulate_compaction",
           "earliest_free_run"]

Coord = Tuple[int, int]


@dataclass(frozen=True)
class SimMove:
    """One simulated relocation (pass numbers start at 1)."""

    name: str
    pass_index: int
    old: Region
    new: Region


@dataclass(frozen=True)
class SimVisit:
    """One simulated put-back: the legacy loop released this region,
    found nothing earlier, and configured it straight back."""

    name: str
    pass_index: int
    region: Region


@dataclass(frozen=True)
class CompactionSim:
    """Replay of ``compact_until_stable`` against a chip snapshot."""

    moves: Tuple[SimMove, ...]
    putbacks: Tuple[SimVisit, ...]
    #: Passes the legacy loop runs, including the final empty one that
    #: proves the fixpoint (it still pays a put-back per processor).
    passes: int
    #: name -> region after compaction settles.
    final: Dict[str, Region]


def earliest_free_run(
    order: Sequence[Coord],
    pool: Set[Coord],
    occupied: Set[Coord],
    n: int,
) -> Optional[Region]:
    """First contiguous fold-order run of ``n`` coordinates that are in
    ``pool`` and not in ``occupied`` — the symbolic twin of
    :meth:`ClusterAllocator.find_serpentine`."""
    run: List[Coord] = []
    for coord in order:
        if coord in pool and coord not in occupied:
            run.append(coord)
            if len(run) == n:
                return path_region(run)
        else:
            run = []
    return None


def simulate_compaction(
    vlsi: VLSIProcessor, max_passes: int = 8
) -> CompactionSim:
    """Replay the legacy compaction loop without touching the fabric."""
    fabric = vlsi.fabric
    order = fabric.linear_order()
    fold = fabric.fold_index

    layout: Dict[str, Region] = {}
    movable: List[str] = []
    for name, instance in vlsi.processors.items():
        if instance.state.state is ProcessorState.INACTIVE:
            movable.append(name)
            layout[name] = instance.region

    # Anything a movable processor could ever land on: clusters free right
    # now, plus the movable processors' own (vacatable) clusters.
    pool: Set[Coord] = {
        coord for coord in order if fabric.cluster(coord).is_free
    }
    for name in movable:
        pool.update(layout[name].path)

    moves: List[SimMove] = []
    putbacks: List[SimVisit] = []
    passes = 0
    for _ in range(max_passes):
        passes += 1
        moved_this_pass = False
        visited: Set[str] = set()
        while True:
            pending = [name for name in movable if name not in visited]
            if not pending:
                break
            # the satellite-4 discipline: re-derive the visit key from the
            # *current* layout each iteration, never from a stale pre-pass
            # sort (fold indices are unique, so min() is deterministic)
            name = min(pending, key=lambda p: fold(layout[p].path[0]))
            visited.add(name)
            region = layout[name]
            occupied: Set[Coord] = set()
            for other in movable:
                if other != name:
                    occupied.update(layout[other].path)
            target = earliest_free_run(order, pool, occupied, len(region))
            if (
                target is None
                or fold(target.path[0]) >= fold(region.path[0])
            ):
                putbacks.append(SimVisit(name, passes, region))
                continue
            moves.append(SimMove(name, passes, region, target))
            layout[name] = target
            moved_this_pass = True
        if not moved_this_pass:
            break
    return CompactionSim(
        moves=tuple(moves),
        putbacks=tuple(putbacks),
        passes=passes,
        final=dict(layout),
    )
