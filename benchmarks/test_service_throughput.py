"""Benchmark: per-request service cost stays flat as the die grows.

A resident fabric's request path must cost O(1) or O(shard), never
O(die): the NoC drain check, the fold lookup and the tenant's
processor census are all indexed.  This drives seeded load-generator
scripts through :class:`repro.service.server.InProcessClient` on 8x8,
16x16 and 32x32 dies (32x32 is the 1024-core die size) in two series:

* **16 tenants** — the shard grows with the die (d²/16 clusters);
* **16-cluster shards** — the tenant count grows with the die (d²/16).

Only the request loop is timed: the die and the scripts are built
first.  Each point is the best of a few repeats, each on a fresh die;
the repeats sweep all points in turn.
The gate: µs/request at 32x32 is at most 1.5x that at 8x8 in both
series.

Results land in ``benchmarks/results/service_throughput.txt``.
"""

import asyncio
import gc
import time
from typing import Any, Dict, List

from repro.service.fabric import ResidentFabric
from repro.service.loadgen import LoadConfig, build_script
from repro.service.server import FabricService, InProcessClient

DIES = (8, 16, 32)
SEED = 42
#: Requests per point, split evenly across the point's tenants.
TOTAL_REQUESTS = 1536
REPEATS = 3
MAX_GROWTH = 1.5


def _request_stream(die: int, tenants: int) -> List[Dict[str, Any]]:
    """Every tenant's seeded script, interleaved round-robin like a
    multiplexed connection."""
    config = LoadConfig(
        tenants=tenants, requests=TOTAL_REQUESTS // tenants, seed=SEED,
        rows=die, cols=die,
    )
    scripts = [build_script(config, i) for i in range(tenants)]
    return [
        script[step]
        for step in range(max(len(s) for s in scripts))
        for script in scripts
        if step < len(script)
    ]


def _request_loop_s(die: int, requests: List[Dict[str, Any]]) -> float:
    """Seconds to drive ``requests`` through a fresh die; building the
    die is not timed."""
    client = InProcessClient(FabricService(ResidentFabric(die, die)))

    async def drive() -> float:
        start = time.perf_counter()
        for request in requests:
            await client.request(request)
        return time.perf_counter() - start

    gc.collect()
    return asyncio.run(drive())


def test_request_cost_is_flat_in_die_size(emit):
    series = {
        "16 tenants": {d: 16 for d in DIES},
        "16-cluster shards": {d: d * d // 16 for d in DIES},
    }
    lines = [
        "Service request cost vs die size (request loop only; "
        f"best of {REPEATS}, {TOTAL_REQUESTS} requests per point)",
        f"  {'series':<18} {'die':>5} {'tenants':>7} {'shard':>5} "
        f"{'us/req':>8}",
    ]
    points = {
        (label, die): _request_stream(die, tenants)
        for label, tenants_by_die in series.items()
        for die, tenants in tenants_by_die.items()
    }
    # repeats sweep every point in turn, so a slow spell on a shared
    # host hits all die sizes alike; each point keeps its best repeat
    best = {point: float("inf") for point in points}
    for _ in range(REPEATS):
        for (label, die), requests in points.items():
            best[label, die] = min(
                best[label, die], _request_loop_s(die, requests)
            )
    us = {
        point: best[point] / len(requests) * 1e6
        for point, requests in points.items()
    }
    growth = {}
    for label, tenants_by_die in series.items():
        for die, tenants in tenants_by_die.items():
            lines.append(
                f"  {label:<18} {f'{die}x{die}':>5} {tenants:>7} "
                f"{die * die // tenants:>5} {us[label, die]:>8.1f}"
            )
        growth[label] = us[label, DIES[-1]] / us[label, DIES[0]]
    for label, ratio in growth.items():
        lines.append(
            f"  {label}: 32x32 / 8x8 = {ratio:.2f}x (gate {MAX_GROWTH:g}x)"
        )
    emit("service_throughput", "\n".join(lines))

    for label, ratio in growth.items():
        assert ratio <= MAX_GROWTH, (
            f"{label}: a request on a 32x32 die costs {ratio:.2f}x one on "
            f"an 8x8 die (gate {MAX_GROWTH}x) — an O(die) scan is back on "
            "the request path"
        )
