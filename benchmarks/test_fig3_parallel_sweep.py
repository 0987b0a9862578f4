"""Benchmark: serial vs parallel Figure 3 sweep (``run_fig3(workers=)``).

Runs the full Figure 3 series at ``n_trials=10`` on the sweep driver
twice — serial, then one process-pool task per point over 4 workers —
asserts both are bit-identical to each other and to the live reference
``figure3_series``, and records both wall times plus the merged
telemetry counters in ``benchmarks/results/fig3_parallel_sweep.txt``.

The ≥2x speedup assertion only fires on hosts with at least 4 CPUs: on a
single-core runner the pool cannot beat the serial loop, but the
bit-identity contract holds everywhere.
"""

import json
import os
import time

from repro import telemetry
from repro.csd.simulator import figure3_series
from repro.engine import run_fig3

WORKERS = 4
N_TRIALS = 10


def test_fig3_parallel_sweep_identical_and_timed(emit):
    cpus = os.cpu_count() or 1

    telemetry.reset()
    t0 = time.perf_counter()
    serial = run_fig3(n_trials=N_TRIALS)
    serial_s = time.perf_counter() - t0
    serial_counters = telemetry.snapshot()["counters"]

    telemetry.reset()
    t0 = time.perf_counter()
    parallel = run_fig3(n_trials=N_TRIALS, workers=WORKERS)
    parallel_s = time.perf_counter() - t0
    parallel_counters = telemetry.snapshot()["counters"]

    assert serial == parallel, "workers= path diverged from the serial sweep"
    # worker telemetry is merged back, so the counters agree too
    assert serial_counters == parallel_counters
    assert serial == figure3_series(n_trials=N_TRIALS), (
        "the sweep driver diverged from the live reference sweep"
    )

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    payload = {
        "cpus": cpus,
        "workers": WORKERS,
        "n_trials": N_TRIALS,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "identical": serial == parallel,
        "counters": serial_counters,
    }
    lines = [
        "Figure 3 sweep: serial vs parallel (workers=4, n_trials=10)",
        f"  host CPUs       : {cpus}",
        f"  serial          : {serial_s:.3f} s",
        f"  parallel (x{WORKERS})   : {parallel_s:.3f} s",
        f"  speedup         : {speedup:.2f}x",
        "  bit-identical   : yes",
        "",
        "json: " + json.dumps(payload, sort_keys=True),
    ]
    emit("fig3_parallel_sweep", "\n".join(lines))

    if cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x speedup on a {cpus}-core host, got {speedup:.2f}x"
        )
