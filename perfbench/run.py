"""Host-time benchmark of the ``repro`` CLI.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is ``src/repro``,
pure Python, nothing to build).  Each run drives one workload of
:mod:`workloads` through ``repro.__main__.main(argv)`` in this process,
one thread, no process pool, no TCP, and prints one JSON object as the
last line of stdout::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  Their times are host
time converted to nominal seconds by :mod:`hostspeed`, which runs a
fixed calibration loop every 5 ms of the run (between service
requests, never inside one) and scales each stretch of the workload by
the host speed it saw, so that the shared machine's speed changes do
not read as program changes:

* ``setup_s``: median, over several fresh processes, of the time from
  process start to the workload's first operation (for a sweep, the
  end of the CLI's argument parsing; see :mod:`setup_probe`), scaled
  by the host speed over the whole run;
* ``ops_per_s``: operations over the summed time of the CLI runs;
* ``req_p50_ms`` / ``req_p99_ms``: latency of one operation,
  rejected requests included.  A service request is timed around
  ``InProcessClient.request``; the percentile is taken over each CLI
  run's requests, and the median over the CLI runs is reported.  A
  sweep is timed per CLI run only (see :mod:`workloads`), so both are
  its mean trial time, the summed time over the trials;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_ratio``: operations accepted / operations attempted (service
  quota and fragmentation rejections are not accepted).

``--trace 1`` alternates untraced and traced CLI runs and reports the
per-layer metrics of :mod:`instrument` (medians over traced runs), plus
``trace.wall_s``, ``unattributed_s`` and ``trace.overhead_ratio``.  Its
spans are written to ``.perfbench/`` when the run ends.

Correctness: every run first replays the workload's tiny seed-42
configuration and compares its output digest with ``record.json``.
Every timed CLI run must be well formed, match the other runs of this
process byte for byte, and match ``record.json`` when the seed has a
recorded digest.  A traced run also fails when a layer the workload is
known to exercise records no call.  Any of these fails every operation
of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
RECORD = os.path.join(HERE, "record.json")

#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 9
#: CLI runs (untraced) or untraced/traced pairs (traced) a run makes at
#: least, whatever ``--seconds`` says.
MIN_RUNS = {0: 3, 1: 2}

from hostspeed import HostClock, SpeedMap, now
from instrument import Patches, SpanRecorder, layer_unit, op_timer, preload
from workloads import REFERENCE_SEED, WORKLOADS, Workload, read_output

#: Units of the end-to-end metrics, in the order they are reported.
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "req_p50_ms": "ms",
         "req_p99_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


@dataclass
class CliRun:
    """One in-process CLI run and what the checks made of it."""

    #: :func:`hostspeed.now` at the start and the end of the CLI run.
    start: float
    end: float
    wall_s: float
    #: Operations the CLI run attempted.
    ops: int
    #: :func:`hostspeed.now` at the start and end of each service request
    #: (empty for a sweep), until :meth:`summarize` folds them.
    requests: List[Tuple[float, float]]
    text: Optional[str] = None
    digest: Optional[str] = None
    accepted: int = 0
    problems: List[str] = field(default_factory=list)
    #: Nominal seconds of the CLI run and its request latency
    #: percentiles (``None`` for a sweep), set by :meth:`summarize`.
    busy_s: float = 0.0
    p50_s: Optional[float] = None
    p99_s: Optional[float] = None

    def summarize(self, speed: SpeedMap) -> None:
        """Convert to nominal seconds and drop the request spans, so the
        memory this benchmark keeps does not grow with its CLI runs."""
        self.busy_s = speed.nominal(self.start, self.end)
        if self.requests:
            latency = sorted(speed.nominal(a, b) for a, b in self.requests)
            self.p50_s = percentile(latency, 50)
            self.p99_s = percentile(latency, 99)
        self.requests = []


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def recorded_digest(record: Dict[str, Any], workload: Workload,
                    size: str, seed: int) -> Optional[str]:
    return (
        record.get("digests", {}).get(workload.name, {})
        .get(size, {}).get(str(seed))
    )


def run_cli(cli_main, workload: Workload, size: str, seed: int,
            record: Dict[str, Any],
            recorder: Optional[SpanRecorder] = None,
            clock: Optional[HostClock] = None) -> CliRun:
    """Run the workload's CLI command once and check its output.

    ``clock``, when ticking, is held off while a request is timed.
    """
    spec = workload.sizes[size]
    report_path = os.path.join(OUT, f"{workload.name}.report.json")
    requests: List[Tuple[float, float]] = []
    stdout = io.StringIO()
    gc.collect()
    with Patches() as patches:
        if workload.op_target is not None:
            patches.wrap(workload.op_target, op_timer(requests, now, clock))
        if recorder is not None:
            recorder.install(patches)
        wall0, t0 = time.perf_counter(), now()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli_main(workload.argv(size, seed, report_path))
        except Exception:  # a failed operation is reported, not fatal
            traceback.print_exc()
            return CliRun(t0, now(), time.perf_counter() - wall0,
                          spec.operations, requests,
                          problems=["the CLI raised"])
        t1, wall = now(), time.perf_counter() - wall0
    run = CliRun(t0, t1, wall, spec.operations, requests)
    if code != 0:
        run.problems.append(f"the CLI exited {code}")
        return run
    run.text = read_output(workload, stdout.getvalue(), report_path)
    run.digest = digest(run.text)
    run.accepted, run.problems = workload.check(spec, run.text)
    if workload.op_target is not None and len(requests) != spec.operations:
        run.problems.append(
            f"{len(requests)} operations timed, want {spec.operations}"
        )
    want = recorded_digest(record, workload, size, seed)
    if want is not None and run.digest != want:
        run.problems.append(f"output digest {run.digest} != recorded {want}")
    return run


def measure_setup(workload: Workload, size: str, seed: int,
                  n: int) -> List[float]:
    """``setup_s`` samples: fresh processes timed to their first operation."""
    probe = os.path.join(HERE, "setup_probe.py")
    report_path = os.path.join(OUT, f"{workload.name}.setup.json")
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, probe, workload.name, size, str(seed),
             report_path],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("setup ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(lines[-1].split()[1]) - t0)
    return samples


def reference_problems(cli_main, workload: Workload,
                       record: Dict[str, Any]) -> List[str]:
    """Replay the tiny seed-42 configuration against its recorded digest."""
    if recorded_digest(record, workload, "tiny", REFERENCE_SEED) is None:
        return ["record.json has no reference digest for this workload"]
    run = run_cli(cli_main, workload, "tiny", REFERENCE_SEED, record)
    return [f"reference run: {p}" for p in run.problems]


def consistency_problems(runs: List[CliRun]) -> List[str]:
    digests = {r.digest for r in runs if r.digest is not None}
    if len(digests) > 1:
        return [f"CLI runs of one seed gave {len(digests)} different outputs"]
    return []


def timed_runs(cli_main, workload: Workload, size: str, seed: int,
               seconds: float, record: Dict[str, Any], traced: bool):
    """CLI runs until ``seconds`` would be exceeded (at least MIN_RUNS).

    Untraced: one CLI run per step, under a ticking :class:`HostClock`.
    Traced: an untraced and a traced CLI run per step, so their wall
    times compare under equal load, and no calibration ticks, which
    would land in the spans.
    """
    untraced: List[CliRun] = []
    traced_runs: List[CliRun] = []
    recorders: List[SpanRecorder] = []
    clock = HostClock()
    start = time.perf_counter()
    with contextlib.nullcontext() if traced else clock:
        while True:
            untraced.append(run_cli(cli_main, workload, size, seed, record,
                                    clock=None if traced else clock))
            step = untraced[-1].wall_s
            if traced:
                recorders.append(SpanRecorder())
                traced_runs.append(run_cli(cli_main, workload, size, seed,
                                           record, recorders[-1]))
                step += traced_runs[-1].wall_s
            else:
                untraced[-1].summarize(clock.read())
            elapsed = time.perf_counter() - start
            if (len(untraced) >= MIN_RUNS[int(traced)]
                    and elapsed + step > seconds):
                break
    return untraced, traced_runs, recorders, clock


def end_to_end(runs: List[CliRun], setup: List[float],
               speed: SpeedMap) -> Dict[str, float]:
    """The end-to-end metrics of one run's summarized CLI runs.

    Throughput is taken over the summed time of the CLI runs.  A CLI
    run's p99 request latency jumps with a GC pause inside it, so the
    median over CLI runs is reported.  Set-up happens in other
    processes, between which the host's speed cannot be sampled
    closely (calibration bursts next to each made its spread worse), so
    the set-up median is scaled by the host speed over the whole run,
    which follows the host's drift over minutes.
    """
    attempted = sum(r.ops for r in runs)
    busy = sum(r.busy_s for r in runs)

    def latency_ms(per_run: List[Optional[float]]) -> float:
        if None in per_run:  # a sweep, timed per CLI run only
            return busy / attempted * 1e3
        return statistics.median(per_run) * 1e3

    return {
        "setup_s": statistics.median(setup) / speed.host_speed(),
        "ops_per_s": attempted / busy,
        "req_p50_ms": latency_ms([r.p50_s for r in runs]),
        "req_p99_ms": latency_ms([r.p99_s for r in runs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": sum(r.accepted for r in runs) / max(attempted, 1),
    }


def per_layer(workload: Workload, untraced: List[CliRun],
              traced: List[CliRun], recorders: List[SpanRecorder],
              problems: List[str]) -> Dict[str, float]:
    samples = [rec.metrics(run.wall_s) for rec, run in zip(recorders, traced)]
    counts = [rec.counts() for rec in recorders]
    if any(c != counts[0] for c in counts):
        problems.append("span counts differ between traced CLI runs")
    calls = recorders[-1].layer_calls()
    for layer in workload.layers:
        if not any(calls.get(name, 0) for name in layer.split("|")):
            problems.append(f"layer {layer!r} recorded no calls")
    metrics = {
        name: statistics.median(s[name] for s in samples)
        for name in samples[0]
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced)
    )
    return metrics


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              size: str = "full") -> Dict[str, Any]:
    """One benchmark run; returns the result object ``main`` prints."""
    sys.path.insert(0, SRC)
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[name]
    if trace:
        preload()  # the binding-site scan needs every module loaded
    from repro.__main__ import main as cli_main

    setup = [] if trace else measure_setup(workload, size, seed, SETUP_SAMPLES)
    problems = reference_problems(cli_main, workload, record)
    untraced, traced, recorders, clock = timed_runs(
        cli_main, workload, size, seed, seconds, record, trace
    )
    runs = untraced + traced
    problems += consistency_problems(runs)
    if trace:
        values = per_layer(workload, untraced, traced, recorders, problems)
        recorders[-1].write(os.path.join(OUT, f"spans-{name}.json.gz"))
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in values.items()}
    else:
        values = end_to_end(runs, setup, clock.read())
        metrics = {n: {"value": values[n], "unit": u} for n, u in UNITS.items()}
    attempted = sum(r.ops for r in runs)
    if attempted == 0:
        problems.append("no operation ran")
    if problems:
        failed = attempted
    else:
        failed = sum(r.ops for r in runs if r.problems)
    for problem in problems + [p for r in runs for p in r.problems]:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from the root "
              "of a repro source checkout", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
