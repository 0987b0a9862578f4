"""The sweep driver: every Figure 3 and fault-campaign sweep runs here.

:func:`run_fig3` and :func:`run_faults` run each sweep point on a
:class:`~repro.engine.core.SweepEngine`, whose trials resolve on the
vector kernel and replay their telemetry, so the output is
byte-identical to the live reference sweeps
(:func:`repro.csd.simulator.figure3_series`,
:func:`repro.faults.campaign.run_campaign`).  Every mode takes this one
path:

* observation replays from the grant log of each cached trial;
* tracing needs no path of its own: spans cannot be replayed, so with
  the tracer on the engine runs every trial live and the spans are the
  reference sweep's;
* ``workers`` > 1 runs each sweep point as one process-pool task:
  the worker runs the same serial point function under the parent's
  tracing, observation and profiling switches and ships its telemetry
  snapshot back, and the parent merges the snapshots in point order.
  Results, reports, registry, traces and observation bundles are
  therefore byte-identical to the serial run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.csd.simulator import (
    FIGURE3_LOCALITIES,
    FIGURE3_NOBJECTS,
    SimulationResult,
    _aggregate_point,
    record_point_gauges,
)
from repro.engine.core import SweepEngine

__all__ = ["run_fig3", "run_faults"]

def _record_engine_telemetry(cached: int, live: int) -> None:
    """Engine effectiveness counters for ``--stats`` / snapshots.  Only
    touched when non-zero, so a point that cached nothing leaves the
    registry exactly as the reference sweep would."""
    if cached:
        telemetry.counter("engine.trials.cached").inc(cached)
    if live:
        telemetry.counter("engine.trials.live").inc(live)


def _engine_point(
    point_fn: Callable[..., Any], *args, engine: SweepEngine, **kwargs
):
    """Run one sweep point and count how its trials were served."""
    cached, live = engine.trials_cached, engine.trials_live
    point = point_fn(*args, engine=engine, **kwargs)
    _record_engine_telemetry(
        engine.trials_cached - cached, engine.trials_live - live
    )
    return point


def _point_task(task) -> Tuple[Any, Dict[str, Any]]:
    """Worker entry: one sweep point on a fresh engine, with the telemetry
    it recorded.  The registry is reset first because a forked worker
    inherits the parent's counts and must report only its own; the
    switches travel in the task so spawn-based pools work too."""
    point_fn, args, kwargs, (trace, observe, stride, profile) = task
    telemetry.reset()
    telemetry.enable_tracing(trace)
    telemetry.enable_observation(observe, stride)
    telemetry.enable_profiling(profile)
    point = _engine_point(point_fn, *args, engine=SweepEngine(), **kwargs)
    return point, telemetry.snapshot()


def _run_points(
    point_fn: Callable[..., Any],
    points: List[Tuple[Any, ...]],
    workers: Optional[int],
    engine: Optional[SweepEngine],
    **kwargs,
) -> List[Any]:
    """``point_fn(*args, engine=..., **kwargs)`` for each ``args`` in
    ``points``, in order: serially on one engine, or one pool task per
    point with the telemetry merged in point order."""
    if workers is None or workers <= 1:
        engine = engine if engine is not None else SweepEngine()
        return [
            _engine_point(point_fn, *args, engine=engine, **kwargs)
            for args in points
        ]
    from concurrent.futures import ProcessPoolExecutor

    obs = telemetry.observer()
    switches = (
        telemetry.tracer().enabled, obs.enabled, obs.stride,
        telemetry.profiler().enabled,
    )
    tasks = [(point_fn, args, kwargs, switches) for args in points]
    results = []
    with telemetry.profile_stage("engine.dispatch"):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for point, snap in pool.map(_point_task, tasks):
                telemetry.merge(snap)
                results.append(point)
    return results


# -- Figure 3 ---------------------------------------------------------------


def _fig3_point(
    n_objects: int, locality: float, n_trials: int, seed: int,
    engine: SweepEngine,
) -> SimulationResult:
    """Engine twin of :func:`repro.csd.simulator._sweep_point`, including
    the per-point observer gauges."""
    with telemetry.scope("fig3.point"), telemetry.tracer().span(
        "fig3.point", kind="sweep", n_objects=n_objects,
        locality=locality, trials=n_trials, seed=seed,
    ):
        trials = [
            engine.run_csd_trial(
                n_objects, locality, seed + 1000 * t, sample_series=(t == 0)
            )
            for t in range(n_trials)
        ]
    point = _aggregate_point(n_objects, locality, trials)
    if telemetry.observer().enabled:
        record_point_gauges(point)
    return point


def run_fig3(
    localities: Optional[Sequence[float]] = None,
    n_trials: int = 5,
    seed: int = 42,
    n_objects_list: Sequence[int] = FIGURE3_NOBJECTS,
    workers: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[int, List[SimulationResult]]:
    """The Figure 3 data set, as :func:`~repro.csd.simulator.figure3_series`
    returns it (byte-identical results), on the engine.

    ``workers`` > 1 runs one process-pool task per point; ``engine``
    (serial runs only) keeps its trial cache across calls.
    """
    if localities is None:
        localities = FIGURE3_LOCALITIES
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if n_objects_list and min(n_objects_list) < 2:
        raise ValueError("need at least two objects")
    points = [
        (n, loc, n_trials, seed) for n in n_objects_list for loc in localities
    ]
    series: Dict[int, List[SimulationResult]] = {n: [] for n in n_objects_list}
    for point in _run_points(_fig3_point, points, workers, engine):
        series[point.n_objects].append(point)
    return series


# -- fault campaign ---------------------------------------------------------


def run_faults(
    rates: Sequence[float],
    n_objects_list: Sequence[int] = (16, 32, 64),
    n_trials: int = 8,
    seed: int = 42,
    policy=None,
    locality: Optional[float] = None,
    workers: Optional[int] = None,
    engine: Optional[SweepEngine] = None,
    csd_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """The fault campaign report, as
    :func:`~repro.faults.campaign.run_campaign` builds it (byte-identical
    JSON), on the engine.

    ``policy`` and ``locality`` default to the campaign's.  ``csd_rate``
    pins the CSD-segment fault rate independently of the swept
    ``rates``; ``csd_rate=0.0`` is what lets the engine serve the
    datapath phase of a faulty reconfiguration campaign from its cache.
    ``workers`` and ``engine`` work as in :func:`run_fig3`.
    """
    # imported here so that a Figure 3 sweep never loads the fault stack
    from repro.faults.campaign import (
        DEFAULT_POLICY,
        _LOCALITY,
        campaign_point,
        campaign_report,
        check_campaign_args,
    )

    policy = DEFAULT_POLICY if policy is None else policy
    locality = _LOCALITY if locality is None else locality
    check_campaign_args(rates, n_objects_list, n_trials)
    points = _run_points(
        campaign_point,
        [(n, r, n_trials, seed) for r in rates for n in n_objects_list],
        workers, engine,
        policy=policy, locality=locality, csd_rate=csd_rate,
    )
    return campaign_report(
        rates, n_objects_list, n_trials, seed, policy, locality, csd_rate,
        points,
    )
