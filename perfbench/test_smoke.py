"""Smoke test of the benchmark itself, at the tiny workload size.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the root of a
source checkout (about a minute).  It runs every workload once untraced
and twice traced, checks every metric against ``BENCHMARK.json``,
shows that a corrupted output trips the digest gate, and checks the
conversion of host time to nominal seconds.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench_run(workload: str, trace: int) -> dict:
    result = bench.benchmark(workload, REFERENCE_SEED, 0, bool(trace), "tiny")
    json.dumps(result)  # what run.py prints must serialise
    return result


def check_metrics(result: dict, declared: list) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run(workload):
    result = bench_run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * WORKLOADS[workload].sizes["tiny"].operations
    check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_repeat_their_counts(workload):
    first, second = bench_run(workload, 1), bench_run(workload, 1)
    assert first["correct"] and second["correct"]
    check_metrics(first, SPEC["per_layer"])
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    layers = {n.split(".")[0] for n, v in counts[0].items() if v}
    for layer in WORKLOADS[workload].layers:
        assert set(layer.split("|")) & layers, layer


@pytest.mark.parametrize("trace", [0, 1])
def test_fig3_engine_path_passes_the_gates(monkeypatch, trace):
    """A CLI that sends fig3 down the engine path is measured unchanged.

    The engine replays cached trials without calling the simulator's
    trial function (removed here to prove it) or the csd layer.
    """
    from repro.csd import simulator
    from repro.engine import run_fig3

    def no_live_trial(*args, **kwargs):
        raise AssertionError("the engine path ran a live trial")

    monkeypatch.setattr(simulator, "figure3_series", run_fig3)
    monkeypatch.setattr(simulator.CSDSimulator, "run_trial", no_live_trial)
    result = bench_run("fig3-sweep", trace)
    assert result["correct"] and result["failed"] == 0
    tiny = WORKLOADS["fig3-sweep"].sizes["tiny"].operations
    assert result["attempted"] == (4 if trace else 3) * tiny
    if trace:
        assert result["metrics"]["engine.trial.calls"]["value"] == tiny


def test_corrupted_output_fails_every_operation(monkeypatch):
    real = bench.read_output
    monkeypatch.setattr(
        bench, "read_output", lambda *args: real(*args) + "corrupted"
    )
    result = bench_run("fig3-sweep", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_nominal_time_cuts_ticks_and_scales_by_host_speed():
    from hostspeed import NOMINAL_CALIBRATION_S, SpeedMap

    tick = 2 * NOMINAL_CALIBRATION_S  # a host at half the nominal speed
    speed = SpeedMap([1.0, 2.0, 3.0], [1.0 + tick, 2.0 + tick, 3.0 + tick])
    assert speed.host_speed() == pytest.approx(2.0)
    # [1.5, 2.5] holds one whole tick and 1 - tick seconds of workload
    assert speed.nominal(1.5, 2.5) == pytest.approx((1.0 - tick) / 2)


def test_a_tick_waits_for_the_request_it_would_land_in():
    from hostspeed import HostClock

    clock = HostClock()
    clock.hold()
    clock._on_alarm(None, None)
    assert clock.starts == []
    clock.release()
    assert len(clock.starts) == len(clock.ends) == 1
