"""Maintain ``perfbench/record.json``: digests, baseline spreads, trace counts.

Usage (from the root of a source checkout)::

    python3 perfbench/record.py digests          # record output digests
    python3 perfbench/record.py spread --runs 10 [--write [--key KEY]]
    python3 perfbench/record.py traced [--write]

``digests`` runs every workload twice at the tiny reference size on
seed 42 and twice at full size on seed 42 and on the held-out seed,
fails unless both runs of each are byte-identical, and records the
digests plus the deterministic facts of each output.

``spread`` runs ``run.py`` (untraced) ``--runs`` times per workload, one
seed each, and prints each end-to-end metric's median, quartiles and
spread (interquartile range / median); ``--write`` stores them as the
baseline of the current commit, or under ``--key`` (a repeat set, with
how much worse each median is than the baseline's).

``traced`` makes two traced runs per workload on seed 42, fails unless
their call and failure counts are identical, prints each layer's share
of traced wall time, and with ``--write`` stores the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from workloads import HELD_OUT_SEED, REFERENCE_SEED, WORKLOADS  # noqa: E402


def load() -> Dict[str, Any]:
    with open(bench.RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def save(record: Dict[str, Any]) -> None:
    with open(bench.RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def facts(workload, text: str) -> Dict[str, Any]:
    """Deterministic figures of one canonical output."""
    if workload.output == "stdout":
        return {}
    report = json.loads(text)
    if "requests" in report:
        req = report["requests"]
        return {
            "requests": req["total"],
            "rejected": req["rejected"],
            "ok_ratio": req["ok"] / req["total"],
            "sim_p99_cycles": report["latency_cycles"]["p99"],
        }
    return {"fault_triggers": sum(p["fault_triggers"] for p in report["points"])}


def cmd_digests(_args) -> int:
    record = load()
    os.makedirs(bench.OUT, exist_ok=True)
    bench.preload()
    from repro.__main__ import main as cli_main

    digests: Dict[str, Any] = {}
    outputs: Dict[str, Any] = {}
    for workload in WORKLOADS.values():
        cases = [("tiny", REFERENCE_SEED), ("full", REFERENCE_SEED),
                 ("full", HELD_OUT_SEED)]
        for size, seed in cases:
            first, second = (
                bench.run_cli(cli_main, workload, size, seed, {})
                for _ in range(2)
            )
            problems = first.problems + second.problems
            if problems or first.digest != second.digest:
                print(f"{workload.name} {size} seed {seed}: not reproducible "
                      f"{problems}", file=sys.stderr)
                return 1
            digests.setdefault(workload.name, {}).setdefault(size, {})[
                str(seed)] = first.digest
            if size == "full":
                outputs.setdefault(workload.name, {})[str(seed)] = {
                    "operations": first.ops,
                    "accepted": first.accepted,
                    **facts(workload, first.text),
                }
            print(f"{workload.name} {size} seed {seed}: {first.digest}")
    record["digests"] = digests
    record["outputs"] = outputs
    save(record)
    return 0


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def cmd_spread(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    baseline: Dict[str, Any] = {}
    for name in names:
        values: Dict[str, List[float]] = {}
        for i in range(args.runs):
            result = run_bench(name, args.seed_base + i, spec["run_seconds"], 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        baseline[name] = {
            "seeds": [args.seed_base, args.seed_base + args.runs - 1],
            "metrics": {m: quartiles(v) for m, v in values.items()},
            "values": values,
        }
        for metric, q in baseline[name]["metrics"].items():
            flag = "" if q["spread"] < bounds[metric] / 3 else "  WIDE"
            print(f"{name:16s} {metric:12s} median={q['median']:.6g} "
                  f"q1={q['q1']:.6g} q3={q['q3']:.6g} "
                  f"spread={q['spread']:.4f} bound={bounds[metric]}{flag}")
    if args.write:
        record = load()
        if args.key != "baseline":
            for name, entry in baseline.items():
                first = record["baseline"][name]["metrics"]
                entry["worse_by"] = {}
                for metric, q in entry["metrics"].items():
                    was = first[metric]["median"]
                    change = (q["median"] - was) / was if was else 0.0
                    worse = change if lower[metric] else -change
                    entry["worse_by"][metric] = worse
                    flag = "" if worse <= bounds[metric] else "  OUT"
                    print(f"{name:16s} {metric:12s} worse_by={worse:+.4f}{flag}")
        record.setdefault(args.key, {}).update(baseline)
        save(record)
    if args.raw:
        with open(args.raw, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
    return 0


def share(metrics: Dict[str, Any], name: str) -> float:
    """A per-layer time metric as a share of traced wall time."""
    return metrics[name]["value"] / metrics["trace.wall_s"]["value"]


def contrasts(traced: Dict[str, Dict[str, Any]]) -> Dict[str, bool]:
    """The layer contrasts the workloads were chosen to show."""
    fig3, faults = traced["fig3-sweep"], traced["faults-campaign"]
    dense, small = traced["service-dense"], traced["service-small"]

    def dominant(metrics, name):
        return max((share(metrics, m), m) for m in metrics
                   if m.endswith("self_s"))[1] == name

    return {
        "noc.drained share: service-dense > service-small":
            share(dense, "noc.drained.self_s") > share(small, "noc.drained.self_s"),
        "service.codec share: service-small > service-dense":
            share(small, "service.codec.self_s") > share(dense, "service.codec.self_s"),
        "csd.connect.self_s dominates fig3-sweep":
            dominant(fig3, "csd.connect.self_s"),
        "faults.draw.self_s dominates faults-campaign":
            dominant(faults, "faults.draw.self_s"),
        "faults.* zero on fig3-sweep and the service mixes": all(
            v["value"] == 0 for w in (fig3, dense, small)
            for m, v in w.items() if m.startswith("faults.")
        ),
    }


def cmd_traced(args) -> int:
    counts: Dict[str, Any] = {}
    traced: Dict[str, Dict[str, Any]] = {}
    status = 0
    for name in WORKLOADS:
        first, second = (
            run_bench(name, REFERENCE_SEED, args.seconds, 1)["metrics"]
            for _ in range(2)
        )
        exact = {m: v["value"] for m, v in first.items()
                 if v["unit"] == "count"}
        if exact != {m: v["value"] for m, v in second.items()
                     if v["unit"] == "count"}:
            print(f"{name}: call counts differ between two traced runs",
                  file=sys.stderr)
            status = 1
        counts[name], traced[name] = exact, first
        shares = sorted(
            ((share(first, m), m) for m in first if m.endswith("self_s")),
            reverse=True,
        )
        print(f"{name}: wall {first['trace.wall_s']['value']:.3f} s, overhead "
              f"{first['trace.overhead_ratio']['value']:.2f}x, unattributed "
              f"{share(first, 'unattributed_s'):.1%}")
        for value, metric in shares[:6]:
            print(f"    {metric:32s} {value:6.1%}")
    checks = contrasts(traced)
    for check, ok in checks.items():
        print(f"{'holds' if ok else 'FAILS'}: {check}")
    status = status or int(not all(checks.values()))
    if args.write and status == 0:
        record = load()
        record["traced_counts_seed42"] = counts
        record["traced_contrasts_seed42"] = checks
        save(record)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("digests")
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--runs", type=int, default=10)
    p_spread.add_argument("--seed-base", type=int, default=101)
    p_spread.add_argument("--workloads", nargs="+", default=None)
    p_spread.add_argument("--write", action="store_true")
    p_spread.add_argument("--key", default="baseline",
                          help="record.json key --write stores the set under")
    p_spread.add_argument("--raw", default=None,
                          help="also dump every run's values to this file")
    p_traced = sub.add_parser("traced")
    p_traced.add_argument("--seconds", type=int, default=1)
    p_traced.add_argument("--write", action="store_true")
    args = parser.parse_args()
    return {"digests": cmd_digests, "spread": cmd_spread,
            "traced": cmd_traced}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
