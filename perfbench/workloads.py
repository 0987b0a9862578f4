"""The benchmark's workloads: CLI argv, canonical output and its checks.

Every workload is one ``repro`` CLI command run in-process through
``repro.__main__.main(argv)``, with only flags the CLI keeps for users
(no ``--engine``, ``--kernel``, ``--workers`` or ``--plan``).  Each has a
full size (what a run times) and a tiny size (the seed-42 reference
probe every run checks first, and what the smoke test runs).

An *operation* is one trial for the two sweeps and one service request
for the two service mixes.

* A sweep's trials are counted from its size and checked against the
  canonical output, and timed together: the CLI run is the only
  boundary every code path of a sweep shares (the engine path replays
  cached trials without calling the simulator's trial function).
* A service request is timed one by one around
  ``InProcessClient.request``, the in-process transport every request
  crosses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Seed whose digests every run can check, whatever seed it times.
REFERENCE_SEED = 42
#: Second recorded seed, never used to size the workloads; later
#: claims are re-checked on it.
HELD_OUT_SEED = 1009

#: Localities ``repro fig3`` sweeps at every N.
FIG3_LOCALITIES = 6

#: What a check makes of one canonical output: accepted operations and
#: a list of problems (empty when the output is well formed).
Verdict = Tuple[int, List[str]]


@dataclass(frozen=True)
class Size:
    #: CLI argv without ``--seed`` and output flags.
    argv: Tuple[str, ...]
    #: Operations one CLI run performs.
    operations: int
    #: Sweep points (fig3 table rows, campaign points); 0 for services.
    points: int = 0


def check_table(size: Size, text: str) -> Verdict:
    """A ``repro fig3`` table: one ``locality=`` row per sweep point."""
    points = sum(1 for line in text.splitlines() if "locality=" in line)
    if points != size.points:
        return size.operations, [
            f"fig3 table has {points} points, want {size.points}"
        ]
    return size.operations, []


def _report(text: str) -> Tuple[Optional[dict], List[str]]:
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]


def check_campaign(size: Size, text: str) -> Verdict:
    """A ``repro faults`` report: every point, every trial of it."""
    report, problems = _report(text)
    if report is None:
        return 0, problems
    points = len(report.get("points", ()))
    trials = points * report.get("trials", 0)
    if points != size.points or trials != size.operations:
        problems.append(
            f"campaign has {points} points x {report.get('trials')} trials, "
            f"want {size.points} points, {size.operations} trials"
        )
    return size.operations, problems


def check_service(size: Size, text: str) -> Verdict:
    """A ``repro service-load`` report: every request, and how many passed."""
    report, problems = _report(text)
    if report is None:
        return 0, problems
    requests = report.get("requests", {})
    if requests.get("total") != size.operations:
        problems.append(
            f"service report has {requests.get('total')} requests, "
            f"want {size.operations}"
        )
    return int(requests.get("ok", 0)), problems


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Dict[str, Size]
    check: Callable[[Size, str], Verdict]
    #: ``module:Class.method`` timed per operation, or ``None`` when the
    #: CLI run is timed as a whole and split evenly over its operations.
    op_target: Optional[str]
    #: Layers a traced run must see called; ``a|b`` asks for either.
    layers: Tuple[str, ...]
    #: Where the canonical output lands: ``"stdout"`` or ``"report"``.
    output: str

    def argv(self, size: str, seed: int, report_path: str) -> List[str]:
        argv = list(self.sizes[size].argv) + ["--seed", str(seed)]
        if self.output == "report":
            argv += ["--quiet", "--report", report_path]
        return argv


def _fig3(n_objects: Tuple[int, ...], trials: int) -> Size:
    points = len(n_objects) * FIG3_LOCALITIES
    return Size(
        ("fig3", "--n-objects", *map(str, n_objects), "--trials", str(trials)),
        operations=points * trials, points=points,
    )


def _faults(rates: Tuple[str, ...], n_objects: Tuple[int, ...],
            trials: int) -> Size:
    points = len(rates) * len(n_objects)
    return Size(
        ("faults", "--rates", *rates, "--n-objects", *map(str, n_objects),
         "--trials", str(trials)),
        operations=points * trials, points=points,
    )


def _service(tenants: int, die: int, requests: int) -> Size:
    # every tenant's script is its requests between a hello and a bye
    return Size(
        ("service-load", "--tenants", str(tenants), "--rows", str(die),
         "--cols", str(die), "--requests", str(requests)),
        operations=tenants * (requests + 2),
    )


#: Layers that do a sweep's trials on one code path or another.
_TRIAL_LAYERS = "csd|engine|megascale"
_SERVICE_LAYERS = ("core", "noc", "topology", "service")
_REQUEST = "repro.service.server:InProcessClient.request"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig3-sweep",
            sizes={"full": _fig3((16, 32, 64, 128, 256), 2),
                   "tiny": _fig3((16, 32), 1)},
            check=check_table,
            op_target=None,
            layers=(_TRIAL_LAYERS,),
            output="stdout",
        ),
        Workload(
            name="faults-campaign",
            sizes={"full": _faults(("0", "0.05", "0.2"), (16, 32, 64), 2),
                   "tiny": _faults(("0", "0.2"), (16,), 1)},
            check=check_campaign,
            op_target=None,
            layers=(_TRIAL_LAYERS, "faults", "noc"),
            output="report",
        ),
        Workload(
            name="service-dense",
            sizes={"full": _service(64, 32, 160),
                   "tiny": _service(64, 32, 4)},
            check=check_service,
            op_target=_REQUEST,
            layers=_SERVICE_LAYERS,
            output="report",
        ),
        Workload(
            name="service-small",
            sizes={"full": _service(8, 8, 600),
                   "tiny": _service(8, 8, 50)},
            check=check_service,
            op_target=_REQUEST,
            layers=_SERVICE_LAYERS,
            output="report",
        ),
    )
}


def read_output(workload: Workload, stdout: str, report_path: str) -> str:
    """The canonical output of one finished CLI run, and clean up."""
    if workload.output == "stdout":
        return stdout
    with open(report_path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(report_path)
    return text
