"""Benchmark guard: every fault site's RNG is derived at most once per plan.

A fault campaign asks its :class:`~repro.faults.model.FaultPlan` about
the same sites over and over (every chaining request crosses the same
CSD segments again).  Deriving a site's RNG costs tens of microseconds,
so the plan memoizes its draws and the CSD channel filter only revisits
segments it already knows to be faulty.  This guard counts, with a spy
on the plan, how often a small campaign queries a draw and how often it
derives one, and fails if any ``(plan, kind, site)`` is derived twice
or if the spied run's report differs from the plain one.  The counts are
deterministic, so the guard holds on any machine.

Results land in ``benchmarks/results/fault_draw_cost.txt``.
"""

from repro import telemetry
from repro.engine import run_faults
from repro.faults.campaign import report_json
from repro.faults.model import FaultPlan

RATES = [0.05, 0.2]
N_OBJECTS = [16, 32]
N_TRIALS = 2
SEED = 42


def _campaign():
    telemetry.reset()
    try:
        return report_json(
            run_faults(RATES, n_objects_list=N_OBJECTS, n_trials=N_TRIALS,
                       seed=SEED)
        )
    finally:
        telemetry.reset()


def test_each_fault_site_is_derived_at_most_once(emit, monkeypatch):
    plain = _campaign()

    plans = []  # keeps every spied plan alive, so its id() stays unique
    queried = set()
    derived = {}
    queries = 0
    draw = FaultPlan.draw
    derive = FaultPlan._derive

    def spied_draw(plan, kind, site):
        nonlocal queries
        queries += 1
        if plan.rate_for(kind) != 0.0:
            queried.add((id(plan), kind, site))
        return draw(plan, kind, site)

    def spied_derive(plan, kind, site, rate):
        plans.append(plan)
        key = (id(plan), kind, site)
        derived[key] = derived.get(key, 0) + 1
        return derive(plan, kind, site, rate)

    monkeypatch.setattr(FaultPlan, "draw", spied_draw)
    monkeypatch.setattr(FaultPlan, "_derive", spied_derive)
    spied = _campaign()
    monkeypatch.undo()

    derivations = sum(derived.values())
    distinct = len(queried)
    repeated = sorted(
        (str(kind.value), site) for (_, kind, site), n in derived.items() if n > 1
    )
    lines = [
        "Fault-draw cost (faults campaign, rates "
        f"{' '.join(map(str, RATES))}, N {' '.join(map(str, N_OBJECTS))}, "
        f"{N_TRIALS} trials, seed {SEED})",
        f"  draw queries:          {queries}",
        f"  RNG derivations:       {derivations}",
        f"  distinct (plan, kind, site) with a nonzero rate: {distinct}",
        f"  derivations per distinct key: {derivations / max(distinct, 1):.2f}"
        "   (ceiling 1.00)",
        f"  queries per distinct key:     {queries / max(distinct, 1):.2f}",
    ]
    emit("fault_draw_cost", "\n".join(lines))

    assert spied == plain, "the spied campaign's report diverged"
    assert not repeated, f"sites derived more than once: {repeated[:5]}"
    # every queried key was derived: the spy saw the real derivation path
    assert set(derived) == queried and derivations > 0
