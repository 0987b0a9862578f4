"""Timing wrappers the benchmark puts around the program's public functions.

Nothing here edits the program: every measurement is taken from outside,
by replacing a function at each place it is bound while one CLI run
executes, and putting the original back afterwards.

* :class:`Patches` does the replacing.  A class attribute is patched on
  its class.  A module-level function is patched in every loaded
  ``repro`` module that binds it by name, so ``from x import f`` sites
  (``repro.service.server`` binding ``encode_frame``, ``repro.service``
  re-exporting ``build_report``) see the wrapper too.
* :func:`op_timer` records when each service request starts and ends,
  in every run, traced or not.
* :class:`SpanRecorder` records one span per call into a layer's public
  functions in a traced run, keeps the spans in memory, and derives
  each layer's call count and self time (a span's duration minus the
  time its child spans cover).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: Modules imported before any patching, so every ``from x import f``
#: binding site already exists when the scan for it runs.
PRELOAD = (
    "repro.__main__",
    "repro.csd.simulator",
    "repro.engine",
    "repro.faults.campaign",
    "repro.megascale",
    "repro.service",
)

_F = "repro.faults.injector:FaultInjector."
_S = "repro.core.scaling:ScalingController."
_W = "repro.noc.wormhole:WormholeConfigurator."
_N = "repro.noc.network:RouterNetwork."
_R = "repro.service.fabric:ResidentFabric."

#: Span groups: the public functions timed for each layer metric.  The
#: layer is the group name up to its first dot.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "csd.connect": ("repro.csd.dynamic_csd:DynamicCSDNetwork.connect",),
    "csd.workload": ("repro.csd.locality:LocalityWorkload.requests",),
    "engine.trial": ("repro.engine.core:SweepEngine.run_csd_trial",),
    "megascale.grant": ("repro.megascale.kernel:VectorCSDKernel.grant_many",),
    "faults.draw": ("repro.faults.model:FaultPlan.draw",),
    "faults.inject": tuple(_F + m for m in (
        "peek", "is_permanent", "quarantine", "csd_channel_blocked",
        "filter_csd_channels", "junction_fault", "chain_switch_fault",
        "link_fault", "flit_fault",
    )),
    "faults.retry": ("repro.faults.recovery:connect_with_retry",),
    "core.allocate": ("repro.core.allocation:ClusterAllocator.allocate",),
    "core.scale": tuple(
        _S + m for m in ("up_scale", "down_scale", "fuse", "split")
    ),
    "core.processor": (
        "repro.core.vlsi_processor:VLSIProcessor.create_processor",
        "repro.core.vlsi_processor:VLSIProcessor.destroy_processor",
    ),
    "noc.configure": tuple(_W + m for m in ("configure", "reconfigure", "release")),
    "noc.drained": (_N + "is_drained",),
    "noc.deliver": (_N + "deliver_express", _N + "run_until_drained"),
    "topology.linear_order": ("repro.topology.s_topology:STopology.linear_order",),
    "service.codec": (
        "repro.service.protocol:encode_frame",
        "repro.service.protocol:decode_payload",
    ),
    "service.handle": ("repro.service.server:FabricService.handle",),
    "service.fabric": tuple(_R + m for m in (
        "admit", "evict", "create", "scale_up", "scale_down", "destroy",
        "send", "tenant_stats", "stats",
    )),
    "service.owned_clusters": (_R + "owned_clusters",),
    "service.script": ("repro.service.loadgen:build_script",),
    "service.report": ("repro.service.loadgen:build_report",),
    # the lookups, and the work done on what they hand out
    "telemetry": (
        "repro.telemetry:counter",
        "repro.telemetry:scope",
        "repro.telemetry:instant",
        "repro.telemetry.tracing:Tracer.span",
        "repro.telemetry.metrics:Counter.inc",
        "repro.telemetry.metrics:Scope.__enter__",
        "repro.telemetry.metrics:Scope.__exit__",
        "repro.telemetry.tracing:_SpanContext.__enter__",
        "repro.telemetry.tracing:_SpanContext.__exit__",
        "repro.telemetry.tracing:_NullSpan.__enter__",
        "repro.telemetry.tracing:_NullSpan.__exit__",
    ),
}

#: The per-layer metrics a traced run reports: name -> (group, field).
#: Fields are ``calls``, ``self_s``, ``failed`` and ``us_per_call``
#: (self time per call); ``None`` groups are derived metrics.
LAYER_METRICS: Dict[str, Tuple[Any, str]] = {
    "csd.connect.calls": ("csd.connect", "calls"),
    "csd.connect.self_s": ("csd.connect", "self_s"),
    "csd.connect.us_per_call": ("csd.connect", "us_per_call"),
    "csd.workload.self_s": ("csd.workload", "self_s"),
    "engine.trial.calls": ("engine.trial", "calls"),
    "engine.self_s": ("engine.trial", "self_s"),
    "engine.hit_ratio": (None, "engine_hit_ratio"),
    "megascale.grant.calls": ("megascale.grant", "calls"),
    "megascale.self_s": ("megascale.grant", "self_s"),
    "faults.draw.calls": ("faults.draw", "calls"),
    "faults.draw.self_s": ("faults.draw", "self_s"),
    "faults.draw.distinct_ratio": (None, "draw_distinct_ratio"),
    "faults.inject.calls": ("faults.inject", "calls"),
    "faults.inject.self_s": ("faults.inject", "self_s"),
    "faults.retry.calls": ("faults.retry", "calls"),
    "core.allocate.calls": ("core.allocate", "calls"),
    "core.allocate.self_s": ("core.allocate", "self_s"),
    "core.allocate.failed": ("core.allocate", "failed"),
    "core.scale.calls": ("core.scale", "calls"),
    "core.scale.self_s": ("core.scale", "self_s"),
    "core.processor.self_s": ("core.processor", "self_s"),
    "noc.configure.calls": ("noc.configure", "calls"),
    "noc.configure.self_s": ("noc.configure", "self_s"),
    "noc.configure.failed": ("noc.configure", "failed"),
    "noc.drained.calls": ("noc.drained", "calls"),
    "noc.drained.self_s": ("noc.drained", "self_s"),
    "noc.deliver.calls": ("noc.deliver", "calls"),
    "noc.deliver.self_s": ("noc.deliver", "self_s"),
    "topology.linear_order.calls": ("topology.linear_order", "calls"),
    "topology.linear_order.self_s": ("topology.linear_order", "self_s"),
    "service.codec.calls": ("service.codec", "calls"),
    "service.codec.self_s": ("service.codec", "self_s"),
    "service.handle.calls": ("service.handle", "calls"),
    "service.handle.self_s": ("service.handle", "self_s"),
    "service.fabric.self_s": ("service.fabric", "self_s"),
    "service.owned_clusters.calls": ("service.owned_clusters", "calls"),
    "service.owned_clusters.self_s": ("service.owned_clusters", "self_s"),
    "service.script.self_s": ("service.script", "self_s"),
    "service.report.self_s": ("service.report", "self_s"),
    "telemetry.calls": ("telemetry", "calls"),
    "telemetry.self_s": ("telemetry", "self_s"),
}


#: Unit of each per-layer metric field.
_FIELD_UNITS = {
    "calls": "count", "failed": "count", "self_s": "s", "us_per_call": "us",
    "engine_hit_ratio": "ratio", "draw_distinct_ratio": "ratio",
}
#: Harness metrics every traced run adds to LAYER_METRICS.
HARNESS_UNITS = {
    "trace.wall_s": "s", "unattributed_s": "s", "trace.overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name in HARNESS_UNITS:
        return HARNESS_UNITS[name]
    return _FIELD_UNITS[LAYER_METRICS[name][1]]


def preload() -> None:
    for name in PRELOAD:
        importlib.import_module(name)


def _repro_modules() -> List[Any]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patches:
    """Replace functions at every binding site; undo on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` (``module:func`` or ``module:Class.meth``)
        with ``make(original)``."""
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            sites = [(owner, attr)]
        else:
            original = getattr(module, qualname)
            sites = [
                (m, name)
                for m in _repro_modules()
                for name, value in list(vars(m).items())
                if value is original
            ]
        wrapper = make(original)
        for owner, attr in sites:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


class _NoGate:
    def hold(self) -> None:
        pass

    def release(self) -> None:
        pass


def op_timer(
    spans: List[Tuple[float, float]], clock: Callable[[], float],
    gate: Any = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory appending each call's start and end on ``clock``
    to ``spans``.

    ``gate`` (a ``hostspeed.HostClock``) is held for the length of each
    call, so no calibration tick lands inside one.
    """
    gate = gate if gate is not None else _NoGate()

    def make(fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                gate.hold()
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append((t0, clock()))
                    gate.release()

            return timed_async

        def timed(*args: Any, **kwargs: Any) -> Any:
            gate.hold()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((t0, clock()))
                gate.release()

        return timed

    return make


class SpanRecorder:
    """In-memory spans for one traced CLI run, aggregated per group.

    Spans are four parallel arrays (group, parent span, start, end);
    self time is accumulated as spans close.  Wrapped functions are all
    synchronous, and the service's in-process client never suspends
    inside one, so spans nest strictly.
    """

    def __init__(self) -> None:
        self.groups = list(GROUPS)
        n = len(self.groups)
        self.calls = [0] * n
        self.failed = [0] * n
        self.self_s = [0.0] * n
        self.group = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        self._child: List[float] = []
        #: (plan id, kind, site) of every FaultPlan.draw call; plans are
        #: kept alive so their ids stay unique for the run.
        self._draw_keys: set = set()
        self._plans: Dict[int, Any] = {}
        self._engines: Dict[int, Any] = {}

    def install(self, patches: Patches) -> None:
        for gid, name in enumerate(self.groups):
            for target in GROUPS[name]:
                patches.wrap(target, self._maker(gid, name))

    def _maker(self, gid: int, name: str) -> Callable[[Callable], Callable]:
        clock = time.perf_counter
        group, parent, start, end = self.group, self.parent, self.start, self.end
        open_, child = self._open, self._child
        calls, failed, self_s = self.calls, self.failed, self.self_s
        note = None
        if name == "faults.draw":
            note = self._note_draw
        elif name == "engine.trial":
            note = self._note_engine

        def make(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if note is not None:
                    note(args)
                idx = len(group)
                group.append(gid)
                parent.append(open_[-1] if open_ else -1)
                start.append(0.0)
                end.append(0.0)
                open_.append(idx)
                child.append(0.0)
                ok = False
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    t1 = clock()
                    open_.pop()
                    dur = t1 - t0
                    self_s[gid] += dur - child.pop()
                    if child:
                        child[-1] += dur
                    calls[gid] += 1
                    if not ok:
                        failed[gid] += 1
                    start[idx] = t0
                    end[idx] = t1

            return traced

        return make

    def _note_draw(self, args: Tuple[Any, ...]) -> None:
        plan, kind, site = args[0], args[1], args[2]
        self._plans[id(plan)] = plan
        self._draw_keys.add((id(plan), kind, site))

    def _note_engine(self, args: Tuple[Any, ...]) -> None:
        self._engines[id(args[0])] = args[0]

    # -- results -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Call and failure counts per group (the deterministic part)."""
        out = {}
        for gid, name in enumerate(self.groups):
            out[f"{name}.calls"] = self.calls[gid]
            out[f"{name}.failed"] = self.failed[gid]
        out["faults.draw.distinct"] = len(self._draw_keys)
        return out

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer (group name up to its first dot)."""
        out: Dict[str, int] = {}
        for gid, name in enumerate(self.groups):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0) + self.calls[gid]
        return out

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """The per-layer metric values of this run (see LAYER_METRICS)."""
        index = {name: gid for gid, name in enumerate(self.groups)}
        draws = self.calls[index["faults.draw"]]
        cached = sum(e.trials_cached for e in self._engines.values())
        live = sum(e.trials_live for e in self._engines.values())
        derived = {
            "engine_hit_ratio": cached / (cached + live) if cached + live else 0.0,
            "draw_distinct_ratio": len(self._draw_keys) / draws if draws else 0.0,
        }
        out: Dict[str, float] = {}
        for metric, (group, field) in LAYER_METRICS.items():
            if group is None:
                out[metric] = derived[field]
                continue
            gid = index[group]
            if field == "us_per_call":
                calls = self.calls[gid]
                out[metric] = self.self_s[gid] / calls * 1e6 if calls else 0.0
            else:
                out[metric] = getattr(self, field)[gid]
        out["trace.wall_s"] = wall_s
        out["unattributed_s"] = wall_s - sum(self.self_s)
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped column JSON (times in ns from the
        first span's start)."""
        t0 = min(self.start) if self.start else 0.0
        doc = {
            "groups": self.groups,
            "group": list(self.group),
            "parent": list(self.parent),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
