"""Tests for the Chrome-trace/Perfetto exporter and trace analysis.

Covers the satellite contracts: the exported JSON is valid Chrome
trace-event format (required keys, monotonically consistent ``ts``/
``dur``, pid/tid present), it loads back with the same span count the
tracer recorded, and a ``--workers N`` sweep's merged trace exports
byte-identically to the serial one.
"""

import json

import pytest

from repro import telemetry
from repro.csd.simulator import sweep_locality
from repro.engine import run_fig3
from repro.telemetry.analysis import (
    blocking_hotspots,
    critical_path,
    format_trace_report,
    load_chrome_trace,
    phase_histograms,
)
from repro.telemetry.export import to_chrome_trace, write_chrome_trace
from repro.telemetry.metrics import Histogram
from repro.telemetry.tracing import Tracer


@pytest.fixture(autouse=True)
def _clean_default_registry():
    telemetry.reset()
    telemetry.enable_tracing(False)
    yield
    telemetry.reset()
    telemetry.enable_tracing(False)


def traced_sweep(workers=None) -> Tracer:
    """The reference sweep's spans, or (with ``workers``) the sweep
    driver's, which the CLI records."""
    telemetry.reset()
    telemetry.enable_tracing()
    if workers is None:
        sweep_locality(8, [1.0, 0.0], n_trials=2, seed=3)
    else:
        run_fig3(
            [1.0, 0.0], n_trials=2, seed=3, n_objects_list=[8],
            workers=workers,
        )
    return telemetry.tracer()


class TestChromeTraceFormat:
    def test_required_keys_present(self):
        doc = to_chrome_trace(traced_sweep())
        assert "traceEvents" in doc
        for entry in doc["traceEvents"]:
            assert entry["ph"] in ("M", "X", "i")
            assert "pid" in entry and "tid" in entry and "name" in entry
            if entry["ph"] == "X":
                assert entry["ts"] >= 0
                assert entry["dur"] >= 0
                assert "args" in entry and "span_id" in entry["args"]
            if entry["ph"] == "i":
                assert entry["s"] == "t"

    def test_ts_dur_monotonically_consistent(self):
        """Children sit inside their parents' [ts, ts+dur] windows."""
        doc = to_chrome_trace(traced_sweep())
        slices = {
            e["args"]["span_id"]: e
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert slices
        for entry in slices.values():
            parent_id = entry["args"]["parent_id"]
            if parent_id is None:
                continue
            parent = slices[parent_id]
            assert parent["tid"] == entry["tid"]
            assert parent["ts"] <= entry["ts"]
            assert entry["ts"] + entry["dur"] <= parent["ts"] + parent["dur"]

    def test_each_root_tree_gets_a_thread_track(self):
        doc = to_chrome_trace(traced_sweep())
        thread_names = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        roots = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"]["parent_id"] is None
        ]
        assert len(thread_names) == len(roots) == 2  # two locality points

    def test_round_trip_preserves_span_count(self, tmp_path):
        tracer = traced_sweep()
        out = tmp_path / "trace.json"
        written = write_chrome_trace(tracer, str(out))
        assert written == len(tracer)
        reloaded = load_chrome_trace(str(out))
        assert len(reloaded) == written
        assert sorted(s.name for s in reloaded) == sorted(
            s.name for s in tracer.spans
        )

    def test_round_trip_preserves_causality_and_events(self, tmp_path):
        tracer = make_protocol_tracer()
        out = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(out))
        spans = load_chrome_trace(str(out))
        by_name = {s.name: s for s in spans}
        assert by_name["reserve"].parent_id == by_name["configure"].span_id
        assert [e.name for e in by_name["reserve"].events] == [
            "reserve.conflict"
        ]

    def test_json_is_loadable(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(traced_sweep(), str(out))
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_empty_tracer_exports_valid_doc(self):
        doc = to_chrome_trace(Tracer())
        assert doc["traceEvents"][0]["ph"] == "M"


class TestDeterminism:
    def test_workers_trace_merges_bit_identical_to_serial(self, tmp_path):
        reference = tmp_path / "reference.json"
        write_chrome_trace(traced_sweep(), str(reference))
        for workers in (1, 2):
            engine = tmp_path / f"engine-{workers}.json"
            write_chrome_trace(traced_sweep(workers=workers), str(engine))
            assert engine.read_bytes() == reference.read_bytes(), workers

    def test_export_excludes_wall_clock_by_default(self):
        doc = to_chrome_trace(traced_sweep())
        assert all(
            "wall_us" not in e.get("args", {}) for e in doc["traceEvents"]
        )

    def test_include_wall_opt_in(self):
        tracer = make_protocol_tracer()
        doc = to_chrome_trace(tracer, include_wall=True)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all("wall_us" in e["args"] for e in slices)


def make_protocol_tracer() -> Tracer:
    """A small hand-built reconfiguration trace with a known shape."""
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("configure", kind="reconfig", op_id=0) as root:
        with tracer.span("reserve") as r:
            r.add_event("reserve.conflict", at="switch (0, 1)-(0, 2)")
            tracer.advance(4)
        with tracer.span("commit"):
            tracer.advance(2)
        root.add_event("done")
    return tracer


class TestCriticalPath:
    def test_descends_into_longest_child(self):
        path = critical_path(make_protocol_tracer())
        assert [span.name for span, _ in path] == ["configure", "reserve"]
        (root, root_self), (reserve, reserve_self) = path
        assert root.cycles == 6
        assert root_self == 0  # fully covered by reserve + commit
        assert reserve.cycles == reserve_self == 4

    def test_root_name_filter(self):
        tracer = make_protocol_tracer()
        with tracer.span("other-root"):
            tracer.advance(100)
        path = critical_path(tracer, root_name="configure")
        assert path[0][0].name == "configure"

    def test_empty(self):
        assert critical_path(Tracer()) == []


class TestPhaseHistograms:
    def test_cycle_latency_percentiles(self):
        hists = phase_histograms(make_protocol_tracer())
        assert set(hists) == {"configure", "reserve", "commit"}
        assert hists["reserve"].p50 == 4
        assert hists["commit"].p99 == 2

    def test_histogram_percentile_math(self):
        hist = Histogram("lat", values=list(range(1, 101)))
        assert hist.p50 == 50
        assert hist.p95 == 95
        assert hist.p99 == 99
        assert hist.percentile(100) == 100
        assert hist.percentile(0) == 1

    def test_histogram_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(101)

    def test_empty_histogram_is_zero(self):
        hist = Histogram("lat")
        assert hist.p50 == 0.0 and hist.mean == 0.0 and hist.max == 0.0


class TestBlockingHotspots:
    def test_conflicts_keyed_by_site(self):
        hotspots = dict(blocking_hotspots(make_protocol_tracer()))
        assert hotspots["reserve.conflict @ at=switch (0, 1)-(0, 2)"] == 1

    def test_error_spans_count(self):
        tracer = Tracer()
        tracer.enabled = True
        with pytest.raises(RuntimeError):
            with tracer.span("csd.connect", lo=0, hi=7):
                raise RuntimeError
        (key, count), = blocking_hotspots(tracer)
        assert count == 1 and key.startswith("csd.connect")

    def test_sorted_most_frequent_first(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("op") as s:
            s.add_event("block", where="a")
            s.add_event("block", where="b")
            s.add_event("block", where="b")
        assert [k for k, _ in blocking_hotspots(tracer)] == [
            "block @ where=b", "block @ where=a",
        ]


class TestTraceReport:
    def test_report_sections(self):
        report = format_trace_report(make_protocol_tracer())
        assert "Critical path" in report
        assert "Phase latency [cycles]" in report
        assert "p50" in report and "p95" in report and "p99" in report
        assert "Blocking hotspots" in report
        assert "reserve.conflict" in report

    def test_empty_trace_report(self):
        assert "empty trace" in format_trace_report([])
