"""Whole-sweep identity: the sweep driver must reproduce the live
reference sweeps byte for byte — results, report JSON, registry and
traces — in serial, warm, traced and process-pool modes."""

import pytest

from repro import telemetry
from repro.csd.simulator import figure3_series
from repro.engine import SweepEngine, run_faults, run_fig3
from repro.faults.campaign import report_json, run_campaign
from repro.telemetry.export import to_chrome_trace

LOCALITIES = [1.0, 0.5, 0.0]
N_OBJECTS = [16, 32]
RATES = [0.0, 0.05]


@pytest.fixture(autouse=True)
def _clean():
    telemetry.reset()
    yield
    telemetry.reset()


def _registry_signature():
    """Counters/events/timer-calls, minus wall time and the engine's own
    effectiveness metrics (which the legacy path by definition lacks)."""
    snap = telemetry.snapshot()
    return (
        {
            k: v for k, v in snap.get("counters", {}).items()
            if not k.startswith("engine.")
        },
        {k: v["calls"] for k, v in snap.get("timers", {}).items()},
        {
            k: v for k, v in snap.get("histograms", {}).items()
            if not k.startswith("engine.")
        },
    )


class TestFig3Identity:
    def _legacy(self):
        telemetry.reset()
        series = figure3_series(
            localities=LOCALITIES, n_trials=4, seed=42, n_objects_list=N_OBJECTS
        )
        return series, _registry_signature()

    def test_serial_engine_matches_legacy(self):
        series, sig = self._legacy()
        telemetry.reset()
        got = run_fig3(
            localities=LOCALITIES, n_trials=4, seed=42, n_objects_list=N_OBJECTS
        )
        assert got == series
        assert _registry_signature() == sig

    def test_warm_rerun_matches_cold(self):
        series, sig = self._legacy()
        engine = SweepEngine()
        kwargs = dict(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS, engine=engine,
        )
        telemetry.reset()
        cold = run_fig3(**kwargs)
        telemetry.reset()
        warm = run_fig3(**kwargs)
        assert cold == warm == series
        assert _registry_signature() == sig
        assert engine.trials_live == 0  # every trial resolved or replayed

    def test_batched_parallel_matches_legacy(self):
        series, sig = self._legacy()
        telemetry.reset()
        got = run_fig3(
            localities=LOCALITIES, n_trials=4, seed=42,
            n_objects_list=N_OBJECTS, workers=2,
        )
        assert got == series
        assert _registry_signature() == sig

    def test_instrumented_run_delegates_to_legacy(self):
        """Spans cannot be replayed: with the tracer on the engine hands
        every trial to the live simulator, so the trace is the reference
        sweep's."""
        kwargs = dict(
            localities=LOCALITIES, n_trials=2, seed=42,
            n_objects_list=N_OBJECTS,
        )
        runs = []
        for sweep in (figure3_series, run_fig3):
            telemetry.reset()
            telemetry.enable_tracing()
            runs.append((sweep(**kwargs), to_chrome_trace(telemetry.tracer())))
        telemetry.enable_tracing(False)
        assert runs[0] == runs[1]
        assert len(runs[0][1]["traceEvents"]) > 1  # spans were recorded

    def test_rejects_bad_arguments_before_dispatch(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="need at least one trial"):
            run_fig3(n_trials=0, n_objects_list=N_OBJECTS, workers=2)
        with pytest.raises(ValueError, match="need at least two objects"):
            run_fig3(n_trials=1, n_objects_list=[1], workers=2)


class TestVectorKernelIdentity:
    """The vector cold path must be indistinguishable from the live
    simulator — results and registry alike."""

    def _legacy(self):
        telemetry.reset()
        series = figure3_series(
            localities=LOCALITIES, n_trials=3, seed=7, n_objects_list=N_OBJECTS
        )
        return series, _registry_signature()

    def test_fig3_vector_parallel_matches_serial(self):
        serial = run_fig3(
            localities=LOCALITIES, n_trials=3, seed=7,
            n_objects_list=N_OBJECTS,
        )
        telemetry.reset()
        parallel = run_fig3(
            localities=LOCALITIES, n_trials=3, seed=7,
            n_objects_list=N_OBJECTS, workers=2,
        )
        assert parallel == serial

    def test_faults_vector_with_pinned_csd_rate_matches_legacy(self):
        telemetry.reset()
        legacy = run_campaign(
            RATES, n_objects_list=[16], n_trials=2, seed=9, csd_rate=0.0
        )
        sig = _registry_signature()
        telemetry.reset()
        got = run_faults(
            RATES, n_objects_list=[16], n_trials=2, seed=9, csd_rate=0.0,
        )
        assert report_json(got) == report_json(legacy)
        assert _registry_signature() == sig
        assert got["csd_rate"] == 0.0

    def test_csd_rate_key_absent_when_not_pinned(self):
        report = run_faults([0.0], n_objects_list=[16], n_trials=1, seed=9)
        assert "csd_rate" not in report


class TestFaultsIdentity:
    KW = dict(n_objects_list=N_OBJECTS, n_trials=3, seed=42)

    def _legacy(self):
        telemetry.reset()
        report = run_campaign(RATES, **self.KW)
        return report, report_json(report), _registry_signature()

    def test_serial_engine_report_is_byte_identical(self):
        _, legacy_json, sig = self._legacy()
        telemetry.reset()
        got = run_faults(RATES, **self.KW)
        assert report_json(got) == legacy_json
        assert _registry_signature() == sig

    def test_warm_rerun_matches_cold(self):
        _, legacy_json, _ = self._legacy()
        engine = SweepEngine()
        telemetry.reset()
        cold = run_faults(RATES, engine=engine, **self.KW)
        telemetry.reset()
        warm = run_faults(RATES, engine=engine, **self.KW)
        assert report_json(cold) == report_json(warm) == legacy_json
        # rate-0 trials replay from cache; faulty trials must stay live
        assert engine.trials_cached > 0
        assert engine.trials_live > 0

    def test_batched_parallel_matches_legacy(self):
        _, legacy_json, sig = self._legacy()
        telemetry.reset()
        got = run_faults(RATES, workers=2, **self.KW)
        assert report_json(got) == legacy_json
        assert _registry_signature() == sig

    def test_traced_run_matches_reference_trace(self):
        kwargs = dict(n_objects_list=[16], n_trials=2, seed=42)
        runs = []
        for sweep in (run_campaign, run_faults):
            telemetry.reset()
            telemetry.enable_tracing()
            report = report_json(sweep(RATES, **kwargs))
            runs.append((report, to_chrome_trace(telemetry.tracer())))
        telemetry.enable_tracing(False)
        assert runs[0] == runs[1]

    def test_validates_arguments_like_legacy(self):
        for rates, kwargs, message in (
            ([], self.KW, "need at least one fault rate"),
            (RATES, dict(self.KW, n_objects_list=[]),
             "need at least one array size"),
            (RATES, dict(self.KW, n_trials=0), "need at least one trial"),
            ([0.0, 1.5], self.KW, r"fault rate must be in \[0, 1\]"),
        ):
            with pytest.raises(ValueError, match=message):
                run_campaign(rates, **kwargs)
            with pytest.raises(ValueError, match=message):
                run_faults(rates, workers=2, **kwargs)
