"""Unit tests for the command-line interface."""

import json

import pytest

from repro import __version__, telemetry
from repro.__main__ import main


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    telemetry.enable_tracing(False)
    telemetry.enable_observation(False)
    yield
    telemetry.reset()
    telemetry.enable_tracing(False)
    telemetry.enable_observation(False)


class TestTableCommand:
    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_area_tables(self, number, capsys):
        assert main(["table", str(number)]) == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "lambda^2" in out

    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "Peak GOPS" in out
        assert "2010" in out and "2015" in out

    def test_unknown_table_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestFig3Command:
    def test_small_sweep(self, capsys):
        assert main(["fig3", "--n-objects", "16", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "Nobject=16" in out
        assert "used_channels=" in out

    def test_stats_prints_telemetry_counters(self, capsys):
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "grants=" in out and "blocks=" in out and "rollbacks=" in out
        assert "csd.connect.grants" in out
        assert "fig3.trial" in out

    def test_workers_match_serial_output(self, capsys):
        args = ["fig3", "--n-objects", "16", "32", "--trials", "2"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out


class TestReproducibilityBanner:
    def test_stats_prints_banner(self, capsys):
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--stats",
             "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert f"repro {__version__} fig3: seed=7 trials=2 workers=1" in out

    def test_banner_reports_worker_count(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--workers", "2", "--trace", str(trace)]
        ) == 0
        assert "seed=42 trials=2 workers=2" in capsys.readouterr().out

    def test_plain_fig3_has_no_banner(self, capsys):
        assert main(["fig3", "--n-objects", "16", "--trials", "2"]) == 0
        assert "seed=" not in capsys.readouterr().out

    def test_version_flag(self, capsys):
        import numpy

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == (
            f"repro {__version__} (numpy {numpy.__version__})"
        )

    def test_banner_reports_numpy_version(self, capsys):
        import numpy

        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2", "--stats"]
        ) == 0
        assert f"numpy={numpy.__version__}" in capsys.readouterr().out


class TestTraceCommands:
    def test_trace_writes_perfetto_loadable_json(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "perfetto" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_then_report_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "fig3.point" in out and "fig3.trial" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "Blocking hotspots" in out

    def test_trace_disables_tracing_afterwards(self, tmp_path):
        trace = tmp_path / "trace.json"
        main(["fig3", "--n-objects", "16", "--trials", "2",
              "--trace", str(trace)])
        assert telemetry.tracer().enabled is False

    def test_report_missing_file_is_an_error(self, capsys, tmp_path):
        assert main(["trace-report", str(tmp_path / "nope.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_malformed_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert main(["trace-report", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_json_without_trace_events_is_an_error(
        self, capsys, tmp_path
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a trace"}')
        assert main(["trace-report", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err


BUNDLE_FILES = [
    "dashboard.html",
    "heatmaps.csv",
    "metrics.prom",
    "observe.json",
    "series.csv",
]


class TestObserveCommands:
    def test_fig3_observe_writes_bundle(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out)]
        ) == 0
        assert "wrote observation bundle" in capsys.readouterr().out
        for name in BUNDLE_FILES:
            assert (out / name).exists(), name
        assert (out / "metrics.prom").read_text().endswith("# EOF\n")
        assert "repro_fig3_used_channels" in (out / "metrics.prom").read_text()
        assert telemetry.observer().enabled is False

    def test_faults_observe_writes_bundle(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["faults", "--rates", "0.1", "--n-objects", "16",
             "--trials", "1", "--observe", str(out)]
        ) == 0
        metrics = (out / "metrics.prom").read_text()
        assert "repro_faults_survival" in metrics
        assert "repro_faults_recovery_p95" in metrics
        assert "repro_noc_buffer_depth_cells" in metrics

    def test_observe_workers_match_serial_bytes(self, capsys, tmp_path):
        """Acceptance criterion: serial and --workers runs produce
        byte-identical OpenMetrics and heatmap artifacts."""
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        args = ["fig3", "--n-objects", "16", "32", "--trials", "2"]
        assert main(args + ["--observe", str(serial)]) == 0
        assert main(
            args + ["--observe", str(parallel), "--workers", "2"]
        ) == 0
        for name in BUNDLE_FILES:
            assert (serial / name).read_bytes() == (
                parallel / name
            ).read_bytes(), name

    def test_observe_report_round_trip(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out)]
        ) == 0
        capsys.readouterr()
        # accepts the directory or the observe.json inside it
        assert main(["observe-report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "fig3.used_channels[n=16,loc=" in report
        assert main(["observe-report", str(out / "observe.json")]) == 0

    def test_observe_report_missing_is_an_error(self, capsys, tmp_path):
        assert main(["observe-report", str(tmp_path / "nope")]) == 2
        assert "cannot read observation" in capsys.readouterr().err

    def test_observe_report_malformed_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "observe.json"
        bad.write_text("{broken")
        assert main(["observe-report", str(bad)]) == 2
        assert "cannot read observation" in capsys.readouterr().err

    def test_observe_report_malformed_label_is_an_error(self, capsys, tmp_path):
        """An instrument name with a broken label block must be rejected
        with exit 2, not silently mis-parsed into wrong labels."""
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out)]
        ) == 0
        capsys.readouterr()
        doc_path = out / "observe.json"
        doc = json.loads(doc_path.read_text())
        first = next(iter(doc["gauges"]))
        doc["gauges"]["broken[n=16"] = doc["gauges"].pop(first)
        doc_path.write_text(json.dumps(doc))
        assert main(["observe-report", str(doc_path)]) == 2
        assert "malformed point label" in capsys.readouterr().err


class TestQuietFlag:
    def test_quiet_suppresses_fig3_banner(self, capsys, tmp_path):
        out = tmp_path / "obs"
        assert main(
            ["fig3", "--n-objects", "16", "--trials", "2",
             "--observe", str(out), "--quiet"]
        ) == 0
        assert "seed=" not in capsys.readouterr().out

    def test_quiet_suppresses_faults_banner(self, capsys):
        assert main(
            ["faults", "--rates", "0.1", "--n-objects", "16",
             "--trials", "1", "--quiet"]
        ) == 0
        assert "seed=" not in capsys.readouterr().out


NOOP_NOTICE = "--engine and --kernel are no-ops"


class TestEngineFlag:
    """``--engine`` is an accepted no-op: every sweep already runs on the
    engine, so stdout and the report file stay byte-identical and one
    notice goes to stderr."""

    def _fig3(self, capsys, extra=()):
        assert main(
            ["fig3", "--n-objects", "16", "32", "--trials", "3", *extra]
        ) == 0
        return capsys.readouterr()

    def test_fig3_engine_matches_plain_stdout(self, capsys):
        plain = self._fig3(capsys)
        eng = self._fig3(capsys, ["--engine"])
        assert eng.out == plain.out
        assert plain.err == ""
        assert eng.err.count("\n") == 1 and NOOP_NOTICE in eng.err

    def test_fig3_engine_workers_match_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        eng = self._fig3(capsys, ["--engine", "--workers", "2"])
        assert eng.out == plain

    def test_faults_engine_report_matches_plain(self, capsys, tmp_path):
        plain, eng = tmp_path / "plain.json", tmp_path / "eng.json"
        base = [
            "faults", "--rates", "0", "0.05", "--n-objects", "16",
            "--trials", "2", "--quiet",
        ]
        assert main([*base, "--report", str(plain)]) == 0
        assert main([*base, "--engine", "--report", str(eng)]) == 0
        err = capsys.readouterr().err
        assert plain.read_bytes() == eng.read_bytes()
        assert err.count("\n") == 1 and NOOP_NOTICE in err

    def test_engine_with_observe_stays_on_engine(self, capsys, tmp_path):
        live, eng = tmp_path / "live", tmp_path / "eng"
        self._fig3(capsys, ["--quiet", "--observe", str(live)])
        res = self._fig3(
            capsys, ["--quiet", "--engine", "--observe", str(eng)]
        )
        assert NOOP_NOTICE in res.err
        for name in BUNDLE_FILES:
            assert (eng / name).read_bytes() == (live / name).read_bytes()

    def test_engine_with_trace_falls_back(self, capsys, tmp_path):
        """Traced trials fall back to the live simulator whatever the
        flags say, so the trace is the same with or without --engine."""
        plain, eng = tmp_path / "plain.json", tmp_path / "eng.json"
        self._fig3(capsys, ["--trace", str(plain)])
        res = self._fig3(capsys, ["--engine", "--trace", str(eng)])
        assert NOOP_NOTICE in res.err
        assert eng.read_bytes() == plain.read_bytes()


class TestVectorKernelFlag:
    """``--kernel`` is an accepted no-op like ``--engine``: the engine
    always runs the vector kernel."""

    def _fig3(self, capsys, extra=()):
        assert main(
            ["fig3", "--n-objects", "16", "32", "--trials", "3", *extra]
        ) == 0
        return capsys.readouterr()

    def test_fig3_vector_matches_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        vec = self._fig3(capsys, ["--engine", "--kernel", "vector"])
        assert vec.out == plain
        assert vec.err.count("\n") == 1 and NOOP_NOTICE in vec.err

    def test_fig3_vector_workers_match_plain_stdout(self, capsys):
        plain = self._fig3(capsys).out
        vec = self._fig3(
            capsys, ["--engine", "--kernel", "vector", "--workers", "2"]
        )
        assert vec.out == plain

    @pytest.mark.parametrize("kernel", ["vector", "route"])
    def test_kernel_alone_is_a_noop(self, capsys, kernel):
        plain = self._fig3(capsys).out
        res = self._fig3(capsys, ["--kernel", kernel])
        assert res.out == plain
        assert res.err.count("\n") == 1 and NOOP_NOTICE in res.err

    def test_kernel_with_trace_is_a_noop(self, capsys, tmp_path):
        plain, vec = tmp_path / "plain.json", tmp_path / "vec.json"
        base = ["faults", "--rates", "0", "--n-objects", "16", "--trials",
                "1", "--quiet"]
        assert main([*base, "--trace", str(plain)]) == 0
        assert main(
            [*base, "--engine", "--kernel", "vector", "--trace", str(vec)]
        ) == 0
        assert NOOP_NOTICE in capsys.readouterr().err
        assert vec.read_bytes() == plain.read_bytes()

    def test_vector_observe_bundle_matches_live(self, capsys, tmp_path):
        """The engine's replayed observation bundle is the byte-exact
        bundle of the live reference sweep."""
        from repro.csd.simulator import figure3_series
        from repro.telemetry.exposition import write_observation

        live, vec = tmp_path / "live", tmp_path / "vec"
        telemetry.enable_observation()
        figure3_series(
            localities=[1.0, 0.8, 0.6, 0.4, 0.2, 0.0], n_trials=2,
            n_objects_list=[16, 64],
        )
        write_observation(telemetry.snapshot(), str(live),
                          title="fig3 observation")
        telemetry.reset()
        assert main(
            ["fig3", "--n-objects", "16", "64", "--trials", "2", "--quiet",
             "--engine", "--kernel", "vector", "--observe", str(vec)]
        ) == 0
        capsys.readouterr()
        for name in BUNDLE_FILES:
            assert (vec / name).read_bytes() == (live / name).read_bytes()

    def test_faults_vector_csd_rate_report_matches_plain(
        self, capsys, tmp_path
    ):
        plain, vec = tmp_path / "plain.json", tmp_path / "vec.json"
        base = [
            "faults", "--rates", "0", "0.05", "--n-objects", "16",
            "--trials", "2", "--csd-rate", "0", "--quiet",
        ]
        assert main([*base, "--report", str(plain)]) == 0
        assert main(
            [*base, "--engine", "--kernel", "vector", "--report", str(vec)]
        ) == 0
        capsys.readouterr()
        assert plain.read_bytes() == vec.read_bytes()
        assert json.loads(plain.read_text())["csd_rate"] == 0.0


class TestSweepPath:
    """Which trials a fig3 run executes live: none untraced (the engine
    resolves and replays them), every one under --trace (spans cannot be
    replayed)."""

    ARGS = ["fig3", "--n-objects", "16", "32", "--trials", "2"]

    @pytest.fixture
    def live_trials(self, monkeypatch):
        from repro.csd.simulator import CSDSimulator

        calls = []
        real = CSDSimulator.run_trial

        def run_trial(self, *args, **kwargs):
            calls.append(self.n_objects)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(CSDSimulator, "run_trial", run_trial)
        return calls

    def test_untraced_fig3_runs_no_live_trial(
        self, capsys, tmp_path, live_trials
    ):
        assert main(self.ARGS) == 0
        assert main(
            [*self.ARGS, "--stats", "--profile", "--observe", str(tmp_path)]
        ) == 0
        assert live_trials == []

    def test_traced_fig3_runs_every_trial_live(
        self, capsys, tmp_path, live_trials
    ):
        assert main([*self.ARGS, "--trace", str(tmp_path / "t.json")]) == 0
        # 2 sizes x 6 localities x 2 trials
        assert len(live_trials) == 24


class TestSweepInputErrors:
    """Bad numbers on a fig3/faults command line are one stderr line and
    exit 2, never a traceback."""

    def _rejected(self, capsys, argv, needle):
        assert main(argv) == 2
        res = capsys.readouterr()
        assert res.out == ""
        assert res.err.count("\n") == 1 and needle in res.err
        assert "Traceback" not in res.err

    @pytest.mark.parametrize("command", ["fig3", "faults"])
    def test_trials_below_one(self, capsys, command):
        self._rejected(
            capsys, [command, "--n-objects", "16", "--trials", "0"],
            f"{command}: --trials must be at least 1, got 0",
        )

    @pytest.mark.parametrize("command", ["fig3", "faults"])
    def test_n_objects_below_two(self, capsys, command):
        self._rejected(
            capsys, [command, "--n-objects", "16", "1", "--trials", "1"],
            f"{command}: --n-objects must be at least 2, got 1",
        )

    @pytest.mark.parametrize("command", ["fig3", "faults"])
    def test_workers_below_one(self, capsys, command):
        self._rejected(
            capsys,
            [command, "--n-objects", "16", "--trials", "1", "--workers", "-3"],
            f"{command}: --workers must be at least 1, got -3",
        )

    @pytest.mark.parametrize("flag", ["--rate", "--rates", "--csd-rate"])
    @pytest.mark.parametrize("rate", ["1.5", "-0.1", "nan"])
    def test_rate_outside_unit_interval(self, capsys, flag, rate):
        self._rejected(
            capsys,
            ["faults", "--n-objects", "16", "--trials", "1", flag, rate],
            f"faults: {flag} must be in [0, 1], got",
        )


class TestBaselineCommand:
    def test_record_then_check_passes(self, capsys, tmp_path):
        out = tmp_path / "BENCH_fig3.json"
        assert main(
            ["baseline", "record", "--bench", "fig3", "--out", str(out)]
        ) == 0
        assert "recorded fig3 baseline" in capsys.readouterr().out
        assert main(
            ["baseline", "check", str(out), "--skip-wallclock"]
        ) == 0
        assert "baseline holds" in capsys.readouterr().out

    def test_engine_bench_record_then_check(self, capsys, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        assert main(
            ["baseline", "record", "--bench", "engine", "--out", str(out)]
        ) == 0
        assert "recorded engine baseline" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["wallclock"]["speedup"] >= 2.0
        assert doc["deterministic"]["engine.identical_warm"] == 1.0
        assert doc["deterministic"]["engine.identical_legacy"] == 1.0
        assert main(["baseline", "check", str(out), "--skip-wallclock"]) == 0
        assert "baseline holds" in capsys.readouterr().out

    def test_check_malformed_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{nope")
        assert main(["baseline", "check", str(bad)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_unknown_bench_rejected(self, capsys, tmp_path):
        assert main(
            ["baseline", "record", "--bench", "fig9",
             "--out", str(tmp_path / "x.json")]
        ) == 2


class TestFaultsCommand:
    ARGS = ["faults", "--rate", "0.05", "--n-objects", "16", "--trials", "2"]

    def test_small_campaign(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "survival" in out
        assert f"repro {__version__} faults: seed=42 trials=2" in out

    def test_stats_prints_recovery_percentiles(self, capsys):
        assert main(self.ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "triggered=" in out and "exhausted=" in out
        assert "recovery cycles:" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_workers_match_serial_output(self, capsys):
        assert main(self.ARGS) == 0
        serial_out = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out.replace("workers=1", "workers=2") == parallel_out

    def test_report_file_is_canonical_json(self, capsys, tmp_path):
        report = tmp_path / "campaign.json"
        assert main(self.ARGS + ["--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.faults.campaign/1"
        assert doc["points"][0]["recovery_cycles"]["p99"] >= 0
        serial = report.read_text()
        report2 = tmp_path / "campaign2.json"
        assert main(
            self.ARGS + ["--workers", "2", "--report", str(report2)]
        ) == 0
        assert report2.read_text() == serial

    def test_trace_writes_fault_spans(self, capsys, tmp_path):
        trace = tmp_path / "faults.json"
        assert main(self.ARGS + ["--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "faults.point" in names
        assert telemetry.tracer().enabled is False

    def test_default_rate_sweep(self, capsys):
        assert main(
            ["faults", "--n-objects", "16", "--trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "rates=0,0.02,0.05,0.1,0.2" in out


class TestChipCommand:
    def test_summary(self, capsys):
        assert main(["chip", "--rows", "4", "--cols", "4"]) == 0
        out = capsys.readouterr().out
        assert "4x4 S-topology: 16 clusters" in out
        assert "minimum AP" in out


class TestServiceLoadCommand:
    ARGS = [
        "service-load", "--tenants", "2", "--requests", "5",
        "--rps", "200", "--seed", "7",
    ]

    def test_prints_summary_and_banner(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert f"repro {__version__} service-load: seed=7" in out
        assert "latency cycles p50=" in out
        assert "utilization=" in out

    def test_report_file_is_canonical_and_seed_stable(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        again = tmp_path / "b.json"
        assert main(self.ARGS + ["--report", str(first)]) == 0
        assert main(self.ARGS + ["--report", str(again), "--quiet"]) == 0
        assert first.read_text() == again.read_text()
        doc = json.loads(first.read_text())
        assert doc["schema"] == "repro.service.load/2"
        assert doc["requests"]["total"] == 2 * (5 + 2)

    def test_tcp_transport_matches_inproc(self, capsys, tmp_path):
        inproc = tmp_path / "inproc.json"
        tcp = tmp_path / "tcp.json"
        assert main(self.ARGS + ["--report", str(inproc), "--quiet"]) == 0
        assert main(
            self.ARGS
            + ["--transport", "tcp", "--report", str(tcp), "--quiet"]
        ) == 0
        assert inproc.read_text() == tcp.read_text()

    def test_quiet_suppresses_banner(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert main(self.ARGS + ["--quiet", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "service-load: seed" not in out.splitlines()[0]

    def test_impossible_shard_is_exit_2(self, capsys):
        assert main(
            ["service-load", "--tenants", "20", "--rows", "4", "--cols", "4"]
        ) == 2
        assert "cannot shard" in capsys.readouterr().err

    def test_observe_writes_bundle(self, capsys, tmp_path):
        obs = tmp_path / "obs"
        report = tmp_path / "r.json"
        assert main(
            self.ARGS
            + ["--quiet", "--observe", str(obs), "--report", str(report)]
        ) == 0
        assert (obs / "observe.json").exists()
        assert (obs / "metrics.prom").exists()
        assert telemetry.observer().enabled is False

    def test_profile_prints_handle_stage(self, capsys):
        assert main(self.ARGS + ["--quiet", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile.service.handle.seconds" in out


HOLDING_SLO = """\
[[objective]]
name = "latency-p99"
kind = "latency_p99"
threshold = 400000
window = 65536
budget = 0.25
"""

BREACHED_SLO = """\
[[objective]]
name = "impossible-latency"
kind = "latency_p99"
threshold = 0
window = 65536
budget = 0.25
"""


class TestServiceObservabilityCLI:
    ARGS = [
        "service-load", "--tenants", "2", "--requests", "5",
        "--rps", "200", "--seed", "7", "--quiet",
    ]

    def _spec(self, tmp_path, text):
        path = tmp_path / "slo.toml"
        path.write_text(text)
        return str(path)

    def test_slo_verdict_drives_the_exit_code(self, capsys, tmp_path):
        holding = self._spec(tmp_path, HOLDING_SLO)
        assert main(self.ARGS + ["--slo", holding]) == 0
        assert "all error budgets hold" in capsys.readouterr().out
        breached = tmp_path / "bad.toml"
        breached.write_text(BREACHED_SLO)
        assert main(self.ARGS + ["--slo", str(breached)]) == 1
        assert "error budget exhausted" in capsys.readouterr().out

    def test_malformed_slo_spec_is_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "nope.toml"
        spec.write_text("[[objective]]\nname = \"x\"\n")  # missing keys
        assert main(self.ARGS + ["--slo", str(spec)]) == 2
        assert "bad SLO spec" in capsys.readouterr().err

    def test_slo_lands_in_the_report_document(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        assert main(
            self.ARGS
            + ["--slo", self._spec(tmp_path, HOLDING_SLO),
               "--report", str(report)]
        ) == 0
        doc = json.loads(report.read_text())
        assert doc["slo"]["breached"] is False
        (entry,) = doc["slo"]["objectives"]
        assert entry["name"] == "latency-p99"

    def test_trace_is_byte_stable_and_tallied(self, capsys, tmp_path):
        first = tmp_path / "a-trace.json"
        again = tmp_path / "b-trace.json"
        report = tmp_path / "r.json"
        assert main(
            self.ARGS + ["--trace", str(first), "--report", str(report)]
        ) == 0
        assert main(self.ARGS + ["--trace", str(again)]) == 0
        assert first.read_text() == again.read_text()
        doc = json.loads(report.read_text())
        assert doc["trace"]["spans"] > 0
        assert doc["trace"]["dropped"] == 0
        assert "wrote" in capsys.readouterr().out

    def test_records_dump_round_trips_through_slo_report(
        self, capsys, tmp_path
    ):
        records = tmp_path / "records.json"
        assert main(self.ARGS + ["--records", str(records)]) == 0
        doc = json.loads(records.read_text())
        assert doc["schema"] == "repro.service.records/1"
        assert all("owned_clusters" in r for r in doc["records"]
                   if r["op"] != "metrics")
        capsys.readouterr()
        holding = self._spec(tmp_path, HOLDING_SLO)
        out_report = tmp_path / "slo-report.json"
        assert main(
            ["slo-report", holding, "--records", str(records),
             "--report", str(out_report)]
        ) == 0
        assert "all error budgets hold" in capsys.readouterr().out
        assert json.loads(out_report.read_text())["breached"] is False

    def test_slo_report_breach_is_exit_1(self, capsys, tmp_path):
        records = tmp_path / "records.json"
        assert main(self.ARGS + ["--records", str(records)]) == 0
        breached = tmp_path / "bad.toml"
        breached.write_text(BREACHED_SLO)
        assert main(
            ["slo-report", str(breached), "--records", str(records)]
        ) == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_slo_report_rejects_malformed_inputs(self, capsys, tmp_path):
        holding = self._spec(tmp_path, HOLDING_SLO)
        missing = tmp_path / "missing.json"
        assert main(
            ["slo-report", holding, "--records", str(missing)]
        ) == 2
        assert "cannot read records" in capsys.readouterr().err
        not_records = tmp_path / "other.json"
        not_records.write_text('{"schema": "something.else/1"}')
        assert main(
            ["slo-report", holding, "--records", str(not_records)]
        ) == 2
        assert "records document" in capsys.readouterr().err

    def test_connect_excludes_in_process_planes(self, capsys, tmp_path):
        assert main(
            self.ARGS + ["--connect", "127.0.0.1:1", "--trace",
                         str(tmp_path / "t.json")]
        ) == 2
        assert "cannot be combined with --connect" in (
            capsys.readouterr().err
        )

    def test_connect_wants_host_port(self, capsys):
        assert main(self.ARGS + ["--connect", "just-a-host"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
