"""Unit tests for the functional CSD simulator (Figure 3)."""

import pytest

from repro.csd.locality import ChainingRequest, LocalityWorkload
from repro.csd.simulator import (
    CSDSimulator,
    FIGURE3_NOBJECTS,
    figure3_series,
    sweep_locality,
)
from repro.engine import run_fig3


class TestSingleTrial:
    def test_trial_fields(self):
        res = CSDSimulator(32, seed=1).run_trial(0.5)
        assert res.n_objects == 32
        assert res.requests == 31
        assert 1 <= res.used_channels <= 32
        assert res.highest_channel >= res.used_channels  # first-fit can leave gaps? no:
        # with first-fit and no releases, used == highest; assert equality
        assert res.highest_channel == res.used_channels

    def test_no_blocking_with_n_channels(self):
        # "Nobject channels were not used" -- with N channels provisioned
        # nothing ever blocks.
        for loc in (0.0, 0.5, 1.0):
            assert CSDSimulator(64, seed=2).run_trial(loc).blocked == 0

    def test_reproducible(self):
        a = CSDSimulator(64, seed=42).run_trial(0.3)
        b = CSDSimulator(64, seed=42).run_trial(0.3)
        assert a == b

    def test_channel_fraction(self):
        res = CSDSimulator(64, seed=1).run_trial(0.0)
        assert res.channel_fraction == res.used_channels / 64

    def test_rejects_tiny_array(self):
        with pytest.raises(ValueError):
            CSDSimulator(1)

    def test_malformed_request_propagates(self, monkeypatch):
        # Regression: a bare ``except Exception`` used to count logic
        # bugs as "blocked"; only ChannelAllocationError is a block.
        bad = [ChainingRequest(sink=2, source=99)]  # source out of range
        monkeypatch.setattr(
            LocalityWorkload, "requests", lambda self, n_requests=None: bad
        )
        with pytest.raises(ValueError):
            CSDSimulator(8, seed=1).run_trial(0.5)


class TestPaperFindings:
    """The three claims Figure 3 supports."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_full_n_channels_never_needed(self, n):
        for loc in (0.0, 0.25, 0.5, 0.75, 1.0):
            res = CSDSimulator(n, seed=7).run_trial(loc)
            assert res.used_channels < n

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_half_n_sufficient_for_random(self, n):
        # "Nobject/2 channels are sufficient for the random datapath" --
        # allow the small-sample fuzz the paper's own plot shows.
        sim = CSDSimulator(n, seed=13)
        mean = sim.mean_used_channels(0.0, n_trials=10)
        assert mean <= n / 2 * 1.1

    def test_higher_locality_fewer_channels(self):
        sim = CSDSimulator(128, seed=3)
        local = sim.mean_used_channels(1.0, n_trials=5)
        random = sim.mean_used_channels(0.0, n_trials=5)
        assert local < random / 3


class TestSweep:
    def test_sweep_one_point_per_locality(self):
        pts = sweep_locality(32, [1.0, 0.5, 0.0], n_trials=3)
        assert [p.locality_knob for p in pts] == [1.0, 0.5, 0.0]

    def test_sweep_channel_counts_monotone_ish(self):
        pts = sweep_locality(64, [1.0, 0.5, 0.0], n_trials=5)
        assert pts[0].used_channels < pts[-1].used_channels

    def test_run_many_validates(self):
        with pytest.raises(ValueError):
            CSDSimulator(16).run_many(0.5, n_trials=0)


class TestFigure3Series:
    def test_default_nobjects_match_paper(self):
        assert FIGURE3_NOBJECTS == (16, 32, 64, 128, 256)

    def test_series_structure(self):
        series = figure3_series(
            localities=[1.0, 0.0], n_trials=2, n_objects_list=(16, 32)
        )
        assert set(series) == {16, 32}
        assert len(series[16]) == 2

    def test_larger_arrays_use_more_channels(self):
        # The Figure 3 curves stack: bigger N sits higher at random.
        series = figure3_series(
            localities=[0.0], n_trials=3, n_objects_list=(16, 64)
        )
        assert series[64][0].used_channels > series[16][0].used_channels


class TestParallelSweep:
    """The sweep driver's ``workers=`` fan-out
    (:func:`repro.engine.run_fig3`) must be bit-identical to the serial
    reference sweep."""

    def test_sweep_locality_parallel_matches_serial(self):
        localities = [1.0, 0.6, 0.2, 0.0]
        serial = sweep_locality(32, localities, n_trials=4, seed=11)
        parallel = run_fig3(
            localities, n_trials=4, seed=11, n_objects_list=[32], workers=2
        )
        assert parallel == {32: serial}

    def test_figure3_series_parallel_matches_serial(self):
        kwargs = dict(
            localities=[1.0, 0.5, 0.0], n_trials=3, seed=9,
            n_objects_list=(16, 32),
        )
        serial = figure3_series(**kwargs)
        parallel = run_fig3(workers=2, **kwargs)
        assert serial == parallel

    def test_workers_one_stays_serial(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        localities = [0.5, 0.0]
        assert run_fig3(
            localities, n_trials=2, n_objects_list=[16], workers=1
        ) == {16: sweep_locality(16, localities, n_trials=2)}

    def test_parallel_sweep_merges_worker_telemetry(self):
        from repro import telemetry

        telemetry.reset()
        run_fig3(
            [0.5, 0.0], n_trials=2, seed=3, n_objects_list=[16], workers=2
        )
        snap = telemetry.snapshot()
        # 2 points x 2 trials x 15 requests, counted in the workers and
        # folded back into this process's registry
        assert snap["counters"]["fig3.trials"] == 4
        assert snap["counters"]["csd.connect.grants"] == 60
        telemetry.reset()
