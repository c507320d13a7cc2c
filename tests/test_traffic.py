"""Tests for repro.traffic: arrival processes, workload mixes, SLOs,
the modelled-time traffic engine, the capacity search — and the
per-request ``deadline=`` semantics the engine drives through the
session/cluster front door."""

import numpy as np
import pytest

from repro.api import (
    Dense,
    FlushPolicy,
    MetricsRegistry,
    Model,
    PhotonicCluster,
    PhotonicSession,
    RoutingPolicy,
    RunReport,
)
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.telemetry import ModelClock
from repro.traffic import (
    SLO,
    ArrivalProcess,
    Bursty,
    Diurnal,
    Poisson,
    Replay,
    Tenant,
    TokenBucket,
    TrafficEngine,
    WorkloadMix,
    find_capacity,
)

GRID = (8, 8)


def make_session(policy=None, max_batch=16, clock=None):
    return PhotonicSession(
        grid=GRID,
        max_batch=max_batch,
        flush_policy=policy if policy is not None else FlushPolicy.max_batch(16),
        metrics=MetricsRegistry(),
        clock=clock if clock is not None else ModelClock(),
    )


def make_cluster(policy=None, cores=2, routing="round_robin"):
    return PhotonicCluster(
        cores=cores,
        grid=GRID,
        max_batch=16,
        flush_policy=policy if policy is not None else FlushPolicy.max_batch(16),
        routing=RoutingPolicy(kind=routing),
        metrics=MetricsRegistry(),
        clock=ModelClock(),
    )


class TestArrivals:
    def test_poisson_is_seed_deterministic_and_sorted(self):
        first = Poisson(1e6).times(500, np.random.default_rng(7))
        again = Poisson(1e6).times(500, np.random.default_rng(7))
        np.testing.assert_array_equal(first, again)
        assert np.all(np.diff(first) >= 0.0) and first[0] > 0.0
        # Mean spacing tracks 1/rate to a few percent over 500 draws.
        assert first[-1] / 500 == pytest.approx(1e-6, rel=0.2)

    def test_replay_is_a_deterministic_grid(self):
        times = Replay(10.0).times(5, np.random.default_rng(0))
        np.testing.assert_allclose(times, [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_diurnal_rate_swings_between_trough_and_peak(self):
        process = Diurnal(trough=10.0, peak=1000.0, period=1.0)
        assert 10.0 < process.mean_rate < 1000.0
        times = process.times(400, np.random.default_rng(3))
        assert np.all(np.diff(times) >= 0.0) and times.shape == (400,)

    def test_bursty_mean_rate_is_dwell_weighted(self):
        process = Bursty(quiet=10.0, burst=1000.0, quiet_dwell=3.0, burst_dwell=1.0)
        assert process.mean_rate == pytest.approx((10.0 * 3 + 1000.0 * 1) / 4)
        times = process.times(400, np.random.default_rng(4))
        assert np.all(np.diff(times) >= 0.0)

    def test_scaled_multiplies_the_rate(self):
        base = Poisson(100.0)
        doubled = base.scaled(2.0)
        assert doubled.mean_rate == pytest.approx(200.0)
        # Same seed, double rate: every arrival lands twice as early.
        first = base.times(50, np.random.default_rng(5))
        fast = doubled.times(50, np.random.default_rng(5))
        np.testing.assert_allclose(fast, first / 2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="rate"):
            Poisson(0.0)
        with pytest.raises(ConfigurationError, match="rate"):
            Replay(-1.0)
        with pytest.raises(ConfigurationError):
            Bursty(quiet=1.0, burst=2.0, quiet_dwell=0.0, burst_dwell=1.0)
        with pytest.raises(ConfigurationError):
            Poisson(10.0).scaled(0.0)


class TestWorkload:
    def test_token_bucket_enforces_rate_and_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.admit(0.0) and bucket.admit(0.0)   # burst drains
        assert not bucket.admit(0.0)                      # empty
        assert bucket.admit(0.1)                          # 1 token refilled
        assert not bucket.admit(0.1)

    def test_tenant_validation(self):
        with pytest.raises(ConfigurationError, match="share"):
            Tenant(name="t", share=0.0, shape=(4, 6))
        with pytest.raises(ConfigurationError):
            Tenant(name="t", share=1.0, shape=(4, 6), deadline_s=-1.0)

    def test_zipf_mix_shares_normalise(self):
        mix = WorkloadMix.zipf(tenants=4, rows=8, columns=8)
        assert len(mix.tenants) == 4
        assert sum(mix.shares) == pytest.approx(1.0)
        # Zipf: tenant 0 twice as popular as tenant 1.
        assert mix.shares[0] == pytest.approx(2.0 * mix.shares[1])

    def test_sample_is_seed_deterministic(self):
        mix = WorkloadMix.zipf(tenants=3, rows=8, columns=8)
        first = mix.sample(200, np.random.default_rng(9))
        again = mix.sample(200, np.random.default_rng(9))
        np.testing.assert_array_equal(first, again)
        assert set(np.unique(first)) <= {0, 1, 2}


class TestSLO:
    def test_met(self):
        slo = SLO(p99_latency=1e-3, deadline_miss_budget=0.01)
        assert slo.met(p99=5e-4, miss_rate=0.0)
        assert not slo.met(p99=2e-3, miss_rate=0.0)
        assert not slo.met(p99=5e-4, miss_rate=0.05)
        assert slo.met(p99=None, miss_rate=0.0)

    def test_flush_policy_composes_both_limits(self):
        policy = SLO(p99_latency=1e-3).flush_policy(batch_limit=32)
        assert policy.batch_limit == 32
        assert policy.deadline_headroom == pytest.approx(1e-4)
        assert policy.delay_limit == pytest.approx(5e-4)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="p99"):
            SLO(p99_latency=0.0)
        with pytest.raises(ConfigurationError, match="budget"):
            SLO(p99_latency=1.0, deadline_miss_budget=1.0)


class TestTrafficEngine:
    def test_session_run_is_reproducible_and_accounted(self):
        mix = WorkloadMix.zipf(tenants=2, rows=8, columns=8)
        summaries = []
        for _ in range(2):
            engine = TrafficEngine(
                make_session(), mix, Poisson(1e9), slo=None, seed=11
            )
            summaries.append(engine.run(300))
        first, again = summaries
        assert first == again                      # bit-for-bit reproducible
        assert first["offered"] == 300
        assert first["admitted"] == first["offered"] - first["rate_limited"]
        assert (
            first["resolved"]
            == first["admitted"] - first["deadline_misses"]
        )
        assert first["throughput_per_s"] > 0.0
        assert first["p99_e2e_s"] > 0.0
        assert set(first["tenants"]) == {"tenant-0", "tenant-1"}
        for split in first["tenants"].values():
            assert split["queue_wait"]["count"] > 0 or split["service"]["count"] > 0

    def test_cluster_run_spreads_over_cores(self):
        mix = WorkloadMix.zipf(tenants=2, rows=8, columns=8)
        cluster = make_cluster(cores=2)
        engine = TrafficEngine(cluster, mix, Poisson(1e10), slo=None, seed=12)
        summary = engine.run(300)
        assert summary["resolved"] == summary["admitted"]
        report = cluster.report()
        assert report.total.requests == summary["admitted"]
        assert all(core.requests > 0 for core in report.per_core)

    @pytest.mark.parametrize("cores", [None, 3], ids=["session", "cluster"])
    def test_run_builds_one_report(self, monkeypatch, cores):
        """A run reads its opening totals from the schedulers' ledgers
        and builds one report, at its close; its summary equals that of
        a run on a twin target first asked for a full report."""
        deadline = 1e-6
        mix = WorkloadMix.zipf(tenants=3, rows=8, columns=8, deadline_s=deadline)
        arrivals = Poisson(16 / (2.0 * deadline))

        def served_target():
            target = make_session() if cores is None else make_cluster(cores=cores)
            TrafficEngine(target, mix, arrivals, seed=5).run(200)
            return target

        twin = served_target()
        twin.report()
        expected = TrafficEngine(twin, mix, arrivals, seed=6).run(300)
        target = served_target()
        calls = []
        report = type(target).report
        monkeypatch.setattr(
            type(target), "report", lambda self: calls.append(self) or report(self)
        )
        summary = TrafficEngine(target, mix, arrivals, seed=6).run(300)
        assert calls == [target]
        assert summary == expected
        assert summary["deadline_misses"] > 0 and summary["resolved"] > 0

    def test_opening_totals_equal_the_report_total(self):
        """The ledger sums a run opens with equal ``report().total``'s
        requests and deadline misses, for a session and for a cluster
        with drained, parked and added cores."""
        mix = WorkloadMix.zipf(tenants=2, rows=8, columns=8, deadline_s=1e-6)
        arrivals = Poisson(8e6)

        def check(engine, target):
            report = target.report()
            total = report.total if isinstance(target, PhotonicCluster) else report
            assert engine._totals() == (total.requests, total.deadline_misses)
            assert total.deadline_misses > 0

        session = make_session()
        engine = TrafficEngine(session, mix, arrivals, seed=8)
        engine.run(200)
        check(engine, session)
        cluster = make_cluster(cores=3)
        engine = TrafficEngine(cluster, mix, arrivals, seed=9)
        engine.run(200)
        cluster.drain(0)
        assert cluster.scale_down(1) == 1
        cluster.add_core()
        check(engine, cluster)
        engine.run(200)
        assert cluster.draining == (0, 1) and cluster.parked == (1,)
        assert cluster.report().per_core[3].requests > 0
        check(engine, cluster)

    def test_polls_never_move_the_arrival_clock_backwards(self, monkeypatch):
        """Regression: a due trigger was bumped 1 ns past its due time,
        8 ADC periods at 8 GS/s, so a poll could land after the next
        arrival and that arrival then moved the clock backwards.  The
        bump is relative to the due time and never passes the arrival:
        the arrival clock read at every submit and poll only rises."""

        class Tape(ArrivalProcess):
            def times(self, n, rng):
                return np.array([1e-6, 1.0805e-6, 1.2e-6])[:n]

        session = make_session(FlushPolicy.deadline_aware(headroom=2e-8))
        tenant = Tenant(name="t", share=1.0, shape=(8, 8), deadline_s=1e-7)
        clock = session.clock
        seen = []
        for name in ("submit", "poll"):
            method = getattr(session, name)

            def stamped(*args, _method=method, _name=name, **kwargs):
                seen.append((clock.now, _name))
                return _method(*args, **kwargs)

            monkeypatch.setattr(session, name, stamped)
        summary = TrafficEngine(session, WorkloadMix((tenant,)), Tape(), seed=3).run(3)
        assert [name for _, name in seen] == [
            "submit", "poll", "submit", "poll", "submit"
        ]
        stamps = [now for now, _ in seen]
        assert stamps == sorted(stamps)
        assert summary["deadline_misses"] == 0 and summary["resolved"] == 3

    def test_token_bucket_sheds_over_limit_tenants(self):
        tenant = Tenant(
            name="capped", share=1.0, shape=(4, 6), rate_limit=1e3, burst=1.0
        )
        engine = TrafficEngine(
            make_session(), WorkloadMix((tenant,)), Poisson(1e9), seed=13
        )
        summary = engine.run(100)
        # Offered a million times over the cap: nearly everything sheds.
        assert summary["rate_limited"] > 90
        assert summary["resolved"] == summary["admitted"]

    def test_engine_requires_modelled_clock_and_metrics(self):
        mix = WorkloadMix.zipf(tenants=1, rows=8, columns=8)
        wall = PhotonicSession(grid=GRID, metrics=MetricsRegistry())
        with pytest.raises(ConfigurationError, match="clock"):
            TrafficEngine(wall, mix, Poisson(1.0))
        blind = PhotonicSession(grid=GRID, clock=ModelClock())
        with pytest.raises(ConfigurationError, match="telemetry|metrics"):
            TrafficEngine(blind, mix, Poisson(1.0))

    def test_slo_aware_policy_beats_max_batch_on_misses(self):
        """The acceptance head-to-head: at an offered rate whose
        batch-fill time dwarfs the deadline, plain max_batch rides
        requests past their deadline while the SLO-derived policy
        flushes early."""
        deadline = 1e-6
        mix = WorkloadMix.zipf(tenants=2, rows=8, columns=8, deadline_s=deadline)
        slo = SLO(p99_latency=2.5e-7, deadline_miss_budget=0.01)
        rate = 16 / (2.0 * deadline)    # batch fill ~2x the deadline
        results = {}
        for label, policy in (
            ("max_batch", FlushPolicy.max_batch(16)),
            ("slo_aware", slo.flush_policy(batch_limit=16)),
        ):
            engine = TrafficEngine(
                make_session(policy), mix, Poisson(rate), slo=slo, seed=21
            )
            results[label] = engine.run(400)
        assert results["max_batch"]["deadline_misses"] > 100
        assert (
            results["slo_aware"]["deadline_misses"]
            < results["max_batch"]["deadline_misses"] / 10
        )
        assert results["slo_aware"]["p99_e2e_s"] < deadline
        assert results["slo_aware"]["slo_met"]


class TestFindCapacity:
    def test_bisects_to_the_knee(self):
        mix = WorkloadMix.zipf(tenants=2, rows=8, columns=8, deadline_s=5e-8)
        slo = SLO(p99_latency=5e-8, deadline_miss_budget=0.0)

        def factory():
            return make_session(slo.flush_policy(batch_limit=16))

        # Probe the target's raw capacity first so the search starts
        # near the knee and the bracket stays narrow.
        probe = TrafficEngine(
            make_session(), WorkloadMix.zipf(tenants=2, rows=8, columns=8),
            Poisson(1e12), seed=7,
        ).run(800)
        result = find_capacity(
            factory, mix, Poisson(probe["throughput_per_s"]), slo,
            requests=800, seed=7, resolution=0.2,
        )
        assert result["saturated"]
        assert result["capacity_per_s"] > 0.0
        assert result["sustained"]["slo_met"]
        verdicts = [trial["slo_met"] for trial in result["trials"]]
        assert True in verdicts and False in verdicts
        # The returned capacity is the highest *passing* probe.
        passing = [
            trial["offered_rate_per_s"]
            for trial in result["trials"]
            if trial["slo_met"]
        ]
        assert result["capacity_per_s"] == pytest.approx(max(passing), rel=0.05)

    def test_impossible_slo_reports_zero_capacity(self):
        mix = WorkloadMix.zipf(tenants=1, rows=8, columns=8, deadline_s=1e-15)
        slo = SLO(p99_latency=1e-15)
        result = find_capacity(
            lambda: make_session(slo.flush_policy(batch_limit=16)),
            mix, Poisson(1e9), slo, requests=50, seed=7, max_doublings=2,
        )
        assert result["saturated"] and result["capacity_per_s"] == 0.0
        assert result["sustained"] is None


class TestDeadlineEdges:
    """Satellite: deadline edge cases at the session/report layer."""

    @pytest.fixture()
    def request_pair(self):
        rng = np.random.default_rng(0)
        return rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6)

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_expired_at_submit_sheds_without_queueing(
        self, request_pair, deadline, monkeypatch
    ):
        weights, x = request_pair

        def no_work(*args, **kwargs):
            raise AssertionError("an expired conv request ran im2col")

        monkeypatch.setattr("repro.runtime.scheduler.im2col_channels", no_work)
        rng = np.random.default_rng(1)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        image = rng.uniform(0.0, 1.0, (6, 6))
        model = Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6))))
        batch = rng.uniform(0.0, 1.0, (2, 6))
        for route in ("dense", "conv", "model"):
            session = make_session(FlushPolicy.explicit())
            endpoint = session.compile(model)
            before = session.report()
            if route == "dense":
                future = session.submit(weights, x, deadline=deadline)
            elif route == "conv":
                future = session.submit_conv(kernels, image, deadline=deadline)
            else:
                future = endpoint.submit(batch, deadline=deadline)
            assert future.expired and session.pending == 0, route
            with pytest.raises(DeadlineExceededError):
                future.result()
            if route == "conv":
                # The output shape is known without quantizing the bank.
                assert future.shape == (2, 4, 4)
            report = session.report()
            # A submit-time shed never counts as a served request, and
            # does no work: no program lookup, compile or analog pass.
            assert report.requests == 0 and report.deadline_misses == 1, route
            assert report.samples == 0 and report.batches == 0, route
            assert report.cache_misses == before.cache_misses, route
        # A malformed dense request raises at submit even when expired,
        # and is not counted as a deadline miss.
        session = make_session(FlushPolicy.explicit())
        nan_weights = weights.astype(float)
        nan_weights[0, 0] = np.nan
        for bad_weights, bad_x in ((nan_weights, x), (weights, np.full(6, 5.0))):
            with pytest.raises(ConfigurationError):
                session.submit(bad_weights, bad_x, deadline=deadline)
            assert session.report().deadline_misses == 0 and session.pending == 0

    def test_deadline_fires_mid_coalesced_batch(self, request_pair):
        weights, x = request_pair
        session = make_session(FlushPolicy.explicit())
        tight = session.submit(weights, x, deadline=1e-12)
        free = session.submit(weights, x)
        assert session.flush() == 1      # only the free request resolves
        assert tight.expired and free.done
        with pytest.raises(DeadlineExceededError):
            tight.result()
        assert free.value.shape == (4,)
        report = session.report()
        assert report.requests == 2 and report.deadline_misses == 1

    def test_combined_preserves_misses_across_empty_flushes(
        self, request_pair
    ):
        weights, x = request_pair
        submit_shed = make_session(FlushPolicy.explicit())
        submit_shed.submit(weights, x, deadline=-1.0)
        assert submit_shed.flush() == 0               # empty flush
        partial = make_session(FlushPolicy.explicit())
        partial.submit(weights, x, deadline=1e-12)
        partial.submit(weights, x)
        partial.flush()                               # partial flush
        combo = RunReport.combined(
            [submit_shed.report(), partial.report(), RunReport.combined([])]
        )
        assert combo.deadline_misses == 2
        assert combo.requests == 2

    def test_cluster_threads_deadlines_to_cores(self, request_pair):
        weights, x = request_pair
        cluster = make_cluster()
        expired = cluster.submit(weights, x, deadline=0.0)
        assert expired.expired
        live = cluster.submit(weights, x, deadline=10.0, tenant="vip")
        cluster.flush()
        assert live.done and not live.expired
        assert cluster.report().total.deadline_misses == 1

    def test_next_deadline_tracks_the_most_urgent_request(self, request_pair):
        weights, x = request_pair
        cluster = make_cluster()
        assert cluster.next_deadline is None
        cluster.submit(weights, x, deadline=5.0)
        cluster.submit(weights, x, deadline=2.0)
        assert cluster.next_deadline == pytest.approx(2.0)
        cluster.flush()
        assert cluster.next_deadline is None


class TestModelledClockPolicies:
    """Satellite: max_delay / poll() honour an injected clock source
    instead of the host wall clock."""

    @pytest.fixture()
    def request_pair(self):
        rng = np.random.default_rng(1)
        return rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6)

    def test_max_delay_waits_for_the_modelled_clock(self, request_pair):
        weights, x = request_pair
        clock = ModelClock()
        session = make_session(FlushPolicy.max_delay(1.0), clock=clock)
        session.submit(weights, x)
        # Host time passes; modelled time does not: no flush.
        assert session.poll() == 0 and session.pending == 1
        clock.now = 2.0
        assert session.poll() == 1 and session.pending == 0

    def test_clock_must_be_a_model_clock(self):
        # A callable is no time source: inject a ModelClock and advance it.
        for front_door in (PhotonicSession, PhotonicCluster):
            for clock in (lambda: 0.0, 0.0):
                with pytest.raises(ConfigurationError, match="ModelClock"):
                    front_door(grid=GRID, clock=clock)

    def test_oldest_pending_at_reads_the_injected_clock(self, request_pair):
        weights, x = request_pair
        clock = ModelClock()
        clock.now = 42.0
        session = make_session(FlushPolicy.explicit(), clock=clock)
        assert session.oldest_pending_at is None
        session.submit(weights, x)
        assert session.oldest_pending_at == pytest.approx(42.0)


class TestFleetFlushOrder:
    """Satellite: the fleet flush order breaks priority ties
    deterministically by submit order, then core index."""

    def test_ties_break_by_submit_order(self):
        rng = np.random.default_rng(2)
        weights = rng.integers(0, 8, (4, 6))
        cluster = make_cluster(cores=3, routing="round_robin")
        # Same priority everywhere; round-robin lands one request per
        # core in submit order 0, 1, 2.
        for _ in range(3):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=1)
        assert cluster._flush_order() == [0, 1, 2]

    def test_priority_still_dominates(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(0, 8, (4, 6))
        cluster = make_cluster(cores=3, routing="round_robin")
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=0)
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=5)
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=5)
        # Priority first; the 5s tie-break by submit order (core 1
        # received its priority-5 request before core 2).
        assert cluster._flush_order() == [1, 2, 0]
