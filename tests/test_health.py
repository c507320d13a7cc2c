"""Tests for repro.health: drift models, probe monitoring, recalibration.

Covers the full loop at every layer: perturbation algebra and model
units, device-loop vs compiled-engine equality under drift, session
probe checks / auto-recalibration / exact cache invalidation, and
cluster drain-recalibrate-restore maintenance.
"""

import numpy as np
import pytest

from repro.api import (
    Dense,
    FlushPolicy,
    HealthPolicy,
    Model,
    PhotonicCluster,
    PhotonicSession,
    ReLU,
    RoutingPolicy,
)
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError
from repro.health import (
    DRIFT_STAGES,
    ComparatorOffsetAging,
    DriftState,
    LaserPowerDecay,
    Perturbation,
    ThermalDetuning,
    TiaGainDrift,
    drift_suite,
)


def aged_session(**kwargs):
    """A session that served one modelled minute of drifting traffic."""
    rng = np.random.default_rng(5)
    weights = rng.integers(0, 8, (8, 8))
    session = PhotonicSession(
        grid=(8, 8),
        flush_policy=FlushPolicy.max_batch(16),
        drift=drift_suite(),
        **kwargs,
    )
    for _ in range(64):
        session.age(1.0)
        session.submit(weights, rng.uniform(0.0, 1.0, 8))
    session.flush()
    return session


class TestPerturbation:
    def test_identity_and_compose(self):
        identity = Perturbation()
        assert identity.is_identity
        p = Perturbation(current_scale=0.9, gain_scale=1.1, voltage_offset=0.05)
        assert not p.is_identity
        composed = p.compose(Perturbation(current_scale=0.5, voltage_offset=0.01))
        assert composed.current_scale == pytest.approx(0.45)
        assert composed.gain_scale == pytest.approx(1.1)
        assert composed.voltage_offset == pytest.approx(0.06)

    def test_relative_to_cancels_exactly(self):
        p = Perturbation(current_scale=0.9, gain_scale=1.1, voltage_offset=0.05)
        assert p.relative_to(p).is_identity

    def test_rejects_non_positive_scales(self):
        with pytest.raises(ConfigurationError):
            Perturbation(current_scale=0.0)
        with pytest.raises(ConfigurationError):
            Perturbation(gain_scale=-1.0)


class TestDriftModels:
    def test_all_models_identity_at_birth(self):
        for model in drift_suite():
            assert model.perturbation(0.0, 0).is_identity

    def test_laser_decay_monotone(self):
        model = LaserPowerDecay(rate_per_s=1e-3)
        scales = [model.perturbation(t, 0).current_scale for t in (0, 10, 100)]
        assert scales[0] > scales[1] > scales[2] > 0.0

    def test_thermal_detuning_periodic_and_floored(self):
        model = ThermalDetuning(amplitude_kelvin=5.0, period_s=40.0, floor=0.25)
        full_period = model.perturbation(40.0, 0).current_scale
        assert full_period == pytest.approx(1.0)
        worst = model.perturbation(10.0, 0).current_scale  # sin peak
        assert worst == pytest.approx(0.25)  # clamped at the floor

    def test_tia_gain_drift_clamps(self):
        droop = TiaGainDrift(drift_per_s=-1e-2)
        assert droop.perturbation(10.0, 0).gain_scale == pytest.approx(0.9)
        assert droop.perturbation(1e9, 0).gain_scale == pytest.approx(0.05)

    def test_comparator_offset_ages_with_use_and_saturates(self):
        model = ComparatorOffsetAging(
            volts_per_inference=1e-3, saturation_volts=0.2
        )
        assert model.perturbation(1e6, 0).voltage_offset == 0.0  # time-blind
        assert model.perturbation(0.0, 50).voltage_offset == pytest.approx(0.05)
        assert model.perturbation(0.0, 10**9).voltage_offset == pytest.approx(0.2)

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            ThermalDetuning(amplitude_kelvin=-1.0)
        with pytest.raises(ConfigurationError):
            LaserPowerDecay(rate_per_s=-1e-3)
        with pytest.raises(ConfigurationError):
            ComparatorOffsetAging(saturation_volts=0.0)


class TestDriftState:
    def test_advance_and_truth(self):
        state = DriftState([LaserPowerDecay(rate_per_s=1e-2)])
        assert state.truth().is_identity
        state.advance(seconds=10.0, inferences=5)
        assert state.elapsed_s == 10.0 and state.inferences == 5
        assert state.truth().current_scale == pytest.approx(np.exp(-0.1))

    def test_residual_cancelled_by_recalibrate(self):
        state = DriftState(drift_suite())
        state.advance(seconds=30.0, inferences=500)
        assert not state.residual().is_identity
        assert state.epoch == 0
        state.recalibrate()
        assert state.epoch == 1
        assert state.residual().is_identity
        state.advance(seconds=5.0)
        assert not state.residual().is_identity  # drifts on past the trim

    def test_stage_residual_decomposition(self):
        state = DriftState(drift_suite())
        state.advance(seconds=30.0, inferences=500)
        residual = state.residual()
        optical = state.stage_residual("optical")
        assert optical.current_scale == residual.current_scale
        assert optical.gain_scale == 1.0 and optical.voltage_offset == 0.0
        assert state.stage_residual("adc").voltage_offset == residual.voltage_offset
        with pytest.raises(ConfigurationError):
            state.stage_residual("psram")

    def test_inactive_state_and_validation(self):
        assert not DriftState().active
        assert DriftState(drift_suite()).active
        with pytest.raises(ConfigurationError):
            DriftState(["not a model"])
        with pytest.raises(ConfigurationError):
            DriftState(drift_suite()).advance(seconds=-1.0)


class TestEngineDriftEquality:
    def test_device_loop_matches_compiled_engine_at_every_age(self, tech):
        rng = np.random.default_rng(3)
        core = PhotonicTensorCore(rows=4, columns=8, technology=tech)
        core.load_weight_matrix(rng.integers(0, 8, (4, 8)))
        core.drift_state = DriftState(drift_suite(2.0))
        engine = core.compile()
        x = rng.uniform(0.0, 1.0, 8)
        pristine = core.matvec(x).codes.copy()
        drifted_somewhere = False
        for _ in range(4):
            core.drift_state.advance(seconds=11.0, inferences=400)
            device = core.matvec(x)
            compiled = engine.matmul(x[:, np.newaxis])
            assert np.array_equal(device.codes, compiled.codes[:, 0])
            assert np.allclose(device.estimates, compiled.estimates[:, 0])
            drifted_somewhere |= not np.array_equal(device.codes, pristine)
        assert drifted_somewhere  # the drift actually bit

    def test_identity_residual_overrides_live_drift(self, tech):
        rng = np.random.default_rng(4)
        core = PhotonicTensorCore(rows=4, columns=8, technology=tech)
        core.load_weight_matrix(rng.integers(0, 8, (4, 8)))
        x = rng.uniform(0.0, 1.0, 8)
        pristine = core.matvec(x).codes.copy()
        core.drift_state = DriftState(drift_suite(2.0))
        engine = core.compile()
        core.drift_state.advance(seconds=47.0, inferences=900)
        golden = engine.matmul(x[:, np.newaxis], residual=Perturbation())
        assert np.array_equal(golden.codes[:, 0], pristine)

    def test_stale_engine_keeps_old_trims_after_recalibration(self, tech):
        rng = np.random.default_rng(6)
        core = PhotonicTensorCore(rows=4, columns=8, technology=tech)
        core.load_weight_matrix(rng.integers(0, 8, (4, 8)))
        core.drift_state = DriftState([LaserPowerDecay(rate_per_s=5e-3)])
        x = rng.uniform(0.0, 1.0, 8)
        pristine = core.matvec(x).codes.copy()
        stale = core.compile()
        core.drift_state.advance(seconds=60.0)
        core.drift_state.recalibrate()
        fresh = core.compile()
        assert stale.calibration_epoch == 0 and fresh.calibration_epoch == 1
        # The freshly compiled program carries the new trims: pristine.
        assert np.array_equal(fresh.matmul(x[:, np.newaxis]).codes[:, 0], pristine)
        # The stale program still serves with the old (identity) trims.
        assert not np.array_equal(
            stale.matmul(x[:, np.newaxis]).codes[:, 0], pristine
        )


class TestSessionHealth:
    def test_unmonitored_session_degrades_measurably(self):
        session = aged_session()
        report = session.check_health()
        assert report.code_error_rate > 0.0
        assert report.enob_loss > 0.0
        assert not report.healthy
        assert set(report.attribution) == set(DRIFT_STAGES)
        assert report.dominant_stage in DRIFT_STAGES

    def test_drift_free_session_probes_clean(self):
        session = PhotonicSession(grid=(4, 6))
        report = session.check_health()
        assert report.healthy and report.code_error_rate == 0.0
        assert report.enob_loss == 0.0

    def test_served_codes_actually_drift(self):
        """Not just probes: the codes served to traffic walk too."""
        rng = np.random.default_rng(9)
        weights = rng.integers(0, 8, (8, 8))
        x = rng.uniform(0.0, 1.0, 8)
        pristine = PhotonicSession(grid=(8, 8))
        drifting = PhotonicSession(grid=(8, 8), drift=drift_suite(2.0))
        drifting.age(50.0)
        reference = pristine.submit(weights, x)
        drifted = drifting.submit(weights, x)
        assert not np.allclose(reference.result(), drifted.result())
        assert not np.array_equal(reference.codes, drifted.codes)

    def test_recalibrate_restores_bit_for_bit_and_counts(self):
        session = aged_session()
        before = session.check_health()
        assert before.code_error_rate > 0.0
        verification = session.recalibrate()
        assert verification is not None and verification.recalibrated
        assert verification.healthy  # bit-for-bit vs compile-time golden
        report = session.report()
        assert report.recalibrations == 1
        assert report.probe_runs >= 2
        assert report.calibration_time > 0.0
        assert report.calibration_energy > 0.0

    def test_recalibrate_requires_drift(self):
        session = PhotonicSession(grid=(4, 6))
        with pytest.raises(ConfigurationError):
            session.recalibrate()
        # An empty suite means "no drift": coerced to None, so the
        # epoch machinery never runs against an inactive state.
        empty = PhotonicSession(grid=(4, 6), drift=[])
        assert empty.drift is None
        with pytest.raises(ConfigurationError):
            empty.recalibrate()

    def test_recalibrate_invalidates_exactly_stale_programs(self):
        rng = np.random.default_rng(11)
        session = PhotonicSession(grid=(4, 6), drift=drift_suite())
        small = rng.integers(0, 8, (4, 6))     # native scheduler route
        big = rng.integers(0, 8, (7, 9))       # tiled route
        session.submit(small, rng.uniform(0.0, 1.0, 6))
        session.submit(big, rng.uniform(0.0, 1.0, 9))
        session.flush()
        assert len(session.scheduler.cache) == 1
        assert len(session.tiled_cache) == 1
        session.age(40.0)
        session.recalibrate()
        # Every program was compiled under epoch 0: all evicted.
        assert len(session.scheduler.cache) == 0
        assert len(session.tiled_cache) == 0
        assert session.scheduler.cache.invalidations == 1
        assert session.tiled_cache.invalidations == 1
        # Programs recompiled after the trim are kept by the next recal
        # only if still fresh: recompile, advance, recalibrate again.
        session.submit(small, rng.uniform(0.0, 1.0, 6))
        session.flush()
        assert len(session.scheduler.cache) == 1
        session.age(10.0)
        session.recalibrate()
        assert len(session.scheduler.cache) == 0  # epoch 1 != epoch 2
        # And a program compiled at the *current* epoch survives a
        # no-op eviction pass (nothing else invalidates it).
        session.submit(small, rng.uniform(0.0, 1.0, 6))
        session.flush()
        epoch = session.drift.epoch
        kept = session.scheduler.cache.evict_where(
            lambda program: program.calibration_epoch != epoch
        )
        assert kept == 0 and len(session.scheduler.cache) == 1

    def test_health_policy_auto_recalibrates_and_recovers(self):
        session = aged_session(
            health_policy=HealthPolicy.auto(threshold=0.05, probe_every=1)
        )
        report = session.report()
        assert report.probe_runs >= 1
        assert report.recalibrations >= 1
        post_recal = [c for c in session.health_history if c.recalibrated]
        assert post_recal and all(c.healthy for c in post_recal)

    def test_monitor_only_policy_never_recalibrates(self):
        session = aged_session(health_policy=HealthPolicy.monitor_only())
        report = session.report()
        assert report.probe_runs >= 1
        assert report.recalibrations == 0
        assert any(not c.healthy for c in session.health_history)

    def test_deployed_model_rebinds_after_recalibration(self):
        rng = np.random.default_rng(13)
        session = PhotonicSession(grid=(4, 6), drift=drift_suite())
        model = Model.sequential(
            Dense(rng.normal(0.0, 0.5, (5, 6))), ReLU(),
            Dense(rng.normal(0.0, 0.5, (3, 5))),
        )
        endpoint = session.compile(
            model, calibration=rng.uniform(0.0, 1.0, (8, 6))
        )
        batch = rng.uniform(0.0, 1.0, (4, 6))
        pristine = endpoint.predict(batch)
        session.age(45.0)
        drifted = endpoint.predict(batch)
        assert not np.allclose(pristine, drifted)
        session.recalibrate()
        assert endpoint._needs_rebind
        recovered = endpoint.predict(batch)
        assert np.allclose(recovered, pristine)
        assert not endpoint._needs_rebind

    def test_run_report_carries_health_counters_through_combined(self):
        session = aged_session(
            health_policy=HealthPolicy.auto(threshold=0.05, probe_every=1)
        )
        report = session.report()
        from repro.api import RunReport

        doubled = RunReport.combined([report, report])
        assert doubled.probe_runs == 2 * report.probe_runs
        assert doubled.recalibrations == 2 * report.recalibrations
        assert doubled.calibration_energy == pytest.approx(
            2 * report.calibration_energy
        )
        assert "recalibrations" in str(report)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            HealthPolicy(probe_every=0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(probes=0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(recalibrate_threshold=1.5)
        with pytest.raises(ConfigurationError):
            PhotonicSession(grid=(4, 6), health_policy="every flush")
        with pytest.raises(ConfigurationError):
            PhotonicSession(grid=(4, 6), drift="thermal")

    def test_age_validation(self):
        session = PhotonicSession(grid=(4, 6), drift=drift_suite())
        with pytest.raises(ConfigurationError):
            session.age(-1.0)
        PhotonicSession(grid=(4, 6)).age(10.0)  # drift-free: a no-op


class TestClusterHealth:
    def cluster(self, **kwargs):
        return PhotonicCluster(
            cores=3,
            grid=(8, 8),
            flush_policy=FlushPolicy.max_batch(16),
            drift=drift_suite(),
            **kwargs,
        )

    def test_drain_routes_around_and_restore_returns(self):
        rng = np.random.default_rng(17)
        cluster = self.cluster(routing=RoutingPolicy.round_robin())
        weights = rng.integers(0, 8, (8, 8))
        cluster.drain(1)
        assert cluster.draining == (1,)
        assert cluster.active_cores == (0, 2)
        futures = [
            cluster.submit(weights, rng.uniform(0.0, 1.0, 8)) for _ in range(12)
        ]
        cluster.flush()
        assert all(future.done for future in futures)
        report = cluster.report()
        assert report.routed[1] == 0  # nothing landed on the drained core
        assert report.routed[0] + report.routed[2] == 12
        assert report.draining == (1,) and report.drains == 1
        cluster.restore(1)
        assert cluster.active_cores == (0, 1, 2)
        cluster.submit(weights, rng.uniform(0.0, 1.0, 8))

    def test_cannot_drain_last_active_core(self):
        cluster = self.cluster()
        cluster.drain(0)
        cluster.drain(1)
        with pytest.raises(ConfigurationError):
            cluster.drain(2)
        with pytest.raises(ConfigurationError):
            cluster.drain(5)

    def test_drain_flushes_pending_first(self):
        rng = np.random.default_rng(19)
        cluster = PhotonicCluster(
            cores=2, grid=(4, 6), drift=drift_suite(),
            routing=RoutingPolicy.round_robin(),
        )
        weights = rng.integers(0, 8, (4, 6))
        futures = [
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6)) for _ in range(4)
        ]
        cluster.drain(0)
        assert cluster.sessions[0].pending == 0
        assert any(future.done for future in futures)

    def test_recalibrate_core_round_trip(self):
        cluster = self.cluster(
            health_policy=HealthPolicy.monitor_only(probe_every=10**6)
        )
        cluster.age(50.0)
        before = cluster.sessions[0].check_health()
        assert before.code_error_rate > 0.0
        verification = cluster.recalibrate_core(0)
        assert verification.healthy and verification.recalibrated
        assert cluster.active_cores == (0, 1, 2)  # restored afterwards
        assert cluster.report().drains == 1

    def test_fleet_maintenance_keeps_serving_under_drift(self):
        rng = np.random.default_rng(23)
        cluster = self.cluster(
            routing=RoutingPolicy.cache_affinity(),
            health_policy=HealthPolicy.auto(threshold=0.05, probe_every=2),
        )
        tenants = [rng.integers(0, 8, (8, 8)) for _ in range(3)]
        futures = []
        for turn in range(72):
            cluster.age(0.8)
            futures.append(
                cluster.submit(tenants[turn % 3], rng.uniform(0.0, 1.0, 8))
            )
        cluster.flush()
        assert all(future.done for future in futures)
        report = cluster.report()
        assert report.total.recalibrations >= 1
        assert report.drains >= 1
        assert report.draining == ()  # every drained core was restored
        assert report.shed == 0  # traffic kept flowing through maintenance

    def test_replicated_model_skips_drained_replicas(self):
        rng = np.random.default_rng(29)
        cluster = PhotonicCluster(cores=2, grid=(4, 6), drift=drift_suite())
        model = Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6))))
        endpoint = cluster.compile(model, replicas=2)
        cluster.drain(endpoint.core_indices[0])
        batch = rng.uniform(0.0, 1.0, (2, 6))
        for _ in range(3):
            endpoint.submit(batch)
        cluster.flush()
        drained_session = cluster.sessions[endpoint.core_indices[0]]
        report = drained_session.report()
        assert report.requests == 0  # the live replica absorbed all three

    def test_multi_core_cluster_rejects_shared_drift_state(self):
        with pytest.raises(ConfigurationError):
            PhotonicCluster(cores=2, grid=(4, 6), drift=DriftState(drift_suite()))
        # cores=1 may take a ready state.
        PhotonicCluster(cores=1, grid=(4, 6), drift=DriftState(drift_suite()))

    def test_cores_drift_independently(self):
        cluster = PhotonicCluster(cores=2, grid=(4, 6), drift=drift_suite())
        states = [session.drift for session in cluster.sessions]
        assert states[0] is not states[1]
        states[0].advance(seconds=30.0)
        assert states[1].elapsed_s == 0.0
