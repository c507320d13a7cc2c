"""Tests for the scale-out front door (repro.api.cluster): routed
multi-core clusters, QoS admission control, replicated model
endpoints and the aggregated ClusterReport."""

import warnings
from unittest import mock

import numpy as np
import pytest

from repro.api import (
    ClusterReport,
    Dense,
    FlushPolicy,
    Model,
    PhotonicCluster,
    PhotonicSession,
    ReLU,
    ReplicatedModel,
    RoutingPolicy,
    RunReport,
)
from repro.api.routing import HashRing
from repro.elastic import ProgramStore
from repro.errors import ClusterSaturatedError, ConfigurationError, ConversionError
from repro.obs import Observer
from repro.runtime.engine import CompiledCore
from repro.telemetry import MetricsRegistry, ModelClock, TraceRecorder
from repro.traffic import synthetic_trace


@pytest.fixture()
def pair(tech):
    """A 2-core round-robin cluster on small tiles."""
    return PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                           cache_capacity=4, max_batch=16)


def flushed_order(cluster):
    """The cores ``cluster.flush()`` flushes, in the order it flushes
    them (each session's ``flush`` wrapped to log its index)."""
    order = []
    for index, session in enumerate(cluster.sessions):
        original = session.flush
        def tracked(index=index, original=original):
            order.append(index)
            return original()
        session.flush = tracked
    cluster.flush()
    return order


def replay(front_door, trace):
    """Push a synthetic trace through any submit()-shaped front door."""
    futures = [front_door.submit(weights, x) for _, weights, x in trace]
    front_door.flush()
    return futures


class TestConstruction:
    def test_fleet_geometry(self, pair):
        assert pair.cores == 2
        assert len(pair.sessions) == 2
        assert pair.rows == 4 and pair.columns == 6
        assert all(isinstance(s, PhotonicSession) for s in pair.sessions)
        # Every slot is a full core: distinct schedulers and caches.
        assert pair.sessions[0].scheduler is not pair.sessions[1].scheduler
        assert pair.sessions[0].tiled_cache is not pair.sessions[1].tiled_cache

    def test_validation(self, tech):
        with pytest.raises(ConfigurationError, match="cores"):
            PhotonicCluster(cores=0, technology=tech, grid=(4, 6))
        with pytest.raises(ConfigurationError, match="max_pending"):
            PhotonicCluster(cores=1, technology=tech, grid=(4, 6), max_pending=0)
        with pytest.raises(ConfigurationError, match="RoutingPolicy"):
            PhotonicCluster(cores=1, technology=tech, grid=(4, 6),
                            routing="round_robin")

    def test_default_routing_is_round_robin(self, pair):
        assert pair.routing == RoutingPolicy.round_robin()
        assert pair.routing.describe() == "round_robin"

    def test_flush_policy_shared_by_all_slots(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  flush_policy=FlushPolicy.max_batch(3))
        assert all(s.flush_policy == FlushPolicy.max_batch(3)
                   for s in cluster.sessions)
        assert cluster.flush_policy == FlushPolicy.max_batch(3)


class TestRoutingPolicies:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown routing"):
            RoutingPolicy(kind="random")

    def test_single_core_short_circuits(self):
        for policy in (RoutingPolicy.round_robin(), RoutingPolicy.least_loaded(),
                       RoutingPolicy.cache_affinity()):
            assert policy.select([5], cursor=9) == 0

    def test_round_robin_cycles(self):
        policy = RoutingPolicy.round_robin()
        picks = [policy.select([0, 0, 0], cursor) for cursor in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_picks_minimum_and_breaks_ties_low(self):
        policy = RoutingPolicy.least_loaded()
        assert policy.select([3, 1, 2], cursor=0) == 1
        assert policy.select([2, 2, 2], cursor=5) == 0

    def test_cache_affinity_keyless_falls_back_to_cursor(self):
        policy = RoutingPolicy.cache_affinity()
        assert policy.select([0, 0, 0], cursor=4) == 1

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one core"):
            RoutingPolicy.round_robin().select([], 0)


class TestRoutedSubmits:
    def test_round_robin_spreads_requests(self, pair):
        rng = np.random.default_rng(1)
        weights = rng.integers(0, 8, (4, 6))
        replay(pair, [(0, weights, rng.uniform(0.0, 1.0, 6))
                      for _ in range(6)])
        report = pair.report()
        assert report.routed == (3, 3)

    def test_least_loaded_balances_pending_work(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  routing=RoutingPolicy.least_loaded())
        rng = np.random.default_rng(2)
        weights = rng.integers(0, 8, (4, 6))
        for _ in range(8):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        assert [s.pending for s in cluster.sessions] == [4, 4]

    def test_cache_affinity_pins_programs_to_cores(self, tech):
        cluster = PhotonicCluster(cores=4, technology=tech, grid=(4, 6),
                                  routing=RoutingPolicy.cache_affinity())
        rng = np.random.default_rng(3)
        tenants = [rng.integers(0, 8, (4, 6)) for _ in range(3)]
        for turn in range(24):
            weights = tenants[turn % 3]
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        cluster.flush()
        # Each tenant's program compiled on exactly one core: fleet-wide
        # misses equal the tenant count, not tenants x cores.
        report = cluster.report()
        assert report.total.cache_misses == 3

    def test_conv_route_and_affinity(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 9),
                                  routing=RoutingPolicy.cache_affinity())
        rng = np.random.default_rng(4)
        bank = rng.normal(0.0, 1.0, (2, 3, 3))
        futures = [cluster.submit_conv(bank, rng.uniform(0.0, 1.0, (5, 5)))
                   for _ in range(4)]
        cluster.flush()
        assert all(future.value.shape == (2, 3, 3) for future in futures)
        # One bank -> one core -> one differential program compile.
        assert cluster.report().total.cache_misses == 1
        homes = [s for s in cluster.sessions if s.tiled_cache.misses]
        assert len(homes) == 1

    def test_conv_affinity_keys_on_quantized_program(self, tech):
        """Float banks that quantize to the same differential program
        must route to the same core — the affinity key is the quantized
        program (what the session caches on), not the float bytes."""
        cluster = PhotonicCluster(cores=4, technology=tech, grid=(4, 9),
                                  routing=RoutingPolicy.cache_affinity())
        rng = np.random.default_rng(6)
        bank = rng.normal(0.0, 1.0, (2, 3, 3))
        cluster.submit_conv(bank, rng.uniform(0.0, 1.0, (5, 5)))
        cluster.submit_conv(bank + 1e-12, rng.uniform(0.0, 1.0, (5, 5)))
        cluster.flush()
        report = cluster.report()
        # One home core, one coalesced group, one program compile — a
        # float-bytes key would have split this across two cores (two
        # compiles of the same program).
        assert report.total.cache_misses == 1
        assert sum(1 for s in cluster.sessions if s.tiled_cache.misses) == 1

    def test_gain_passes_through(self, pair, tech):
        rng = np.random.default_rng(5)
        weights = rng.integers(1, 4, (4, 6))
        x = rng.uniform(0.1, 0.3, 6)
        native = pair.submit(weights, x)
        calibrated = pair.submit(weights, x, gain="auto")
        pair.flush()
        exact = weights @ x
        # gain='auto' reached the routed core: the calibrated request
        # resolves inside the scaled-down quantization bin, the native
        # one only inside the full-range bin.
        core = pair.sessions[0].core
        native_bin = (pair.columns * core.max_weight) / core.row_adcs[0].levels
        auto_gain = (pair.columns * core.max_weight) / int(weights.sum(axis=1).max())
        assert auto_gain > 1.0
        assert np.abs(native.value - exact).max() <= native_bin
        assert np.abs(calibrated.value - exact).max() <= native_bin / auto_gain


class TestSingleCoreEquivalence:
    """PhotonicCluster(cores=1) must be the existing PhotonicSession,
    bit for bit, on the serve-bench scenarios."""

    def test_dense_trace_bit_for_bit(self, tech):
        trace = list(synthetic_trace(requests=48, rows=4, columns=6, seed=11))
        session = PhotonicSession(technology=tech, grid=(4, 6),
                                  cache_capacity=4, max_batch=16,
                                  flush_policy=FlushPolicy.max_batch(16))
        cluster = PhotonicCluster(cores=1, technology=tech, grid=(4, 6),
                                  cache_capacity=4, max_batch=16,
                                  flush_policy=FlushPolicy.max_batch(16))
        session_futures = replay(session, trace)
        cluster_futures = replay(cluster, trace)
        for ours, theirs in zip(cluster_futures, session_futures):
            np.testing.assert_array_equal(ours.value, theirs.value)
            if theirs.codes is None:
                assert ours.codes is None
            else:
                np.testing.assert_array_equal(ours.codes, theirs.codes)
        # RunReport numbers including flush counts are identical.
        assert cluster.report().total == session.report()
        assert cluster.flushes == session.flushes

    def test_conv_trace_bit_for_bit(self, tech):
        rng = np.random.default_rng(12)
        bank = rng.normal(0.0, 1.0, (3, 3, 3))
        images = [rng.uniform(0.0, 1.0, (7, 7)) for _ in range(5)]
        session = PhotonicSession(technology=tech, grid=(4, 9))
        cluster = PhotonicCluster(cores=1, technology=tech, grid=(4, 9))
        session_futures = [session.submit_conv(bank, image) for image in images]
        cluster_futures = [cluster.submit_conv(bank, image) for image in images]
        session.flush()
        cluster.flush()
        for ours, theirs in zip(cluster_futures, session_futures):
            np.testing.assert_array_equal(ours.value, theirs.value)
        assert cluster.report().total == session.report()

    def test_single_core_routing_policies_identical(self, tech):
        trace = list(synthetic_trace(requests=24, rows=4, columns=6, seed=13))
        reports = []
        for routing in (RoutingPolicy.round_robin(), RoutingPolicy.least_loaded(),
                        RoutingPolicy.cache_affinity()):
            cluster = PhotonicCluster(cores=1, technology=tech, grid=(4, 6),
                                      routing=routing)
            replay(cluster, trace)
            reports.append(cluster.report().total)
        assert reports[0] == reports[1] == reports[2]


class TestQoS:
    def test_saturation_sheds_best_effort(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  max_pending=2)
        rng = np.random.default_rng(21)
        weights = rng.integers(0, 8, (4, 6))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        with pytest.raises(ClusterSaturatedError, match="max_pending=2"):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        # The typed error is also a RuntimeError, and the shed request
        # is counted but never queued.
        with pytest.raises(RuntimeError, match="saturated"):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        assert cluster.pending == 2
        assert cluster.report().shed == 2
        # A malformed request on the saturated fleet raises what its
        # session would: it is neither counted as shed nor queued.
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        image = rng.uniform(0.0, 1.0, (6, 6))
        model = cluster.compile(Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6)))))
        malformed = (
            lambda: model.submit(np.full((2, 6), np.nan)),
            lambda: cluster.submit(weights.astype(str), rng.uniform(0.0, 1.0, 6)),
            lambda: cluster.submit(weights + 8, rng.uniform(0.0, 1.0, 6)),
            lambda: cluster.submit(weights, np.full(6, 2.0)),
            lambda: cluster.submit(weights, rng.uniform(0.0, 1.0, 5)),
            lambda: cluster.submit(weights, rng.uniform(0.0, 1.0, 6), gain=-1.0),
            lambda: cluster.submit_conv(np.full((2, 3, 3), np.nan), image),
            lambda: cluster.submit_conv(kernels, -image),
            lambda: cluster.submit_conv(kernels, image, gain="auto"),
            lambda: cluster.submit_conv(kernels, image, stride=0),
            lambda: cluster.submit(weights, rng.uniform(0.0, 1.0, 6), deadline=float("nan")),
            lambda: cluster.submit(weights, rng.uniform(0.0, 1.0, 6), deadline="soon"),
            lambda: cluster.submit_conv(kernels, image, deadline=float("nan")),
            lambda: cluster.submit_conv(kernels, image, deadline="soon"),
            lambda: model.submit(rng.uniform(0.0, 1.0, (2, 6)), deadline=float("nan")),
        )
        for submit in malformed:
            with pytest.raises(ConfigurationError):
                submit()
            assert cluster.pending == 2
            assert cluster.report().shed == 2
        # Well-formed requests on every route are still shed.
        with pytest.raises(ClusterSaturatedError):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        with pytest.raises(ClusterSaturatedError):
            cluster.submit_conv(kernels, image)
        with pytest.raises(ClusterSaturatedError):
            model.submit(rng.uniform(0.0, 1.0, (2, 6)))
        assert cluster.pending == 2
        assert cluster.report().shed == 5

    def test_priority_bypasses_shedding(self, tech):
        cluster = PhotonicCluster(cores=1, technology=tech, grid=(4, 6),
                                  max_pending=1)
        rng = np.random.default_rng(22)
        weights = rng.integers(0, 8, (4, 6))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        urgent = cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=5)
        assert cluster.pending == 2
        cluster.flush()
        assert urgent.done and cluster.report().shed == 0

    def test_draining_reopens_admission(self, tech):
        cluster = PhotonicCluster(cores=1, technology=tech, grid=(4, 6),
                                  max_pending=1)
        rng = np.random.default_rng(23)
        weights = rng.integers(0, 8, (4, 6))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        with pytest.raises(ClusterSaturatedError):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        cluster.flush()
        admitted = cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        assert len(admitted.result()) == 4

    def test_priority_orders_the_fleet_flush(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6))
        rng = np.random.default_rng(24)
        weights = rng.integers(0, 8, (4, 6))
        # Core 0 gets best-effort traffic, core 1 a priority request.
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=3)
        assert flushed_order(cluster) == [1, 0]   # priority core drains first

    def test_rejected_submit_leaves_no_bookkeeping(self, pair):
        """A submit the session rejects must neither count as routed
        nor pin a phantom priority on the core it would have used."""
        rng = np.random.default_rng(26)
        with pytest.raises(ConfigurationError, match="shape"):
            pair.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 5),
                        priority=9)
        report = pair.report()
        assert report.routed == (0, 0) and report.total.requests == 0
        assert [session._fleet_order for session in pair.sessions] == [None, None]
        # ... nor use up a core's round-robin turn: good, bad, good
        # lands the second good request on core 1.
        weights = rng.integers(0, 8, (4, 6))
        pair.submit(weights, rng.uniform(0.0, 1.0, 6))
        with pytest.raises(ConfigurationError, match="shape"):
            pair.submit(weights, rng.uniform(0.0, 1.0, 5))
        pair.submit(weights, rng.uniform(0.0, 1.0, 6))
        assert pair.report().routed == (1, 1)

    def test_auto_flush_clears_priority_marker(self, tech):
        """A priority request that its core's flush policy resolves
        immediately leaves nothing pending to prioritize — the next
        fleet flush must not keep ranking that idle core first."""
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  flush_policy=FlushPolicy.max_batch(1))
        rng = np.random.default_rng(27)
        future = cluster.submit(rng.integers(0, 8, (4, 6)),
                                rng.uniform(0.0, 1.0, 6), priority=5)
        assert future.done                     # max_batch(1) flushed inline
        assert [session._fleet_order for session in cluster.sessions] == [None, None]

    def test_failed_fleet_flush_leaves_no_stale_order(self, tech):
        """A fleet flush that fails on its priority core stops there:
        that core's window and its order are gone, the cores after it
        keep theirs, and a new best-effort request on the failed core
        ranks behind the older ones."""
        cluster = PhotonicCluster(cores=3, technology=tech, grid=(4, 6))
        rng = np.random.default_rng(28)
        weights = rng.integers(0, 8, (4, 6))
        for priority in (5, 0, 0):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6), priority=priority)
        with mock.patch.object(
            CompiledCore, "matmul", side_effect=ConversionError("injected")
        ):
            with pytest.raises(ConversionError):
                cluster.flush()
        assert [session.pending for session in cluster.sessions] == [0, 1, 1]
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))    # round robin: core 0
        assert flushed_order(cluster) == [1, 2, 0]

    @pytest.mark.parametrize("path", ["result", "core_flush"])
    def test_a_core_flushed_alone_drops_its_order(self, pair, path):
        """A core flushed outside the fleet flush (a blocking
        ``result()`` or its own session's ``flush()``) holds nothing
        to rank: its next best-effort request ranks behind an older
        one on another core."""
        rng = np.random.default_rng(29)
        weights = rng.integers(0, 8, (4, 6))
        urgent = pair.submit(weights, rng.uniform(0.0, 1.0, 6), priority=5)
        pair.submit(weights, rng.uniform(0.0, 1.0, 6))
        if path == "result":
            urgent.result()
        else:
            pair.sessions[0].flush()
        pair.submit(weights, rng.uniform(0.0, 1.0, 6))       # round robin: core 0
        assert flushed_order(pair) == [1, 0]

    def test_a_request_shed_at_submit_ranks_nothing(self, pair):
        """A request shed at submit (``deadline=0.0``) never queues, so
        its priority must not rank the core it was routed to."""
        rng = np.random.default_rng(30)
        weights = rng.integers(0, 8, (4, 6))
        pair.submit(weights, rng.uniform(0.0, 1.0, 6))
        pair.submit(weights, rng.uniform(0.0, 1.0, 6), priority=1)
        shed = pair.submit(weights, rng.uniform(0.0, 1.0, 6), priority=9,
                           deadline=0.0)                      # core 0
        assert shed.expired and pair.pending == 2
        assert flushed_order(pair) == [1, 0]

    def test_priority_validation(self, pair):
        rng = np.random.default_rng(25)
        with pytest.raises(ConfigurationError, match="priority"):
            pair.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6),
                        priority=1.5)


class TestReplicatedModels:
    def test_replicas_land_on_distinct_cores(self, tech):
        cluster = PhotonicCluster(cores=3, technology=tech, grid=(4, 6))
        rng = np.random.default_rng(31)
        model = Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6))))
        endpoint = cluster.compile(model, replicas=2)
        assert isinstance(endpoint, ReplicatedModel)
        assert endpoint.replicas == 2
        assert len(set(endpoint.core_indices)) == 2
        assert cluster.models == (endpoint,)

    def test_replicas_cannot_exceed_cores(self, pair):
        rng = np.random.default_rng(32)
        model = Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6))))
        with pytest.raises(ConfigurationError, match="replicas"):
            pair.compile(model, replicas=3)
        with pytest.raises(ConfigurationError, match="replicas"):
            pair.compile(model, replicas=0)

    def test_batches_fan_out_and_match_single_core(self, tech):
        rng = np.random.default_rng(33)
        model = Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6))), ReLU(),
                                 Dense(rng.normal(0.0, 0.5, (2, 3))))
        calibration = rng.uniform(0.0, 1.0, (8, 6))
        batches = [rng.uniform(0.0, 1.0, (4, 6)) for _ in range(4)]

        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6))
        replicated = cluster.compile(model, calibration=calibration, replicas=2)
        futures = [replicated.submit(batch) for batch in batches]
        cluster.flush()

        session = PhotonicSession(technology=tech, grid=(4, 6))
        reference = session.compile(model, calibration=calibration)
        for batch, future in zip(batches, futures):
            np.testing.assert_array_equal(future.value, reference.predict(batch))
        # Round-robin fan-out: both replicas served half the batches.
        report = cluster.report()
        assert report.routed == (2, 2)
        assert all(r.requests == 2 for r in report.per_core)

    def test_replica_stage_accounting_lands_per_core(self, tech):
        rng = np.random.default_rng(34)
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6))
        replicated = cluster.compile(
            Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6)))), replicas=2)
        for _ in range(2):
            replicated.submit(rng.uniform(0.0, 1.0, (4, 6)))
        cluster.flush()
        report = cluster.report()
        # Each core ran one 4-sample differential batch: 8 ADC slots.
        assert tuple(r.samples for r in report.per_core) == (8, 8)
        assert report.imbalance == 1.0
        assert report.total.analog_energy > 0.0

    def test_model_placement_spreads_across_models(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6))
        rng = np.random.default_rng(35)
        first = cluster.compile(
            Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6)))))
        second = cluster.compile(
            Model.sequential(Dense(rng.normal(0.0, 0.5, (2, 6)))))
        assert first.core_indices != second.core_indices

    def test_replicated_submit_respects_admission(self, tech):
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  max_pending=1)
        rng = np.random.default_rng(36)
        replicated = cluster.compile(
            Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6)))), replicas=2)
        replicated.submit(rng.uniform(0.0, 1.0, (2, 6)))
        with pytest.raises(ClusterSaturatedError):
            replicated.submit(rng.uniform(0.0, 1.0, (2, 6)))
        urgent = replicated.submit(rng.uniform(0.0, 1.0, (2, 6)), priority=1)
        cluster.flush()
        assert urgent.done


class TestClusterReport:
    def test_totals_are_per_core_sums(self, pair):
        rng = np.random.default_rng(41)
        replay(pair, [(0, rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
                      for _ in range(6)])
        report = pair.report()
        assert isinstance(report, ClusterReport)
        assert report.cores == 2 and report.routing == "round_robin"
        assert report.total == RunReport.combined(report.per_core)
        assert report.total.requests == 6
        assert sum(report.routed) == 6 and report.shed == 0
        assert report.total.flush_index == sum(r.flush_index
                                               for r in report.per_core)

    def test_utilization_and_imbalance(self, pair):
        rng = np.random.default_rng(42)
        replay(pair, [(0, rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
                      for _ in range(8)])
        report = pair.report()
        assert sum(report.utilization) == pytest.approx(1.0)
        assert report.imbalance == pytest.approx(1.0)   # even round-robin split
        assert report.fleet_latency == max(r.total_latency
                                           for r in report.per_core)

    def test_idle_fleet_report(self, pair):
        report = pair.report()
        assert report.total.requests == 0
        assert report.utilization == (0.0, 0.0)
        assert report.imbalance == 1.0
        assert report.fleet_latency == 0.0

    def test_report_prints_fleet_and_cores(self, pair):
        rng = np.random.default_rng(43)
        replay(pair, [(0, rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
                      for _ in range(4)])
        text = str(pair.report())
        assert "cluster of 2 cores" in text
        assert "core 0" in text and "core 1" in text
        assert "imbalance" in text

    def test_zero_request_flush_keeps_ratios_safe(self, pair):
        """A flush firing with nothing queued must not divide by zero
        anywhere in the report (regression)."""
        assert pair.flush() == 0
        report = pair.report()
        assert report.utilization == (0.0, 0.0)
        assert report.imbalance == 1.0
        assert report.fleet_latency == 0.0
        assert report.cache_hit_rate == 0.0
        assert "imbalance" in str(report)

    def test_empty_fleet_report_guards(self):
        """ClusterReport over an empty per-core tuple (no fleet) stays
        total-function: no max() over an empty sequence, no division
        by a zero fleet (regression)."""
        report = ClusterReport(
            cores=0,
            routing="round_robin",
            total=RunReport.combined(()),
            per_core=(),
            routed=(),
            shed=0,
        )
        assert report.fleet_latency == 0.0
        assert report.imbalance == 1.0
        assert report.utilization == ()
        assert report.cache_hit_rate == 0.0
        assert "cluster of 0 cores" in str(report)

    def test_evictions_surface_in_cluster_report(self, tech):
        """The WeightProgramCache eviction counter threads through
        SchedulerStats -> RunReport -> ClusterReport."""
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  cache_capacity=2,
                                  routing=RoutingPolicy.cache_affinity())
        rng = np.random.default_rng(44)
        tenants = [rng.integers(0, 8, (4, 6)) for _ in range(8)]
        for weights in tenants:
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
            cluster.flush()
        report = cluster.report()
        assert report.total.cache_evictions > 0
        assert report.total.cache_evictions == sum(r.cache_evictions
                                                   for r in report.per_core)
        per_core_caches = sum(s.scheduler.cache.evictions
                              for s in cluster.sessions)
        assert report.total.cache_evictions == per_core_caches


class TestClusterFlushAndPoll:
    def test_flush_resolves_fleet_wide(self, pair):
        rng = np.random.default_rng(51)
        futures = [pair.submit(rng.integers(0, 8, (4, 6)),
                               rng.uniform(0.0, 1.0, 6)) for _ in range(5)]
        assert pair.pending == 5
        assert pair.flush() == 5
        assert pair.pending == 0
        assert all(future.done for future in futures)

    def test_poll_enforces_deadline_without_new_traffic(self, tech):
        import time

        cluster = PhotonicCluster(cores=2, technology=tech, grid=(4, 6),
                                  flush_policy=FlushPolicy.max_delay(0.005))
        rng = np.random.default_rng(52)
        future = cluster.submit(rng.integers(0, 8, (4, 6)),
                                rng.uniform(0.0, 1.0, 6))
        assert cluster.poll() == 0            # deadline not reached
        assert not future.done
        time.sleep(0.01)
        assert cluster.poll() == 1            # lone request now past deadline
        assert future.done


class TestCoreSeconds:
    @staticmethod
    def tape(tech, report_every):
        """A 3-core fleet on an injected clock: 60 submits at uneven
        gaps, core 1 drained before submit 20 and restored before
        submit 40, a ``report()`` after every ``report_every``-th
        submit (0 = none).  Returns the final core-seconds and the
        drain, restore and end times."""
        clock = ModelClock()
        cluster = PhotonicCluster(cores=3, technology=tech, grid=(8, 8), clock=clock)
        rng = np.random.default_rng(7)
        weights = rng.integers(0, 8, (4, 6))
        stamps = []
        for index in range(60):
            if index == 20:
                stamps.append(clock.now)
                cluster.drain(1)
            elif index == 40:
                stamps.append(clock.now)
                cluster.restore(1)
            clock.advance((index % 5 + 1) * 1e-9)
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
            if report_every and (index + 1) % report_every == 0:
                cluster.report()
        cluster.flush()
        stamps.append(clock.now)
        return cluster.report().core_seconds, stamps

    @pytest.mark.parametrize("report_every", [0, 7, 1])
    def test_reports_do_not_split_the_integral(self, tech, report_every):
        """Every rotation change closes the open interval and a report
        only reads it, so the integral is the same sum of interval x
        active cores however often the fleet is reported (regression:
        drain/restore did not close it and each report did, so the
        reading depended on the report cadence)."""
        core_seconds, (drained, restored, end) = self.tape(tech, report_every)
        assert core_seconds.hex() == "0x1.01b2b29a4692dp-21"
        assert core_seconds == 3 * drained + 2 * (restored - drained) + 3 * (end - restored)


def metrics_tape(tech):
    """A 3-core cache-affinity fleet with metrics on an injected clock:
    90 submits over three programs (in-grid and tiled), two tenants,
    every fourth with a tight deadline, a flush after every tenth,
    admission sheds at ``max_pending=6``, core 2 drained and restored.
    Returns the cluster, the fleet registry and every registry's
    contents before the first request."""
    metrics = MetricsRegistry()
    clock = ModelClock()
    cluster = PhotonicCluster(
        cores=3, technology=tech, grid=(8, 8), metrics=metrics, clock=clock,
        routing=RoutingPolicy.cache_affinity(), max_pending=6,
    )
    before = [metrics.to_dict()] + [
        session.telemetry.metrics.to_dict() for session in cluster.sessions
    ]
    rng = np.random.default_rng(3)
    programs = [rng.integers(0, 8, shape) for shape in ((8, 8), (4, 6), (12, 12))]
    for index in range(90):
        clock.advance(2e-9)
        weights = programs[index % 3]
        try:
            cluster.submit(weights, rng.uniform(0.0, 1.0, weights.shape[1]),
                           tenant=f"t{index % 2}",
                           deadline=None if index % 4 else 5e-9)
        except ClusterSaturatedError:
            pass
        if index % 10 == 9:
            cluster.flush()
        if index == 30:
            cluster.drain(2)
        elif index == 60:
            cluster.restore(2)
    cluster.flush()
    return cluster, metrics, before


#: :func:`metrics_tape`'s registries as the per-request counter lookups
#: left them: the fleet's in full, each core's counters, gauges and
#: histogram counts.
FLEET_METRICS = {
    "counters": {"drains": 1, "routed": 54, "shed": 36},
    "gauges": {},
    "histograms": {},
}
CORE_METRICS = [
    (
        {"batches": 12, "cache_hits": 10, "cache_misses": 2, "deadline_misses": 8,
         "flushes": 10, "requests": 24},
        {"pending": 0.0},
        {"batch_size": 12, "end_to_end_s": 16, "queue_wait_s": 16, "queue_wait_s/t0": 4,
         "queue_wait_s/t1": 12, "service_s/t0": 4, "service_s/t1": 12},
    ),
    (
        {"batches": 9, "cache_hits": 8, "cache_misses": 1, "deadline_misses": 4,
         "flushes": 10, "requests": 18},
        {"pending": 0.0},
        {"batch_size": 9, "end_to_end_s": 14, "queue_wait_s": 14, "queue_wait_s/t0": 5,
         "queue_wait_s/t1": 9, "service_s/t0": 5, "service_s/t1": 9},
    ),
    (
        {"batches": 6, "cache_hits": 5, "cache_misses": 1, "deadline_misses": 2,
         "flushes": 11, "requests": 12},
        {"pending": 0.0},
        {"batch_size": 6, "end_to_end_s": 10, "queue_wait_s": 10, "queue_wait_s/t0": 4,
         "queue_wait_s/t1": 6, "service_s/t0": 4, "service_s/t1": 6},
    ),
]


class TestFleetMetrics:
    def test_registries_export_the_same_names_and_values(self, tech):
        """The ``requests`` and ``routed`` counters are looked up once
        per binding, on its first request: no counter exists before it,
        and after a fleet tape every registry exports the names and
        values it did when each request looked its counter up."""
        lookups = []
        lookup = MetricsRegistry.counter

        def counted(registry, name):
            lookups.append(name)
            return lookup(registry, name)

        with mock.patch.object(MetricsRegistry, "counter", counted):
            cluster, metrics, before = metrics_tape(tech)
        assert lookups.count("requests") == 3 and lookups.count("routed") == 1
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        assert before == [empty] * 4
        fleet = metrics.to_dict()
        assert fleet == FLEET_METRICS
        cores = [
            (
                registry["counters"],
                registry["gauges"],
                {name: summary["count"] for name, summary in registry["histograms"].items()},
            )
            for registry in (session.telemetry.metrics.to_dict()
                             for session in cluster.sessions)
        ]
        assert cores == CORE_METRICS


def affinity(tech, cores=4, **kwargs):
    """A cache-affinity cluster on small tiles."""
    return PhotonicCluster(cores=cores, technology=tech, grid=(4, 6),
                           routing=RoutingPolicy.cache_affinity(), **kwargs)


class TestRouteMemo:
    """Under cache-affinity each program is routed once per rotation:
    repeats read the memo, and every rotation change clears it."""

    def test_repeats_skip_the_ring(self, tech, monkeypatch):
        cluster = affinity(tech)
        rng = np.random.default_rng(61)
        programs = [rng.integers(0, 8, (4, 6)) for _ in range(3)]
        walks = []
        lookup = HashRing.lookup
        monkeypatch.setattr(
            HashRing, "lookup",
            lambda ring, key, allowed=None: walks.append(key) or lookup(ring, key, allowed),
        )
        for turn in range(12):
            cluster.submit(programs[turn % 3], rng.uniform(0.0, 1.0, 6))
        assert len(walks) == 3
        assert len(cluster._routes) == 3
        # A copy in another dtype has its own entry but the same home.
        narrow = programs[0].astype(np.uint8)
        cluster.submit(narrow, rng.uniform(0.0, 1.0, 6))
        assert len(walks) == 4 and len(cluster._routes) == 4
        routes = cluster._routes
        assert (routes["dense", None, (4, 6), narrow.dtype, narrow.tobytes()]
                == routes["dense", None, (4, 6), programs[0].dtype, programs[0].tobytes()])

    def test_a_rejected_routed_request_leaves_no_content_key(self, tech):
        """The route memo's content key reaches the routed core's
        program memo for one session submit only: a request its session
        rejects or sheds at submit leaves no key behind, so a later
        request on that core is keyed on its own weights."""
        cluster = affinity(tech, cores=2)
        rng = np.random.default_rng(64)
        weights, other = rng.integers(0, 8, (2, 4, 6))
        x = rng.uniform(0.0, 1.0, 6)
        with pytest.raises(ConfigurationError, match="input must have shape"):
            cluster.submit(weights, np.ones(5))
        assert cluster.submit(weights, x, deadline=0.0).expired
        home = cluster._routes["dense", None, (4, 6), weights.dtype, weights.tobytes()]
        assert all(s.scheduler._content_key is None for s in cluster.sessions)
        served = cluster.sessions[home].submit(other, x).result()
        again = cluster.submit(weights, x).result()
        for matrix, value in ((other, served), (weights, again)):
            alone = PhotonicSession(technology=tech, grid=(4, 6))
            np.testing.assert_array_equal(value, alone.submit(matrix, x).result())

    def test_rotation_changes_clear_the_memo(self, tech):
        cluster = affinity(tech)
        rng = np.random.default_rng(62)
        weights = rng.integers(0, 8, (4, 6))
        x = rng.uniform(0.0, 1.0, 6)

        def home():
            before = cluster.report().routed
            cluster.submit(weights, x)
            after = cluster.report().routed
            return next(i for i, (a, b) in enumerate(zip(before, after)) if b > a)

        first = home()
        assert cluster._routes
        cluster.drain(first)
        assert cluster._routes == {}
        moved = home()
        assert moved != first
        cluster.restore(first)
        assert cluster._routes == {}
        assert home() == first
        cluster.add_core()
        assert cluster._routes == {}
        home()
        cluster.scale_down(cluster.active_cores[-1])
        assert cluster._routes == {}

    def test_memo_is_bounded_by_the_fleet_caches(self, tech):
        cluster = affinity(tech, cores=2, cache_capacity=2)
        bound = sum(session.scheduler.cache.capacity
                    + session.scheduler.tiled_cache.capacity
                    for session in cluster.sessions)
        rng = np.random.default_rng(63)
        sizes = []
        for _ in range(3 * bound):
            cluster.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
            sizes.append(len(cluster._routes))
        assert max(sizes) == bound
        assert sizes[bound] == 1          # cleared whole, then refilled

    def test_min_adc_bits_and_route_kind_key_apart(self, tech):
        from repro.elastic import CoreSpec

        cluster = PhotonicCluster(
            cores=3, technology=tech, grid=(4, 9),
            routing=RoutingPolicy.cache_affinity(),
            core_specs=[CoreSpec(adc_bits=3), CoreSpec(adc_bits=6), None],
        )
        rng = np.random.default_rng(65)
        weights = rng.integers(0, 8, (4, 9))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 9))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 9), min_adc_bits=6)
        assert sorted(key[1] or 0 for key in cluster._routes) == [0, 6]
        assert cluster._routes[("dense", 6, (4, 9), weights.dtype,
                                weights.tobytes())] == 1
        bank = rng.normal(0.0, 1.0, (2, 3, 3))
        cluster.submit_conv(bank, rng.uniform(0.0, 1.0, (5, 5)))
        assert ("conv", None, bank.shape, bank.dtype, bank.tobytes()) in cluster._routes

    def test_conv_bank_quantized_for_routing_once(self, tech, monkeypatch):
        cluster = PhotonicCluster(cores=3, technology=tech, grid=(4, 9),
                                  routing=RoutingPolicy.cache_affinity())
        keyed = []
        route_key = PhotonicCluster._conv_route_key
        monkeypatch.setattr(
            PhotonicCluster, "_conv_route_key",
            lambda self, kernels: keyed.append(1) or route_key(self, kernels),
        )
        rng = np.random.default_rng(66)
        bank = rng.normal(0.0, 1.0, (2, 3, 3))
        futures = [cluster.submit_conv(bank, rng.uniform(0.0, 1.0, (5, 5)))
                   for _ in range(4)]
        cluster.flush()
        assert len(keyed) == 1
        assert cluster.report().total.cache_misses == 1
        reference = PhotonicSession(technology=tech, grid=(4, 9))
        image = rng.uniform(0.0, 1.0, (5, 5))
        expected = reference.submit_conv(bank, image).result()
        assert np.array_equal(cluster.submit_conv(bank, image).result(), expected)
        assert all(future.value.shape == (2, 3, 3) for future in futures)

    def test_rejected_submit_leaves_no_memo_entry(self, tech):
        cluster = affinity(tech, cores=2)
        rng = np.random.default_rng(67)
        with pytest.raises(ConfigurationError, match="shape"):
            cluster.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 5))
        assert cluster._routes == {}

    def test_model_traffic_keeps_the_round_robin_turns(self, pair):
        """Replicated-model batches have their own rotation: they leave
        the routed requests' round-robin turns alone."""
        rng = np.random.default_rng(68)
        endpoint = pair.compile(
            Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6)))), replicas=2
        )
        weights = rng.integers(0, 8, (4, 6))
        for _ in range(4):
            pair.submit(weights, rng.uniform(0.0, 1.0, 6))
            endpoint.submit(rng.uniform(0.0, 1.0, (2, 6)))
        routed = pair.report().routed
        # 4 routed requests + 4 batches spread 2:2 over the replicas.
        assert routed == (4, 4)


#: Malformed dense programs: each must fail typed, before any cast.
MALFORMED_WEIGHTS = {
    "nan": lambda: np.where(np.eye(4, 6) > 0, np.nan, 1.0),
    "huge": lambda: np.full((4, 6), 1e30),
    "negative-huge": lambda: np.full((4, 6), -1e30),
    "str": lambda: np.full((4, 6), "1"),
    "object": lambda: np.ones((4, 6), dtype=object),
    "complex": lambda: np.ones((4, 6), dtype=complex),
}


def front_door(tech, kind):
    if kind == "session":
        return PhotonicSession(technology=tech, grid=(4, 6))
    routing = (RoutingPolicy.cache_affinity() if kind == "cache_affinity"
               else RoutingPolicy.round_robin())
    return PhotonicCluster(cores=2, technology=tech, grid=(4, 6), routing=routing)


class TestMalformedWeights:
    @pytest.mark.parametrize("kind", ["session", "round_robin", "cache_affinity"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_WEIGHTS))
    def test_fails_typed_without_warnings(self, tech, kind, case):
        door = front_door(tech, kind)
        rng = np.random.default_rng(69)
        x = rng.uniform(0.0, 1.0, 6)
        door.submit(rng.integers(0, 8, (4, 6)), x)
        pending = door.pending
        cluster = isinstance(door, PhotonicCluster)
        if cluster:
            routed, routes, cursor = door.report().routed, dict(door._routes), door._cursor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="weights must"):
                door.submit(MALFORMED_WEIGHTS[case](), x)
        assert door.pending == pending
        if cluster:
            assert door.report().routed == routed
            assert door._routes == routes and door._cursor == cursor

    @pytest.mark.parametrize("kind", ["session", "round_robin", "cache_affinity"])
    def test_bool_weights_serve_as_zero_one(self, tech, kind):
        door = front_door(tech, kind)
        rng = np.random.default_rng(70)
        weights = rng.integers(0, 2, (4, 6))
        x = rng.uniform(0.0, 1.0, 6)
        as_bool = door.submit(weights.astype(bool), x)
        as_int = door.submit(weights, x)
        door.flush()
        assert np.array_equal(as_bool.codes, as_int.codes)

    def test_range_error_reports_the_callers_values(self, tech):
        door = front_door(tech, "cache_affinity")
        with pytest.raises(ConfigurationError, match=r"got range \[-1e\+30, 3.0\]"):
            door.submit(np.where(np.eye(4, 6) > 0, -1e30, 3.0), np.zeros(6))

    def test_in_grid_input_names_one_range_on_every_path(self, tech):
        """A malformed sub-tile input names the range of the caller's
        entries, never the tile padding's zeros, whether it is queued,
        admitted by a fleet, shed at submit or shed at admission."""
        weights = np.ones((4, 6), dtype=int)
        x = [0.5, 0.6, 0.7, 0.8, 0.9, 2.0]
        session = PhotonicSession(technology=tech, grid=(8, 8))
        cluster = PhotonicCluster(cores=2, technology=tech, grid=(8, 8),
                                  max_pending=1)
        cluster.submit(weights, np.full(6, 0.5))              # fills the cap
        paths = {
            "queued": lambda: session.submit(weights, x),
            "shed at submit": lambda: session.submit(weights, x, deadline=0.0),
            "admitted": lambda: cluster.submit(weights, x, priority=1),
            "shed at admission": lambda: cluster.submit(weights, x),
        }
        for name, submit in paths.items():
            with pytest.raises(ConfigurationError) as raised:
                submit()
            assert str(raised.value).endswith("got range [0.5, 2]"), name
        assert session.pending == 0 and cluster.pending == 1
        assert cluster.report().shed == 0


class TestFleetTransitions:
    def test_every_transition_reaches_every_sink_in_order(self, tech, tmp_path):
        """A shed, a maintenance drain and restore, a plain add_core,
        then scale_down, scale_up (unpark) and scale_up (grow): each
        lands on the fleet trace track, the observer and the fleet
        registry with its exact name, time and arguments.  A scale
        change narrates its inner drain/restore/add_core on the trace
        only; the observer sees the scale event alone."""
        recorder = TraceRecorder()
        observer = Observer(rules=[])
        cluster = PhotonicCluster(
            cores=2, technology=tech, grid=(4, 6), max_pending=1,
            trace=recorder, metrics=MetricsRegistry(), obs=observer,
            program_store=ProgramStore(tmp_path / "store"),
        )
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, (4, 6))
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        with pytest.raises(ClusterSaturatedError):
            cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
        cluster.drain(0)             # flushes core 0's request first
        served_at = cluster.sessions[0].scheduler.clock.now
        assert served_at > 0.0
        cluster.restore(0)
        assert cluster.add_core() == 2
        assert cluster.scale_down() == 2
        assert cluster.scale_up() == 2          # unparks core 2
        assert cluster.scale_up() == 3          # grows core 3

        instants = [(event.name, event.start_s, event.args)
                    for event in recorder.events_in("fleet")]
        assert instants == [
            ("shed", 0.0, {"pending": 1, "max_pending": 1}),
            ("drain core 0", served_at, {"core": 0}),
            ("restore core 0", served_at, {"core": 0}),
            ("add core 2", served_at,
             {"core": 2, "spec": "default", "warm": True, "active": 3}),
            ("drain core 2", served_at, {"core": 2}),
            ("scale down core 2", served_at, {"core": 2, "active": 2}),
            ("restore core 2", served_at, {"core": 2}),
            ("scale up core 2", served_at,
             {"core": 2, "warm_start": "unparked", "active": 3}),
            ("add core 3", served_at,
             {"core": 3, "spec": "default", "warm": True, "active": 4}),
            ("scale up core 3", served_at,
             {"core": 3, "warm_start": "store", "active": 4}),
        ]
        events = [(event.at, event.kind, event.args) for event in observer._events]
        assert events == [
            (0.0, "shed", {"pending": 1, "max_pending": 1}),
            (served_at, "drain", {"core": 0}),
            (served_at, "restore", {"core": 0}),
            (served_at, "add_core", {"core": 2, "active": 3}),
            (served_at, "scale_down", {"core": 2, "active": 2}),
            (served_at, "scale_up",
             {"core": 2, "warm_start": "unparked", "active": 3}),
            (served_at, "scale_up",
             {"core": 3, "warm_start": "store", "active": 4}),
        ]
        metrics = cluster.telemetry.metrics
        counters = {name: metrics.counter(name).value
                    for name in ("shed", "routed", "drains", "scale_ups", "scale_downs")}
        assert counters == {"shed": 1, "routed": 1, "drains": 2,
                            "scale_ups": 2, "scale_downs": 1}
        assert metrics.gauge("active_cores").value == 4
        report = cluster.report()
        assert (report.shed, report.drains, report.scale_ups,
                report.scale_downs) == (1, 2, 2, 1)
