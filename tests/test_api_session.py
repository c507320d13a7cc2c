"""Tests for the one front door (repro.api): session, futures,
flush policies, deployed models and the unified RunReport."""

import time

import numpy as np
import pytest

from repro.api import (
    AvgPool,
    Conv2d,
    Dense,
    Flatten,
    FlushPolicy,
    Model,
    PhotonicCluster,
    PhotonicSession,
    ReLU,
    RoutingPolicy,
    RunReport,
)
from repro.core.psram import PsramBitcell
from repro.core.tensor_core import PhotonicTensorCore
from repro.elastic import ProgramStore
from repro.errors import ConfigurationError, DeadlineExceededError, PendingFlushError
from repro.ml.convolution import PhotonicConv2d
from repro.ml.datasets import gaussian_blobs
from repro.ml.network import MLP, PhotonicMLP
from repro.runtime.engine import CompiledCore
from repro.telemetry import MetricsRegistry


@pytest.fixture()
def session(tech):
    return PhotonicSession(technology=tech, grid=(4, 6), cache_capacity=4,
                           max_batch=16)


class TestSessionConstruction:
    def test_grid_is_rows_columns(self, session):
        assert session.rows == 4 and session.columns == 6
        assert session.core.rows == 4

    def test_grid_must_be_a_pair(self, tech):
        # The session and the cluster share one grid= parser.
        for front_door in (PhotonicSession, PhotonicCluster):
            for grid in (4, (4,), (4, 6, 8), ("four", 6)):
                with pytest.raises(ConfigurationError, match="pair"):
                    front_door(technology=tech, grid=grid)

    def test_default_policy_is_explicit(self, session):
        assert session.flush_policy.describe() == "explicit"


class TestFutures:
    def test_result_auto_flushes(self, session, tech):
        rng = np.random.default_rng(1)
        weights = rng.integers(0, 8, (4, 6))
        x = rng.uniform(0.0, 1.0, 6)
        future = session.submit(weights, x)
        assert not future.done and session.pending == 1
        estimates = future.result()          # no hand-called flush
        assert future.done and session.pending == 0
        reference = PhotonicTensorCore(rows=4, columns=6, technology=tech)
        reference.load_weight_matrix(weights)
        expected = reference.matvec(x)
        assert np.allclose(estimates, expected.estimates)
        np.testing.assert_array_equal(future.codes, expected.codes)

    def test_pending_reads_raise_pending_flush_error(self, session):
        rng = np.random.default_rng(2)
        future = session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
        # A RuntimeError naming the pending flush — not None, and still
        # a ConfigurationError for seed-era except clauses.
        for read in (lambda: future.value, lambda: future.codes,
                     lambda: future.report, lambda: future.result(flush=False)):
            with pytest.raises(RuntimeError, match="flush #1"):
                read()
            with pytest.raises(ConfigurationError, match="not flushed"):
                read()
        with pytest.raises(PendingFlushError, match="result\\(\\)"):
            future.result(flush=False)
        session.flush()
        assert future.value.shape == (4,)

    def test_rejected_deadline_uses_up_no_request_number(self, session):
        """Regression: the dense and conv routes numbered a request
        before its ``deadline=`` was checked, so a rejected one used up
        a number and the next label skipped it."""
        rng = np.random.default_rng(4)
        weights, x = rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6)
        kernels, image = rng.normal(0.0, 1.0, (2, 3, 3)), rng.uniform(0.0, 1.0, (5, 5))
        for bad in (float("nan"), "soon"):
            with pytest.raises(ConfigurationError, match="deadline"):
                session.submit(weights, x, deadline=bad)
            with pytest.raises(ConfigurationError, match="deadline"):
                session.submit_conv(kernels, image, deadline=bad)
        assert session.submit(weights, x).label == "dense 4x6 request #1"
        assert session.submit_conv(kernels, image).label == "conv 2-kernel request #2"
        assert session.pending == 2

    def test_tiled_and_conv_futures(self, session):
        rng = np.random.default_rng(3)
        tiled = session.submit(rng.integers(0, 8, (7, 9)), rng.uniform(0.0, 1.0, 9))
        conv = session.submit_conv(rng.normal(0.0, 1.0, (2, 3, 3)),
                                   rng.uniform(0.0, 1.0, (5, 5)))
        assert conv.shape == (2, 3, 3)
        session.flush()
        assert tiled.value.shape == (7,)
        assert tiled.codes is None           # digital partial sums: no single code
        assert conv.value.shape == (2, 3, 3)

    def test_flush_report_attached_and_shared(self, session):
        rng = np.random.default_rng(4)
        first = session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
        second = session.submit(rng.integers(0, 8, (7, 9)), rng.uniform(0.0, 1.0, 9))
        session.flush()
        assert isinstance(first.report, RunReport)
        assert first.report is second.report          # one report per flush
        report = first.report
        assert report.flush_index == 1
        assert report.requests == 2
        assert report.cache_misses == 2 and report.cache_hits == 0
        assert report.analog_time > 0.0 and report.analog_energy > 0.0
        assert report.total_energy >= report.analog_energy
        # The next flush reports only its own delta.
        session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
        third = session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
        session.flush()
        assert third.report.flush_index == 2
        assert third.report.requests == 2
        cumulative = session.report()
        assert cumulative.requests == 4
        assert cumulative.flush_index == 2


class TestFlushPolicies:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError, match="batch limit"):
            FlushPolicy.max_batch(0)
        with pytest.raises(ConfigurationError, match="delay limit"):
            FlushPolicy.max_delay(-1.0)

    def test_max_batch_auto_flushes(self, tech):
        session = PhotonicSession(technology=tech, grid=(4, 6),
                                  flush_policy=FlushPolicy.max_batch(3))
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 8, (4, 6))
        futures = [session.submit(weights, rng.uniform(0.0, 1.0, 6))
                   for _ in range(3)]
        # The third submit tripped the policy: everything resolved.
        assert all(future.done for future in futures)
        assert session.pending == 0 and session.flushes == 1

    def test_max_delay_flushes_on_next_submit(self, tech):
        session = PhotonicSession(technology=tech, grid=(4, 6),
                                  flush_policy=FlushPolicy.max_delay(0.005))
        rng = np.random.default_rng(6)
        weights = rng.integers(0, 8, (4, 6))
        first = session.submit(weights, rng.uniform(0.0, 1.0, 6))
        assert not first.done                 # deadline not reached yet
        time.sleep(0.01)
        second = session.submit(weights, rng.uniform(0.0, 1.0, 6))
        assert first.done and second.done     # deadline tripped the flush

    def test_poll_enforces_max_delay_without_new_traffic(self, tech):
        """Regression: a lone request must not sit past its max_delay
        deadline just because no further submit/result call arrives —
        poll() re-checks the deadline on wall-clock time alone."""
        session = PhotonicSession(technology=tech, grid=(4, 6),
                                  flush_policy=FlushPolicy.max_delay(0.005))
        rng = np.random.default_rng(8)
        future = session.submit(rng.integers(0, 8, (4, 6)),
                                rng.uniform(0.0, 1.0, 6))
        assert session.poll() == 0            # deadline not reached yet
        assert not future.done
        time.sleep(0.01)
        assert session.poll() == 1            # deadline tripped: flushed
        assert future.done and session.pending == 0
        assert session.poll() == 0            # idle poll is a no-op
        assert session.flushes == 1

    def test_poll_respects_explicit_policy(self, session):
        rng = np.random.default_rng(9)
        session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
        time.sleep(0.002)
        assert session.poll() == 0            # explicit never auto-flushes
        assert session.pending == 1

    def test_explicit_policy_never_auto_flushes(self, session):
        rng = np.random.default_rng(7)
        weights = rng.integers(0, 8, (4, 6))
        futures = [session.submit(weights, rng.uniform(0.0, 1.0, 6))
                   for _ in range(20)]
        assert not any(future.done for future in futures)
        assert session.flush() == 20


class TestDeployedModels:
    def test_compile_rejects_non_models(self, session):
        with pytest.raises(ConfigurationError, match="Model"):
            session.compile(np.ones((2, 2)))

    def test_mlp_endpoint_matches_photonic_mlp(self, tech):
        X, y = gaussian_blobs(samples_per_class=10, classes=3, features=6,
                              spread=0.5)
        mlp = MLP(6, 4, 3)
        mlp.train(X, y, epochs=5)
        session = PhotonicSession(technology=tech, grid=(4, 6))
        endpoint = session.compile(Model.from_mlp(mlp), calibration=X[:8],
                                   label="blobs")
        core = PhotonicTensorCore(rows=4, columns=6, technology=tech)
        reference = PhotonicMLP(mlp, core, calibration_batch=X[:8], runtime=True)
        outputs = endpoint.predict(X[:10])
        np.testing.assert_allclose(outputs, reference.forward(X[:10]))

    def test_conv_endpoint_matches_conv_layer(self, session, tech):
        rng = np.random.default_rng(11)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        images = rng.uniform(0.0, 1.0, (3, 6, 6))
        endpoint = session.compile(Model.sequential(Conv2d(kernels)))
        core = PhotonicTensorCore(rows=4, columns=6, technology=tech)
        reference = PhotonicConv2d(kernels, core, runtime=True)
        np.testing.assert_allclose(endpoint.predict(images),
                                   reference.forward_batch(images))

    def test_submits_coalesce_and_futures_split(self, session):
        rng = np.random.default_rng(12)
        weights = rng.normal(0.0, 1.0, (3, 6))
        endpoint = session.compile(Model.sequential(Dense(weights)))
        first = endpoint.submit(rng.uniform(0.0, 1.0, (2, 6)))
        second = endpoint.submit(rng.uniform(0.0, 1.0, (5, 6)))
        assert session.pending == 2
        session.flush()
        assert first.value.shape == (2, 3)
        assert second.value.shape == (5, 3)
        assert first.report is second.report
        assert first.report.requests == 2
        # One coalesced evaluation, not one per submit.
        assert first.report.batches == 1

    def test_endpoint_input_validation(self, session):
        rng = np.random.default_rng(13)
        vector_model = session.compile(
            Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6)))))
        with pytest.raises(ConfigurationError, match="samples, features"):
            vector_model.submit(np.ones(6))
        image_model = session.compile(
            Model.sequential(Conv2d(rng.normal(0.0, 1.0, (2, 3, 3)))))
        with pytest.raises(ConfigurationError, match="image batch"):
            image_model.submit(np.ones((6, 6)))

    def test_calibration_feature_mismatch_raises(self, session):
        rng = np.random.default_rng(14)
        model = Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6))))
        with pytest.raises(ConfigurationError, match="features"):
            session.compile(model, calibration=np.ones((4, 5)))

    def test_recompiled_model_hits_program_cache(self, session):
        rng = np.random.default_rng(15)
        model = Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6))))
        session.compile(model)
        spent_once = session.report().weight_energy_spent
        assert spent_once > 0.0
        session.compile(model)               # same quantized program
        report = session.report()
        assert report.weight_energy_spent == spent_once
        assert report.weight_energy_saved == pytest.approx(spent_once)
        assert report.cache_hits == 1

    def test_model_conv_program_shared_with_conv_route(self, session):
        """A compiled Conv2d layer and submit_conv of the same bank
        share one cached differential program."""
        rng = np.random.default_rng(16)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        session.compile(Model.sequential(Conv2d(kernels)))
        assert session.tiled_cache.misses == 1
        future = session.submit_conv(kernels, rng.uniform(0.0, 1.0, (5, 5)))
        session.flush()
        assert future.done
        assert session.tiled_cache.hits == 1   # reused the model's program

    def test_program_compiles_count_weight_streaming_time(self, session):
        rng = np.random.default_rng(18)
        session.submit(rng.integers(0, 8, (7, 9)), rng.uniform(0.0, 1.0, 9))
        session.flush()
        report = session.report()
        # The tiled grid compile streamed weights: both the energy and
        # the time ledgers move, and latency covers more than analog.
        assert report.weight_energy_spent > 0.0
        assert report.weight_time_spent > 0.0
        assert report.total_latency > report.analog_time

    def test_failed_flush_abandons_futures(self, session, monkeypatch):
        rng = np.random.default_rng(19)
        future = session.submit(rng.integers(0, 8, (7, 9)),
                                rng.uniform(0.0, 1.0, 9))

        def boom(now=None):
            raise ValueError("injected flush failure")

        monkeypatch.setattr(session.scheduler, "flush", boom)
        with pytest.raises(ValueError, match="injected"):
            session.flush()
        monkeypatch.undo()
        # The queue was cleared; the future must say so instead of
        # suggesting a re-flush that can never resolve it.
        assert future.abandoned and not future.done
        with pytest.raises(PendingFlushError, match="re-submit"):
            future.value
        with pytest.raises(PendingFlushError, match="dropped"):
            future.result()          # must not loop on a futile flush
        # The session itself is not wedged: fresh requests still serve.
        fresh = session.submit(rng.integers(0, 8, (4, 6)),
                               rng.uniform(0.0, 1.0, 6))
        assert len(fresh.result()) == 4

    def test_failed_later_group_keeps_the_served_groups_latency(
        self, tech, monkeypatch
    ):
        """A model drain whose second input-shape group raises still
        stamps the group it served: a metrics session reports a finite
        latency for it and the flush raises the group's own error."""
        session = PhotonicSession(technology=tech, grid=(4, 6),
                                  metrics=MetricsRegistry())
        rng = np.random.default_rng(20)
        endpoint = session.compile(
            Model.sequential(Conv2d(rng.normal(0.0, 1.0, (2, 3, 3)))))
        first = endpoint.submit(rng.uniform(0.0, 1.0, (2, 4, 4)))
        second = endpoint.submit(rng.uniform(0.0, 1.0, (2, 5, 5)))
        forward = endpoint._forward
        calls = []

        def failing_second(batch):
            calls.append(batch.shape)
            if len(calls) == 2:
                raise RuntimeError("injected forward failure")
            return forward(batch)

        monkeypatch.setattr(endpoint, "_forward", failing_second)
        with pytest.raises(RuntimeError, match="injected forward failure"):
            session.flush()
        assert first.done and first.value.shape == (2, 2, 2, 2)
        end_to_end = first.report.latency_quantiles["end_to_end"]
        assert end_to_end["count"] == 1
        assert np.isfinite(end_to_end["max"]) and end_to_end["max"] >= 0.0
        assert second.abandoned and not second.done

    def test_each_endpoint_batch_sheds_at_its_own_start(self, tech):
        """An endpoint's input-shape batches are judged one by one, each
        at its own start: a second batch whose deadline falls inside the
        first batch's forward is shed and counts once on
        ``deadline_misses``, instead of being served late."""
        rng = np.random.default_rng(25)
        model = Model.sequential(Conv2d(rng.normal(0.0, 1.0, (2, 3, 3))))
        small = rng.uniform(0.0, 1.0, (2, 4, 4))
        large = rng.uniform(0.0, 1.0, (2, 5, 5))
        alone = PhotonicSession(technology=tech, grid=(4, 6))
        alone_endpoint = alone.compile(model)
        started = alone.scheduler.clock.now
        alone_endpoint.predict(small)
        service = alone.scheduler.clock.now - started
        session = PhotonicSession(technology=tech, grid=(4, 6))
        endpoint = session.compile(model)
        first = endpoint.submit(small)
        second = endpoint.submit(large, deadline=service / 2)
        session.flush()
        assert np.array_equal(first.value, alone_endpoint.predict(small))
        assert second.expired
        with pytest.raises(DeadlineExceededError):
            second.value
        assert session.report().deadline_misses == 1

    def test_model_accounting_reaches_report(self, session):
        rng = np.random.default_rng(17)
        endpoint = session.compile(
            Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6))), ReLU(),
                             Dense(rng.normal(0.0, 1.0, (2, 3)))))
        endpoint.predict(rng.uniform(0.0, 1.0, (4, 6)))
        report = session.report()
        # Two differential dense layers: 2 passes x 4 samples each.
        assert report.samples == 16
        assert report.analog_time > 0.0 and report.analog_energy > 0.0
        period = 1.0 / session.performance.sample_rate
        assert report.analog_time == pytest.approx(16 * period)


    @pytest.mark.parametrize(
        "first, bad",
        [
            ("conv", "nan pixel"),
            ("conv", "inf pixel"),
            ("conv", "-inf pixel"),
            ("conv", "channels"),
            ("conv", "negative"),
            ("dense", "negative"),
            ("dense", "nan sample"),
            ("dense", "inf sample"),
            ("dense", "-inf sample"),
            ("dense", "features"),
            ("relu", "nan sample"),
        ],
    )
    def test_bad_batch_raises_at_submit_and_queues_nothing(self, session, first, bad):
        """A batch the flush would choke on (or serve as NaN rows) is
        refused at submit: nothing is queued, and a good batch queued
        before it on the same endpoint still resolves."""
        rng = np.random.default_rng(20)
        if first == "conv":
            layers = (Conv2d(rng.normal(0.0, 1.0, (2, 3, 3))),)
            good = rng.uniform(0.0, 1.0, (2, 6, 6))
        else:
            layers = (Dense(rng.normal(0.0, 1.0, (3, 6))),)
            if first == "relu":
                layers = (ReLU(),) + layers
            good = rng.uniform(0.0, 1.0, (2, 6))
        endpoint = session.compile(Model.sequential(*layers))
        batch = good.copy()
        if bad.split()[0] in ("nan", "inf", "-inf"):
            batch[1, 2] = float(bad.split()[0])
        elif bad == "negative":
            batch[0, 1] = -0.5
        elif bad == "channels":
            batch = np.stack([good, good], axis=1)
        else:
            batch = batch[:, :5]
        queued = endpoint.submit(good)
        with pytest.raises(ConfigurationError):
            endpoint.submit(batch)
        assert session.pending == 1
        session.flush()
        alone = PhotonicSession(technology=session.technology, grid=(4, 6))
        expected = alone.compile(Model.sequential(*layers)).predict(good)
        assert np.array_equal(queued.value, expected)

    def test_relu_first_model_takes_negative_inputs(self, session):
        rng = np.random.default_rng(21)
        endpoint = session.compile(
            Model.sequential(ReLU(), Dense(rng.normal(0.0, 1.0, (3, 6)))))
        batch = rng.uniform(-1.0, 1.0, (2, 6))
        assert endpoint.predict(batch).shape == (2, 3)

    @pytest.mark.parametrize("edit", ["values", "negative pixel"])
    def test_endpoint_queues_a_private_copy_of_the_batch(self, tech, edit):
        """An endpoint batch is copied at submit: an edit of the caller's
        array before the flush neither changes the served value nor
        reaches the drain, which does not check the first stage's input
        again (a negative pixel used to fail the flush)."""
        rng = np.random.default_rng(23)
        model = Model.sequential(
            Conv2d(rng.normal(0.0, 1.0, (4, 3, 3))), ReLU(), AvgPool(2), Flatten(),
            Dense(rng.normal(0.0, 1.0 / 6.0, (3, 36))),
        )
        session = PhotonicSession(technology=tech, grid=(8, 9),
                                  flush_policy=FlushPolicy.explicit())
        endpoint = session.compile(model)
        x = rng.uniform(0.0, 1.0, (2, 8, 8))
        original = x.copy()
        future = endpoint.submit(x)
        if edit == "values":
            x[:] = 0.5
        else:
            x[0, 0, 0] = -1.0
        session.flush()
        assert np.array_equal(future.value, endpoint.predict(original))

    def test_endpoint_batches_count_as_flushed(self, tech):
        """Each endpoint batch counts its requests on the scheduler's
        ``flushed`` ledger, so ``batch_fill`` covers model traffic."""
        rng = np.random.default_rng(24)
        session = PhotonicSession(technology=tech, grid=(4, 6), max_batch=8)
        endpoint = session.compile(Model.sequential(Dense(rng.normal(0.0, 1.0, (3, 6)))))
        futures = [endpoint.submit(rng.uniform(0.0, 1.0, (2, 6))) for _ in range(4)]
        session.flush()
        assert all(future.done for future in futures)
        stats = session.scheduler.stats()
        assert (stats.requests, stats.flushed, stats.batches) == (4, 4, 1)
        assert stats.batch_fill == 0.5


@pytest.mark.parametrize("tap", [np.nan, np.inf, -np.inf])
def test_non_finite_kernel_taps_are_rejected_at_every_entry_point(tech, tap):
    """A NaN tap used to quantize to 0 (with a cast RuntimeWarning) and
    an infinite one to serve infinite feature maps; every conv entry
    point shares one kernel-bank validator, which refuses them."""
    kernels = np.random.default_rng(22).normal(0.0, 1.0, (2, 3, 3))
    kernels[1, 0, 2] = tap
    image = np.full((6, 6), 0.5)
    session = PhotonicSession(technology=tech, grid=(4, 6))
    with pytest.raises(ConfigurationError, match="finite"):
        session.submit_conv(kernels, image)
    assert session.pending == 0
    with pytest.raises(ConfigurationError, match="finite"):
        Conv2d(kernels)
    with pytest.raises(ConfigurationError, match="finite"):
        PhotonicConv2d(kernels, PhotonicTensorCore(rows=4, columns=6, technology=tech))
    cluster = PhotonicCluster(
        cores=2, technology=tech, grid=(4, 6), routing=RoutingPolicy.cache_affinity()
    )
    with pytest.raises(ConfigurationError, match="finite"):
        cluster._conv_route_key(kernels)
    with pytest.raises(ConfigurationError, match="finite"):
        cluster.submit_conv(kernels, image)


class TestLoadEnergyRule:
    def test_in_grid_load_energy_is_a_property_of_the_program(self, tech, tmp_path):
        """Regression: an in-grid program was charged the pSRAM flips
        from whatever the core last held, so its load energy depended
        on the program or health probe loaded before it.  Every load
        now costs one switch per set weight bit, cold or warm-restored."""
        rng = np.random.default_rng(23)
        program, q, r = (rng.integers(0, 8, (8, 8)) for _ in range(3))
        x = rng.uniform(0.0, 1.0, 8)
        store = ProgramStore(tmp_path / "programs")

        def spent(before, program_store=None) -> float:
            session = PhotonicSession(technology=tech, grid=(8, 8),
                                      program_store=program_store)
            before(session)
            future = session.submit(program, x)
            future.result()
            assert future.report.cache_misses == 1
            return future.report.weight_energy_spent

        per_switch = PsramBitcell(tech).switching_energy_ledger(state_flipped=True).total
        set_bits = sum(bin(int(v)).count("1") for v in program.ravel())
        # The report is a difference of running totals: allow rounding.
        expected = pytest.approx(set_bits * per_switch, rel=1e-12, abs=0.0)
        assert spent(lambda s: s.submit(q, x).result(), store) == expected
        assert spent(lambda s: s.submit(r, x).result()) == expected
        assert spent(lambda s: s.check_health()) == expected
        assert spent(lambda s: None, store) == expected
        assert store.restores == 1


class TestFlushWindowMemo:
    """Weight checks, padding and the program key run once per weight
    content per flush window; every request still range-checks its
    own input."""

    def test_sub_tile_range_error_reports_the_callers_range(self, tech):
        """Regression: the padding zeros leaked into the message of a
        sub-tile request ("got range [0, 9]")."""
        session = PhotonicSession(technology=tech, grid=(8, 8))
        weights = np.full((4, 6), 3)
        weights[1, 2] = 9
        with pytest.raises(ConfigurationError, match=r"got range \[3, 9\]"):
            session.submit(weights, np.zeros(6))
        assert session.pending == 0

    def test_non_integral_matrix_with_a_memoised_cast_is_rejected(self, session, tech):
        """The window memo keys on the bytes as given, never on the int64
        cast: [[2.5]] casts like [[2.0]] but must still fail the check."""
        rng = np.random.default_rng(31)
        for shape in ((3, 4), (7, 9)):
            weights = rng.integers(1, 7, shape).astype(float)
            x = rng.uniform(0.0, 1.0, shape[1])
            accepted = session.submit(weights, x)
            bad = weights.copy()
            bad[0, 0] += 0.5
            assert np.array_equal(bad.astype(np.int64), weights.astype(np.int64))
            with pytest.raises(ConfigurationError, match="integers"):
                session.submit(bad, x)
            alone = PhotonicSession(technology=tech, grid=(4, 6))
            expected = alone.submit(weights.astype(int), x).result()
            assert np.array_equal(accepted.result(), expected)

    def test_in_place_edit_between_submits_serves_each_matrix(self, session, tech):
        """An edit to the caller's array between two submits of one
        window changes its bytes, so the second submit is its own
        program: each future equals its own matrix served alone."""
        rng = np.random.default_rng(32)
        for shape in ((3, 4), (4, 6), (7, 9)):
            weights = rng.integers(0, 8, shape)
            x = rng.uniform(0.0, 1.0, shape[1])
            first = session.submit(weights, x)
            original = weights.copy()
            weights[0] = 7 - weights[0]
            second = session.submit(weights, x)
            session.flush()
            for future, matrix in ((first, original), (second, weights)):
                alone = PhotonicSession(technology=tech, grid=(4, 6)).submit(matrix, x)
                assert np.array_equal(future.value, alone.result())
                assert (future.codes is None) == (alone.codes is None)
                if future.codes is not None:
                    assert np.array_equal(future.codes, alone.codes)

    def test_in_place_image_edit_after_submit_conv_keeps_the_value(self, session, tech):
        """A conv request queues a private copy of its image: editing the
        caller's array before the flush (which unrolls the batch) does
        not change the served value."""
        rng = np.random.default_rng(34)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        for shape in ((6, 6), (1, 7, 5)):
            image = rng.uniform(0.0, 1.0, shape)
            original = image.copy()
            future = session.submit_conv(kernels, image)
            image[...] = 1.0 - image
            session.flush()
            alone = PhotonicSession(technology=tech, grid=(4, 6))
            assert np.array_equal(future.value, alone.submit_conv(kernels, original).result())

    def test_transposed_images_in_one_batch_keep_their_own_shapes(self, session, tech):
        """A 3x4 and a 4x3 image under a 2x2 kernel unroll to the same
        patch count and share one batch; each future takes its own
        output shape and the value it has served alone."""
        rng = np.random.default_rng(38)
        kernels = rng.normal(0.0, 1.0, (2, 2, 2))
        images = [rng.uniform(0.0, 1.0, shape) for shape in ((3, 4), (4, 3), (3, 4))]
        futures = [session.submit_conv(kernels, image) for image in images]
        session.flush()
        assert futures[0].report.batches == 1
        for image, future, shape in zip(images, futures, ((2, 2, 3), (2, 3, 2), (2, 2, 3))):
            assert future.value.shape == shape
            # Its own array: a kept value never pins the batch's.
            base = future.value.base
            assert base is None or base.size == future.value.size
            alone = PhotonicSession(technology=tech, grid=(4, 6))
            assert np.array_equal(future.value, alone.submit_conv(kernels, image).result())

    def test_in_place_bank_edit_after_submit_conv_changes_the_next_value(
        self, session, tech
    ):
        """The memo keys a kernel bank on its content as given and keeps
        private arrays: an edit of the caller's bank after a submit
        serves the next request the edited bank, in the same window or
        a later one, and the earlier request its original bank."""
        rng = np.random.default_rng(39)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        image = rng.uniform(0.0, 1.0, (6, 6))
        banks = [kernels.copy()]
        futures = [session.submit_conv(kernels, image)]
        for flush in (False, True):
            kernels[0] = -kernels[0]
            banks.append(kernels.copy())
            futures.append(session.submit_conv(kernels, image))
            if flush:
                session.flush()
        values = []
        for bank, future in zip(banks, futures):
            alone = PhotonicSession(technology=tech, grid=(4, 6))
            values.append(alone.submit_conv(bank, image).result())
            assert np.array_equal(future.value, values[-1])
        assert not np.array_equal(values[0], values[1])
        assert not np.array_equal(values[1], values[2])

    def test_rejected_bank_is_never_memoised(self, session):
        """A bank that fails its check raises on every submit and never
        enters the memo; its valid edit then serves."""
        bank = np.random.default_rng(40).normal(0.0, 1.0, (2, 2, 2))
        bank[1, 0, 1] = np.nan
        image = np.full((4, 4), 0.5)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="finite"):
                session.submit_conv(bank, image)
            assert session.scheduler._checked == {} and session.pending == 0
        bank[1, 0, 1] = 0.25
        assert session.submit_conv(bank, image).result().shape == (2, 3, 3)

    def test_conv_bank_quantizes_once_per_window(self, session, tech, monkeypatch):
        """A kernel bank is quantized and keyed once per flush window; a
        rescaled bank quantizes to the same integers, so it joins the
        same batch, but keeps its own weight scale."""
        import repro.runtime.scheduler as scheduler_module

        calls = []
        quantize = scheduler_module.quantize_weights_differential
        monkeypatch.setattr(
            scheduler_module,
            "quantize_weights_differential",
            lambda *args: calls.append(1) or quantize(*args),
        )
        rng = np.random.default_rng(35)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        banks = (kernels, kernels.copy(), 0.5 * kernels, kernels)
        images = rng.uniform(0.0, 1.0, (len(banks), 6, 6))
        futures = [session.submit_conv(bank, image) for bank, image in zip(banks, images)]
        assert len(calls) == 2
        session.flush()
        assert futures[0].report.batches == 1
        # The memo outlives the window: the next one quantizes nothing.
        again = [session.submit_conv(bank, image) for bank, image in zip(banks, images)]
        session.flush()
        assert len(calls) == 2
        assert all(np.array_equal(a.value, f.value) for a, f in zip(again, futures))
        for bank, image, future in zip(banks, images, futures):
            alone = PhotonicSession(technology=tech, grid=(4, 6))
            assert np.array_equal(future.value, alone.submit_conv(bank, image).result())

    def test_memo_outlives_every_flush(self, session, monkeypatch):
        """The memo lives as long as its scheduler: it survives a flush
        and a flush whose kernel raised, and a later window makes no
        weight check, key or quantization for content it holds."""
        import repro.runtime.scheduler as scheduler_module

        rng = np.random.default_rng(33)
        scheduler = session.scheduler
        programs = [rng.integers(0, 8, (3, 4)), rng.integers(0, 8, (7, 9))]
        bank = rng.normal(0.0, 1.0, (2, 2, 2))
        image = rng.uniform(0.0, 1.0, (4, 4))
        inputs = [rng.uniform(0.0, 1.0, weights.shape[1]) for weights in programs]

        def submit_all():
            futures = [session.submit(w, x) for w, x in zip(programs, inputs)]
            return [*futures, session.submit_conv(bank, image)]

        first = submit_all()
        session.flush()
        memo = dict(scheduler._checked)
        assert len(memo) == 3
        calls = []
        for name in ("weight_key", "check_dense_weights", "quantize_weights_differential"):
            counted = getattr(scheduler_module, name)
            monkeypatch.setattr(
                scheduler_module,
                name,
                lambda *args, name=name, counted=counted: calls.append(name) or counted(*args),
            )
        submit_all()

        def boom(*args, **kwargs):
            raise RuntimeError("kernel failed")

        with monkeypatch.context() as patch:
            patch.setattr(CompiledCore, "matmul", boom)
            with pytest.raises(RuntimeError, match="kernel failed"):
                session.flush()
        assert session.pending == 0
        again = submit_all()
        session.flush()
        assert calls == []
        assert scheduler._checked.keys() == memo.keys()
        assert all(scheduler._checked[content] is memo[content] for content in memo)
        for future, repeat in zip(first, again):
            assert np.array_equal(repeat.value, future.value)

    def test_memo_clears_whole_at_its_bound(self, session, tech):
        """Once the memo holds as many programs as both program caches,
        the next new content clears it whole before it is stored."""
        scheduler = session.scheduler
        bound = scheduler.cache.capacity + scheduler.tiled_cache.capacity
        x = np.linspace(0.0, 1.0, 4)
        programs = []
        for index in range(bound + 1):
            weights = np.zeros((3, 4), dtype=int)
            weights.flat[index] = 1 + index % 7
            programs.append(weights)
        futures = [session.submit(weights, x) for weights in programs[:bound]]
        assert len(scheduler._checked) == bound
        futures.append(session.submit(programs[bound], x))
        assert len(scheduler._checked) == 1
        futures.append(session.submit(programs[0], x))
        assert len(scheduler._checked) == 2
        session.flush()
        for weights, future in zip([*programs, programs[0]], futures):
            alone = PhotonicSession(technology=tech, grid=(4, 6)).submit(weights, x)
            alone.result()
            assert np.array_equal(future.codes, alone.codes)

    def test_in_place_edit_between_windows_misses(self, session, tech):
        """The memo keys on content: a caller's array edited in place
        after its window is a new program, served as its new weights."""
        rng = np.random.default_rng(36)
        for shape in ((3, 4), (7, 9)):
            weights = rng.integers(0, 8, shape)
            x = rng.uniform(0.0, 1.0, shape[1])
            before = session.submit(weights, x).result()
            weights[0] = 7 - weights[0]
            after = session.submit(weights, x)
            alone = PhotonicSession(technology=tech, grid=(4, 6)).submit(weights, x)
            assert np.array_equal(after.result(), alone.result())
            assert not np.array_equal(after.value, before)
        assert len(session.scheduler._checked) == 4

    def test_memo_arrays_are_read_only_and_callers_are_not(self, session):
        """The memo's private arrays, which compiled programs alias,
        are read-only; the caller's arrays stay writeable."""
        rng = np.random.default_rng(37)
        callers = [rng.integers(0, 8, shape) for shape in ((4, 6), (3, 4), (7, 9))]
        callers.append(callers[0].astype(np.float64))
        bank = rng.normal(0.0, 1.0, (2, 2, 2))
        for weights in callers:
            session.submit(weights, rng.uniform(0.0, 1.0, weights.shape[1]))
        session.submit_conv(bank, rng.uniform(0.0, 1.0, (4, 4)))
        session.flush()
        sources = [program[1] for program in session.scheduler._checked.values()]
        assert len(sources) == 5
        for source in sources:
            assert not source.flags.writeable
            with pytest.raises(ValueError):
                source[0, 0] = 0
        for weights in (*callers, bank):
            assert weights.flags.writeable
            weights[...] = 0

    @pytest.mark.parametrize(
        "bad",
        [
            np.full((3, 4), np.nan),
            np.full((3, 4), 1e30),
            np.full((3, 4), 99),
            np.full((3, 4), 1, dtype=object),
        ],
        ids=["nan", "huge", "out-of-range", "object"],
    )
    def test_malformed_matrix_raises_on_every_submit(self, session, bad):
        """A rejected matrix is never memoised: it fails typed on every
        submit, in one window and the next."""
        x = np.full(4, 0.5)
        for _ in range(2):
            for _ in range(2):
                with pytest.raises(ConfigurationError):
                    session.submit(bad, x)
            assert session.pending == 0 and session.scheduler._checked == {}
            session.flush()
