"""Tests for repro.telemetry: the modelled clock, metrics, tracing,
and their wiring through the serving stack.

The two load-bearing guarantees:

* with a recorder attached, every serving surface narrates itself on
  the modelled clock (request/flush/batch/compile/cache/health/fleet
  spans) and the reports grow latency quantile summaries;
* without one, the serving path makes zero telemetry calls and every
  value and report is bit-for-bit identical to the instrumented run:
  both serve, shed and probe on the one modelled service clock.
"""

import json
import math

import numpy as np
import pytest

from repro.api import (
    FlushPolicy,
    Model,
    PhotonicCluster,
    PhotonicSession,
    RoutingPolicy,
    RunReport,
)
from repro.api.graph import Conv2d, Dense, ReLU
from repro.elastic import Autoscaler
from repro.errors import ClusterSaturatedError, ConfigurationError
from repro.health import HealthPolicy, ThermalDetuning, TiaGainDrift
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ModelClock,
    Telemetry,
    TraceRecorder,
    quantiles_from_samples,
    to_serializable,
)


# -- ModelClock --------------------------------------------------------------
def test_model_clock_starts_at_zero_and_advances():
    clock = ModelClock()
    assert clock.now == 0.0
    assert clock.advance(1.5) == 1.5
    assert clock.advance(0.5) == 2.0
    assert clock.now == 2.0


def test_model_clock_rejects_negative_advance():
    with pytest.raises(ConfigurationError):
        ModelClock().advance(-1e-9)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "poison",
    [
        pytest.param(lambda session: ModelClock(start=_NAN), id="clock-start-nan"),
        pytest.param(lambda session: ModelClock(start=_INF), id="clock-start-inf"),
        pytest.param(lambda session: ModelClock().advance(_NAN), id="advance-nan"),
        pytest.param(lambda session: ModelClock().advance(_INF), id="advance-inf"),
        pytest.param(lambda session: session.age(_NAN), id="age-nan"),
        pytest.param(lambda session: session.age(_INF), id="age-inf"),
        pytest.param(
            lambda session: PhotonicCluster(
                cores=2, grid=(4, 6), drift=[ThermalDetuning()]
            ).age(_NAN),
            id="cluster-age-nan",
        ),
        pytest.param(lambda session: FlushPolicy.max_delay(_NAN), id="max-delay-nan"),
        pytest.param(lambda session: FlushPolicy.deadline_aware(_NAN), id="headroom-nan"),
        pytest.param(lambda session: Autoscaler(cooldown_s=_NAN), id="cooldown-nan"),
        pytest.param(
            lambda session: session.submit(
                np.ones((4, 6), dtype=int), np.full(6, 0.5), deadline=_NAN
            ),
            id="deadline-nan",
        ),
    ],
)
def test_nan_and_inf_time_values_are_rejected(poison):
    """A NaN passes every ``x < 0`` check and an inf clock never comes
    back: both fail typed, before the drift state, the service clock or
    the queue moves."""
    session = PhotonicSession(grid=(4, 6), drift=[ThermalDetuning()])
    with pytest.raises(ConfigurationError):
        poison(session)
    assert session.drift.elapsed_s == 0.0
    assert session.scheduler.clock.now == 0.0
    assert session.pending == 0


# -- quantiles_from_samples --------------------------------------------------
def test_quantiles_from_samples_empty_is_none():
    assert quantiles_from_samples([]) is None


def test_quantiles_from_samples_exact():
    summary = quantiles_from_samples([1.0, 2.0, 3.0, 4.0])
    assert summary["count"] == 4
    assert summary["mean"] == pytest.approx(2.5)
    assert summary["max"] == 4.0
    assert summary["p50"] == pytest.approx(2.5)
    assert set(summary) == {"count", "mean", "max", "p50", "p95", "p99", "p999"}


# -- Counter / Gauge ---------------------------------------------------------
def test_counter_and_gauge():
    counter = Counter("requests")
    counter.inc()
    counter.inc(3)
    assert counter.value == 4
    with pytest.raises(ConfigurationError):
        counter.inc(-1)
    gauge = Gauge("pending")
    gauge.set(7)
    assert gauge.value == 7.0


# -- Histogram ---------------------------------------------------------------
def test_histogram_single_value_quantiles_are_exact():
    hist = Histogram("latency")
    hist.observe(2.5e-9)
    summary = hist.summary()
    assert summary["count"] == 1
    assert summary["mean"] == pytest.approx(2.5e-9)
    for key in ("p50", "p95", "p99", "p999"):
        assert summary[key] == pytest.approx(2.5e-9)


def test_histogram_quantile_accuracy_within_bin_resolution():
    hist = Histogram("latency", per_decade=16)
    values = np.geomspace(1e-8, 1e-2, 2000)
    hist.observe_many(values)
    exact = np.quantile(values, 0.5)
    # One bin spans a factor 10^(1/16) ~ 1.155, so the interpolated
    # quantile must land well within one bin of the exact value.
    assert hist.quantile(0.5) == pytest.approx(exact, rel=0.16)
    assert hist.count == 2000
    assert hist.mean == pytest.approx(values.mean())
    assert hist.max == values.max()


def test_histogram_underflow_overflow_clamp_to_observed():
    hist = Histogram("latency", lo=1e-6, hi=1e-3)
    hist.observe_many([1e-9, 1e2])
    assert hist.quantile(0.0) == 1e-9
    assert hist.quantile(1.0) == 1e2


def test_histogram_rejects_negative_and_bad_layout():
    hist = Histogram("latency")
    with pytest.raises(ConfigurationError):
        hist.observe(-1.0)
    hist.observe(1e-6)
    before = (hist.count, hist.total, hist.min, hist.max, hist._counts.copy())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            hist.observe(bad)
        with pytest.raises(ConfigurationError):
            hist.observe_many([2e-6, bad])
        assert (hist.count, hist.total, hist.min, hist.max) == before[:4]
        assert np.array_equal(hist._counts, before[4])
    with pytest.raises(ConfigurationError):
        Histogram("bad", lo=1.0, hi=0.5)
    with pytest.raises(ConfigurationError):
        hist.quantile(1.5)


def test_histogram_merge_adds_and_checks_layout():
    one, two = Histogram("a"), Histogram("b")
    one.observe_many([1e-6, 2e-6])
    two.observe_many([4e-6])
    one.merge(two)
    assert one.count == 3
    assert one.max == 4e-6
    with pytest.raises(ConfigurationError):
        one.merge(Histogram("c", per_decade=8))


def test_histogram_merged_guards_empty_inputs():
    # The empty-fleet guard: nothing in, None out (never a fake zero
    # distribution).
    assert Histogram.merged([]) is None
    assert Histogram.merged([None, None]) is None
    merged = Histogram.merged([None, _observed(1e-6), _observed(2e-6)])
    assert merged.count == 2
    assert Histogram("empty").summary() is None


def _observed(value):
    hist = Histogram("h")
    hist.observe(value)
    return hist


def test_histogram_quantile_bounds_are_observed_min_max():
    # q=0 / q=1 pin to the exact observed extremes, not bin edges.
    hist = Histogram("latency")
    hist.observe_many([1.3e-6, 4.7e-6, 9.1e-6])
    assert hist.quantile(0.0) == 1.3e-6
    assert hist.quantile(1.0) == 9.1e-6


def test_histogram_single_sample_every_quantile_is_the_sample():
    hist = Histogram("latency")
    hist.observe(3.7e-5)
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert hist.quantile(q) == pytest.approx(3.7e-5)


def test_histogram_all_underflow_clamps_to_observed_range():
    # Every observation lands in the underflow bucket: quantiles must
    # report the observed values, never invent the `lo` edge.
    hist = Histogram("latency", lo=1e-6, hi=1e-3)
    hist.observe_many([1e-9, 2e-9, 3e-9])
    summary = hist.summary()
    assert summary["count"] == 3
    assert summary["max"] == 3e-9
    assert hist.quantile(0.0) == 1e-9
    assert summary["p50"] == 1e-9
    assert hist.quantile(1.0) == 3e-9


def test_histogram_all_overflow_clamps_to_observed_range():
    hist = Histogram("latency", lo=1e-6, hi=1e-3)
    hist.observe_many([1.0, 2.0, 4.0])
    summary = hist.summary()
    assert summary["count"] == 3
    assert hist.quantile(0.0) == 1.0
    assert summary["p50"] == 4.0  # the overflow bucket reports max
    assert hist.quantile(1.0) == 4.0


def test_histogram_merge_disjoint_bins_keeps_both_populations():
    # Two histograms whose occupied bins never overlap (decades apart)
    # merge into a bimodal distribution with both modes intact.
    low, high = Histogram("low"), Histogram("high")
    low.observe_many([1.0e-8, 1.2e-8, 1.4e-8])
    high.observe_many([1.0e-2, 1.2e-2, 1.4e-2])
    merged = Histogram.merged([low, high], name="both")
    assert merged.count == 6
    assert merged.min == 1.0e-8
    assert merged.max == 1.4e-2
    assert merged.quantile(0.0) == 1.0e-8
    assert merged.quantile(1.0) == 1.4e-2
    # Quantiles on either side of the gap land in the right mode.
    assert merged.quantile(0.25) < 1e-7
    assert merged.quantile(0.75) > 1e-3


def test_quantiles_from_samples_single_sample_and_bounds():
    summary = quantiles_from_samples([0.125])
    assert summary["count"] == 1
    for key in ("mean", "max", "p50", "p95", "p99", "p999"):
        assert summary[key] == 0.125


# -- MetricsRegistry ---------------------------------------------------------
def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("y") is registry.gauge("y")
    assert registry.histogram("z") is registry.histogram("z")
    assert registry.names == ["x", "y", "z"]
    exported = registry.to_dict()
    assert exported["counters"] == {"x": 0}
    assert exported["histograms"]["z"] is None  # nothing observed yet


# -- TraceRecorder -----------------------------------------------------------
def test_trace_recorder_tracks_and_chrome_export():
    recorder = TraceRecorder(label="test")
    pid = recorder.process("session")
    assert recorder.process("session") == pid  # stable on re-lookup
    tid = recorder.thread(pid, "core 0")
    recorder.complete("flush #1", "flush", pid, tid, 1e-6, 2e-6,
                      args={"requests": 3})
    recorder.instant("cache_hit", "cache", pid, tid, 2e-6)
    assert len(recorder) == 2
    assert len(recorder.events_in("flush")) == 1

    chrome = recorder.to_chrome()
    events = chrome["traceEvents"]
    # Metadata first: process_name then thread_name.
    assert events[0]["ph"] == "M" and events[0]["args"]["name"] == "session"
    assert events[1]["ph"] == "M" and events[1]["args"]["name"] == "core 0"
    span = next(event for event in events if event.get("ph") == "X")
    assert span["ts"] == pytest.approx(1.0)    # modelled s -> Chrome us
    assert span["dur"] == pytest.approx(2.0)
    assert span["args"] == {"requests": 3}
    instant = next(event for event in events if event.get("ph") == "i")
    assert instant["s"] == "t"


def test_trace_recorder_rejects_negative_duration():
    recorder = TraceRecorder()
    with pytest.raises(ConfigurationError):
        recorder.complete("bad", "flush", 1, 1, 0.0, -1.0)


def test_trace_recorder_save_round_trips(tmp_path):
    recorder = TraceRecorder()
    pid = recorder.process("p")
    recorder.complete("span", "batch", pid, recorder.thread(pid, "t"), 0.0, 1.0)
    out = recorder.save(tmp_path / "trace.json")
    payload = json.loads(out.read_text())
    assert payload["otherData"]["clock"] == "modelled"
    assert any(event.get("ph") == "X" for event in payload["traceEvents"])


# -- session tracing ---------------------------------------------------------
def _mixed_workload(session, rng):
    """Native + tiled + conv + model traffic, deterministic."""
    values = []
    native_w = rng.integers(0, 8, (4, 6))
    tiled_w = rng.integers(0, 8, (7, 9))
    kernels = rng.normal(0.0, 1.0, (2, 3, 3))
    image = rng.uniform(0.0, 1.0, (6, 6))
    futures = [session.submit(native_w, rng.uniform(0.0, 1.0, 6))
               for _ in range(4)]
    futures.append(session.submit(tiled_w, rng.uniform(0.0, 1.0, 9)))
    futures.append(session.submit_conv(kernels, image))
    model = Model.sequential(Dense(rng.normal(0.0, 0.5, (3, 6))), ReLU())
    endpoint = session.compile(model)
    futures.append(endpoint.submit(rng.uniform(0.0, 1.0, (2, 6))))
    session.flush()
    # Repeat the native tenant so the program cache hits.
    futures.append(session.submit(native_w, rng.uniform(0.0, 1.0, 6)))
    session.flush()
    for future in futures:
        values.append(np.asarray(future.result(), dtype=float))
    return values, session.report()


def test_session_trace_covers_the_request_lifecycle():
    recorder = TraceRecorder()
    session = PhotonicSession(grid=(4, 6), trace=recorder, label="traced")
    rng = np.random.default_rng(11)
    _mixed_workload(session, rng)

    categories = {event.category for event in recorder.events}
    assert {"request", "flush", "batch", "compile", "cache"} <= categories
    # Request spans carry the route and land on the requests track.
    request_spans = recorder.events_in("request")
    routes = {span.args["route"] for span in request_spans}
    assert {"native", "tiled", "conv", "model"} <= routes
    assert all(span.duration_s >= 0.0 for span in request_spans)
    # The second flush's native submit hit the program cache.
    hits = [event for event in recorder.events_in("cache")
            if event.name == "cache_hit"]
    assert hits
    # Flush spans cover their batches on the modelled clock.
    flush_spans = recorder.events_in("flush")
    assert len(flush_spans) == 2
    assert all(span.args["requests"] >= 1 for span in flush_spans)


def test_requests_resolve_at_their_batch_completion():
    """Each request span ends where its batch's span ends: a future is
    stamped resolved at its batch's completion on the service clock,
    on every route (two in-grid batches at ``max_batch=2``, a tiled and
    a conv batch, and a conv-first endpoint's two input-shape batches,
    each stamped at its own end)."""
    recorder = TraceRecorder()
    session = PhotonicSession(grid=(4, 6), max_batch=2, trace=recorder)
    rng = np.random.default_rng(8)
    native, tiled = rng.integers(0, 8, (4, 6)), rng.integers(0, 8, (7, 9))
    for _ in range(3):
        session.submit(native, rng.uniform(0.0, 1.0, 6))
    session.submit(tiled, rng.uniform(0.0, 1.0, 9))
    session.submit_conv(rng.normal(0.0, 1.0, (2, 2, 2)), rng.uniform(0.0, 1.0, (4, 4)))
    endpoint = session.compile(Model.sequential(Conv2d(rng.normal(0.0, 1.0, (2, 3, 3)))))
    endpoint.submit(rng.uniform(0.0, 1.0, (2, 4, 4)))
    endpoint.submit(rng.uniform(0.0, 1.0, (2, 5, 5)))
    session.flush()
    batches = [event.start_s + event.duration_s for event in recorder.events_in("batch")]
    requests = [span.start_s + span.duration_s for span in recorder.events_in("request")]
    assert len(batches) == 6
    assert requests == pytest.approx([batches[0], *batches], rel=1e-12, abs=0.0)
    assert requests[-2] < requests[-1]

def test_endpoint_batches_count_on_the_batch_metrics():
    """An endpoint batch counts once on the ``batches`` counter and once
    on the ``batch_size`` histogram (its sample count), like a batch of
    any other route, so the counter equals the report's ``batches``; a
    recorder gets one ``model batch`` span naming the endpoint."""
    registry, recorder = MetricsRegistry(), TraceRecorder()
    session = PhotonicSession(grid=(4, 6), trace=recorder, metrics=registry)
    _, report = _mixed_workload(session, np.random.default_rng(11))
    spans = recorder.events_in("batch")
    sizes = [span.args.get("columns", span.args.get("samples")) for span in spans]
    assert registry.counter("batches").value == report.batches == len(spans) == 5
    histogram = registry.histogram("batch_size")
    assert (histogram.count, histogram.total) == (len(sizes), sum(sizes))
    model = [(span.name, span.args) for span in spans if span.name.startswith("model")]
    assert model == [("model batch x2", {"endpoint": "model-0", "samples": 2})]


def test_session_latency_quantiles_per_flush_and_cumulative():
    session = PhotonicSession(grid=(4, 6), trace=TraceRecorder())
    rng = np.random.default_rng(3)
    weights = rng.integers(0, 8, (4, 6))
    futures = [session.submit(weights, rng.uniform(0.0, 1.0, 6))
               for _ in range(5)]
    session.flush()

    per_flush = futures[0].report.latency_quantiles
    assert per_flush is not None
    assert per_flush["end_to_end"]["count"] == 5
    assert per_flush["end_to_end"]["p999"] >= per_flush["end_to_end"]["p50"] > 0.0
    assert per_flush["queue_wait"]["count"] == 5

    cumulative = session.report().latency_quantiles
    assert cumulative is not None
    assert cumulative["end_to_end"]["count"] == 5
    assert cumulative["end_to_end"]["max"] == pytest.approx(
        per_flush["end_to_end"]["max"]
    )


def test_metrics_only_binding_works_without_recorder(monkeypatch):
    """Metrics without a recorder fill the counters and histograms, and
    make no span, instant or request-span call: their names and args
    are built only for a recorder (compiles, cache hits, batches of
    every route, probes and a recalibration included)."""
    def boom(self, *args, **kwargs):
        raise AssertionError("span call on a binding without a recorder")

    for method in ("span", "instant", "request_span"):
        monkeypatch.setattr(Telemetry, method, boom)
    registry = MetricsRegistry()
    session = PhotonicSession(
        grid=(4, 6),
        metrics=registry,
        drift=TiaGainDrift(drift_per_s=-2e-3),
    )
    assert session.telemetry is not None and session.telemetry.trace is None
    _, report = _mixed_workload(session, np.random.default_rng(5))
    session.age(90.0)
    session.check_health()
    session.recalibrate()
    assert registry.counter("requests").value == report.requests == 8
    assert registry.counter("flushes").value == 2
    assert registry.counter("cache_hits").value == report.cache_hits >= 1
    assert registry.counter("probe_runs").value >= 1
    assert registry.counter("recalibrations").value == 1
    assert session.report().latency_quantiles is not None


def test_session_rejects_bad_telemetry_arguments():
    with pytest.raises(ConfigurationError):
        PhotonicSession(grid=(4, 6), trace="not a recorder")
    with pytest.raises(ConfigurationError):
        PhotonicSession(grid=(4, 6), telemetry="not a binding")


# -- overhead-freeness -------------------------------------------------------
def test_uninstrumented_session_makes_zero_telemetry_calls(monkeypatch):
    """No recorder -> the hot path never enters a Telemetry method."""
    def boom(self, *args, **kwargs):
        raise AssertionError("telemetry call on an uninstrumented session")

    for method in ("span", "instant", "request_span", "record_request",
                   "drain_window", "latency_quantiles"):
        monkeypatch.setattr(Telemetry, method, boom)
    session = PhotonicSession(grid=(4, 6))
    assert session.telemetry is None
    rng = np.random.default_rng(11)
    values, report = _mixed_workload(session, rng)
    assert report.requests == 8
    assert report.latency_quantiles is None


def test_traced_run_is_bit_for_bit_identical_to_untraced():
    """The recorder observes; it must never perturb a single value."""
    plain_values, plain_report = _mixed_workload(
        PhotonicSession(grid=(4, 6)), np.random.default_rng(11)
    )
    traced_values, traced_report = _mixed_workload(
        PhotonicSession(grid=(4, 6), trace=TraceRecorder()),
        np.random.default_rng(11),
    )
    assert len(plain_values) == len(traced_values)
    for plain, traced in zip(plain_values, traced_values):
        assert np.array_equal(plain, traced)
    # Every ledger matches; only latency_quantiles differs (None vs
    # populated) by design.
    for field in RunReport.__dataclass_fields__:
        if field == "latency_quantiles":
            continue
        assert getattr(plain_report, field) == getattr(traced_report, field), field
    assert plain_report.latency_quantiles is None
    assert traced_report.latency_quantiles is not None


# -- one service timeline, attached or not ----------------------------------
def _timeline_run(metrics, clock=None, policy=None, deadline=4e-9, flushes=4):
    """``flushes`` hand flushes of 20 distinct 8x8 programs with
    ``deadline`` [s] each, on a drifting core probed after every
    flush; returns the session and its futures."""
    rng = np.random.default_rng(22)
    weights = [rng.integers(0, 8, (8, 8)) for _ in range(20)]
    session = PhotonicSession(
        grid=(8, 8),
        drift=[ThermalDetuning()],
        health_policy=HealthPolicy(probe_every=1),
        clock=clock,
        metrics=metrics,
        flush_policy=policy,
    )
    futures = []
    for _ in range(flushes):
        for w in weights:
            futures.append(session.submit(w, rng.uniform(0.0, 1.0, 8), deadline=deadline))
        session.flush()
    return session, futures


def _assert_one_timeline(**kwargs):
    """The run with ``metrics=`` sheds, serves and accounts exactly as
    the plain run, and sheds some but not all of its requests."""
    plain, futures = _timeline_run(None, **kwargs)
    attached, twins = _timeline_run(MetricsRegistry(), **kwargs)
    assert [f.expired for f in futures] == [t.expired for t in twins]
    for future, twin in zip(futures, twins):
        if not future.expired:
            assert np.array_equal(future.codes, twin.codes)
    report, twin_report = plain.report(), attached.report()
    for field in ("deadline_misses", "analog_time", "batches"):
        assert getattr(report, field) == getattr(twin_report, field), field
    assert plain.flushes == attached.flushes
    assert 0 < report.deadline_misses < len(futures)


def test_injected_clock_sheds_alike_with_and_without_metrics():
    """With an injected clock, every flush carries on from the service
    clock's time: loads and probes of earlier flushes count for the
    plain session exactly as for the attached one."""
    _assert_one_timeline(clock=ModelClock())


def test_host_timed_session_judges_deadlines_on_modelled_time():
    """Without an injected clock, deadlines are stamped and judged on
    the modelled service clock, never on the host clock."""
    _assert_one_timeline()


def test_deadline_slack_reads_the_service_clock():
    """The deadline-aware policy's slack is a modelled deadline minus
    the modelled now, attached or not."""
    _assert_one_timeline(
        policy=FlushPolicy.deadline_aware(2e-9), deadline=3e-9, flushes=2
    )


# -- RunReport.combined guards ----------------------------------------------
def test_run_report_combined_empty_is_all_zero():
    combined = RunReport.combined([])
    assert combined.requests == 0
    assert combined.flush_index == 0
    assert combined.analog_time == 0.0
    assert combined.latency_quantiles is None


def test_run_report_combined_drops_non_additive_quantiles():
    report = RunReport(
        flush_index=1, requests=2, batches=1, samples=2, cache_hits=1,
        cache_misses=1, cache_evictions=0, weight_energy_spent=0.0,
        weight_energy_saved=0.0, weight_time_spent=0.0, analog_time=1e-9,
        analog_energy=0.0,
        latency_quantiles={"end_to_end": {"p50": 1e-9}},
    )
    combined = RunReport.combined([report, report])
    assert combined.requests == 4
    assert combined.latency_quantiles is None


# -- cluster telemetry -------------------------------------------------------
def test_cluster_merges_per_core_quantiles():
    recorder = TraceRecorder()
    cluster = PhotonicCluster(
        cores=2, grid=(4, 6), routing=RoutingPolicy.round_robin(),
        trace=recorder,
    )
    rng = np.random.default_rng(9)
    weights = [rng.integers(0, 8, (4, 6)) for _ in range(2)]
    for turn in range(8):
        cluster.submit(weights[turn % 2], rng.uniform(0.0, 1.0, 6))
    cluster.flush()

    report = cluster.report()
    assert report.latency_quantiles is not None
    assert report.latency_quantiles["end_to_end"]["count"] == 8
    # Both cores carry their own track in the shared recorder.
    chrome = recorder.to_chrome()
    track_names = {event["args"]["name"] for event in chrome["traceEvents"]
                   if event.get("ph") == "M"}
    assert {"core 0", "core 1", "fleet"} <= track_names
    assert "fleet end-to-end" in str(report)


def test_cluster_without_telemetry_reports_no_quantiles():
    cluster = PhotonicCluster(cores=2, grid=(4, 6))
    rng = np.random.default_rng(9)
    cluster.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
    cluster.flush()
    assert cluster.report().latency_quantiles is None


def test_cluster_with_telemetry_but_no_traffic_reports_no_quantiles():
    cluster = PhotonicCluster(cores=2, grid=(4, 6), trace=TraceRecorder())
    assert cluster.report().latency_quantiles is None


def test_reports_have_no_side_effects():
    """Regression: a fleet roll-up looked tenant histograms up through
    the registry's get-or-create, so the first report gave every core
    an empty histogram per tenant it never served, and the second
    report listed every tenant on every core."""
    cluster = PhotonicCluster(
        cores=2, grid=(4, 6), routing=RoutingPolicy.cache_affinity(),
        metrics=MetricsRegistry(),
    )
    rng = np.random.default_rng(0)
    programs = [rng.integers(0, 8, (4, 6)) for _ in range(4)]
    for index, weights in enumerate(programs):
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6), tenant=f"t{index}")
    cluster.flush()
    registries = [session.telemetry.metrics for session in cluster.sessions]
    names = [registry.names for registry in registries]
    first = cluster.report()
    assert [registry.names for registry in registries] == names
    second = cluster.report()
    assert [registry.names for registry in registries] == names
    assert second.to_dict() == first.to_dict()
    # Each tenant's program routed to one core: no core lists them all.
    served = [sorted(report.tenant_quantiles) for report in first.per_core]
    assert all(0 < len(tenants) < 4 for tenants in served)
    assert sorted(sum(served, [])) == ["t0", "t1", "t2", "t3"]
    assert sorted(first.tenant_quantiles) == ["t0", "t1", "t2", "t3"]
    for session in cluster.sessions:
        assert session.report().to_dict() == session.report().to_dict()
    assert [registry.names for registry in registries] == names


def test_cluster_fleet_instants_shed_drain_restore():
    recorder = TraceRecorder()
    cluster = PhotonicCluster(
        cores=2, grid=(4, 6), max_pending=1, trace=recorder
    )
    rng = np.random.default_rng(2)
    weights = rng.integers(0, 8, (4, 6))
    cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
    with pytest.raises(ClusterSaturatedError):
        cluster.submit(weights, rng.uniform(0.0, 1.0, 6))
    cluster.flush()
    cluster.drain(0)
    cluster.restore(0)

    fleet_events = {event.name for event in recorder.events_in("fleet")}
    assert "shed" in fleet_events
    assert "drain core 0" in fleet_events
    assert "restore core 0" in fleet_events
    fleet_metrics = cluster.telemetry.metrics
    assert fleet_metrics.counter("shed").value == 1
    assert fleet_metrics.counter("routed").value == 1
    assert fleet_metrics.counter("drains").value == 1


def test_cluster_rejects_bad_telemetry_arguments():
    with pytest.raises(ConfigurationError):
        PhotonicCluster(cores=2, grid=(4, 6), trace="nope")
    with pytest.raises(ConfigurationError):
        PhotonicCluster(cores=2, grid=(4, 6), metrics="nope")


# -- health spans ------------------------------------------------------------
def test_probe_and_recalibrate_spans_land_on_the_health_track():
    recorder = TraceRecorder()
    session = PhotonicSession(
        grid=(4, 6),
        trace=recorder,
        drift=[ThermalDetuning(amplitude_kelvin=0.6, period_s=45.0),
               TiaGainDrift(drift_per_s=-2e-3)],
    )
    rng = np.random.default_rng(4)
    session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
    session.flush()
    session.age(90.0)
    session.check_health()
    session.recalibrate()

    health = recorder.events_in("health")
    names = {event.name for event in health}
    assert "probe check" in names
    assert "recalibrate" in names
    assert "compile probes" in names
    probe = next(event for event in health if event.name == "probe check")
    assert probe.duration_s > 0.0
    assert "code_error_rate" in probe.args
    # age() advanced the modelled clock past the idle gap.
    assert session.telemetry.clock.now > 90.0


# -- report export -----------------------------------------------------------
def test_reports_export_to_dict_and_json():
    session = PhotonicSession(grid=(4, 6), trace=TraceRecorder())
    rng = np.random.default_rng(6)
    session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
    session.flush()
    report = session.report()
    exported = report.to_dict()
    assert exported["requests"] == 1
    assert json.loads(report.to_json())["flush_index"] == 1

    cluster = PhotonicCluster(cores=2, grid=(4, 6))
    cluster.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
    cluster.flush()
    cluster_dict = cluster.report().to_dict()
    assert cluster_dict["cores"] == 2
    assert isinstance(cluster_dict["per_core"], list)
    json.dumps(cluster_dict)  # fully JSON-ready, numpy included

    drift_session = PhotonicSession(
        grid=(4, 6), drift=[TiaGainDrift(drift_per_s=-1e-3)]
    )
    drift_session.age(10.0)
    health = drift_session.check_health()
    health_dict = health.to_dict()
    assert health_dict["probes"] == health.probes
    json.dumps(health_dict)

    assert to_serializable(np.float64(1.5)) == 1.5
    assert to_serializable((np.int64(2),)) == [2]
