"""Tests for repro.obs: alert rules over sliding modelled-time
windows, the Observer lifecycle, the flight recorder, the Prometheus
exporter and the HTML dashboard — plus the two load-bearing
guarantees:

* with an Observer attached, an induced drift incident fires a
  burn-rate alert on the modelled clock, dumps a self-contained bundle
  whose trailing spans include the offending flushes, and renders a
  dashboard with the alert marked;
* without one, every serving surface makes zero obs calls and every
  value and report is bit-for-bit identical.
"""

import json

import numpy as np
import pytest

from repro.api import (
    FlushPolicy,
    MetricsRegistry,
    PhotonicCluster,
    PhotonicSession,
    RoutingPolicy,
    RunReport,
)
from repro.errors import ClusterSaturatedError, ConfigurationError
from repro.health import HealthPolicy
from repro.obs import (
    CacheHitCollapseRule,
    DeadlineMissBurnRule,
    EventSample,
    FlightRecorder,
    HealthSample,
    LatencyBurnRule,
    LatencyShiftRule,
    MetricSample,
    Observer,
    ProbeErrorBurnRule,
    ShedSpikeRule,
    WindowView,
    default_rules,
    prometheus_text,
    render_dashboard,
    save_dashboard,
    slo_burn_rules,
)
from repro.health import drift_suite
from repro.telemetry import ModelClock, TraceRecorder
from repro.traffic import SLO, Poisson, TrafficEngine, WorkloadMix, synthetic_trace

GRID = (8, 8)


def _sample(at, **kwargs):
    return MetricSample(at=at, source="core", **kwargs)


def _view(samples=(), health=(), events=(), now=10.0, window_s=10.0):
    return WindowView(samples, health, events, now=now, window_s=window_s)


# -- WindowView --------------------------------------------------------------
class TestWindowView:
    def test_filters_strictly_inside_the_window(self):
        samples = [
            _sample(0.0, requests=8),   # exactly at the cutoff: excluded
            _sample(1.0, requests=4),
            _sample(9.0, requests=2),
        ]
        view = _view(samples, now=10.0, window_s=10.0)
        assert view.requests == 6
        narrow = _view(samples, now=10.0, window_s=2.0)
        assert narrow.requests == 2

    def test_rates_are_none_on_empty_windows(self):
        view = _view()
        assert view.miss_rate() is None
        assert view.hit_rate() is None
        assert view.p99() is None
        assert view.probe_error_rate() is None

    def test_aggregates(self):
        samples = [
            _sample(1.0, requests=8, deadline_misses=2, cache_hits=3,
                    cache_misses=1, p99_latency=2e-6),
            _sample(2.0, requests=2, p99_latency=5e-6),
        ]
        health = [
            HealthSample(at=1.0, source="core", code_error_rate=0.1),
            HealthSample(at=2.0, source="core", code_error_rate=0.3),
        ]
        events = [
            EventSample(at=1.5, kind="shed"),
            EventSample(at=1.6, kind="drain"),
        ]
        view = _view(samples, health, events)
        assert view.miss_rate() == pytest.approx(0.2)
        assert view.hit_rate() == pytest.approx(0.75)
        assert view.p99() == 5e-6       # worst per-flush p99, not mean
        assert view.probe_error_rate() == pytest.approx(0.2)
        assert view.shed_events == 1    # drains don't count as sheds


# -- rules -------------------------------------------------------------------
class TestRules:
    def test_burn_rate_needs_both_windows(self):
        rule = DeadlineMissBurnRule(
            budget=0.1, window_s=10.0, short_window_s=2.0, threshold=1.0
        )
        # An old burn that stopped: the long window still breaches but
        # the short one is clean, so the rule must not fire.
        samples = [_sample(1.0, requests=10, deadline_misses=5),
                   _sample(9.5, requests=10)]

        def view_at(window_s):
            return _view(samples, now=10.0, window_s=window_s)

        verdict = rule.evaluate(view_at)
        assert not verdict.firing
        assert verdict.value == pytest.approx(0.0)  # short-window burn

        # A current burn breaches both windows.
        burning = [_sample(1.0, requests=10, deadline_misses=5),
                   _sample(9.5, requests=10, deadline_misses=5)]

        def burning_view_at(window_s):
            return _view(burning, now=10.0, window_s=window_s)

        verdict = rule.evaluate(burning_view_at)
        assert verdict.firing
        assert verdict.value == pytest.approx(5.0)

    def test_zero_miss_budget_burns_infinitely_on_any_miss(self):
        rule = DeadlineMissBurnRule(budget=0.0, window_s=10.0,
                                    short_window_s=10.0)
        view = _view([_sample(1.0, requests=100, deadline_misses=1)])
        assert rule.measure(view) == float("inf")
        clean = _view([_sample(1.0, requests=100)])
        assert rule.measure(clean) == 0.0

    def test_latency_burn_is_p99_over_target(self):
        rule = LatencyBurnRule(p99_target_s=1e-6, window_s=10.0,
                               short_window_s=10.0)
        view = _view([_sample(1.0, requests=4, p99_latency=3e-6)])
        assert rule.measure(view) == pytest.approx(3.0)

    def test_latency_shift_needs_baseline_mass(self):
        rule = LatencyShiftRule(window_s=2.0, baseline_window_s=10.0,
                                threshold=2.0, min_count=8)
        thin = [_sample(1.0, requests=2, p99_latency=1e-6),
                _sample(9.0, requests=2, p99_latency=9e-6)]

        def view_at_thin(window_s):
            return _view(thin, now=10.0, window_s=window_s)

        assert not rule.evaluate(view_at_thin).firing  # under min_count

        heavy = [_sample(1.0, requests=8, p99_latency=1e-6),
                 _sample(9.0, requests=8, p99_latency=9e-6)]

        def view_at_heavy(window_s):
            return _view(heavy, now=10.0, window_s=window_s)

        verdict = rule.evaluate(view_at_heavy)
        assert verdict.firing
        assert verdict.value == pytest.approx(9.0)

    def test_cache_collapse_fires_below_floor_with_enough_lookups(self):
        rule = CacheHitCollapseRule(window_s=10.0, threshold=0.25,
                                    min_lookups=8)
        thin = _view([_sample(1.0, cache_hits=0, cache_misses=4)])
        assert rule.measure(thin) is None  # too few lookups to mean it
        collapsed = _view([_sample(1.0, cache_hits=1, cache_misses=9)])
        assert rule._breaches(rule.measure(collapsed))
        healthy = _view([_sample(1.0, cache_hits=9, cache_misses=1)])
        assert not rule._breaches(rule.measure(healthy))

    def test_shed_spike_counts_sheds_and_misses(self):
        rule = ShedSpikeRule(window_s=10.0, threshold=3.0)
        events = [EventSample(at=1.0, kind="shed")] * 2
        view = _view([_sample(2.0, requests=4, deadline_misses=1)],
                     events=events)
        assert rule.measure(view) == 3.0
        assert rule._breaches(3.0)

    def test_probe_error_budget_validation(self):
        with pytest.raises(ConfigurationError):
            ProbeErrorBurnRule(budget=0.0)
        with pytest.raises(ConfigurationError):
            ProbeErrorBurnRule(budget=1.0)
        with pytest.raises(ConfigurationError):
            DeadlineMissBurnRule(budget=-0.1)

    def test_slo_burn_rules_shape(self):
        rules = slo_burn_rules(
            SLO(p99_latency=1e-6, deadline_miss_budget=0.01), window_s=60.0
        )
        names = [rule.name for rule in rules]
        assert names == ["slo-miss-burn-fast", "slo-miss-burn-slow",
                         "slo-latency-burn-fast", "slo-latency-burn-slow"]
        fast, slow = rules[0], rules[1]
        assert fast.severity == "page" and slow.severity == "warn"
        assert fast.threshold == 14.4 and slow.threshold == 6.0
        assert slow.window_s == 6.0 * fast.window_s
        assert fast.short_window_s == pytest.approx(fast.window_s / 12.0)
        with pytest.raises(ConfigurationError):
            slo_burn_rules("not an slo")

    def test_default_rules_with_and_without_slo(self):
        bare = default_rules(window_s=60.0)
        assert [type(rule).__name__ for rule in bare] == [
            "LatencyShiftRule", "CacheHitCollapseRule", "ShedSpikeRule",
            "ProbeErrorBurnRule",
        ]
        full = default_rules(SLO(p99_latency=1e-6), window_s=60.0)
        assert len(full) == len(bare) + 4


# -- Observer ----------------------------------------------------------------
class TestObserver:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="not both"):
            Observer(rules=[ShedSpikeRule()], slo=SLO(p99_latency=1e-6))
        with pytest.raises(ConfigurationError, match="unique"):
            Observer(rules=[ShedSpikeRule(), ShedSpikeRule()])
        with pytest.raises(ConfigurationError, match="AlertRule"):
            Observer(rules=["shed-spike"])
        with pytest.raises(ConfigurationError, match="FlightRecorder"):
            Observer(recorder="ring")
        with pytest.raises(ConfigurationError, match="window_s"):
            Observer(window_s=0.0)

    def test_fires_and_resolves_on_the_modelled_clock(self):
        observer = Observer(rules=[ShedSpikeRule(window_s=10.0,
                                                 threshold=2.0)])
        observer.note_event(1.0, "shed")
        assert observer.active == ()
        observer.note_event(2.5, "shed")
        assert [alert.rule for alert in observer.active] == ["shed-spike"]
        fired = observer.active[0]
        assert fired.state == "firing"
        assert fired.at == 2.5 and fired.fired_at == 2.5
        # 20 modelled seconds later both sheds have aged out of the
        # window, so the alert resolves with its episode intact.
        observer.note_event(22.5, "noop")
        assert observer.active == ()
        states = [(alert.state, alert.at) for alert in observer.alerts]
        assert states == [("firing", 2.5), ("resolved", 22.5)]
        assert observer.alerts[1].fired_at == 2.5

    def test_incident_events_dump_bundles(self):
        observer = Observer(rules=[], recorder=FlightRecorder(capacity=8))
        observer.note_event(1.0, "restore")          # not an incident kind
        assert observer.incidents == ()
        observer.note_event(2.0, "drain", {"core": 0})
        assert len(observer.incidents) == 1
        bundle = observer.incidents[0]
        assert bundle.at == 2.0
        assert bundle.trigger["kind"] == "event"
        assert bundle.trigger["event"]["kind"] == "drain"
        # The ring window holds both records, oldest first.
        kinds = [record["kind"] for record in bundle.window]
        assert kinds == ["restore", "drain"]

    def test_firing_alert_dumps_bundle_with_fleet_snapshot(self):
        observer = Observer(
            rules=[ShedSpikeRule(window_s=10.0, threshold=1.0)],
            recorder=FlightRecorder(capacity=8),
        )
        observer.attach_fleet(lambda: {"cores": 2, "pending": 5})
        observer.note_event(1.0, "shed")
        assert len(observer.incidents) == 1
        bundle = observer.incidents[0]
        assert bundle.trigger["kind"] == "alert"
        assert bundle.trigger["alert"]["rule"] == "shed-spike"
        assert bundle.fleet == {"cores": 2, "pending": 5}
        assert [alert["rule"] for alert in bundle.active_alerts] == [
            "shed-spike"
        ]

    def test_to_dict_summarizes(self):
        observer = Observer(slo=SLO(p99_latency=1e-6), window_s=30.0)
        payload = observer.to_dict()
        assert payload["window_s"] == 30.0
        assert len(payload["rules"]) == 8
        assert payload["alerts"] == [] and payload["active"] == []
        assert payload["incidents"] == 0


# -- FlightRecorder ----------------------------------------------------------
class TestFlightRecorder:
    def test_ring_caps_and_bundle_save(self, tmp_path):
        recorder = FlightRecorder(capacity=4, max_incidents=2)
        for index in range(10):
            recorder.observe(EventSample(at=float(index), kind="tick"))
        assert len(recorder) == 4
        first = recorder.dump(10.0, {"kind": "alert"})
        assert first is not None
        assert [record["at"] for record in first.window] == [6.0, 7.0,
                                                             8.0, 9.0]
        assert recorder.dump(11.0, {"kind": "alert"}) is not None
        # Past max_incidents a flapping alert dumps nothing more.
        assert recorder.dump(12.0, {"kind": "alert"}) is None
        assert len(recorder.incidents) == 2

        path = first.save(tmp_path / "bundle.json")
        payload = json.loads(path.read_text())
        assert payload["at"] == 10.0
        assert payload["trigger"] == {"kind": "alert"}
        assert len(payload["window"]) == 4

    def test_trailing_spans_come_from_the_trace(self):
        trace = TraceRecorder()
        pid = trace.process("p")
        tid = trace.thread(pid, "t")
        for index in range(6):
            trace.complete(f"flush #{index}", "flush", pid, tid,
                           float(index), 0.5)
        recorder = FlightRecorder(trace=trace, span_tail=3)
        bundle = recorder.dump(6.0, {"kind": "alert"})
        names = [span["name"] for span in bundle.spans]
        assert names == ["flush #3", "flush #4", "flush #5"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)
        with pytest.raises(ConfigurationError):
            FlightRecorder(span_tail=-1)
        with pytest.raises(ConfigurationError):
            FlightRecorder(max_incidents=0)


# -- Prometheus exporter -----------------------------------------------------
class TestPrometheusText:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("pending").set(2)
        hist = registry.histogram("end_to_end_s", lo=1e-6, hi=1e-3)
        hist.observe_many([2e-6, 5e-6, 2e-4])
        text = prometheus_text(registry)
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "# TYPE repro_pending gauge" in text
        assert "repro_pending 2.0" in text
        assert "# TYPE repro_end_to_end_s histogram" in text
        assert 'repro_end_to_end_s_bucket{le="+Inf"} 3' in text
        assert "repro_end_to_end_s_count 3" in text
        # Cumulative buckets never decrease.
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_end_to_end_s_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 3

    def test_underflow_folds_into_finite_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("h", lo=1e-3, hi=1e-2, per_decade=1).observe(1e-6)
        text = prometheus_text(registry)
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_h_bucket")]
        # The underflow observation is <= every finite edge, so each
        # cumulative bucket (and +Inf) already counts it.
        assert all(line.endswith(" 1") for line in lines)

    def test_tenant_split_becomes_a_label(self):
        registry = MetricsRegistry()
        registry.histogram("queue_wait_s/tenant-0").observe(1e-6)
        registry.histogram("queue_wait_s/tenant-1").observe(2e-6)
        text = prometheus_text(registry)
        assert 'tenant="tenant-0"' in text and 'tenant="tenant-1"' in text
        # One TYPE line for the shared base family, not one per tenant.
        assert text.count("# TYPE repro_queue_wait_s histogram") == 1

    def test_rejects_non_registry(self):
        with pytest.raises(TypeError):
            prometheus_text({"counters": {}})

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        assert prometheus_text(registry) == prometheus_text(registry)
        assert prometheus_text(registry).index("repro_a_total") < \
            prometheus_text(registry).index("repro_b_total")


# -- serving-surface wiring --------------------------------------------------
def _quantized(rng, rows, columns):
    return rng.integers(0, 8, (rows, columns))


def test_session_obs_implies_telemetry_and_validates():
    session = PhotonicSession(grid=GRID, obs=Observer(rules=[]))
    assert session.telemetry is not None  # metrics-only auto-binding
    assert session.obs is not None
    with pytest.raises(ConfigurationError):
        PhotonicSession(grid=GRID, obs="watcher")
    with pytest.raises(ConfigurationError):
        PhotonicCluster(cores=1, grid=GRID, obs="watcher")


def test_session_flush_and_health_feed_the_observer():
    observer = Observer(rules=[])
    session = PhotonicSession(
        grid=GRID,
        max_batch=4,
        flush_policy=FlushPolicy.max_batch(4),
        health_policy=HealthPolicy.monitor_only(probe_every=1, probes=4),
        obs=observer,
        clock=ModelClock(),
    )
    rng = np.random.default_rng(7)
    weights = _quantized(rng, *GRID)
    for _ in range(4):
        session.age(0.5)
        session.submit(weights, rng.random(GRID[1]))
    assert session.pending == 0  # max_batch flushed
    assert observer._samples, "flush hook never fed the observer"
    sample = observer._samples[-1]
    assert sample.requests == 4
    assert sample.at == session.telemetry.clock.now  # modelled stamp
    assert observer._health, "health hook never fed the observer"


def test_cluster_fleet_events_reach_the_observer():
    observer = Observer(rules=[])
    cluster = PhotonicCluster(
        cores=2,
        grid=GRID,
        flush_policy=FlushPolicy.explicit(),
        max_pending=2,
        obs=observer,
    )
    rng = np.random.default_rng(9)
    weights = _quantized(rng, *GRID)
    with pytest.raises(ClusterSaturatedError):
        for _ in range(5):
            cluster.submit(weights, rng.random(GRID[1]))
    cluster.flush()
    cluster.drain(0)
    cluster.restore(0)
    cluster.scale_up()
    cluster.scale_down()
    kinds = [event.kind for event in observer._events]
    assert "shed" in kinds
    assert "drain" in kinds and "restore" in kinds
    # Scale transitions emit exactly one event each: the inner
    # drain/restore/add_core they perform are suppressed.
    assert kinds.count("scale_up") == 1
    assert kinds.count("scale_down") == 1
    assert kinds.count("drain") == 1
    # The fleet snapshot callable is attached and serializable.
    snapshot = observer._fleet_snapshot()
    assert snapshot["cores"] == cluster.cores
    assert "pending" in snapshot and "at" in snapshot


def test_traffic_engine_marks_run_bounds():
    observer = Observer(rules=[])
    session = PhotonicSession(
        grid=GRID,
        max_batch=16,
        flush_policy=FlushPolicy.max_batch(16),
        metrics=MetricsRegistry(),
        clock=ModelClock(),
        obs=observer,
    )
    mix = WorkloadMix.zipf(tenants=2, rows=GRID[0], columns=GRID[1])
    engine = TrafficEngine(session, mix, Poisson(1e9), seed=11)
    summary = engine.run(50)
    kinds = [event.kind for event in observer._events]
    assert kinds[0] == "traffic_run_started"
    assert kinds[-1] == "traffic_run_finished"
    started = observer._events[0]
    assert started.args["offered"] == 50
    finished = observer._events[-1]
    assert finished.args["admitted"] == summary["admitted"]
    assert finished.at == pytest.approx(summary["makespan_s"])


# -- the zero-overhead guard -------------------------------------------------
OBSERVER_ENTRY_POINTS = (
    "observe_flush", "observe_health", "note_event", "attach_fleet"
)


def test_unattached_surfaces_make_zero_obs_calls(monkeypatch):
    """No obs= -> session, cluster, traffic and elastic scale paths
    never enter an Observer method."""
    def boom(self, *args, **kwargs):
        raise AssertionError("obs call on an unattached surface")

    for method in OBSERVER_ENTRY_POINTS:
        monkeypatch.setattr(Observer, method, boom)

    # Session: drifting, health-probed, traffic-driven.
    session = PhotonicSession(
        grid=GRID,
        max_batch=8,
        flush_policy=FlushPolicy.max_batch(8),
        metrics=MetricsRegistry(),
        clock=ModelClock(),
        drift=drift_suite(1.0),
        health_policy=HealthPolicy.monitor_only(probe_every=1, probes=4),
    )
    assert session.obs is None
    mix = WorkloadMix.zipf(tenants=2, rows=GRID[0], columns=GRID[1])
    engine = TrafficEngine(
        session, mix, Poisson(1e9),
        slo=SLO(p99_latency=1.0, deadline_miss_budget=0.5), seed=7
    )
    engine.run(60)
    session.check_health()
    session.recalibrate()

    # Cluster: sheds, drain/restore and elastic scale transitions.
    cluster = PhotonicCluster(
        cores=2, grid=GRID, flush_policy=FlushPolicy.explicit(),
        max_pending=2,
    )
    assert cluster.obs is None
    rng = np.random.default_rng(3)
    weights = _quantized(rng, *GRID)
    with pytest.raises(ClusterSaturatedError):
        for _ in range(5):
            cluster.submit(weights, rng.random(GRID[1]))
    cluster.flush()
    cluster.drain(0)
    cluster.restore(0)
    cluster.scale_up()
    cluster.scale_down()


def _alertable_session(observer=None):
    return PhotonicSession(
        grid=GRID,
        max_batch=8,
        flush_policy=FlushPolicy.max_batch(8),
        drift=drift_suite(1.5),
        health_policy=HealthPolicy.monitor_only(probe_every=1, probes=8),
        obs=observer,
    )


def _drift_workload(session):
    rng = np.random.default_rng(17)
    weights = _quantized(rng, *GRID)
    futures = []
    for _ in range(32):
        session.age(2.0)
        futures.append(session.submit(weights, rng.random(GRID[1])))
    session.flush()
    values = [np.asarray(future.result(), dtype=float)
              for future in futures]
    return values, session.report()


def test_alerted_run_is_bit_for_bit_identical_to_unalerted():
    """The observer observes; it must never perturb a single value,
    even while its rules fire."""
    plain_values, plain_report = _drift_workload(_alertable_session())
    observer = Observer(
        rules=[ProbeErrorBurnRule(budget=0.02, window_s=30.0,
                                  short_window_s=10.0)],
        recorder=FlightRecorder(),
    )
    obs_values, obs_report = _drift_workload(_alertable_session(observer))
    assert any(alert.state == "firing" for alert in observer.alerts)
    assert len(plain_values) == len(obs_values)
    for plain, watched in zip(plain_values, obs_values):
        assert np.array_equal(plain, watched)
    # Every ledger matches; only the quantile summaries differ (the
    # attached run auto-binds metrics-only telemetry) by design.
    for field in RunReport.__dataclass_fields__:
        if field in ("latency_quantiles", "tenant_quantiles"):
            continue
        assert getattr(plain_report, field) == getattr(obs_report, field), \
            field
    assert plain_report.latency_quantiles is None
    assert obs_report.latency_quantiles is not None


# -- the induced incident, end to end ----------------------------------------
def test_drift_incident_fires_bundles_and_renders():
    """Severity-1.5 drift + monitor-only probes + the Zipf trace: the
    burn-rate rule pages on the modelled clock, the bundle's trailing
    spans include the offending flushes, and the dashboard renders the
    alert marker."""
    trace = TraceRecorder(label="incident")
    observer = Observer(
        rules=[ProbeErrorBurnRule(budget=0.02, window_s=30.0,
                                  short_window_s=10.0, severity="page")],
        recorder=FlightRecorder(trace=trace, capacity=64),
    )
    session = PhotonicSession(
        grid=GRID,
        max_batch=4,
        flush_policy=FlushPolicy.max_batch(4),
        drift=drift_suite(1.5),
        health_policy=HealthPolicy.monitor_only(probe_every=1, probes=8),
        trace=trace,
        obs=observer,
        label="incident",
    )
    for _, weights, x in synthetic_trace(requests=64, rows=GRID[0],
                                         columns=GRID[1], seed=5):
        session.age(2.0)
        session.submit(weights, x)
    session.flush()

    fired = [alert for alert in observer.alerts if alert.state == "firing"]
    assert fired, "the induced drift never paged"
    page = fired[0]
    assert page.rule == "probe-error-burn"
    assert page.severity == "page"
    assert page.value >= 1.0
    # Stamped on the modelled clock: strictly positive, within the
    # trace's modelled horizon, and far below any host-epoch stamp.
    assert 0.0 < page.at <= session.telemetry.clock.now
    assert page.at < 64 * 2.0 + 60.0

    assert observer.incidents, "the page never dumped a bundle"
    bundle = observer.incidents[0]
    assert bundle.at == page.at
    assert bundle.trigger["kind"] == "alert"
    assert bundle.trigger["alert"]["rule"] == "probe-error-burn"
    categories = {span.get("cat") for span in bundle.spans}
    assert "flush" in categories, "trailing spans miss the flushes"
    assert "health" in categories
    # The bundle is self-contained JSON.
    payload = json.loads(bundle.to_json())
    assert payload["trigger"]["alert"]["severity"] == "page"

    html = render_dashboard(trace=trace, alerts=observer.alerts,
                            incidents=observer.incidents)
    assert "alert-marker" in html
    assert "probe-error-burn" in html
    assert "<svg" in html


# -- dashboard ---------------------------------------------------------------
def test_dashboard_renders_from_live_and_saved_traces(tmp_path):
    recorder = TraceRecorder()
    session = PhotonicSession(grid=GRID, trace=recorder)
    rng = np.random.default_rng(3)
    weights = _quantized(rng, *GRID)
    for _ in range(5):
        session.submit(weights, rng.random(GRID[1]))
    session.flush()

    live = render_dashboard(trace=recorder,
                            metrics=session.telemetry.metrics)
    assert "<svg" in live and "latency quantiles" in live
    assert "repro serving dashboard" in live

    saved = recorder.save(tmp_path / "trace.json")
    from_file = render_dashboard(trace=saved)
    assert "<svg" in from_file

    out = save_dashboard(tmp_path / "dash.html", trace=saved,
                         title="drift smoke")
    text = out.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "drift smoke" in text
    # Self-contained: no external scripts, stylesheets or images.
    assert "http://" not in text and "https://" not in text
    assert "<script src" not in text and "<link" not in text


def test_dashboard_rejects_bad_buckets():
    with pytest.raises(ConfigurationError):
        render_dashboard(buckets=0)


# -- tenant quantiles on reports ---------------------------------------------
def test_session_report_exposes_tenant_quantiles():
    session = PhotonicSession(grid=GRID, metrics=MetricsRegistry(),
                              clock=ModelClock())
    rng = np.random.default_rng(5)
    weights = _quantized(rng, *GRID)
    session.submit(weights, rng.random(GRID[1]), tenant="tenant-a")
    session.submit(weights, rng.random(GRID[1]), tenant="tenant-b")
    session.flush()
    report = session.report()
    assert set(report.tenant_quantiles) == {"tenant-a", "tenant-b"}
    split = report.tenant_quantiles["tenant-a"]
    assert split["queue_wait"]["count"] == 1
    assert split["service"]["count"] == 1
    assert report.to_dict()["tenant_quantiles"] is not None


def test_cluster_report_merges_tenant_quantiles():
    cluster = PhotonicCluster(
        cores=2, grid=GRID, metrics=MetricsRegistry(), clock=ModelClock(),
        routing=RoutingPolicy(kind="round_robin"),
        flush_policy=FlushPolicy.explicit(),
    )
    rng = np.random.default_rng(6)
    weights = _quantized(rng, *GRID)
    # Round-robin spreads the same tenant over both cores: the fleet
    # split must merge the per-core histograms.
    for _ in range(4):
        cluster.submit(weights, rng.random(GRID[1]), tenant="shared")
    cluster.flush()
    report = cluster.report()
    assert set(report.tenant_quantiles) == {"shared"}
    assert report.tenant_quantiles["shared"]["queue_wait"]["count"] == 4
    assert report.to_dict()["tenant_quantiles"] is not None


def test_untelemetered_reports_leave_tenant_quantiles_none():
    session = PhotonicSession(grid=GRID)
    rng = np.random.default_rng(8)
    session.submit(_quantized(rng, *GRID), rng.random(GRID[1]),
                   tenant="quiet")
    session.flush()
    assert session.report().tenant_quantiles is None
    cluster = PhotonicCluster(cores=1, grid=GRID)
    assert cluster.report().tenant_quantiles is None
