"""Watching a drift incident happen: alerts, bundles, dashboard.

The telemetry layer records what a run did; ``repro.obs`` decides when
what it did is *wrong*.  This example attaches an ``Observer`` to a
session whose analog stack drifts hard with health probes watching but
recalibration off — the probe code-error rate climbs until the
burn-rate rule pages on the modelled clock.  The flight recorder dumps
a self-contained incident bundle (the triggering alert, the trailing
flush spans, the recent metric window) and the whole capture renders
as a single-file HTML dashboard with the alert marked.
"""

import json
import tempfile
from pathlib import Path

from repro.api import FlushPolicy, PhotonicSession
from repro.health import HealthPolicy, drift_suite
from repro.obs import (
    FlightRecorder,
    Observer,
    ProbeErrorBurnRule,
    prometheus_text,
    save_dashboard,
)
from repro.telemetry import TraceRecorder
from repro.traffic import synthetic_trace

# -- a session that will go wrong, with an observer attached --------------
trace = TraceRecorder(label="incident")
observer = Observer(
    rules=[
        ProbeErrorBurnRule(
            budget=0.02,          # tolerated probe code-error rate
            window_s=30.0,        # long window: catches the slow leak
            short_window_s=10.0,  # short window: confirms it is current
            severity="page",
        )
    ],
    recorder=FlightRecorder(trace=trace, capacity=64),
)
session = PhotonicSession(
    grid=(8, 8),
    max_batch=4,
    flush_policy=FlushPolicy.max_batch(4),
    drift=drift_suite(1.5),  # hard thermal/laser/TIA/comparator aging
    health_policy=HealthPolicy.monitor_only(probe_every=1, probes=8),
    trace=trace,
    obs=observer,
    label="drifting core",
)

# Replay the Zipf-skewed trace, 2 modelled seconds apart: a minute of
# unrecalibrated aging.
for _, weights, x in synthetic_trace(requests=64, rows=8, columns=8, seed=5):
    session.age(2.0)
    session.submit(weights, x)
session.flush()

# -- what the observer saw ------------------------------------------------
for alert in observer.alerts:
    print(f"alert {alert.state:>8} at t={alert.at:6.1f} s: {alert.message}")
page = next(a for a in observer.alerts if a.state == "firing")
print(f"paged on the modelled clock at t={page.fired_at:.1f} s "
      f"(severity {page.severity}, burn {page.value:.1f}x budget)")

bundle = observer.incidents[0]
categories = sorted({span.get("cat") for span in bundle.spans})
print(f"incident bundle: {len(bundle.window)} windowed records, "
      f"{len(bundle.spans)} trailing spans ({', '.join(categories)})")
out_dir = Path(tempfile.gettempdir())
bundle_path = bundle.save(out_dir / "observability_incident_bundle.json")
print(f"bundle written to {bundle_path} "
      f"({len(json.loads(bundle_path.read_text())['spans'])} spans inside)")

# -- exports: Prometheus text + the single-file dashboard -----------------
exposition = prometheus_text(session.telemetry.metrics)
print("prometheus exposition head:")
for line in exposition.splitlines()[:4]:
    print(f"  {line}")

dashboard = save_dashboard(
    out_dir / "observability_incident_dashboard.html",
    trace=trace,
    metrics=session.telemetry.metrics,
    alerts=observer.alerts,
    incidents=observer.incidents,
    title="drift incident",
)
marked = "alert-marker" in dashboard.read_text()
print(f"dashboard written to {dashboard} (alert marked: {marked})")
