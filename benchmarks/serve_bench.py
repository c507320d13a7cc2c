"""The serve benches: traffic replays through the session and cluster
front doors.

Run from the repository root::

    PYTHONPATH=src python benchmarks/serve_bench.py SCENARIO [count]
        [--seed N] [--smoke] [--profile] [--trace F] [--dashboard F]

Scenarios (``count`` is the requests replayed, images for ``cnn``):

* ``dense`` — :func:`~repro.traffic.synthetic_trace`, the Zipf-skewed
  multi-tenant stream, through one :class:`~repro.api.PhotonicSession`
  under a ``max_batch`` flush policy.
* ``cnn`` — digit glyphs convolved against one shared kernel bank
  through the session's conv route.
* ``cluster`` — the same trace through
  :class:`~repro.api.PhotonicCluster` fleets of 1/2/4 cores under every
  routing policy; writes ``BENCH_cluster.json``.
* ``drift`` — the trace through sessions degrading under
  :func:`~repro.health.drift_suite`, sweeping drift severity x probe
  cadence x recalibration threshold, plus an induced incident replayed
  through :mod:`repro.obs`; writes ``BENCH_drift.json``.
* ``traffic`` — open-loop :mod:`repro.traffic` arrivals on the
  modelled clock: a sustained run, SLO capacity curves per (core count,
  routing policy) and a max-batch vs deadline-aware head-to-head;
  writes ``BENCH_traffic.json``.
* ``elastic`` — cold vs warm scale-up through a
  :class:`~repro.elastic.ProgramStore` and autoscaled vs static fleets
  on diurnal/bursty tapes; writes ``BENCH_elastic.json``.

``--seed`` fixes every random draw, ``--smoke`` shrinks the run to CI
size, ``--profile`` runs it under cProfile and prints the hottest
functions (also stored under ``"profile"`` in the BENCH file),
``--trace`` writes the modelled-clock span timeline as Chrome
trace-event JSON (open it in Perfetto) and ``--dashboard`` renders the
run as a single-file HTML dashboard (the drift scenario also writes
its incident bundle to ``INCIDENT_drift.json``).  BENCH files land in
the working directory; this script is their only writer.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import tempfile
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.api import FlushPolicy, PhotonicCluster, PhotonicSession, RoutingPolicy
from repro.elastic import Autoscaler, ProgramStore
from repro.errors import ConfigurationError
from repro.health import HealthPolicy, drift_suite
from repro.ml.datasets import procedural_digits
from repro.obs import FlightRecorder, Observer, ProbeErrorBurnRule, save_dashboard
from repro.telemetry import MetricsRegistry, ModelClock, TraceRecorder, wall_clock
from repro.traffic import (
    SLO,
    Bursty,
    Diurnal,
    Poisson,
    TrafficEngine,
    WorkloadMix,
    find_capacity,
    synthetic_trace,
)


def run_serve_bench(
    requests: int = 240,
    rows: int = 8,
    columns: int = 8,
    flush_every: int = 32,
    cache_capacity: int = 4,
    seed: int = 2025,
    trace=None,
    print_fn=print,
) -> dict:
    """Replay a synthetic trace through a :class:`PhotonicSession`.

    The session's ``max_batch`` flush policy drains the queues every
    ``flush_every`` requests — no hand-called ``flush()`` in the
    submit loop.  Prints throughput (inferences/s of the compiled
    serving path), batch-fill and cache statistics; returns them as a
    dict so tests and benches can assert on the numbers.  ``trace``
    (a :class:`~repro.telemetry.TraceRecorder`) additionally records
    the modelled-clock span timeline and adds the end-to-end latency
    quantiles to the summary.
    """
    if flush_every < 1:
        raise ConfigurationError(f"flush interval must be >= 1, got {flush_every}")
    session = PhotonicSession(
        grid=(rows, columns),
        cache_capacity=cache_capacity,
        max_batch=flush_every,
        flush_policy=FlushPolicy.max_batch(flush_every),
        trace=trace,
        label="serve-bench",
    )
    futures = []
    started = wall_clock()
    for _, weights, x in synthetic_trace(
        requests=requests, rows=rows, columns=columns, seed=seed
    ):
        futures.append(session.submit(weights, x))
    session.flush()
    elapsed = wall_clock() - started

    if not all(future.done for future in futures):
        raise ConfigurationError("serve bench left unresolved futures")
    report = session.report()
    # Only the in-grid route returns ADC codes.
    single_tile = sum(future.codes is not None for future in futures)
    throughput = requests / elapsed if elapsed > 0 else float("inf")
    summary = {
        "requests": report.requests,
        "elapsed_s": elapsed,
        "throughput_per_s": throughput,
        "batch_fill": session.scheduler.stats().batch_fill,
        "batches": report.batches,
        "flushes": session.flushes,
        "cache_hit_rate": report.cache_hit_rate,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "weight_energy_spent_pj": report.weight_energy_spent * 1e12,
        "weight_energy_saved_pj": report.weight_energy_saved * 1e12,
        "analog_latency_us": report.total_latency * 1e6,
        "analog_energy_nj": report.total_energy * 1e9,
    }
    if trace is not None:
        summary["latency_quantiles"] = report.latency_quantiles
    lines = [
        f"tile              : {rows} x {columns} "
        f"(cache {cache_capacity} programs, flush policy "
        f"{session.flush_policy.describe()})",
        f"requests          : {summary['requests']} "
        f"({single_tile} single-tile, {requests - single_tile} tiled)",
        f"wall-clock        : {elapsed * 1e3:.1f} ms "
        f"({throughput:,.0f} inferences/s)",
        f"batches           : {summary['batches']} "
        f"(batch fill {summary['batch_fill']:.0%})",
        f"program cache     : {summary['cache_hits']} hits / "
        f"{summary['cache_misses']} misses "
        f"({summary['cache_hit_rate']:.0%} hit rate)",
        f"weight energy     : {summary['weight_energy_spent_pj']:.1f} pJ spent, "
        f"{summary['weight_energy_saved_pj']:.1f} pJ saved by caching",
        f"analog latency    : {summary['analog_latency_us']:.3f} us modelled "
        f"({summary['analog_energy_nj']:.2f} nJ, both paths)",
    ]
    print_fn("\n".join(lines))
    return summary


#: Routing policies the cluster and traffic sweeps run, in report order.
ROUTING_POLICIES = ("round_robin", "least_loaded", "cache_affinity")


def run_cluster_serve_bench(
    requests: int = 240,
    cores_sweep: tuple[int, ...] = (1, 2, 4),
    rows: int = 8,
    columns: int = 8,
    flush_every: int = 32,
    cache_capacity: int = 4,
    seed: int = 2025,
    trace=None,
    print_fn=print,
) -> dict:
    """Replay the multi-tenant trace through clusters of 1/2/4 cores.

    Every (core count, routing policy) pair replays the *same*
    Zipf-skewed :func:`synthetic_trace` through a
    :class:`~repro.api.PhotonicCluster`, so the sweep isolates what
    routing does to the fleet: ``cache_affinity`` pins each tenant's
    weight program to one core (misses stay ~one per program),
    ``round_robin`` recompiles every hot program on every core.
    Prints a per-configuration table and returns the summary dict.
    ``trace`` (a :class:`~repro.telemetry.TraceRecorder`) records every
    configuration's modelled span timeline as its own trace process
    and adds the fleet latency quantiles to each policy record.
    """
    if flush_every < 1:
        raise ConfigurationError(f"flush interval must be >= 1, got {flush_every}")
    if not cores_sweep or any(cores < 1 for cores in cores_sweep):
        raise ConfigurationError(
            f"cores_sweep needs positive core counts, got {cores_sweep!r}"
        )
    workload = list(
        synthetic_trace(requests=requests, rows=rows, columns=columns, seed=seed)
    )
    sweep = []
    table_rows = []
    for cores in cores_sweep:
        policies = {}
        for policy_name in ROUTING_POLICIES:
            cluster = PhotonicCluster(
                cores=cores,
                grid=(rows, columns),
                cache_capacity=cache_capacity,
                max_batch=flush_every,
                flush_policy=FlushPolicy.max_batch(flush_every),
                routing=RoutingPolicy(kind=policy_name),
                trace=trace,
                label=f"{cores} cores / {policy_name}",
            )
            futures = []
            started = wall_clock()
            for _, weights, x in workload:
                futures.append(cluster.submit(weights, x))
            cluster.flush()
            elapsed = wall_clock() - started
            if not all(future.done for future in futures):
                raise ConfigurationError(
                    "cluster serve bench left unresolved futures"
                )
            report = cluster.report()
            fleet_latency = report.fleet_latency
            policies[policy_name] = {
                "elapsed_s": elapsed,
                "throughput_per_s": requests / elapsed if elapsed > 0 else float("inf"),
                # Cores digitize concurrently: the modelled fleet
                # makespan is the slowest core's latency, so this is
                # the number that scales with the core count.
                "modeled_throughput_per_s": (
                    requests / fleet_latency if fleet_latency > 0 else float("inf")
                ),
                "fleet_latency_us": fleet_latency * 1e6,
                "flushes": cluster.flushes,
                "cache_hits": report.total.cache_hits,
                "cache_misses": report.total.cache_misses,
                "cache_hit_rate": report.cache_hit_rate,
                "cache_evictions": report.total.cache_evictions,
                "weight_energy_spent_pj": report.total.weight_energy_spent * 1e12,
                "weight_energy_saved_pj": report.total.weight_energy_saved * 1e12,
                "routed": list(report.routed),
                "utilization": list(report.utilization),
                "imbalance": report.imbalance,
            }
            if trace is not None:
                policies[policy_name]["latency_quantiles"] = (
                    report.latency_quantiles
                )
            table_rows.append(
                f"{cores:>5}  {policy_name:<15} "
                f"{policies[policy_name]['throughput_per_s']:>12,.0f}  "
                f"{policies[policy_name]['modeled_throughput_per_s']:>14,.3g}  "
                f"{policies[policy_name]['cache_hit_rate']:>7.0%}  "
                f"{policies[policy_name]['cache_evictions']:>9}  "
                f"{policies[policy_name]['imbalance']:>8.2f}x"
            )
        sweep.append(
            {
                "cores": cores,
                # The headline scaling number rides the affinity policy
                # (the recommended default for skewed tenant traffic).
                "throughput_per_s": policies["cache_affinity"]["throughput_per_s"],
                "policies": policies,
            }
        )
    summary = {
        "requests": requests,
        "grid": [rows, columns],
        "flush_every": flush_every,
        "seed": seed,
        "cores_sweep": list(cores_sweep),
        "sweep": sweep,
    }
    lines = [
        f"cluster serve-bench: {requests} requests on {rows} x {columns} "
        f"tiles (flush policy max_batch={flush_every}, seed {seed})",
        f"{'cores':>5}  {'routing':<15} {'inferences/s':>12}  "
        f"{'modelled inf/s':>14}  {'hit rate':>8}  {'evictions':>9}  "
        f"{'imbalance':>9}",
        *table_rows,
    ]
    print_fn("\n".join(lines))
    return summary


#: The drift sweep axes, in report order.
DRIFT_BENCH_SEVERITIES = (0.5, 1.5)
DRIFT_BENCH_CADENCES = (0, 1, 4)       # probe_every; 0 = unmonitored
DRIFT_BENCH_THRESHOLDS = (0.02, 0.2)   # code-error rate triggering recal


def run_drift_serve_bench(
    requests: int = 240,
    rows: int = 8,
    columns: int = 8,
    flush_every: int = 32,
    cache_capacity: int = 4,
    seed: int = 2025,
    severities: tuple[float, ...] = DRIFT_BENCH_SEVERITIES,
    cadences: tuple[int, ...] = DRIFT_BENCH_CADENCES,
    thresholds: tuple[float, ...] = DRIFT_BENCH_THRESHOLDS,
    arrival_period_s: float = 0.25,
    probes: int = 8,
    trace=None,
    incident_path=None,
    print_fn=print,
) -> dict:
    """Sweep drift severity x probe cadence x recalibration threshold.

    Every configuration replays the *same* Zipf-skewed
    :func:`synthetic_trace` through a :class:`~repro.api.PhotonicSession`
    whose core degrades under :func:`drift_suite`; requests arrive
    ``arrival_period_s`` of modelled wall-clock apart, so the trace
    spans ``requests * arrival_period_s`` seconds of aging.  Cadence 0
    is the unmonitored control (no :class:`~repro.health.HealthPolicy`
    — the drift is only measured once, after the fact); positive
    cadences probe every N flushes and recalibrate past the threshold.
    Each record carries the final probe code-error rate, the
    recalibration count, the calibration energy/latency overhead and
    the per-probe recovery curve.

    After the sweep, one extra *incident replay* runs the worst
    severity under a monitor-only policy with a
    :class:`~repro.obs.Observer` attached: the probe code-error rate
    climbs unchecked until the burn-rate rule pages, and the flight
    recorder dumps a bundle whose trailing spans are the offending
    flushes.  The replay's alerts and incident count land under
    ``summary["incident"]``; ``incident_path`` additionally writes the
    first bundle as standalone JSON (:func:`main` points it at
    ``INCIDENT_drift.json`` when ``--dashboard`` is on).
    """
    if flush_every < 1:
        raise ConfigurationError(f"flush interval must be >= 1, got {flush_every}")
    if arrival_period_s < 0.0:
        raise ConfigurationError(
            f"arrival period must be non-negative, got {arrival_period_s}"
        )
    if not severities or not cadences:
        raise ConfigurationError("need at least one severity and one cadence")
    if any(cadence < 0 for cadence in cadences):
        raise ConfigurationError(f"cadences must be >= 0, got {cadences!r}")
    if any(cadence > 0 for cadence in cadences) and not thresholds:
        raise ConfigurationError(
            "monitored cadences need at least one recalibration threshold"
        )
    workload = list(
        synthetic_trace(requests=requests, rows=rows, columns=columns, seed=seed)
    )

    def replay(severity: float, policy, config_label: str) -> dict:
        session = PhotonicSession(
            grid=(rows, columns),
            cache_capacity=cache_capacity,
            max_batch=flush_every,
            flush_policy=FlushPolicy.max_batch(flush_every),
            drift=drift_suite(severity),
            health_policy=policy,
            trace=trace,
            label=f"severity {severity:g} / {config_label}",
        )
        # The unmonitored control still gets its monitor now, sized
        # like the monitored configs, so every final_code_error_rate
        # in the sweep is measured on the same probe program.
        session.ensure_monitor(HealthPolicy.monitor_only(probes=probes))
        started = wall_clock()
        futures = []
        for _, weights, x in workload:
            session.age(arrival_period_s)
            futures.append(session.submit(weights, x))
        session.flush()
        elapsed = wall_clock() - started
        if not all(future.done for future in futures):
            raise ConfigurationError("drift serve bench left unresolved futures")
        final = session.check_health()
        report = session.report()
        checks = session.health_history
        post_recal = [check for check in checks if check.recalibrated]
        result = {
            "final_code_error_rate": final.code_error_rate,
            "final_enob_loss": final.enob_loss,
            "attribution": dict(final.attribution),
            "recalibrations": report.recalibrations,
            "probe_runs": report.probe_runs,
            "recovered_bit_for_bit": bool(post_recal)
            and all(check.healthy for check in post_recal),
            "calibration_time_us": report.calibration_time * 1e6,
            "calibration_energy_nj": report.calibration_energy * 1e9,
            "analog_latency_us": report.total_latency * 1e6,
            "analog_energy_nj": report.total_energy * 1e9,
            "elapsed_s": elapsed,
            "recovery": [
                {
                    "flush": check.flush_index,
                    "code_error_rate": check.code_error_rate,
                    "recalibrated": check.recalibrated,
                }
                for check in checks
            ],
        }
        if trace is not None:
            result["latency_quantiles"] = report.latency_quantiles
        return result

    sweep = []
    table_rows = []
    for severity in severities:
        configs = []
        for cadence in cadences:
            if cadence == 0:
                policies = [("unmonitored", None, None)]
            else:
                policies = [
                    (
                        f"probe_every={cadence}, recal>{threshold:g}",
                        cadence,
                        threshold,
                    )
                    for threshold in thresholds
                ]
            for label, probe_every, threshold in policies:
                policy = (
                    None
                    if probe_every is None
                    else HealthPolicy(
                        probe_every=probe_every,
                        probes=probes,
                        recalibrate_threshold=threshold,
                    )
                )
                result = replay(severity, policy, label)
                configs.append(
                    {
                        "label": label,
                        "cadence": probe_every or 0,
                        "threshold": threshold,
                        **result,
                    }
                )
                table_rows.append(
                    f"{severity:>8.2g}  {label:<28} "
                    f"{result['final_code_error_rate']:>9.0%}  "
                    f"{result['recalibrations']:>6}  "
                    f"{result['calibration_energy_nj']:>10.2f}  "
                    f"{'yes' if result['recovered_bit_for_bit'] else 'no':>9}"
                )
        sweep.append({"severity": severity, "configs": configs})

    # -- induced incident replay (the repro.obs path, end to end) --------
    # One config past the sweep: the worst severity, probes on every
    # flush, no auto-recalibration — the probe code-error rate climbs
    # unchecked until the burn-rate rule pages on the modelled clock
    # and the flight recorder dumps the offending flush spans.
    incident_trace = (
        trace if trace is not None else TraceRecorder(label="drift-incident")
    )
    incident_flush = max(2, min(flush_every, max(1, requests // 8)))
    incident_budget = min(thresholds) if thresholds else 0.05
    incident_severity = max(severities)
    flush_window_s = max(incident_flush * arrival_period_s, 1e-6)
    observer = Observer(
        rules=[
            ProbeErrorBurnRule(
                budget=incident_budget,
                window_s=6.0 * flush_window_s,
                short_window_s=2.0 * flush_window_s,
                threshold=1.0,
                severity="page",
            )
        ],
        recorder=FlightRecorder(trace=incident_trace, capacity=128),
    )
    incident_session = PhotonicSession(
        grid=(rows, columns),
        cache_capacity=cache_capacity,
        max_batch=incident_flush,
        flush_policy=FlushPolicy.max_batch(incident_flush),
        drift=drift_suite(incident_severity),
        health_policy=HealthPolicy.monitor_only(probe_every=1, probes=probes),
        trace=incident_trace,
        obs=observer,
        label=f"severity {incident_severity:g} / incident replay",
    )
    for _, weights, x in workload:
        incident_session.age(arrival_period_s)
        incident_session.submit(weights, x)
    incident_session.flush()
    fired = [alert for alert in observer.alerts if alert.state == "firing"]
    incident = {
        "severity": incident_severity,
        "flush_every": incident_flush,
        "budget": incident_budget,
        "window_s": 6.0 * flush_window_s,
        "short_window_s": 2.0 * flush_window_s,
        "fired_at": fired[0].fired_at if fired else None,
        "alerts": [alert.to_dict() for alert in observer.alerts],
        "incidents": len(observer.incidents),
        "incident_markers": [
            {"at": bundle.at, "trigger": {"kind": bundle.trigger.get("kind")}}
            for bundle in observer.incidents
        ],
    }
    if incident_path is not None and observer.incidents:
        incident["bundle_path"] = str(
            observer.incidents[0].save(Path(incident_path))
        )

    summary = {
        "requests": requests,
        "grid": [rows, columns],
        "flush_every": flush_every,
        "seed": seed,
        "arrival_period_s": arrival_period_s,
        "probes": probes,
        "severities": list(severities),
        "cadences": list(cadences),
        "thresholds": list(thresholds),
        "sweep": sweep,
        "incident": incident,
    }
    lines = [
        f"drift serve-bench: {requests} requests on {rows} x {columns} tiles, "
        f"{arrival_period_s:g} s modelled arrival spacing (seed {seed})",
        f"{'severity':>8}  {'health policy':<28} {'final err':>9}  "
        f"{'recals':>6}  {'cal nJ':>10}  {'recovered':>9}",
        *table_rows,
        (
            f"incident replay: probe-error burn alert fired at modelled "
            f"t={incident['fired_at']:.2f} s "
            f"({incident['incidents']} incident bundle(s))"
            if incident["fired_at"] is not None
            else "incident replay: no alert fired (drift too mild for the "
            "burn-rate rule)"
        ),
    ]
    if incident.get("bundle_path"):
        lines.append(f"incident bundle written to: {incident['bundle_path']}")
    print_fn("\n".join(lines))
    return summary


def run_traffic_serve_bench(
    requests: int = 1_000_000,
    cores_sweep: tuple[int, ...] = (1, 2, 4),
    rows: int = 8,
    columns: int = 8,
    tenants: int = 4,
    flush_every: int = 64,
    deadline_s: float = 1e-6,
    p99_slo_s: float = 2.5e-7,
    miss_budget: float = 0.01,
    base_rate: float = 4e9,
    trial_requests: int | None = None,
    probe_requests: int = 3000,
    head_requests: int = 20000,
    max_doublings: int = 16,
    seed: int = 2025,
    trace=None,
    print_fn=print,
) -> dict:
    """Open-loop traffic on the modelled clock: capacity under an SLO.

    Three measurements, all driven by :class:`~repro.traffic.TrafficEngine`
    (real sessions, modelled arrival + service clocks, zero host-clock
    dependence):

    1. **Sustained run** — ``requests`` (a million by default) Poisson
       arrivals at ~60% of the probed single-core capacity through one
       session under the SLO-derived flush policy; the headline
       modelled-throughput / p99 / miss-rate numbers.
    2. **Capacity curve** — for every (core count, routing policy)
       pair, :func:`~repro.traffic.find_capacity` binary-searches the
       offered load for the highest sustained req/s still meeting
       ``SLO(p99_slo_s, miss_budget)``.  Each trial's tape is sized
       from a per-core-count throughput probe so a queue growing past
       the p99 bound is actually observable within the tape
       (max measurable backlog = tape / capacity).
    3. **Head-to-head** — the same offered load (batch-fill time well
       past the deadline) under plain ``max_batch`` vs the
       deadline-aware SLO policy, demonstrating the early flush
       converting deadline misses into met deadlines.

    ``trace`` records the sustained run's span timeline (capacity trials stay untraced —
    they run dozens of disposable targets).
    """
    if flush_every < 1:
        raise ConfigurationError(f"flush interval must be >= 1, got {flush_every}")
    if requests < 1:
        raise ConfigurationError(f"traffic bench needs requests >= 1, got {requests}")
    if not cores_sweep or any(cores < 1 for cores in cores_sweep):
        raise ConfigurationError(
            f"cores_sweep needs positive core counts, got {cores_sweep!r}"
        )
    slo = SLO(p99_latency=p99_slo_s, deadline_miss_budget=miss_budget)
    mix = WorkloadMix.zipf(
        tenants=tenants, rows=rows, columns=columns, deadline_s=deadline_s
    )
    probe_mix = WorkloadMix.zipf(tenants=tenants, rows=rows, columns=columns)
    policy = slo.flush_policy(batch_limit=flush_every)

    def make_session(bench_trace=None):
        return PhotonicSession(
            grid=(rows, columns),
            max_batch=flush_every,
            flush_policy=policy,
            metrics=MetricsRegistry(),
            trace=bench_trace,
            clock=ModelClock(),
            label="traffic-bench",
        )

    def make_cluster(cores: int, routing: str):
        def factory():
            return PhotonicCluster(
                cores=cores,
                grid=(rows, columns),
                max_batch=flush_every,
                flush_policy=policy,
                routing=RoutingPolicy(kind=routing),
                metrics=MetricsRegistry(),
                clock=ModelClock(),
                label=f"traffic {cores}c/{routing}",
            )

        return factory

    def probe_capacity(factory) -> float:
        """Peak modelled throughput [req/s]: saturate a deadline-free
        workload (offered far past service) and read the goodput."""
        engine = TrafficEngine(
            factory(), probe_mix, Poisson(1e12), slo=None, seed=seed
        )
        return engine.run(probe_requests)["throughput_per_s"]

    # -- 1. sustained run ----------------------------------------------------
    single_capacity = probe_capacity(lambda: make_session())
    if single_capacity <= 0.0:
        raise ConfigurationError("capacity probe resolved no traffic")
    sustained_rate = 0.6 * single_capacity
    started = wall_clock()
    sustained = TrafficEngine(
        make_session(bench_trace=trace),
        mix,
        Poisson(sustained_rate),
        slo=slo,
        seed=seed,
    ).run(requests)
    sustained["wall_elapsed_s"] = wall_clock() - started
    sustained["wall_requests_per_s"] = (
        requests / sustained["wall_elapsed_s"]
        if sustained["wall_elapsed_s"] > 0
        else float("inf")
    )

    # -- 2. capacity curve ---------------------------------------------------
    curve = []
    for cores in cores_sweep:
        cores_capacity = probe_capacity(make_cluster(cores, "cache_affinity"))
        if trial_requests is None:
            # Tape long enough that backlog can overrun the p99 bound
            # ~2.5x over before the tape ends.
            tape = int(
                min(max(2.5 * cores_capacity * p99_slo_s, 2000), 40000)
            )
        else:
            tape = int(trial_requests)
        policies = {}
        for routing in ROUTING_POLICIES:
            capacity = find_capacity(
                make_cluster(cores, routing),
                mix,
                Poisson(base_rate),
                slo,
                requests=tape,
                seed=seed,
                resolution=0.1,
                max_doublings=max_doublings,
            )
            policies[routing] = {
                "capacity_per_s": capacity["capacity_per_s"],
                "saturated": capacity["saturated"],
                "trials": capacity["trials"],
                "p99_e2e_s": (
                    capacity["sustained"]["p99_e2e_s"]
                    if capacity["sustained"] is not None
                    else None
                ),
                "miss_rate": (
                    capacity["sustained"]["miss_rate"]
                    if capacity["sustained"] is not None
                    else None
                ),
            }
        curve.append(
            {
                "cores": cores,
                "probe_capacity_per_s": cores_capacity,
                "trial_requests": tape,
                "policies": policies,
            }
        )

    # -- 3. head-to-head: max_batch vs deadline-aware ------------------------
    # Offer a rate whose batch-fill time is ~2x the deadline, so plain
    # max_batch rides most requests past their deadline while the
    # SLO-aware policy flushes early.
    head_rate = flush_every / (2.0 * deadline_s)
    head_to_head = {}
    for label, head_policy in (
        ("max_batch", FlushPolicy.max_batch(flush_every)),
        ("slo_aware", policy),
    ):
        target = PhotonicSession(
            grid=(rows, columns),
            max_batch=flush_every,
            flush_policy=head_policy,
            metrics=MetricsRegistry(),
            clock=ModelClock(),
            label=f"traffic head-to-head/{label}",
        )
        engine = TrafficEngine(
            target, mix, Poisson(head_rate), slo=slo, seed=seed
        )
        result = engine.run(head_requests)
        head_to_head[label] = {
            "flush_policy": result["flush_policy"],
            "p99_e2e_s": result["p99_e2e_s"],
            "deadline_misses": result["deadline_misses"],
            "miss_rate": result["miss_rate"],
            "slo_met": result["slo_met"],
        }

    summary = {
        "requests": requests,
        "grid": [rows, columns],
        "tenants": tenants,
        "flush_every": flush_every,
        "seed": seed,
        "slo": {
            "p99_latency_s": p99_slo_s,
            "deadline_miss_budget": miss_budget,
            "deadline_s": deadline_s,
        },
        "cores_sweep": list(cores_sweep),
        "sustained": sustained,
        "capacity_curve": curve,
        "head_to_head": head_to_head,
    }
    lines = [
        f"traffic serve-bench: {requests} sustained requests on "
        f"{rows} x {columns} tiles, SLO {slo.describe()} "
        f"(deadline {deadline_s:g} s, seed {seed})",
        f"sustained         : offered {sustained['offered_rate_per_s']:,.3g} req/s "
        f"modelled, p99 {(sustained['p99_e2e_s'] or 0) * 1e9:,.0f} ns, "
        f"{sustained['deadline_misses']} misses "
        f"({sustained['miss_rate']:.2%}), "
        f"SLO {'met' if sustained.get('slo_met') else 'VIOLATED'}",
        f"wall-clock        : {sustained['wall_elapsed_s']:.1f} s "
        f"({sustained['wall_requests_per_s']:,.0f} requests/s simulated)",
        f"{'cores':>5}  {'routing':<15} {'capacity req/s':>14}  "
        f"{'p99 ns':>8}  {'miss':>6}",
    ]
    for entry in curve:
        for routing in ROUTING_POLICIES:
            record = entry["policies"][routing]
            p99 = record["p99_e2e_s"]
            miss = record["miss_rate"]
            lines.append(
                f"{entry['cores']:>5}  {routing:<15} "
                f"{record['capacity_per_s']:>14,.3g}  "
                f"{(p99 or 0) * 1e9:>8,.0f}  "
                f"{miss if miss is not None else 0:>6.2%}"
            )
    for label, record in head_to_head.items():
        lines.append(
            f"head-to-head      : {label:<10} p99 "
            f"{(record['p99_e2e_s'] or 0) * 1e9:,.0f} ns, "
            f"{record['deadline_misses']} misses ({record['miss_rate']:.2%})"
        )
    print_fn("\n".join(lines))
    return summary


def run_cnn_serve_bench(
    images: int = 48,
    rows: int = 8,
    columns: int = 9,
    kernels: int = 4,
    kernel_size: int = 3,
    flush_every: int = 16,
    seed: int = 2025,
    trace=None,
    print_fn=print,
) -> dict:
    """Replay a CNN feature-extraction stream through the conv route.

    A stream of 8x8 procedural digit glyphs is convolved against one
    shared signed kernel bank via :meth:`PhotonicSession.submit_conv`
    (im2col patches batched into compiled differential matmuls) with a
    ``max_batch`` flush policy draining every ``flush_every`` images;
    the repeated bank exercises the conv program cache — one build,
    hits thereafter.  Prints image/patch throughput and cache/energy
    statistics; returns them as a dict for tests and benches.
    """
    if images < 1:
        raise ConfigurationError(f"need at least one image, got {images}")
    if flush_every < 1:
        raise ConfigurationError(f"flush interval must be >= 1, got {flush_every}")
    rng = np.random.default_rng(seed)
    bank = rng.normal(0.0, 1.0, (kernels, kernel_size, kernel_size))
    data, _ = procedural_digits(
        samples_per_class=-(-images // 10), noise=0.1, seed=seed, pooled=False
    )
    glyphs = data[:images].reshape(-1, 8, 8)

    session = PhotonicSession(
        grid=(rows, columns),
        flush_policy=FlushPolicy.max_batch(flush_every),
        trace=trace,
        label="cnn-bench",
    )
    futures = []
    started = wall_clock()
    for glyph in glyphs:
        futures.append(session.submit_conv(bank, glyph))
    session.flush()
    elapsed = wall_clock() - started

    if not all(future.done for future in futures):
        raise ConfigurationError("cnn serve bench left unresolved futures")
    report = session.report()
    out_side = glyphs.shape[1] - kernel_size + 1
    # One im2col patch per output pixel of each image.
    patches = sum(future.value[0].size for future in futures)
    summary = {
        "images": report.requests,
        "patches": patches,
        "kernels": kernels,
        "feature_map": [kernels, out_side, out_side],
        "elapsed_s": elapsed,
        "images_per_s": images / elapsed if elapsed > 0 else float("inf"),
        "patches_per_s": patches / elapsed if elapsed > 0 else float("inf"),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "cache_hit_rate": report.cache_hit_rate,
        "weight_energy_spent_pj": report.weight_energy_spent * 1e12,
        "weight_energy_saved_pj": report.weight_energy_saved * 1e12,
        "analog_latency_us": report.analog_time * 1e6,
        "analog_energy_nj": report.analog_energy * 1e9,
    }
    if trace is not None:
        summary["latency_quantiles"] = report.latency_quantiles
    lines = [
        f"conv program      : {kernels} kernels {kernel_size}x{kernel_size} "
        f"on {rows} x {columns} tiles (flush policy "
        f"{session.flush_policy.describe()})",
        f"images            : {summary['images']} "
        f"({summary['patches']} im2col patches)",
        f"wall-clock        : {elapsed * 1e3:.1f} ms "
        f"({summary['images_per_s']:,.0f} images/s, "
        f"{summary['patches_per_s']:,.0f} patches/s)",
        f"program cache     : {summary['cache_hits']} hits / "
        f"{summary['cache_misses']} misses "
        f"({summary['cache_hit_rate']:.0%} hit rate)",
        f"weight energy     : {summary['weight_energy_spent_pj']:.1f} pJ spent, "
        f"{summary['weight_energy_saved_pj']:.1f} pJ saved by caching",
        f"analog latency    : {summary['analog_latency_us']:.3f} us modelled "
        f"({summary['analog_energy_nj']:.2f} nJ)",
    ]
    print_fn("\n".join(lines))
    return summary


#: The elastic bench's arrival tapes, in report order.
ELASTIC_BENCH_TAPES = ("diurnal", "bursty")


def run_elastic_serve_bench(
    requests: int = 200_000,
    rows: int = 8,
    columns: int = 8,
    tenants: int = 4,
    flush_every: int = 64,
    deadline_s: float = 1e-6,
    p99_slo_s: float = 1e-6,
    miss_budget: float = 0.02,
    min_cores: int = 1,
    max_cores: int = 4,
    warm_programs: int = 6,
    conv_kernels: int = 8,
    kernel_size: int = 3,
    probe_requests: int = 3000,
    tapes: tuple[str, ...] = ELASTIC_BENCH_TAPES,
    seed: int = 2025,
    trace=None,
    print_fn=print,
) -> dict:
    """Elastic fleets: warm scale-up from the program store, and
    autoscaled vs static capacity at equal SLO.

    Two measurements (see :mod:`repro.elastic`):

    1. **Cold vs warm scale-up** — ``warm_programs`` distinct CNN
       kernel banks served through a fresh
       :class:`~repro.api.PhotonicSession`, first against an empty
       :class:`~repro.elastic.ProgramStore` (cold compiles, written
       through) and then through a second fresh session against the
       populated store (warm read-back).  Records the host wall-clock
       for each, their ratio (the scale-up latency win a grown core
       sees), and verifies the restored programs reproduce the cold
       feature maps **bit for bit**.
    2. **Autoscaled vs static fleets** — each arrival tape in ``tapes``
       (a compressed diurnal day, an MMPP-2 flash crowd) replayed by
       :class:`~repro.traffic.TrafficEngine` through three fleets under
       the same SLO-derived flush policy: a static ``min_cores`` fleet,
       a static ``max_cores`` fleet, and a fleet that starts at
       ``min_cores`` with an :class:`~repro.elastic.Autoscaler` and a
       shared program store.  Records per-fleet SLO verdicts and
       ``core_seconds`` (the capacity integral actually paid), plus the
       core-seconds the autoscaled fleet saves against the static
       max-size fleet when both meet the SLO.

    ``p99_slo_s`` defaults to ``deadline_s``: with deadline shedding,
    the survivors' p99 caps just under the deadline once any shedding
    occurs, so a p99 bound below the deadline is unmeetable under
    overload — the ``miss_budget`` is the binding criterion.
    """
    if requests < 1:
        raise ConfigurationError(f"elastic bench needs requests >= 1, got {requests}")
    if not 1 <= min_cores <= max_cores:
        raise ConfigurationError(
            f"elastic bench needs 1 <= min_cores <= max_cores, "
            f"got {min_cores}..{max_cores}"
        )
    if warm_programs < 1:
        raise ConfigurationError(
            f"elastic bench needs warm_programs >= 1, got {warm_programs}"
        )
    unknown_tapes = [tape for tape in tapes if tape not in ELASTIC_BENCH_TAPES]
    if unknown_tapes:
        raise ConfigurationError(
            f"unknown elastic bench tape(s) {unknown_tapes}; "
            f"choose from {list(ELASTIC_BENCH_TAPES)}"
        )
    rng = np.random.default_rng(seed)
    slo = SLO(p99_latency=p99_slo_s, deadline_miss_budget=miss_budget)
    policy = slo.flush_policy(batch_limit=flush_every)
    mix = WorkloadMix.zipf(
        tenants=tenants, rows=rows, columns=columns, deadline_s=deadline_s
    )
    probe_mix = WorkloadMix.zipf(tenants=tenants, rows=rows, columns=columns)

    # -- 1. cold vs warm scale-up through the program store ------------------
    banks = rng.normal(0.0, 1.0, (warm_programs, conv_kernels, kernel_size, kernel_size))
    data, _ = procedural_digits(samples_per_class=1, noise=0.1, seed=seed, pooled=False)
    glyph = data[0].reshape(8, 8)

    def serve_programs(store: ProgramStore, label: str):
        """One fresh session serving every bank once; returns (host
        wall-clock of submit+flush, the resolved feature maps)."""
        session = PhotonicSession(
            grid=(rows, columns),
            flush_policy=FlushPolicy.explicit(),
            program_store=store,
            label=f"elastic-bench/{label}",
        )
        started = wall_clock()
        futures = [session.submit_conv(bank, glyph) for bank in banks]
        session.flush()
        elapsed = wall_clock() - started
        return elapsed, [future.result() for future in futures]

    with tempfile.TemporaryDirectory() as tmp:
        store = ProgramStore(tmp)
        cold_elapsed, cold_maps = serve_programs(store, "cold")
        warm_elapsed, warm_maps = serve_programs(store, "warm")
        bit_for_bit = all(
            np.array_equal(cold, warm)
            for cold, warm in zip(cold_maps, warm_maps)
        )
        warm_start = {
            "programs": int(warm_programs),
            "cold_s": cold_elapsed,
            "warm_s": warm_elapsed,
            "speedup": cold_elapsed / warm_elapsed if warm_elapsed > 0 else float("inf"),
            "bit_for_bit": bool(bit_for_bit),
            "store": store.describe(),
        }

    # -- 2. autoscaled vs static fleets under diurnal/bursty tapes -----------
    def probe_capacity() -> float:
        session = PhotonicSession(
            grid=(rows, columns),
            max_batch=flush_every,
            flush_policy=policy,
            metrics=MetricsRegistry(),
            clock=ModelClock(),
            label="elastic-probe",
        )
        engine = TrafficEngine(session, probe_mix, Poisson(1e12), slo=None, seed=seed)
        return engine.run(probe_requests)["throughput_per_s"]

    single_capacity = probe_capacity()
    if single_capacity <= 0.0:
        raise ConfigurationError("elastic capacity probe resolved no traffic")
    trough = 0.3 * single_capacity
    peak = 0.6 * max_cores * single_capacity
    mean_rate = (trough + peak) / 2.0
    tape_s = requests / mean_rate
    arrival_tapes = {
        "diurnal": Diurnal(trough, peak, period=tape_s / 2.0),
        "bursty": Bursty(
            quiet=trough,
            burst=peak,
            quiet_dwell=tape_s / 6.0,
            burst_dwell=tape_s / 12.0,
        ),
    }
    autoscaler = Autoscaler(
        min_cores=min_cores,
        max_cores=max_cores,
        watch_every=flush_every,
        scale_up_pending=float(flush_every),
        scale_down_pending=float(max(flush_every // 8, 1)),
        cooldown_s=tape_s / 50.0,
    )

    def run_fleet(
        arrivals, cores: int, fleet_autoscaler, store, label: str,
        fleet_trace=None,
    ) -> dict:
        cluster = PhotonicCluster(
            cores=cores,
            grid=(rows, columns),
            max_batch=flush_every,
            flush_policy=policy,
            autoscaler=fleet_autoscaler,
            program_store=store,
            trace=fleet_trace,
            metrics=MetricsRegistry(),
            clock=ModelClock(),
            label=f"elastic/{label}",
        )
        engine = TrafficEngine(cluster, mix, arrivals, slo=slo, seed=seed)
        result = engine.run(requests)
        report = cluster.report()
        return {
            "cores_start": cores,
            "cores_final": cluster.cores,
            "active_final": len(cluster.active_cores),
            "scale_ups": report.scale_ups,
            "scale_downs": report.scale_downs,
            "core_seconds": report.core_seconds,
            "warm_restores": store.restores if store is not None else 0,
            "p99_e2e_s": result["p99_e2e_s"],
            "miss_rate": result["miss_rate"],
            "slo_met": result["slo_met"],
            "throughput_per_s": result["throughput_per_s"],
            "makespan_s": result["makespan_s"],
        }

    tape_results = {}
    for tape in tapes:
        arrivals = arrival_tapes[tape]
        with tempfile.TemporaryDirectory() as tmp:
            fleets = {
                "static_min": run_fleet(
                    arrivals, min_cores, None, None, f"{tape}/static_min"
                ),
                "static_max": run_fleet(
                    arrivals, max_cores, None, None, f"{tape}/static_max"
                ),
                "autoscaled": run_fleet(
                    arrivals,
                    min_cores,
                    autoscaler,
                    ProgramStore(tmp),
                    f"{tape}/autoscaled",
                    # The scale-up / warm-start instants land on the
                    # --trace timeline for the autoscaled arm only.
                    fleet_trace=trace,
                ),
            }
        saved = fleets["static_max"]["core_seconds"] - fleets["autoscaled"]["core_seconds"]
        tape_results[tape] = {
            "arrivals": arrivals.describe(),
            "fleets": fleets,
            "core_seconds_saved": saved,
            "equal_slo": bool(
                fleets["autoscaled"]["slo_met"] == fleets["static_max"]["slo_met"]
            ),
        }

    summary = {
        "requests": int(requests),
        "grid": [rows, columns],
        "tenants": tenants,
        "flush_every": flush_every,
        "seed": seed,
        "slo": {
            "p99_latency_s": p99_slo_s,
            "deadline_miss_budget": miss_budget,
            "deadline_s": deadline_s,
        },
        "min_cores": min_cores,
        "max_cores": max_cores,
        "single_core_capacity_per_s": single_capacity,
        "autoscaler": autoscaler.describe(),
        "warm_start": warm_start,
        "tapes": tape_results,
    }
    lines = [
        f"elastic serve-bench: {requests} requests per tape on "
        f"{rows} x {columns} tiles, fleets {min_cores}..{max_cores} cores, "
        f"SLO {slo.describe()} (seed {seed})",
        f"warm scale-up     : {warm_start['programs']} programs, cold "
        f"{warm_start['cold_s'] * 1e3:.1f} ms vs warm "
        f"{warm_start['warm_s'] * 1e3:.1f} ms "
        f"({warm_start['speedup']:.1f}x), bit-for-bit "
        f"{'OK' if warm_start['bit_for_bit'] else 'MISMATCH'}",
        f"{'tape':>8}  {'fleet':<11} {'cores':>5}  {'ups/downs':>9}  "
        f"{'core-s':>9}  {'p99 ns':>8}  {'miss':>6}  SLO",
    ]
    for tape, record in tape_results.items():
        for name, fleet in record["fleets"].items():
            lines.append(
                f"{tape:>8}  {name:<11} "
                f"{fleet['active_final']:>5}  "
                f"{fleet['scale_ups']}/{fleet['scale_downs']:<7}  "
                f"{fleet['core_seconds']:>9.3g}  "
                f"{(fleet['p99_e2e_s'] or 0) * 1e9:>8,.0f}  "
                f"{fleet['miss_rate']:>6.2%}  "
                f"{'met' if fleet['slo_met'] else 'VIOLATED'}"
            )
        lines.append(
            f"{tape:>8}  core-seconds saved vs static max: "
            f"{record['core_seconds_saved']:.3g} "
            f"({'equal SLO' if record['equal_slo'] else 'SLO DIFFERS'})"
        )
    print_fn("\n".join(lines))
    return summary


def profile_call(fn: Callable[[], Any], top: int = 20) -> tuple[Any, list[dict]]:
    """Run ``fn()`` under cProfile; returns ``(result, rows)``, the
    ``top`` hottest functions by cumulative time.

    Each row is ``{"function", "calls", "tottime_s", "cumtime_s"}``
    with ``function`` in the familiar ``file:line(name)`` form (just
    the name for builtins); profiler bookkeeping frames are kept.
    """
    if top < 1:
        raise ConfigurationError(f"need top >= 1 functions, got {top}")
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    rows = [
        {
            "function": name if filename == "~" else f"{filename}:{line}({name})",
            "calls": int(calls),
            "tottime_s": float(tottime),
            "cumtime_s": float(cumtime),
        }
        for (filename, line, name), (calls, _, tottime, cumtime, _) in (
            pstats.Stats(profiler).stats.items()
        )
    ]
    rows.sort(key=lambda row: (-row["cumtime_s"], -row["tottime_s"]))
    return result, rows[:top]


def format_profile(rows: Sequence[dict]) -> str:
    """The hot-function ranking as an aligned text table."""
    lines = [
        f"profile (top {len(rows)} by cumulative time):",
        f"{'cumtime s':>10}  {'tottime s':>10}  {'calls':>9}  function",
    ]
    for row in rows:
        lines.append(
            f"{row['cumtime_s']:>10.4f}  {row['tottime_s']:>10.4f}  "
            f"{row['calls']:>9}  {row['function']}"
        )
    return "\n".join(lines)


class Scenario(NamedTuple):
    """One scenario: its runner, the count of a full and of a
    ``--smoke`` run, the runner arguments a smoke run adds, and the
    BENCH file the summary is written to (None: printed only)."""

    runner: Callable[..., dict]
    count: int
    smoke_count: int
    smoke_kwargs: dict[str, Any]
    json_file: str | None


# The smokes prove the plumbing, not the figures: shorter tapes, fewer
# sweep points.  The elastic smoke's tighter deadline and SLO keep
# overload visible on a tape too short for queueing delay to breach
# the full-size SLO.
SCENARIOS = {
    "dense": Scenario(run_serve_bench, 240, 24, {}, None),
    "cnn": Scenario(run_cnn_serve_bench, 48, 8, {}, None),
    "cluster": Scenario(run_cluster_serve_bench, 240, 24, {}, "BENCH_cluster.json"),
    "drift": Scenario(
        run_drift_serve_bench,
        240,
        24,
        {"severities": (1.5,), "cadences": (0, 1), "thresholds": (0.05,)},
        "BENCH_drift.json",
    ),
    "traffic": Scenario(
        run_traffic_serve_bench,
        1_000_000,
        20000,
        {
            "cores_sweep": (1, 2),
            "probe_requests": 800,
            "trial_requests": 600,
            "head_requests": 2000,
            "max_doublings": 3,
        },
        "BENCH_traffic.json",
    ),
    "elastic": Scenario(
        run_elastic_serve_bench,
        200_000,
        3000,
        {
            "tapes": ("diurnal",),
            "probe_requests": 800,
            "warm_programs": 3,
            "deadline_s": 1.2e-7,
            "p99_slo_s": 1.3e-7,
        },
        "BENCH_elastic.json",
    ),
}


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("count", nargs="?", type=int)
    parser.add_argument("--seed", type=_seed, default=2025)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--trace", type=Path, metavar="F")
    parser.add_argument("--dashboard", type=Path, metavar="F")
    args = parser.parse_args(argv)
    scenario = SCENARIOS[args.scenario]
    count = args.count
    if count is None:
        count = scenario.smoke_count if args.smoke else scenario.count
    if count < 1:
        noun = "image" if args.scenario == "cnn" else "request"
        parser.error(f"{args.scenario} {noun} count must be >= 1, got {count}")
    kwargs = dict(scenario.smoke_kwargs) if args.smoke else {}
    if args.scenario == "drift":
        if args.smoke:
            # Stretch the arrival spacing so the short trace still spans
            # the full run's minute of modelled aging.
            kwargs["arrival_period_s"] = 60.0 / count
        if args.dashboard is not None:
            kwargs["incident_path"] = Path.cwd() / "INCIDENT_drift.json"
    recorder = None
    if args.trace is not None or args.dashboard is not None:
        recorder = TraceRecorder(label="serve-bench")

    def run() -> dict:
        return scenario.runner(count, seed=args.seed, trace=recorder, **kwargs)

    if args.profile:
        summary, hot = profile_call(run)
        print(format_profile(hot))
        summary["profile"] = hot
    else:
        summary = run()
    if scenario.json_file is not None:
        json_path = Path.cwd() / scenario.json_file
        json_path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"summary written to: {json_path}")
    if args.trace is not None:
        recorder.save(args.trace)
        print(f"trace written to: {args.trace}")
    if args.dashboard is not None:
        incident = summary.get("incident", {})
        save_dashboard(
            args.dashboard,
            trace=recorder,
            alerts=incident.get("alerts", ()),
            incidents=incident.get("incident_markers", ()),
        )
        print(f"dashboard written to: {args.dashboard}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
