"""Drift recovery: online recalibration wins back lost code accuracy.

The health subsystem's contract is that (1) an *unmonitored* session
serving on a drifting analog stack accumulates a measurable probe
code-error rate, and (2) a session running a
:class:`repro.health.HealthPolicy` detects the walk, recalibrates
online and returns to **bit-for-bit** agreement with its compile-time
golden codes — paying a bounded, explicitly-accounted calibration
energy/latency overhead.  This bench replays the Zipf multi-tenant
trace through every (drift severity x probe cadence x recalibration
threshold) configuration and asserts both halves of that contract.
``serve_bench.py drift`` writes the same sweep to ``BENCH_drift.json``.
"""

from serve_bench import run_drift_serve_bench


def test_drift_recovery_sweep(benchmark, report, tech):
    summary = benchmark.pedantic(
        run_drift_serve_bench,
        kwargs={
            "requests": 240,
            "print_fn": lambda _: None,
        },
        iterations=1,
        rounds=1,
    )

    lines = [
        "240-request Zipf trace, 8x8 tiles, 0.25 s modelled arrival spacing",
        f"{'severity':>8}  {'health policy':<28} {'final err':>9}  "
        f"{'recals':>6}  {'cal nJ':>10}",
    ]
    for entry in summary["sweep"]:
        for config in entry["configs"]:
            lines.append(
                f"{entry['severity']:>8.2g}  {config['label']:<28} "
                f"{config['final_code_error_rate']:>9.0%}  "
                f"{config['recalibrations']:>6}  "
                f"{config['calibration_energy_nj']:>10.2f}"
            )
    report("\n".join(lines), title="Health — drift recovery sweep")

    by_severity = {entry["severity"]: entry["configs"] for entry in summary["sweep"]}
    for severity, configs in by_severity.items():
        unmonitored = next(c for c in configs if c["cadence"] == 0)
        monitored = [c for c in configs if c["cadence"] > 0]
        # (1) Unchecked drift is measurable: the uncalibrated session
        # ends the trace with probe codes walked off golden.
        assert unmonitored["final_code_error_rate"] > 0.0
        assert unmonitored["recalibrations"] == 0
        # (2) The tightest policy recalibrates at least once and every
        # post-trim verification probe agrees with golden bit for bit.
        tight = min(monitored, key=lambda c: (c["threshold"], c["cadence"]))
        assert tight["recalibrations"] >= 1
        assert tight["recovered_bit_for_bit"]
        # Recalibration recovers accuracy the uncalibrated run loses.
        assert (
            tight["final_code_error_rate"] < unmonitored["final_code_error_rate"]
        )
        # The recovery curve shows the round trip: some probe over the
        # threshold, and a post-recalibration probe back at zero.
        curve = tight["recovery"]
        assert any(
            point["recalibrated"] and point["code_error_rate"] == 0.0
            for point in curve
        )
        # The overhead is accounted, not free: monitored runs pay more
        # calibration energy than the single final check of the
        # unmonitored control.
        assert (
            tight["calibration_energy_nj"] > unmonitored["calibration_energy_nj"]
        )
