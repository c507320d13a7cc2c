"""Tests for the serve-bench script: its runners, its command line and
the files it writes."""

import json

import numpy as np
import pytest

from repro.__main__ import main as repro_main
from repro.errors import ConfigurationError
from repro.traffic import synthetic_trace
from serve_bench import (
    format_profile,
    main,
    profile_call,
    run_cluster_serve_bench,
    run_cnn_serve_bench,
    run_serve_bench,
)


def run(*argv: str) -> int:
    """``main`` as a shell sees it: argparse errors exit 2."""
    try:
        return main(list(argv))
    except SystemExit as error:
        return error.code


# -- the runners -------------------------------------------------------------
def test_run_serve_bench_smoke(capsys):
    summary = run_serve_bench(requests=40, rows=4, columns=4, flush_every=8,
                              cache_capacity=3, seed=7)
    output = capsys.readouterr().out
    assert "inferences/s" in output
    assert summary["requests"] == 40
    assert summary["throughput_per_s"] > 0.0
    assert 0.0 < summary["batch_fill"] <= 1.0
    assert summary["cache_hits"] + summary["cache_misses"] > 0
    assert summary["weight_energy_saved_pj"] > 0.0


def test_run_cnn_serve_bench_smoke(capsys):
    summary = run_cnn_serve_bench(images=12, flush_every=4, seed=5)
    output = capsys.readouterr().out
    assert "images/s" in output and "hit rate" in output
    assert summary["images"] == 12
    assert summary["patches"] == 12 * 36  # 8x8 glyphs, 3x3 kernels
    assert summary["cache_misses"] == 1 and summary["cache_hits"] == 2
    assert summary["weight_energy_saved_pj"] > 0.0
    assert summary["images_per_s"] > 0.0


def test_synthetic_trace_is_deterministic():
    first = list(synthetic_trace(requests=20, rows=4, columns=4, seed=9))
    second = list(synthetic_trace(requests=20, rows=4, columns=4, seed=9))
    assert len(first) == 20
    for (ta, wa, xa), (tb, wb, xb) in zip(first, second):
        assert ta == tb
        assert np.array_equal(wa, wb)
        assert np.array_equal(xa, xb)
    shapes = {w.shape for _, w, _ in first}
    assert len(shapes) > 1  # mixed tenant shapes


def test_run_cluster_serve_bench_smoke(capsys):
    summary = run_cluster_serve_bench(requests=60, cores_sweep=(1, 2),
                                      rows=4, columns=6, flush_every=8,
                                      seed=5)
    output = capsys.readouterr().out
    assert "cluster serve-bench" in output and "routing" in output
    assert [entry["cores"] for entry in summary["sweep"]] == [1, 2]
    for entry in summary["sweep"]:
        assert entry["throughput_per_s"] > 0.0
        assert set(entry["policies"]) == {"round_robin", "least_loaded",
                                          "cache_affinity"}
    # The acceptance property: on the skewed trace, affinity routing
    # beats round-robin's aggregate hit rate on the 2-core fleet.
    multi = summary["sweep"][1]["policies"]
    assert (multi["cache_affinity"]["cache_hit_rate"]
            > multi["round_robin"]["cache_hit_rate"])
    assert summary["requests"] == 60


def test_run_cluster_serve_bench_validation():
    with pytest.raises(ConfigurationError, match="flush interval"):
        run_cluster_serve_bench(requests=4, flush_every=0)
    with pytest.raises(ConfigurationError, match="cores_sweep"):
        run_cluster_serve_bench(requests=4, cores_sweep=())
    with pytest.raises(ConfigurationError, match="cores_sweep"):
        run_cluster_serve_bench(requests=4, cores_sweep=(1, 0))


def test_profile_call_ranks_hot_functions():
    def workload():
        return sum(index * index for index in range(50_000))

    result, rows = profile_call(workload, top=5)
    assert result == sum(index * index for index in range(50_000))
    assert 1 <= len(rows) <= 5
    assert set(rows[0]) == {"function", "calls", "tottime_s", "cumtime_s"}
    # Sorted by cumulative time, descending.
    cumtimes = [row["cumtime_s"] for row in rows]
    assert cumtimes == sorted(cumtimes, reverse=True)
    text = format_profile(rows)
    assert text.startswith(f"profile (top {len(rows)} by cumulative time):")
    assert "function" in text


def test_profile_call_rejects_bad_top():
    with pytest.raises(ConfigurationError):
        profile_call(lambda: None, top=0)


# -- the command line --------------------------------------------------------
def test_serve_bench(capsys):
    assert run("dense", "24") == 0
    output = capsys.readouterr().out
    assert "inferences/s" in output
    assert "requests          : 24" in output
    assert "hit rate" in output


def test_serve_bench_cnn(capsys):
    assert run("cnn", "8") == 0
    output = capsys.readouterr().out
    assert "images/s" in output
    assert "conv program" in output
    assert "hit rate" in output


def test_serve_bench_cluster_smoke_writes_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("cluster", "--smoke", "--seed", "3") == 0
    output = capsys.readouterr().out
    assert "cluster serve-bench" in output
    assert "cache_affinity" in output and "round_robin" in output
    assert "seed 3" in output
    bench_json = tmp_path / "BENCH_cluster.json"
    assert bench_json.exists()
    data = json.loads(bench_json.read_text())
    assert data["cores_sweep"] == [1, 2, 4]
    assert data["seed"] == 3
    assert all(entry["throughput_per_s"] > 0.0 for entry in data["sweep"])


def test_serve_bench_traffic_smoke_writes_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("traffic", "2000", "--smoke", "--seed", "3") == 0
    output = capsys.readouterr().out
    assert "traffic serve-bench" in output
    assert "head-to-head" in output and "SLO" in output
    bench_json = tmp_path / "BENCH_traffic.json"
    assert bench_json.exists()
    data = json.loads(bench_json.read_text())
    assert data["seed"] == 3
    assert data["sustained"]["offered"] == 2000
    assert [entry["cores"] for entry in data["capacity_curve"]] == [1, 2]
    for entry in data["capacity_curve"]:
        assert set(entry["policies"]) == {
            "round_robin", "least_loaded", "cache_affinity",
        }
    # The acceptance head-to-head: the SLO-aware policy sheds far less.
    head = data["head_to_head"]
    assert head["slo_aware"]["deadline_misses"] < head["max_batch"]["deadline_misses"]


def test_serve_bench_traffic_rejects_bad_count(capsys):
    assert run("traffic", "zero") == 2
    assert run("traffic", "0") == 2
    assert "request count" in capsys.readouterr().err


def test_serve_bench_cluster_rejects_bad_count(capsys):
    assert run("cluster", "zero") == 2
    assert run("cluster", "0") == 2
    assert "request count" in capsys.readouterr().err


def test_serve_bench_seed_flag(capsys):
    assert run("dense", "24", "--seed", "7") == 0
    output = capsys.readouterr().out
    assert "requests          : 24" in output


def test_serve_bench_seed_flag_validation(capsys):
    assert run("dense", "--seed") == 2
    assert run("dense", "--seed", "many") == 2
    assert run("dense", "--seed", "-1") == 2
    errors = capsys.readouterr().err
    assert "--seed: expects an integer" in errors
    assert "--seed: must be >= 0" in errors


def test_serve_bench_smoke_shrinks_the_run(capsys):
    assert run("dense", "--smoke") == 0
    output = capsys.readouterr().out
    assert "requests          : 24" in output


def test_serve_bench_cnn_rejects_bad_count(capsys):
    assert run("cnn", "zero") == 2
    assert run("cnn", "0") == 2
    assert "image count" in capsys.readouterr().err


def test_serve_bench_drift_smoke_writes_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("drift", "--smoke", "--seed", "7") == 0
    output = capsys.readouterr().out
    assert "drift serve-bench" in output
    assert "unmonitored" in output and "probe_every" in output
    assert "(seed 7)" in output
    bench_json = tmp_path / "BENCH_drift.json"
    assert bench_json.exists()
    data = json.loads(bench_json.read_text())
    assert data["seed"] == 7
    configs = data["sweep"][0]["configs"]
    unmonitored = next(c for c in configs if c["cadence"] == 0)
    monitored = next(c for c in configs if c["cadence"] > 0)
    # Drift bites the unmonitored control; the policy recovers from it.
    assert unmonitored["final_code_error_rate"] > 0.0
    assert monitored["recalibrations"] >= 1
    assert monitored["recovered_bit_for_bit"]
    assert monitored["calibration_energy_nj"] > 0.0


def test_serve_bench_drift_rejects_bad_count(capsys):
    assert run("drift", "zero") == 2
    assert run("drift", "0") == 2
    assert "request count" in capsys.readouterr().err


def test_serve_bench_profile_prints_hot_functions(capsys):
    assert run("dense", "--smoke", "--profile") == 0
    output = capsys.readouterr().out
    assert "profile (top" in output
    assert "cumtime s" in output


def test_serve_bench_trace_writes_chrome_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace_path = tmp_path / "trace.json"
    assert run("cluster", "--smoke", "--seed", "3",
               "--profile", "--trace", str(trace_path)) == 0
    output = capsys.readouterr().out
    assert "profile (top" in output
    assert f"trace written to: {trace_path}" in output
    assert trace_path.exists()
    payload = json.loads(trace_path.read_text())
    assert payload["otherData"]["clock"] == "modelled"
    assert any(event.get("ph") == "X" for event in payload["traceEvents"])
    # The profile rows are merged into the benchmark JSON alongside the
    # sweep, and the traced run records latency quantiles per policy.
    data = json.loads((tmp_path / "BENCH_cluster.json").read_text())
    assert data["profile"][0]["cumtime_s"] >= data["profile"][-1]["cumtime_s"]
    assert all(
        policy["latency_quantiles"]["end_to_end"]["count"] > 0
        for entry in data["sweep"]
        for policy in entry["policies"].values()
    )


def test_serve_bench_trace_flag_validation(capsys):
    assert run("dense", "--trace") == 2
    assert run("dense", "--trace", "--smoke") == 2
    assert "--trace: expected one argument" in capsys.readouterr().err


def test_serve_bench_drift_dashboard_writes_artifacts(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert run("drift", "--smoke", "--seed", "2025",
               "--dashboard", "DASHBOARD_drift.html") == 0
    output = capsys.readouterr().out
    assert "incident replay" in output
    assert "dashboard written to: DASHBOARD_drift.html" in output
    dashboard = (tmp_path / "DASHBOARD_drift.html").read_text()
    assert dashboard.startswith("<!DOCTYPE html>")
    assert "<svg" in dashboard
    data = json.loads((tmp_path / "BENCH_drift.json").read_text())
    incident = data["incident"]
    assert incident["severity"] == 1.5
    # The induced drift pages on the modelled clock...
    assert incident["fired_at"] is not None and incident["fired_at"] > 0.0
    assert any(
        alert["state"] == "firing" and alert["rule"] == "probe-error-burn"
        for alert in incident["alerts"]
    )
    # ...and the alert marker lands in the rendered dashboard.
    assert "alert-marker" in dashboard
    # The bundle artifact is standalone JSON next to the bench JSON.
    bundle = json.loads((tmp_path / "INCIDENT_drift.json").read_text())
    assert bundle["trigger"]["kind"] == "alert"
    assert any(span.get("cat") == "flush" for span in bundle["spans"])


def test_serve_bench_dashboard_flag_validation(capsys):
    assert run("dense", "--dashboard") == 2
    assert run("dense", "--dashboard", "--smoke") == 2
    assert "--dashboard: expected one argument" in capsys.readouterr().err


def test_obs_command_renders_from_saved_artifacts(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert run("drift", "--smoke", "--trace", "trace.json",
               "--dashboard", "live.html") == 0
    capsys.readouterr()
    assert repro_main(
        ["obs", "--trace", "trace.json", "--alerts", "BENCH_drift.json",
         "--out", "replay.html"]
    ) == 0
    output = capsys.readouterr().out
    assert "dashboard written to: replay.html" in output
    replay = (tmp_path / "replay.html").read_text()
    assert "alert-marker" in replay and "<svg" in replay
