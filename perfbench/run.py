"""The repository benchmark: seeded serving workloads, end to end and per layer.

Run one workload::

    python3 perfbench/run.py --workload warm_dense --seed 1 --seconds 20 --trace 0

or all four, each in a fresh process, one after another::

    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing attached.
Host figures are CPU time scaled to a reference host speed, which
:mod:`hostspeed` probes while the run sets up and times its rounds.
``--trace 1`` runs the same rounds untraced and then traced (every
public layer entry point wrapped from :mod:`tracer`), and reports the
per-layer ledger: calls, self time and share of traced wall time per
entry point, the counters gathered at the same boundaries, and the
tracing overhead.  The spans are written as Chrome trace-event JSON
under ``.perfbench_out/``, next to a JSON record of every figure and
its provenance.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root; the last line of standard output is one JSON object
with exactly ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy loads: one caller, one thread.
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"no repro package under {SRC}: run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from hostspeed import Sampler, clock  # noqa: E402
from workloads import BURST, WORKLOADS, NoTrace, Round, Workload  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.  Two build the
#: targets the reference round replays on; the rest are throwaway
#: builds spread over the timed phase, so set-up is sampled under the
#: same machine conditions as the rounds.
SETUP_SAMPLES = 15

#: Units of every figure the runner computes.  BENCHMARK.json selects
#: the contract metrics among them and must agree on the units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
    "modelled_tops": "TOPS",
    "modelled_tops_per_w": "TOPS/W",
    "modelled_throughput_per_s": "req/s",
}
EXTRA_UNITS = {
    "error_rate": "fraction",
    "setup_s_unscaled": "s",
    "requests_per_s_unscaled": "req/s",
    "host_speed": "ratio",
    "cold_programs_per_s": "programs/s",
    "warm_restores_per_s": "programs/s",
    "first_result_ms_p50": "ms",
    "first_result_ms_p90": "ms",
    "first_result_samples": "count",
    "modelled_p99_latency_s": "s",
    "admission_shed_share": "fraction",
    "deadline_shed_share": "fraction",
    "hot_tenant_isolated": "flag",
    **{f"core_{index}_routed_share": "fraction" for index in range(4)},
    "rounds": "count",
    "oracle_checked": "count",
}
LAYER_EXTRA_UNITS = {
    "api.cluster.admission_shed": "count",
    "api.cluster.imbalance": "ratio",
    "api.session.us_per_request": "us",
    "runtime.scheduler.batch_fill": "fraction",
    "runtime.scheduler.batches": "count",
    "runtime.scheduler.deadline_sheds": "count",
    "runtime.scheduler.cache_hit_rate": "fraction",
    "runtime.scheduler.cache_evictions": "count",
    "runtime.scheduler.modelled_queue_wait_p50_s": "s",
    "runtime.scheduler.modelled_queue_wait_p99_s": "s",
    "compile.programs_compiled": "count",
    "elastic.store.saves": "count",
    "elastic.store.restores": "count",
    "elastic.store.misses": "count",
    "elastic.store.stale_rejects": "count",
    "elastic.store.corrupt_rejects": "count",
    "elastic.store.bytes_written": "B",
    "runtime.kernel.columns_per_call": "columns",
    "runtime.kernel.bytes_moved": "B",
    "ml.convolution.patches": "count",
    "traffic.engine.polls": "count",
    "traffic.engine.empty_polls": "fraction",
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
    "traced_wall_s": "s",
    "attributed_share": "fraction",
}
LAYER_UNITS = {
    **{
        f"{name}.{field}": unit
        for name in tracing.SPAN_NAMES
        for field, unit in (("calls", "count"), ("self_s", "s"), ("share", "fraction"))
    },
    **LAYER_EXTRA_UNITS,
}


def provenance(seed: int) -> dict:
    """Where and from what a result came (commit is None outside git)."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    # Only a checkout that is itself a repository: git would otherwise
    # search the directories above it.
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "seed": seed,
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def build(workload: Workload, sampler: Sampler, setups: list[tuple[float, float]]) -> object:
    """One timed set-up of a fresh target; appends (seconds, host speed)."""
    gc.collect()
    target, seconds, speed = sampler.measure(workload.build)
    setups.append((seconds, speed))
    return target


def timed_rounds(
    workload: Workload, seconds: float, sampler: Sampler, setups: list[tuple[float, float]]
) -> tuple[list[Round], float]:
    """Timed rounds 1, 2, ... until ``seconds`` of wall time have
    passed, with the remaining set-up samples taken at even intervals in
    between.  Returns the rounds and their summed time."""
    rounds: list[Round] = []
    spent = 0.0
    pending = SETUP_SAMPLES - len(setups)
    taken = 0
    started = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - started < seconds:
        index = len(rounds) + 1
        done, round_s, speed = sampler.measure(lambda: workload.round(index))
        done.speed = speed
        spent += round_s
        rounds.append(done)
        elapsed = time.perf_counter() - started
        if taken < pending and elapsed >= (taken + 1) * seconds / (pending + 1):
            build(workload, sampler, setups)
            taken += 1
    while taken < pending:
        build(workload, sampler, setups)
        taken += 1
    return rounds, spent


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_metrics(
    workload: Workload,
    tracer: tracing.Tracer,
    traced: dict,
    traced_wall: float,
    untraced_wall: float,
) -> dict:
    """The per-layer ledger of one traced pass."""
    metrics: dict = {}
    for name in tracing.SPAN_NAMES:
        self_s = tracer.self_s[name]
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.share"] = self_s / traced_wall
    counts = tracer.counts
    session_s = sum(
        seconds for name, seconds in tracer.self_s.items()
        if name.startswith("api.session.")
    )
    batches = traced["sched_batches"]
    lookups = traced["cache_hits"] + traced["cache_misses"]
    queue_wait = getattr(workload, "queue_wait", (0.0, 0.0))
    kernel_calls = tracer.calls["runtime.engine.matmul"]
    polls = counts.get("polls", 0)
    attributed = tracer.attributed_s
    metrics.update(
        {
            "api.cluster.admission_shed": traced.get("cluster_shed", 0),
            "api.cluster.imbalance": getattr(workload, "imbalance", 0.0),
            "api.session.us_per_request": session_s / max(traced["requests"], 1) * 1e6,
            "runtime.scheduler.batch_fill": (
                traced["sched_flushed"] / (batches * BURST)
                if batches else 0.0
            ),
            "runtime.scheduler.batches": batches,
            "runtime.scheduler.deadline_sheds": traced["sched_deadline_misses"],
            "runtime.scheduler.cache_hit_rate": (
                traced["cache_hits"] / lookups if lookups else 0.0
            ),
            "runtime.scheduler.cache_evictions": traced["cache_evictions"],
            "runtime.scheduler.modelled_queue_wait_p50_s": queue_wait[0],
            "runtime.scheduler.modelled_queue_wait_p99_s": queue_wait[1],
            "compile.programs_compiled": traced["compiled"],
            "elastic.store.saves": traced.get("store_saves", 0),
            "elastic.store.restores": traced.get("store_restores", 0),
            "elastic.store.misses": traced.get("store_misses", 0),
            "elastic.store.stale_rejects": traced.get("store_stale", 0),
            "elastic.store.corrupt_rejects": traced.get("store_corrupt", 0),
            "elastic.store.bytes_written": traced.get("store_bytes", 0),
            "runtime.kernel.columns_per_call": (
                counts.get("kernel_columns", 0) / kernel_calls if kernel_calls else 0.0
            ),
            "runtime.kernel.bytes_moved": counts.get("kernel_bytes", 0),
            "ml.convolution.patches": counts.get("patches", 0),
            "traffic.engine.polls": polls,
            "traffic.engine.empty_polls": (
                counts.get("empty_polls", 0) / polls if polls else 0.0
            ),
            "unattributed_s": traced_wall - attributed,
            "tracing_overhead_s": traced_wall - untraced_wall,
            "traced_wall_s": traced_wall,
            "attributed_share": attributed / traced_wall,
        }
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, check and measure one workload in this process."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, scratch)
    problems: list[str] = []

    # The reference round replays on two separately built targets,
    # which must agree on every modelled figure; the second one serves
    # the run.
    setups: list[tuple[float, float]] = []
    with Sampler() as sampler:
        workload.use(build(workload, sampler, setups))
        _, modelled_first = workload.reference()
        workload.use(build(workload, sampler, setups))
        reference_round, modelled = workload.reference()
        before = workload.counters()
        rounds, untraced_wall = timed_rounds(
            workload, seconds / 2 if trace else seconds, sampler, setups
        )
        after = workload.counters()
    if modelled != modelled_first:
        problems.append(
            f"modelled figures differ between two replays of seed {seed}: "
            f"{modelled_first} vs {modelled}"
        )
    timed_counts = delta(after, before)

    all_rounds = [reference_round, *rounds]
    layers: dict = {}
    chrome: dict | None = None
    if trace:
        tracer = tracing.Tracer()
        workload.tracer = tracer
        with tracing.instrumented(tracer):
            traced_started = clock()
            traced_rounds = [workload.round(index) for index in range(1, len(rounds) + 1)]
            traced_wall = clock() - traced_started
        workload.tracer = NoTrace()
        traced_counts = delta(workload.counters(), after)
        all_rounds.extend(traced_rounds)
        layers = layer_metrics(workload, tracer, traced_counts, traced_wall, untraced_wall)
        telemetry_calls = (
            tracer.calls["telemetry.binding"] + tracer.calls["telemetry.histogram"]
        )
        if not workload.attached and telemetry_calls:
            problems.append(
                f"{telemetry_calls} telemetry calls on an unattached workload"
            )
        chrome = tracer.chrome_trace(f"perfbench {name} seed {seed}")

    checked, mismatches = workload.verify()
    problems.extend(workload.character(timed_counts))
    attempted = sum(r.requests for r in all_rounds)
    # Only oracle mismatches are failures of the program; the fleet's
    # sheds are the outcome its tape is sized for, so they count only in
    # the error rate.
    shed = sum(r.shed for r in all_rounds)
    error_rate = (mismatches + shed) / attempted

    end_to_end = {
        # Medians: unlike the best sample, their expected value does not
        # move with the number of rounds that fit in a run.
        "setup_s": statistics.median(seconds * speed for seconds, speed in setups),
        "requests_per_s": statistics.median(
            r.requests / r.seconds / r.speed for r in rounds
        ),
        "success_rate": 1.0 - error_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **modelled,
    }
    extra = {
        "error_rate": error_rate,
        "setup_s_unscaled": statistics.median(seconds for seconds, _ in setups),
        "requests_per_s_unscaled": statistics.median(
            r.requests / r.seconds for r in rounds
        ),
        "host_speed": statistics.median(r.speed for r in rounds),
        "rounds": len(rounds),
        "oracle_checked": checked,
        **workload.extra_metrics(rounds),
    }
    return {
        "workload": name,
        "trace": trace,
        "correct": mismatches == 0 and not problems,
        "attempted": attempted,
        "failed": mismatches,
        "shed": shed,
        "problems": problems,
        "end_to_end": end_to_end,
        "extra": extra,
        "layers": layers,
        "setup_seconds": [seconds for seconds, _ in setups],
        "setup_speeds": [speed for _, speed in setups],
        "round_seconds": [r.seconds for r in rounds],
        "round_speeds": [r.speed for r in rounds],
        "provenance": provenance(seed),
        "chrome": chrome,
    }


def contract_metrics(result: dict, section: str) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run, in its
    order, with units checked against the runner's."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if section == "end_to_end":
        values, units = result["end_to_end"], END_TO_END_UNITS
    else:
        values, units = result["layers"], LAYER_UNITS
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if units[name] != entry["unit"]:
            raise SystemExit(
                f"BENCHMARK.json gives {name} unit {entry['unit']!r}, "
                f"the runner measures {units[name]!r}"
            )
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return metrics


def print_table(result: dict) -> None:
    print(f"== {result['workload']} ({'traced' if result['trace'] else 'untraced'})")
    rows = [(name, value, END_TO_END_UNITS[name]) for name, value in result["end_to_end"].items()]
    rows += [(name, value, EXTRA_UNITS[name]) for name, value in result["extra"].items()]
    if result["trace"]:
        rows += [(name, value, LAYER_UNITS[name]) for name, value in result["layers"].items()]
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  oracle mismatches: {result['failed']}, sheds: {result['shed']}")
    print(f"  provenance: {json.dumps(result['provenance'], sort_keys=True)}")


def run_single(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    chrome = result.pop("chrome")
    if chrome is not None:
        trace_path = OUT_DIR / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(chrome) + "\n")
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    print_table(result)
    metrics = contract_metrics(result, "per_layer" if args.trace else "end_to_end")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name} failed with exit code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
