"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` once per seed for each named workload (one
process at a time) and prints, per metric, the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads warm_dense cold_churn --seeds 1-10

A metric, ``setup_s`` included, is steady when its spread stays below a
third of its bound.  ``--json`` writes
every per-seed value, so two sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_from(text: str) -> list[int]:
    """``"1-10"`` or ``"3,7,11"`` to a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, help="write every per-seed value here")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = seeds_from(args.seeds)
    record: dict = {}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = values
        print(f"== {workload} ({len(seeds)} seeds)")
        for name, bound in bounds.items():
            median, share = spread(values[name])
            ok = share < bound / 3
            steady = steady and ok
            print(
                f"  {name:<28} median {median:>14.6g}  spread {share:7.2%}"
                f"  bound {bound:5.0%}  {'ok' if ok else 'TOO WIDE'}"
            )
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
