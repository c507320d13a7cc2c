"""Command-line entry point: ``python -m repro [command]``.

Commands:

* ``summary`` (default) — the paper's 16x16 system performance summary
  and Table I comparison.
* ``demo`` — a quick 4x8 matrix-vector multiplication through the
  photonic path.
* ``adc`` — static eoADC conversions across the full-scale range.
* ``lint [paths...]`` — run the :mod:`repro.lint` contract checker
  over ``src/`` (or explicit paths); ``--format json`` for the
  machine-readable findings, ``--baseline FILE`` to grandfather,
  ``--write-baseline`` to regenerate it, ``--catalog`` to print the
  rule catalog.  Exits 1 on any new finding.
* ``obs --trace T.json [--metrics M.json] [--alerts A.json]
  [--out out.html]`` — render the :mod:`repro.obs` dashboard from
  saved artifacts: a ``--trace`` dump, an optional metrics JSON and an
  optional alerts file (either a JSON list of alert dicts or a
  ``BENCH_drift.json`` whose ``incident`` section carries them).

The serving benches run as a script, from the repository root:
``PYTHONPATH=src python benchmarks/serve_bench.py <scenario>``.

Also installed as the ``repro`` console script (``repro lint``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np


def _summary(argv: list[str]) -> None:
    from .baselines.photonic_macros import format_table_one
    from .core.performance import PerformanceModel

    performance = PerformanceModel()
    print(performance.summary())
    print()
    print(format_table_one(performance))


def _demo(argv: list[str]) -> None:
    from .core.tensor_core import PhotonicTensorCore

    rng = np.random.default_rng(0)
    core = PhotonicTensorCore(rows=4, columns=8)
    core.load_weight_matrix(rng.integers(0, 8, (4, 8)))
    x = rng.uniform(0.0, 1.0, 8)
    result = core.matvec(x)
    print(f"input      : {np.round(x, 2)}")
    print(f"ADC codes  : {result.codes}")
    print(f"estimates  : {np.round(result.estimates, 2)}")
    print(f"exact W @ x: {np.round(core.ideal_matvec(x), 2)}")


def _adc(argv: list[str]) -> None:
    from .core.eoadc import EoAdc

    adc = EoAdc()
    print(f"{'V_IN (V)':>8}  {'code':>4}  bits")
    for v_in in np.linspace(0.1, 3.9, 12):
        code = adc.convert(float(v_in))
        print(f"{v_in:>8.2f}  {code:>4}  {code:03b}")


def _obs(argv: list[str]) -> int:
    """Render the observability dashboard from saved artifacts."""
    import json

    from .errors import ConfigurationError
    from .obs import save_dashboard

    args = list(argv)

    def take_path(flag: str):
        if flag not in args:
            return None, False
        at = args.index(flag)
        if at + 1 >= len(args) or args[at + 1].startswith("--"):
            print(f"obs {flag} expects a file path")
            return None, True
        value = Path(args[at + 1])
        del args[at : at + 2]
        return value, False

    trace_path, bad = take_path("--trace")
    if bad:
        return 2
    metrics_path, bad = take_path("--metrics")
    if bad:
        return 2
    alerts_path, bad = take_path("--alerts")
    if bad:
        return 2
    out_path, bad = take_path("--out")
    if bad:
        return 2
    if args:
        print(f"obs: unknown argument(s) {args}")
        return 2
    if trace_path is None:
        print("obs expects --trace TRACE.json (a saved serve_bench.py --trace dump)")
        return 2
    if not trace_path.exists():
        print(f"obs: trace file not found: {trace_path}")
        return 2
    alerts: list = []
    incidents: list = []
    if alerts_path is not None:
        if not alerts_path.exists():
            print(f"obs: alerts file not found: {alerts_path}")
            return 2
        payload = json.loads(alerts_path.read_text())
        if isinstance(payload, dict) and "incident" in payload:
            payload = payload["incident"]
        if isinstance(payload, dict):
            alerts = list(payload.get("alerts", ()))
            incidents = list(payload.get("incident_markers", ()))
        else:
            alerts = list(payload)
    metrics = None
    if metrics_path is not None:
        if not metrics_path.exists():
            print(f"obs: metrics file not found: {metrics_path}")
            return 2
        metrics = json.loads(metrics_path.read_text())
    try:
        target = save_dashboard(
            out_path if out_path is not None else Path("DASHBOARD.html"),
            trace=trace_path,
            metrics=metrics,
            alerts=alerts,
            incidents=incidents,
        )
    except ConfigurationError as error:
        print(f"obs: {error}")
        return 2
    print(f"dashboard written to: {target}")
    return 0


def _lint(argv: list[str]) -> int:
    from .errors import ConfigurationError
    from .lint import BASELINE_FILE, all_rules, run_lint, write_baseline

    args = list(argv)
    output_format = "text"
    if "--format" in args:
        at = args.index("--format")
        if at + 1 >= len(args) or args[at + 1] not in ("text", "json"):
            print("lint --format expects 'text' or 'json'")
            return 2
        output_format = args[at + 1]
        del args[at : at + 2]
    if "--catalog" in args:
        for rule in all_rules():
            print(f"{rule.name} ({rule.severity})")
            print(f"  enforces : {rule.contract}")
            print(f"  why      : {rule.rationale}")
        return 0
    root = Path.cwd()
    baseline = root / BASELINE_FILE
    if "--baseline" in args:
        at = args.index("--baseline")
        if at + 1 >= len(args) or args[at + 1].startswith("--"):
            print("lint --baseline expects a file path")
            return 2
        baseline = Path(args[at + 1])
        del args[at : at + 2]
    regenerate = "--write-baseline" in args
    if regenerate:
        args.remove("--write-baseline")
    unknown = [arg for arg in args if arg.startswith("--")]
    if unknown:
        print(f"lint: unknown option(s) {unknown}")
        return 2
    try:
        run = run_lint(root, paths=args or None, baseline_path=baseline)
    except ConfigurationError as error:
        print(f"lint: {error}")
        return 2
    if regenerate:
        count = write_baseline(baseline, run)
        print(f"baseline written to {baseline} ({count} grandfathered findings)")
        return 0
    if output_format == "json":
        import json

        print(json.dumps(run.to_dict(), indent=2))
    else:
        print(run.render())
    return 1 if run.failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else "summary"
    commands = {
        "summary": _summary,
        "demo": _demo,
        "adc": _adc,
        "lint": _lint,
        "obs": _obs,
    }
    if command not in commands:
        print(f"unknown command {command!r}; choose from {sorted(commands)}")
        return 2
    status = commands[command](argv[1:])
    return 0 if status is None else status


if __name__ == "__main__":
    raise SystemExit(main())
