"""Traffic capacity under an SLO: the knee of the offered-load curve.

``repro.traffic`` promises that capacity — the highest sustained
offered rate still meeting ``SLO(p99, miss_budget)`` — is a measurable,
reproducible number on the modelled clock, and that the SLO-derived
deadline-aware flush policy beats plain max-batch on deadline misses
when the batch-fill time overruns the deadline.  This bench runs a
scaled-down ``run_traffic_serve_bench`` and asserts both promises; the
full 1M-request run, ``serve_bench.py traffic``, writes
``BENCH_traffic.json``.
"""

from serve_bench import run_traffic_serve_bench


def test_traffic_capacity_curve(benchmark, report):
    summary = benchmark.pedantic(
        run_traffic_serve_bench,
        kwargs={
            "requests": 20000,
            "cores_sweep": (1, 2),
            "probe_requests": 1500,
            "trial_requests": 1500,
            "head_requests": 4000,
            "max_doublings": 4,
            "print_fn": lambda _: None,
        },
        iterations=1,
        rounds=1,
    )

    sustained = summary["sustained"]
    lines = [
        f"{sustained['offered']} sustained requests at "
        f"{sustained['offered_rate_per_s']:,.3g} req/s modelled "
        f"({sustained['wall_elapsed_s']:.1f} s wall), "
        f"p99 {(sustained['p99_e2e_s'] or 0) * 1e9:,.0f} ns, "
        f"miss rate {sustained['miss_rate']:.2%}",
        f"{'cores':>5}  {'routing':<15} {'capacity req/s':>14}",
    ]
    for entry in summary["capacity_curve"]:
        for routing, record in entry["policies"].items():
            lines.append(
                f"{entry['cores']:>5}  {routing:<15} "
                f"{record['capacity_per_s']:>14,.3g}"
            )
    head = summary["head_to_head"]
    lines.append(
        f"head-to-head: max_batch {head['max_batch']['miss_rate']:.1%} "
        f"misses vs slo_aware {head['slo_aware']['miss_rate']:.1%}"
    )
    report("\n".join(lines), title="Traffic — SLO capacity curve")

    # The sustained run holds its SLO and resolves every admitted
    # request (the engine itself raises on unresolved futures).
    assert sustained["slo_met"]
    assert sustained["resolved"] == sustained["admitted"]
    # Every (cores, routing) point produced a positive capacity.
    for entry in summary["capacity_curve"]:
        for record in entry["policies"].values():
            assert record["capacity_per_s"] > 0.0
    # The reason the deadline-aware policy exists: far fewer misses
    # than plain max-batch at the same offered load.
    assert (
        head["slo_aware"]["deadline_misses"]
        < head["max_batch"]["deadline_misses"]
    )
