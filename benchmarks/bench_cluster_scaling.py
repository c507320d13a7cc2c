"""Cluster scale-out: routed fleets of 1/2/4 cores vs one core.

The serving API's scale-out contract is that a
:class:`repro.api.PhotonicCluster` (1) reproduces the single-core
session bit for bit at ``cores=1`` (checked in the tier-1 suite) and
(2) turns extra cores into modelled fleet throughput without
sacrificing cache locality — *if* the routing policy is
cache-affinity.  This bench replays the Zipf-skewed multi-tenant trace
through every (core count, routing policy) pair and asserts the
affinity-vs-round-robin hit-rate separation the routing exists for.
``serve_bench.py cluster`` writes the same sweep to
``BENCH_cluster.json``.
"""

from serve_bench import run_cluster_serve_bench


def test_cluster_scaling_sweep(benchmark, report, tech):
    summary = benchmark.pedantic(
        run_cluster_serve_bench,
        kwargs={
            "requests": 240,
            "cores_sweep": (1, 2, 4),
            "print_fn": lambda _: None,
        },
        iterations=1,
        rounds=1,
    )

    by_cores = {entry["cores"]: entry["policies"] for entry in summary["sweep"]}
    assert set(by_cores) == {1, 2, 4}

    lines = [
        "240-request Zipf trace, 8x8 tiles, max_batch=32 flush policy",
        f"{'cores':>5}  {'routing':<15} {'modelled inf/s':>14}  "
        f"{'hit rate':>8}  {'evictions':>9}",
    ]
    for cores, policies in sorted(by_cores.items()):
        for name, result in policies.items():
            lines.append(
                f"{cores:>5}  {name:<15} "
                f"{result['modeled_throughput_per_s']:>14,.3g}  "
                f"{result['cache_hit_rate']:>7.0%}  "
                f"{result['cache_evictions']:>9}"
            )
    report("\n".join(lines), title="Cluster — routed fleet scaling")

    # The point of cache-affinity routing: on a skewed trace it must
    # beat round-robin's aggregate hit rate on every multi-core fleet.
    for cores in (2, 4):
        affinity = by_cores[cores]["cache_affinity"]
        round_robin = by_cores[cores]["round_robin"]
        assert affinity["cache_hit_rate"] > round_robin["cache_hit_rate"]
    # Fleet-level modelled throughput scales with the core count under
    # affinity routing (cores digitize concurrently).
    assert (
        by_cores[4]["cache_affinity"]["modeled_throughput_per_s"]
        > by_cores[1]["cache_affinity"]["modeled_throughput_per_s"]
    )
    # On one core every policy routes identically, so the modelled
    # fleet numbers must agree exactly.
    single = by_cores[1]
    assert (
        single["round_robin"]["modeled_throughput_per_s"]
        == single["cache_affinity"]["modeled_throughput_per_s"]
        == single["least_loaded"]["modeled_throughput_per_s"]
    )
