"""Runtime throughput: compiled fast path vs the seed device loop.

The serving runtime's contract is that batched compiled evaluation is
(1) code-for-code identical to the device loop and (2) fast enough to
serve traffic.  This bench measures both on the paper's 16x16 core
with a 256-column batch — the acceptance floor is a 10x speedup, the
compiled path typically lands orders of magnitude beyond it — and
reports end-to-end tiled throughput for a 40x40 workload sharded onto
a 3x3 grid of 16x16 tiles.
"""

import numpy as np

from repro.analysis.reporting import ascii_table
from repro.core.tensor_core import PhotonicTensorCore
from repro.runtime.tiling import TiledMatmul
from repro.telemetry.profiling import wall_clock


def test_compiled_engine_speedup(benchmark, report, tech):
    rng = np.random.default_rng(1)
    core = PhotonicTensorCore(rows=16, columns=16, technology=tech)
    core.load_weight_matrix(rng.integers(0, 8, (16, 16)))
    batch = rng.uniform(0.0, 1.0, (16, 256))

    compile_start = wall_clock()
    engine = core.compile()
    compile_time = wall_clock() - compile_start

    loop_start = wall_clock()
    loop_estimates = core.matmul(batch)
    loop_time = wall_clock() - loop_start

    result = benchmark(engine.matmul, batch)
    fast_start = wall_clock()
    engine.matmul(batch)
    fast_time = wall_clock() - fast_start
    speedup = loop_time / fast_time

    loop_codes = np.stack(
        [core.matvec(batch[:, col]).codes for col in range(batch.shape[1])], axis=1
    )
    codes_equal = bool(np.array_equal(result.codes, loop_codes))
    estimates_equal = bool(np.allclose(result.estimates, loop_estimates))

    rows = [
        ("seed device loop", f"{loop_time * 1e3:.1f}", f"{256 / loop_time:,.0f}", "1.0x"),
        (
            "compiled engine",
            f"{fast_time * 1e3:.3f}",
            f"{256 / fast_time:,.0f}",
            f"{speedup:,.0f}x",
        ),
    ]
    lines = [
        "16x16 core, 3-bit weights, (16, 256) input batch",
        ascii_table(("path", "time [ms]", "inferences/s", "speedup"), rows),
        "",
        f"engine compile time       : {compile_time * 1e3:.1f} ms "
        "(once per weight program)",
        f"codes match device loop   : {codes_equal}",
        f"estimates match matmul    : {estimates_equal}",
    ]
    report("\n".join(lines), title="Runtime — compiled engine vs seed loop")

    assert codes_equal and estimates_equal
    assert speedup >= 10.0


def test_tiled_large_matrix_throughput(benchmark, report, tech):
    rng = np.random.default_rng(2)
    weights = rng.integers(0, 8, (40, 40))
    build_start = wall_clock()
    tiled = TiledMatmul(weights, PhotonicTensorCore(rows=16, columns=16, technology=tech))
    build_time = wall_clock() - build_start
    batch = rng.uniform(0.0, 1.0, (40, 32))

    estimates = benchmark(tiled.matmul, batch)
    run_start = wall_clock()
    tiled.matmul(batch)
    run_time = wall_clock() - run_start

    exact = weights @ batch
    bound = tiled.quantization_error_bound()
    within = bool(np.all(np.abs(estimates - exact) <= bound[:, np.newaxis]))
    worst = float(np.abs(estimates - exact).max())

    lines = [
        f"40x40 weights on a {tiled.row_tiles}x{tiled.column_tiles} grid of "
        f"16x16 tiles ({tiled.tile_count} tiles), 32-column batch",
        f"grid build + compile      : {build_time * 1e3:.0f} ms",
        f"batched evaluation        : {run_time * 1e3:.2f} ms "
        f"({32 / run_time:,.0f} inferences/s)",
        f"per-tile TIA gains        : {np.round(tiled.gains, 2).tolist()}",
        f"worst |error| vs W @ x    : {worst:.2f} dot units "
        f"(envelope {bound.min():.2f}..{bound.max():.2f})",
        f"within quantization bound : {within}",
    ]
    report("\n".join(lines), title="Runtime — tiled 40x40 throughput")

    assert within
