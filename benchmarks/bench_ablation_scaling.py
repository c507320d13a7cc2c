"""Ablation: throughput/efficiency scaling with array size and weight
precision, against the electrical SRAM IMC baseline.

The paper's Section III argues the architecture scales by replicating
macros; Section I motivates it by electrical interconnect limits.  We
sweep the performance model across array sizes and weight precisions
and compare the electrical IMC macro's RC-limited numbers.
"""

from repro.analysis.reporting import ascii_table
from repro.baselines.electrical_imc import ElectricalImcMacro
from repro.core.performance import PerformanceModel


def measure(tech, rows, columns, bits):
    perf = PerformanceModel(tech, rows=rows, columns=columns, weight_bits=bits)
    return perf.throughput_tops, perf.tops_per_watt


def test_scaling_sweep(benchmark, report, tech):
    benchmark(measure, tech, 16, 16, 3)

    rows = []
    for size in (8, 16, 32, 64):
        tops, eff = measure(tech, size, size, 3)
        perf = PerformanceModel(tech, rows=size, columns=size, weight_bits=3)
        rows.append(
            (
                f"{size}x{size}",
                "3",
                f"{tops:.2f}",
                f"{perf.total_power * 1e3:.0f}",
                f"{eff:.2f}",
            )
        )
    for bits in (1, 3, 6):
        perf = PerformanceModel(tech, rows=16, columns=16, weight_bits=bits)
        rows.append(
            (
                "16x16",
                f"{bits}",
                f"{perf.throughput_tops:.2f}",
                f"{perf.total_power * 1e3:.0f}",
                f"{perf.tops_per_watt:.2f}",
            )
        )

    imc = ElectricalImcMacro(rows=16, columns=16, weight_bits=3)
    lines = [
        ascii_table(
            ("array", "weight bits", "TOPS", "power (mW)", "TOPS/W"), rows
        ),
        "",
        "electrical SRAM IMC baseline (RC-limited, 45 nm-class):",
        f"  16x16: {imc.throughput_tops:.2f} TOPS, {imc.tops_per_watt:.1f} TOPS/W, "
        f"weight update {imc.weight_update_rate / 1e9:.1f} GHz "
        f"(vs photonic {tech.psram.update_rate / 1e9:.0f} GHz)",
        f"  256-row column: access time {ElectricalImcMacro(rows=256).access_time * 1e9:.2f} ns "
        "(bitline RC) vs photonic sample period 0.125 ns",
        "",
        "shape: photonic throughput scales with array area at nearly "
        "constant ADC cost per row; the electrical macro's update rate "
        "and tall-array access time are the Section-I bottlenecks.",
    ]
    report("\n".join(lines), title="Ablation — scaling vs electrical IMC")

    tops = [float(row[2]) for row in rows[:4]]
    assert all(b > a for a, b in zip(tops, tops[1:]))
    eff = [float(row[4]) for row in rows[:4]]
    assert all(b >= a for a, b in zip(eff, eff[1:]))
    assert tech.psram.update_rate / imc.weight_update_rate >= 10
