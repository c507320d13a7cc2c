"""The two-state ring table: sharing across tensor-core rows,
invalidation after in-place ring changes, and the pSRAM array's
energy figures read from the technology."""

import dataclasses

import numpy as np
import pytest

from repro.core.psram import PsramArray, PsramBitcell
from repro.core.tensor_core import PhotonicTensorCore

from test_properties import assert_matches_per_ring_walk


def _snapshot(row_core, inputs):
    return (
        row_core._transmissions().copy(),
        row_core.element_responses(),
        row_core.compute(inputs),
        row_core.full_scale_current(),
    )


def _same(before, after):
    return all(np.array_equal(a, b) for a, b in zip(before, after))


def test_rows_share_one_table_until_a_row_is_invalidated(tech):
    core = PhotonicTensorCore(rows=4, columns=8, technology=tech)
    rng = np.random.default_rng(12)
    core.load_weight_matrix(rng.integers(0, core.max_weight + 1, (4, 8)))
    inputs = rng.uniform(0.0, 1.0, 8)
    shared = core.row_cores[0].ring_table
    assert all(row.ring_table is shared for row in core.row_cores)
    with pytest.raises(ValueError):
        shared[0, 0, 0, 0] = 0.5  # read-only: no row can write into it
    pristine = shared.copy()
    before = [_snapshot(row, inputs) for row in core.row_cores]
    codes_before = core.matvec(inputs).codes

    heated = core.row_cores[2].multipliers[5][1].ring
    heated.delta_temperature = 1.0
    heated.heater_shift = -20e-12
    # A reload selects from the table, so it does not see the change...
    core.load_weight_matrix(core.weight_matrix)
    assert _same(before[2], _snapshot(core.row_cores[2], inputs))
    # ...until the row re-evaluates its own table.
    core.row_cores[2].invalidate_ring_table()

    row2 = core.row_cores[2]
    assert row2.ring_table is not shared
    assert_matches_per_ring_walk(row2, inputs)
    assert not _same(before[2], _snapshot(row2, inputs))
    for row in (0, 1, 3):
        assert core.row_cores[row].ring_table is shared
        assert _same(before[row], _snapshot(core.row_cores[row], inputs))
    assert np.array_equal(shared, pristine)
    assert np.array_equal(np.delete(core.matvec(inputs).codes, 2), np.delete(codes_before, 2))


def test_weight_loads_keep_the_table(tech):
    core = PhotonicTensorCore(rows=1, columns=5, weight_bits=2, technology=tech)
    row = core.row_cores[0]
    table = row.ring_table
    assert table.shape == (5, 2, 2, tech.compute.wavelengths_per_macro)
    row.load_weights([3, 0, 1, 2, 3])
    assert row.ring_table is table


@pytest.mark.parametrize(
    "psram",
    [
        None,
        dict(
            write_power=2e-3,
            write_pulse_width=30e-12,
            bias_power=3e-5,
            update_rate=10e9,
            vdd=1.2,
            switched_capacitance=120e-15,
            hold_electrical_power=7e-6,
        ),
    ],
    ids=["default", "modified"],
)
def test_array_energy_equals_bitcell_ledgers(tech, psram):
    if psram is not None:
        tech = tech.replace(
            psram=dataclasses.replace(tech.psram, **psram), wall_plug_efficiency=0.31
        )
    array = PsramArray(4, 3, tech)
    array.write_all([7, 2, 5, 1])
    array.write_all([0, 2, 4, 6])
    cell = PsramBitcell(tech)
    per_switch = cell.switching_energy_ledger(state_flipped=True).total
    assert array.write_energy() == array.switch_events * per_switch
    assert array.hold_power() == cell.hold_power_ledger().total * array.cell_count
