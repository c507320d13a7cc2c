"""Property-based tests (hypothesis) on core invariants."""

import dataclasses
import math
import tempfile
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import (
    Dense,
    FlushPolicy,
    MetricsRegistry,
    Model,
    PhotonicCluster,
    PhotonicSession,
    RoutingPolicy,
    RunReport,
)
from repro.config import default_technology
from repro.core import eoadc
from repro.core.compute_core import VectorComputeCore, row_responses
from repro.core.eoadc import EoAdc
from repro.core.tensor_core import PhotonicTensorCore
from repro.core.quantization import (
    dequantize_weights,
    encode_inputs,
    quantize_weights,
    signed_matmul_correction,
)
from repro.electronics.adc_metrics import differential_nonlinearity
from repro.elastic import Autoscaler, CoreSpec, ProgramStore
from repro.errors import (
    ClusterSaturatedError,
    ConfigurationError,
    ConversionError,
    DeadlineExceededError,
    ReproError,
)
from repro.electronics.elements import StorageNode
from repro.electronics.rom_decoder import CeilingPriorityRomDecoder, code_to_bits
from repro.photonics.coupler import BinaryScaledSplitterTree, PowerSplitter
from repro.photonics.mrr import AddDropMRR
from repro.photonics.signal import WDMSignal, merge_signals
from repro.obs import Observer
from repro.photonics.wdm import usable_channels
from repro.health import DriftState, HealthPolicy, LaserPowerDecay, TiaGainDrift
from repro.health.drift import apply_read_out
from repro.ml.convolution import PhotonicConv2d, _checked_images, im2col_channels, output_shape
from repro.ml.layers import compile_differential_engines
from repro.ml.mapping import iter_tile_blocks
from repro.runtime.engine import CompiledCore, weight_key
from repro.runtime.tiling import DifferentialProgram, TiledMatmul, auto_range_gain
from repro.sim.transient import FirstOrderLag
from repro.telemetry import Histogram, ModelClock, Telemetry, quantiles_from_samples
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.metrics import QUANTILE_KEYS, QUANTILE_POINTS
from repro.traffic import Poisson, TrafficEngine, WorkloadMix

TECH = default_technology()
RING = AddDropMRR(
    TECH.compute_ring_spec(),
    design_wavelength=TECH.wavelength,
    waveguide=TECH.waveguide,
    coupler=TECH.coupler,
)


@given(
    detuning=st.floats(min_value=-5e-9, max_value=5e-9),
)
@settings(max_examples=200)
def test_ring_passivity(detuning):
    """For any wavelength, thru and drop powers are in [0, 1] and their
    sum never exceeds unity (no gain in a passive ring)."""
    wavelength = TECH.wavelength + detuning
    thru = float(RING.thru_transmission(wavelength))
    drop = float(RING.drop_transmission(wavelength))
    assert 0.0 <= thru <= 1.0
    assert 0.0 <= drop <= 1.0
    assert thru + drop <= 1.0 + 1e-12


@given(ratio=st.floats(min_value=0.0, max_value=1.0), power=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100)
def test_splitter_conserves_power(ratio, power):
    splitter = PowerSplitter(ratio=ratio)
    out1, out2 = splitter.split(WDMSignal.single(1310.5e-9, power))
    assert out1.total_power + out2.total_power == pytest.approx(power, rel=1e-12, abs=1e-18)


@given(bits=st.integers(min_value=1, max_value=10))
def test_splitter_tree_fractions_sum_to_one(bits):
    tree = BinaryScaledSplitterTree(bits)
    total = sum(tree.branch_fractions()) + tree.residual_fraction
    assert total == pytest.approx(1.0)


@given(
    powers=st.lists(st.floats(min_value=0.0, max_value=1e-3), min_size=1, max_size=6),
)
@settings(max_examples=100)
def test_merge_conserves_total_power(powers):
    signals = [WDMSignal.single(1310e-9 + i * 1e-9, p) for i, p in enumerate(powers)]
    merged = merge_signals(signals)
    assert merged.total_power == pytest.approx(sum(powers), abs=1e-18)


@given(bits=st.integers(min_value=1, max_value=6), data=st.data())
def test_decoder_one_hot_identity(bits, data):
    decoder = CeilingPriorityRomDecoder(bits)
    code = data.draw(st.integers(min_value=0, max_value=2**bits - 1))
    activations = [False] * 2**bits
    activations[code] = True
    assert decoder.decode(activations) == code


@given(bits=st.integers(min_value=2, max_value=6), data=st.data())
def test_decoder_adjacent_two_hot_ceiling(bits, data):
    decoder = CeilingPriorityRomDecoder(bits)
    lower = data.draw(st.integers(min_value=0, max_value=2**bits - 2))
    activations = [False] * 2**bits
    activations[lower] = activations[lower + 1] = True
    assert decoder.decode(activations) == lower + 1


@given(bits=st.integers(min_value=1, max_value=8), data=st.data())
def test_code_to_bits_round_trip(bits, data):
    code = data.draw(st.integers(min_value=0, max_value=2**bits - 1))
    expansion = code_to_bits(code, bits)
    value = 0
    for bit in expansion:
        value = (value << 1) | bit
    assert value == code


@given(
    weights=st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=16
    ),
    bits=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=150)
def test_signed_quantization_error_bounded(weights, bits):
    weights = np.asarray(weights)
    q, scale = quantize_weights(weights, bits, signed=True)
    restored = dequantize_weights(q, scale, bits, signed=True)
    assert np.all(np.abs(restored - weights) <= scale / 2 + 1e-9)
    assert np.all(q >= 0) and np.all(q < 2**bits)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=16
    )
)
@settings(max_examples=100)
def test_encode_inputs_bounds_and_recovery(values):
    values = np.asarray(values)
    encoded, scale = encode_inputs(values)
    assert np.all(encoded >= 0.0) and np.all(encoded <= 1.0)
    assert np.allclose(encoded * scale, values, atol=1e-9)


@given(
    bits=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
@settings(max_examples=100)
def test_signed_correction_identity(bits, data):
    """Offset-binary correction is exact in integer arithmetic."""
    size = data.draw(st.integers(min_value=1, max_value=8))
    offset = 2 ** (bits - 1)
    signed = data.draw(
        st.lists(
            st.integers(min_value=-offset, max_value=offset - 1),
            min_size=size,
            max_size=size,
        )
    )
    x = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    signed = np.asarray(signed)
    x = np.asarray(x)
    unsigned = (signed + offset) @ x
    assert signed_matmul_correction(unsigned, x, bits) == pytest.approx(signed @ x)


@given(
    currents=st.lists(
        st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100)
def test_storage_node_never_leaves_rails(currents):
    node = StorageNode(5e-15, 1.8, 0.9)
    for current in currents:
        node.integrate(current, 1e-12)
        assert 0.0 <= node.voltage <= 1.8


@given(
    target=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    steps=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100)
def test_first_order_lag_contracts_toward_target(target, steps):
    lag = FirstOrderLag(0.0, time_constant=1e-12)
    previous_distance = abs(target - 0.0)
    for _ in range(steps):
        lag.step(target, 1e-12)
        distance = abs(target - float(lag.state))
        assert distance <= previous_distance + 1e-12
        previous_distance = distance


@given(
    edges=st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        min_size=3,
        max_size=3,
        unique=True,
    )
)
@settings(max_examples=100)
def test_dnl_sums_to_span_error(edges):
    """Sum of DNL equals (last-first transition)/LSB - (levels-2) by
    construction; with ideal first/last edges it is ~0."""
    transitions = {k + 1: v for k, v in enumerate(sorted(edges))}
    lsb = (max(edges) - min(edges)) / 2.0
    dnl = differential_nonlinearity(transitions, lsb, levels=4)
    assert dnl.sum() == pytest.approx(
        (max(edges) - min(edges)) / lsb - 2.0, abs=1e-9
    )


# -- two-state ring table vs the per-ring walk --------------------------------


def _spacing_technology(spacing, channels):
    """The modified channel plan bench_ablation_wdm_crosstalk builds."""
    compute = dataclasses.replace(
        TECH.compute,
        channel_spacing=spacing,
        wavelengths_per_macro=channels,
        length_adjust_step=68e-9 * spacing / 2.33e-9,
    )
    return TECH.replace(compute=compute)


CHANNEL_PLANS = [TECH] + [
    _spacing_technology(spacing, min(usable_channels(9.36e-9, spacing), 8))
    for spacing in (1.5e-9, 1.0e-9, 0.5e-9)
]


def per_ring_reference(core, voltage=None):
    """Per-(macro, plane, channel) bus transmission, walking every ring
    in element order from ones: each ring at its set bit, or at
    ``voltage`` when given."""
    wavelengths = core.plan.wavelengths
    cache = np.ones((core.macro_count, core.weight_bits, core.channels_per_macro))
    for element, planes in enumerate(core.multipliers):
        macro = element // core.channels_per_macro
        for plane, multiplier in enumerate(planes):
            cache[macro, plane, :] *= np.asarray(
                multiplier.ring.thru_transmission(wavelengths, voltage=voltage),
                dtype=float,
            )
    return cache


def reference_current(core, cache, inputs):
    fractions = np.asarray(core.splitter_tree.branch_fractions())
    power = core.technology.compute.channel_power
    responsivity = core.photodiode.spec.responsivity
    current = 0.0
    for macro in range(core.macro_count):
        start = macro * core.channels_per_macro
        stop = min(start + core.channels_per_macro, core.vector_length)
        macro_inputs = np.zeros(core.channels_per_macro)
        macro_inputs[: stop - start] = inputs[start:stop]
        plane_powers = cache[macro] @ (power * macro_inputs)
        current += responsivity * float(fractions @ plane_powers)
    return current


def reference_responses(core, cache):
    fractions = np.asarray(core.splitter_tree.branch_fractions())
    power = core.technology.compute.channel_power
    responsivity = core.photodiode.spec.responsivity
    responses = np.empty(core.vector_length)
    for element in range(core.vector_length):
        macro = element // core.channels_per_macro
        channel = element % core.channels_per_macro
        responses[element] = (
            responsivity * power * float(fractions @ cache[macro, :, channel])
        )
    return responses


def assert_matches_per_ring_walk(core, inputs):
    """Transmissions, responses, compute and full scale equal the
    per-ring walk bit for bit."""
    cache = per_ring_reference(core)
    assert np.array_equal(core._transmissions(), cache)
    assert np.array_equal(core.element_responses(), reference_responses(core, cache))
    assert core.compute(inputs) == reference_current(core, cache, inputs)
    full = per_ring_reference(core, voltage=core.technology.psram.vdd)
    ones = np.ones(core.vector_length)
    assert core.full_scale_current() == reference_current(core, full, ones)


@given(
    length=st.integers(min_value=1, max_value=17),
    bits=st.integers(min_value=1, max_value=4),
    plan=st.sampled_from(range(len(CHANNEL_PLANS))),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ring_table_loads_equal_per_ring_walk(length, bits, plan, data):
    """A lone core (table walked ring by ring) and the rows of a tensor
    core (one shared table) both load bit-for-bit like the walk."""
    technology = CHANNEL_PLANS[plan]
    tensor = PhotonicTensorCore(rows=2, columns=length, weight_bits=bits, technology=technology)
    cores = [VectorComputeCore(length, bits, technology), *tensor.row_cores]
    words = st.lists(
        st.integers(min_value=0, max_value=2**bits - 1), min_size=length, max_size=length
    )
    unit = st.floats(min_value=0.0, max_value=1.0)
    for core in cores:
        for _ in range(2):  # a reload from a non-zero state, too
            core.load_weights(data.draw(words))
            inputs = np.asarray(data.draw(st.lists(unit, min_size=length, max_size=length)))
            assert_matches_per_ring_walk(core, inputs)


# -- the stacked grid kernel vs the per-tile loop -----------------------------


def reference_tile_matmul(tile, chunk, gain):
    """One tile evaluated alone, the way ``CompiledCore.matmul`` did
    before grids ran as one stack: its own matrix product, read-out
    under the live drift residual, per-row ladder binning and
    code-by-code dequantisation.  Returns (codes, estimates)."""
    residual = None
    if tile._drift is not None:
        residual = tile._drift.truth().relative_to(tile._calibration)
    _, voltages = apply_read_out(
        residual, tile.response @ chunk, gain * tile._tia_gain, tile._full_scale_voltage
    )
    codes = np.stack(
        [np.searchsorted(edges, row, side="right") for edges, row in zip(tile.boundaries, voltages)]
    )
    return codes, tile.dequantize_codes(codes) / gain


def reference_grid_matmul(grid, batch, gain=None):
    """The per-tile loop ``TiledMatmul.matmul`` replaced: every tile on
    its zero-padded chunk, each row band summing its column tiles'
    estimates in order from zero.  Returns (estimates, codes per tile)."""
    samples = batch.shape[1]
    result = np.zeros((grid.out_features, samples))
    codes = {}
    for row_tile, col_tile, (row_start, row_stop), (col_start, col_stop) in iter_tile_blocks(
        grid.out_features, grid.in_features, grid.tile_rows, grid.tile_columns
    ):
        chunk = np.zeros((grid.tile_columns, samples))
        chunk[: col_stop - col_start] = batch[col_start:col_stop]
        tile_gain = grid.gains[row_tile, col_tile] if gain is None else float(gain)
        tile_codes, estimates = reference_tile_matmul(
            grid.tiles[row_tile][col_tile], chunk, tile_gain
        )
        codes[row_tile, col_tile] = tile_codes
        result[row_start:row_stop] += estimates[: row_stop - row_start]
    return result, codes


def reference_matmul(program, batch, gain=None):
    """:func:`reference_grid_matmul` of a grid or a differential pair."""
    if isinstance(program, DifferentialProgram):
        raw = reference_grid_matmul(program.positive, batch, gain)[0]
        if program.negative is not None:
            raw = raw - reference_grid_matmul(program.negative, batch, gain)[0]
        return raw
    return reference_grid_matmul(program, batch, gain)[0]


def _drifted(core):
    """``core`` under an active drift state aged 20 s (a laser decay
    and a TIA gain drift)."""
    state = DriftState((LaserPowerDecay(rate_per_s=1e-2), TiaGainDrift(drift_per_s=-8e-4)))
    state.advance(20.0)
    core.drift_state = state
    return core


def assert_grid_equals_tile_by_tile(grid, core, twin, gain):
    """``grid``, just compiled on ``core``, equals its blocks loaded
    into ``twin`` (``core``'s twin before the compile) one at a time,
    row by row through ``VectorComputeCore.load_weights``: each tile's
    response is the rows' ``element_responses()``, its ladders the row
    ADCs' ``code_boundaries()``, its gain the range rule's, the load
    energy the tile-order sum of ``program_energy``, and both cores end
    in the same state (weights, pSRAM bits and ledger, transmissions)."""
    energy = 0.0
    for row_tile, col_tile, (row_start, row_stop), (col_start, col_stop) in iter_tile_blocks(
        grid.out_features, grid.in_features, grid.tile_rows, grid.tile_columns
    ):
        block = np.zeros((grid.tile_rows, grid.tile_columns), dtype=int)
        block[: row_stop - row_start, : col_stop - col_start] = grid.weight_matrix[
            row_start:row_stop, col_start:col_stop
        ]
        for row, weights in zip(twin.row_cores, block):
            row.load_weights(weights)
        energy += twin.program_energy(block)
        tile = grid.tiles[row_tile][col_tile]
        assert np.array_equal(tile.weight_matrix, block)
        assert np.array_equal(
            tile.response, np.stack([row.element_responses() for row in twin.row_cores])
        )
        assert np.array_equal(
            tile.boundaries, np.stack([adc.code_boundaries() for adc in twin.row_adcs])
        )
        expected_gain = (
            auto_range_gain(block, grid.tile_columns * grid.max_weight)
            if gain == "auto"
            else gain
        )
        assert grid.gains[row_tile, col_tile] == expected_gain
    assert grid.weight_update_energy == energy
    assert np.array_equal(core.weight_matrix, block)
    for row, twin_row in zip(core.row_cores, twin.row_cores, strict=True):
        assert np.array_equal(row.weights, twin_row.weights)
        memory, twin_memory = row.weight_memory, twin_row.weight_memory
        assert np.array_equal(memory._bits, twin_memory._bits)
        assert memory.switch_events == twin_memory.switch_events
        assert memory._write_events == twin_memory._write_events
        assert np.array_equal(row._transmissions(), twin_row._transmissions())
    assert core.weight_update_energy() == twin.weight_update_energy()


@given(
    shape=st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)),
    tile=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
    gain=st.sampled_from(("auto", 1.0, 2.5)),
    override=st.sampled_from((None, 0.7, 3.0)),
    loads=st.integers(min_value=1, max_value=3),
    bits=st.integers(min_value=1, max_value=4),
    adc_bits=st.integers(min_value=2, max_value=6),
    drift=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_grid_compiled_on_a_used_core_equals_one_on_a_fresh_core(
    shape, tile, gain, override, loads, bits, adc_bits, drift, seed
):
    """Compiling overwrites the given core's pSRAM and reads nothing it
    held before: a grid compiled on a core that already served random
    loads equals one compiled on a fresh core, load energy included,
    and both evaluate like the per-tile loop, with or without a
    per-call gain override.  The one-pass grid compile equals loading
    and reading its tiles one by one on a twin core, down to the
    core's state afterwards."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 2**bits, shape)

    def core():
        built = PhotonicTensorCore(
            rows=tile[0], columns=tile[1], weight_bits=bits, adc_bits=adc_bits
        )
        return _drifted(built) if drift else built

    used, twin = core(), core()
    for _ in range(loads):
        prior = rng.integers(0, 2**bits, tile)
        used.load_weight_matrix(prior)
        twin.load_weight_matrix(prior)
    on_used = TiledMatmul(weights, used, gain=gain)
    assert_grid_equals_tile_by_tile(on_used, used, twin, gain)
    on_fresh = TiledMatmul(weights, core(), gain=gain)

    for band_used, band_fresh in zip(on_used.tiles, on_fresh.tiles, strict=True):
        for a, b in zip(band_used, band_fresh, strict=True):
            assert np.array_equal(a.response, b.response)
            assert np.array_equal(a.boundaries, b.boundaries)
    assert np.array_equal(on_used.gains, on_fresh.gains)
    assert on_used.weight_update_energy == on_fresh.weight_update_energy
    batch = rng.uniform(0.0, 1.0, (shape[1], 3))
    estimates = on_used.matmul(batch, gain=override)
    assert np.array_equal(estimates, on_fresh.matmul(batch, gain=override))
    assert np.array_equal(estimates, reference_matmul(on_fresh, batch, override))


# -- eoADC bank vs the per-ring walk ------------------------------------------


def walk_convert(adc, v_in, strict=False):
    """Static conversion walking the ring objects: each ring's
    ``AllPassMRR.thru_transmission``, then its thresholder, then the
    ceiling-priority ROM decoder (ramp-hold where nothing fires)."""
    full_scale = adc.spec.full_scale_voltage
    if not 0.0 <= v_in < full_scale:
        raise ConversionError(f"input {v_in} V outside [0, {full_scale})")
    activations = [
        thresholder.is_active(
            adc.spec.channel_power
            * float(ring.thru_transmission(TECH.wavelength, voltage=float(reference - v_in)))
        )
        for ring, thresholder, reference in zip(
            adc.rings, adc.thresholders, adc.reference_voltages
        )
    ]
    if any(activations) or strict:
        return adc.decoder.decode(activations)
    below = np.nonzero(adc.reference_voltages <= v_in)[0]
    return int(below[-1]) if below.size else 0


def walk_boundary(adc, code):
    """Ladder entry of ``code`` bisected with :func:`walk_convert` from
    [0, full scale), the bracket every code starts from."""
    full_scale = adc.spec.full_scale_voltage
    low, high = 0.0, full_scale - 1e-9
    if code > walk_convert(adc, high):
        return full_scale
    if walk_convert(adc, low) >= code:
        return low
    while True:
        mid = 0.5 * (low + high)
        if not low < mid < high:
            return high
        if walk_convert(adc, mid) >= code:
            high = mid
        else:
            low = mid


def _outcome(convert, *args):
    try:
        return convert(*args)
    except ConversionError:
        return ConversionError


def _mistrimmed_adc(bits, trim_lsb, strict_decoder, seed):
    """A converter whose trims scatter by ``trim_lsb`` LSBs of resonance
    shift: from a fine trim to parts with dead zones, unreachable codes
    and non-adjacent activations."""
    sigma = trim_lsb * TECH.depletion.efficiency * TECH.eoadc.full_scale_voltage / 2**bits
    trims = np.random.default_rng(seed).normal(0.0, sigma, 2**bits)
    return EoAdc(TECH, bits=bits, trim_errors=trims, strict_decoder=strict_decoder)


@given(
    bits=st.integers(min_value=2, max_value=6),
    trim_lsb=st.sampled_from((0.0, 0.05, 0.3, 1.0, 3.0)),
    strict_decoder=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_bank_conversion_equals_per_ring_walk(bits, trim_lsb, strict_decoder, seed, data):
    """Scalar and array conversion through the bank equal the per-ring
    walk voltage for voltage, the same voltages raise under either
    strictness, and the lockstep ladder equals the walk's bisection."""
    # A strict decoder may refuse mid-bisection; keep that case to
    # sizes whose whole walk bisection is affordable.
    strict_decoder = strict_decoder and bits <= 4
    adc = _mistrimmed_adc(bits, trim_lsb, strict_decoder, seed)
    full_scale = adc.spec.full_scale_voltage
    rng = np.random.default_rng(seed)
    voltages = list(rng.uniform(0.0, full_scale, 24))
    try:
        ladder = adc.code_boundaries()
    except ConversionError:
        ladder = None
    if ladder is None:
        with pytest.raises(ConversionError):
            for code in range(1, adc.levels):
                walk_boundary(adc, code)
    else:
        assert not ladder.flags.writeable
        codes = range(1, adc.levels)
        if bits > 4:
            codes = data.draw(st.lists(st.sampled_from(codes), min_size=1, max_size=3))
        for code in codes:
            assert ladder[code - 1] == walk_boundary(adc, code)
        voltages += [float(v) for v in ladder] + [float(np.nextafter(v, -1.0)) for v in ladder]
    for strict in (False, True):
        expected = [_outcome(walk_convert, adc, v, strict) for v in voltages]
        assert [_outcome(adc.convert, v, strict) for v in voltages] == expected
        valid = [v for v, code in zip(voltages, expected) if code is not ConversionError]
        assert adc.convert(np.array(valid), strict).tolist() == [
            code for code in expected if code is not ConversionError
        ]
        if len(valid) < len(voltages):
            with pytest.raises(ConversionError):
                adc.convert(np.array(voltages), strict)


def _ladder_or_refusal(adc):
    try:
        return adc.code_boundaries()
    except ConversionError:
        return ConversionError


@given(
    bits=st.integers(min_value=2, max_value=6),
    trim_lsb=st.sampled_from((0.0, 0.05, 0.3, 1.0, 3.0)),
    strict_decoder=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    ring=st.integers(min_value=0, max_value=63),
)
@example(bits=3, trim_lsb=1.0, strict_decoder=True, seed=1, ring=0)  # a strict refusal
@settings(max_examples=25, deadline=None)
def test_ladder_memo_equals_a_fresh_bisection(bits, trim_lsb, strict_decoder, seed, ring):
    """A converter whose bank matches one already bisected in the
    process takes the memoised ladder, equal to a fresh bisection with
    the memo emptied, whatever earlier tests left in it; a re-trim and
    ``invalidate_boundaries`` miss the memo and bisect the new trims;
    a bisection the strict decoder refuses memoises nothing."""
    # The part with the other decoder strictness bisects first: a
    # lenient decoder emits codes where a strict one refuses.
    _ladder_or_refusal(_mistrimmed_adc(bits, trim_lsb, not strict_decoder, seed))
    first = _ladder_or_refusal(_mistrimmed_adc(bits, trim_lsb, strict_decoder, seed))
    adc = _mistrimmed_adc(bits, trim_lsb, strict_decoder, seed)
    if first is ConversionError:
        hit = _ladder_or_refusal(adc)
    else:
        with mock.patch.object(EoAdc, "_bisect_ladder", side_effect=AssertionError("bisected")):
            hit = adc.code_boundaries()
        assert hit is first
    with mock.patch.object(eoadc, "_LADDERS", {}):
        fresh = _ladder_or_refusal(_mistrimmed_adc(bits, trim_lsb, strict_decoder, seed))
        if fresh is ConversionError:
            assert hit is ConversionError and not eoadc._LADDERS
        else:
            assert np.array_equal(hit, fresh) and not hit.flags.writeable
            assert len(eoadc._LADDERS) == 1

    adc.trim_errors = adc.trim_errors.copy()
    adc.trim_errors[ring % adc.levels] += 1e-12
    adc.invalidate_boundaries()
    retrimmed = _ladder_or_refusal(adc)
    with mock.patch.object(eoadc, "_LADDERS", {}):
        rebuilt = EoAdc(
            TECH, bits=bits, trim_errors=adc.trim_errors, strict_decoder=strict_decoder
        )
        expected = _ladder_or_refusal(rebuilt)
    if expected is ConversionError:
        assert retrimmed is ConversionError
    else:
        assert np.array_equal(retrimmed, expected) and retrimmed is not hit


def test_mistrimmed_bank_covers_dead_zones_and_unreachable_codes():
    """The mistrimmed parts above include the cases that matter: a code
    the part never reaches (parked at full scale) and dead zones a
    strict conversion refuses."""
    trims = np.random.default_rng(15).normal(0.0, 12e-12, 8)
    adc = EoAdc(TECH, trim_errors=trims, strict_decoder=False)
    assert adc.code_boundaries()[-1] == adc.spec.full_scale_voltage
    sweep = np.linspace(0.0, 3.999, 400)
    refused = [_outcome(adc.convert, float(v), True) is ConversionError for v in sweep]
    assert any(refused) and not all(refused)
    assert adc.convert(sweep).tolist() == [walk_convert(adc, float(v)) for v in sweep]


@given(
    rows=st.integers(min_value=1, max_value=5),
    columns=st.integers(min_value=1, max_value=17),
    bits=st.integers(min_value=1, max_value=4),
    plan=st.sampled_from(range(len(CHANNEL_PLANS))),
    heated_row=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    drift=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_whole_core_load_equals_row_by_row(rows, columns, bits, plan, heated_row, drift, seed):
    """A whole-core load and its one-pass responses equal every row's
    own element_responses (and the per-ring walk), with the rows'
    ring table shared or one row's re-evaluated, and the compiled
    codes equal the device loop's, drift included."""
    rng = np.random.default_rng(seed)
    core = PhotonicTensorCore(
        rows=rows, columns=columns, weight_bits=bits, technology=CHANNEL_PLANS[plan]
    )
    core.load_weight_matrix(rng.integers(0, 2**bits, (rows, columns)))
    if heated_row is not None and heated_row < rows:
        row = core.row_cores[heated_row]
        row.multipliers[int(rng.integers(columns))][int(rng.integers(bits))].ring.heater_shift = 30e-12
        row.invalidate_ring_table()
    if drift:
        state = DriftState((LaserPowerDecay(rate_per_s=1e-2), TiaGainDrift(drift_per_s=-8e-4)))
        core.drift_state = state
        state.advance(20.0)
    core.load_weight_matrix(rng.integers(0, 2**bits, (rows, columns)))

    responses = row_responses(core.row_cores)
    assert np.array_equal(responses, np.stack([row.element_responses() for row in core.row_cores]))
    for row, response in zip(core.row_cores, responses):
        assert np.array_equal(response, reference_responses(row, per_ring_reference(row)))
    engine = core.compile()
    assert np.array_equal(engine.response, responses)
    gain = float(rng.choice([1.0, 2.5]))
    for x in rng.uniform(0.0, 1.0, (6, columns)):
        assert np.array_equal(engine.matvec(x, gain=gain).codes, core.matvec(x, gain=gain).codes)


# -- the flush executor: every route, one clock -------------------------------

EXEC_GRID = (4, 6)
_EXEC_RNG = np.random.default_rng(13)
#: Two programs per route, so random requests coalesce into groups.
EXEC_PROGRAMS = {
    "native": [_EXEC_RNG.integers(0, 8, (4, 6)) for _ in range(2)],
    "sub-tile": [_EXEC_RNG.integers(0, 8, (3, 4)) for _ in range(2)],
    "tiled": [_EXEC_RNG.integers(0, 8, (7, 9)) for _ in range(2)],
    "conv": [_EXEC_RNG.normal(0.0, 1.0, (2, 2, 2)) for _ in range(3)],
}
#: A bank and twice that bank quantize to the same integers with twice
#: the weight scale, so they share a group that mixes weight scales.
EXEC_PROGRAMS["conv"].append(2.0 * EXEC_PROGRAMS["conv"][2])
#: The class whose matmul evaluates each group kind's batches, and the
#: kinds a failure there breaks (in-grid batches run on a one-tile
#: grid's CompiledCore, a grid evaluates its tile stack itself, and a
#: differential pair evaluates its two-grid stack itself).
EXEC_KERNELS = {
    "native": (CompiledCore, {"native"}),
    "tiled": (TiledMatmul, {"tiled"}),
    "conv": (DifferentialProgram, {"conv"}),
}
#: Dtype and memory-layout variants a caller may submit one dense
#: matrix in; every variant keys, and batches with, the same program.
EXEC_LAYOUTS = {
    "int64": lambda weights: weights.astype(np.int64),
    "int32": lambda weights: weights.astype(np.int32),
    "uint8": lambda weights: weights.astype(np.uint8),
    "float64": lambda weights: weights.astype(np.float64),
    "fortran": np.asfortranarray,
}


def _exec_case(route, program, gain, frac, seed, layout, geometry):
    """(route, program, gain, deadline fraction, input, weight layout,
    conv stride) of one request; ``program`` wraps round the route's
    programs, and a conv image takes the drawn (height, width, stride)
    ``geometry``."""
    rng = np.random.default_rng(seed)
    program %= len(EXEC_PROGRAMS[route])
    if route == "conv":
        height, width, stride = geometry
        x = rng.uniform(0.0, 1.0, (height, width))
        return route, program, None if gain == "auto" else gain, frac, x, layout, stride
    columns = EXEC_PROGRAMS[route][program].shape[1]
    return route, program, gain, frac, rng.uniform(0.0, 1.0, columns), layout, None


def _exec_submit(session, case, deadline, canonical=False):
    """Submit ``case``, its dense weights in the case's layout unless
    ``canonical``."""
    route, program, gain, _, x, layout, stride = case
    weights = EXEC_PROGRAMS[route][program]
    if route == "conv":
        return session.submit_conv(weights, x, stride=stride, gain=gain, deadline=deadline)
    if not canonical:
        weights = EXEC_LAYOUTS[layout](weights)
    return session.submit(weights, x, gain=gain, deadline=deadline)


def _exec_session(**kwargs):
    return PhotonicSession(grid=EXEC_GRID, max_batch=4, clock=ModelClock(), **kwargs)


def _device_codes(core, case):
    """Codes of :meth:`PhotonicTensorCore.matvec` on the padded problem."""
    route, program, gain, _, x, *_ = case
    return _padded_device_codes(core, EXEC_PROGRAMS[route][program], x, gain)


def _padded_device_codes(core, weights, x, gain):
    """Codes of :meth:`PhotonicTensorCore.matvec` on in-grid ``weights``
    and ``x`` padded to :data:`EXEC_GRID`, at the session's ``gain``."""
    weights = np.asarray(weights, dtype=int)
    padded_w = np.zeros(EXEC_GRID, dtype=int)
    padded_w[: weights.shape[0], : weights.shape[1]] = weights
    padded_x = np.zeros(EXEC_GRID[1])
    padded_x[: len(x)] = x
    if gain is None:
        gain = 1.0
    elif gain == "auto":
        gain = auto_range_gain(padded_w, EXEC_GRID[1] * core.max_weight)
    core.load_weight_matrix(padded_w)
    return core.matvec(padded_x, gain=gain).codes[: weights.shape[0]]


@given(
    requests=st.lists(
        st.tuples(
            st.sampled_from(("native", "sub-tile", "tiled", "conv")),
            st.integers(min_value=0, max_value=3),
            st.sampled_from((None, 1.0, 2.0, "auto")),
            # Deadline as a fraction of the flush's unshed service time.
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.25)),
            st.integers(min_value=0, max_value=2**16),
            st.sampled_from(tuple(EXEC_LAYOUTS)),
            # A conv image's (height, width, stride): one group mixes
            # geometries, so the flush unrolls several runs, and a 3x4
            # and a 4x3 image (equal patch counts, transposed outputs)
            # often share a group.
            st.one_of(
                st.tuples(
                    st.integers(min_value=2, max_value=6),
                    st.integers(min_value=2, max_value=6),
                    st.integers(min_value=1, max_value=3),
                ),
                st.sampled_from(((3, 4, 1), (4, 3, 1))),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    data=st.data(),
)
@settings(max_examples=10, deadline=None)
def test_flush_executor_matches_requests_served_alone(requests, data):
    cases = [_exec_case(*request) for request in requests]
    dry = _exec_session()
    for case in cases:
        _exec_submit(dry, case, None)
    dry.flush()
    span = dry.report().total_latency
    # Every dtype and layout variant joins its program's group: the same
    # batches and ledger as the matrices submitted as canonical int64.
    canonical = _exec_session()
    for case in cases:
        _exec_submit(canonical, case, None, canonical=True)
    canonical.flush()
    assert canonical.report() == dry.report()
    deadlines = [None if case[3] is None else case[3] * span for case in cases]

    plain, observed = _exec_session(), _exec_session(metrics=MetricsRegistry(), obs=Observer())
    runs = []
    for session in (plain, observed):
        futures = [_exec_submit(session, case, d) for case, d in zip(cases, deadlines)]
        runs.append((futures, session.flush(), session.report()))
    (futures, resolved, report), (attached, attached_resolved, attached_report) = runs

    # Exactly one terminal state each; every request is served or shed.
    for future in futures:
        assert future.done and not future.abandoned
        if future.expired:
            with pytest.raises(DeadlineExceededError):
                future.value
    assert resolved == sum(not future.expired for future in futures)
    assert len(cases) == resolved + report.deadline_misses

    # Each value (and in-grid codes) equals the request served alone;
    # in-grid codes equal the device loop on the padded problem.
    core = PhotonicTensorCore(rows=EXEC_GRID[0], columns=EXEC_GRID[1])
    alone = [_exec_submit(_exec_session(), case, None) for case in cases]
    for case, future, reference in zip(cases, futures, alone):
        reference.result()
        if future.expired:
            continue
        assert np.array_equal(future.value, reference.value)
        if case[0] in ("native", "sub-tile"):
            assert np.array_equal(future.codes, reference.codes)
            assert np.array_equal(future.codes, _device_codes(core, case))
        else:
            assert future.codes is None

    # Metrics and an observer attached: same values, codes, sheds and
    # ledger; only the quantiles differ.  A second flush of the same
    # cases starts where the first left each service clock, so a
    # timeline that forks after the first flush shows there.
    second = [[_exec_submit(session, case, d) for case, d in zip(cases, deadlines)]
              for session in (plain, observed)]
    rounds = [
        (futures, attached, resolved, attached_resolved, report, attached_report),
        (*second, plain.flush(), observed.flush(), plain.report(), observed.report()),
    ]
    for mine, twins, count, twin_count, totals, twin_totals in rounds:
        assert twin_count == count
        for future, twin in zip(mine, twins):
            assert twin.expired == future.expired
            if not future.expired:
                assert np.array_equal(twin.value, future.value)
                assert (twin.codes is None) == (future.codes is None)
                if future.codes is not None:
                    assert np.array_equal(twin.codes, future.codes)
        for field in RunReport.__dataclass_fields__:
            if field not in ("latency_quantiles", "tenant_quantiles"):
                assert getattr(twin_totals, field) == getattr(totals, field), field

    # A matmul failure in any one route never wedges the session.  The
    # broken run follows the plain run's timeline until the failure, so
    # it raises exactly when the plain run served a kind it breaks.
    def kind(case):
        return "native" if case[0] == "sub-tile" else case[0]

    failing = data.draw(st.sampled_from(sorted({kind(case) for case in cases})))
    kernel, broken_kinds = EXEC_KERNELS[failing]
    raises = any(
        kind(case) in broken_kinds and not future.expired
        for case, future in zip(cases, futures)
    )
    broken = _exec_session()
    pending = [_exec_submit(broken, case, d) for case, d in zip(cases, deadlines)]
    with mock.patch.object(kernel, "matmul", side_effect=RuntimeError("injected")):
        if raises:
            with pytest.raises(RuntimeError, match="injected"):
                broken.flush()
        else:
            broken.flush()
    assert broken.pending == 0
    assert all(future.done != future.abandoned for future in pending)
    retry = [_exec_submit(broken, case, None) for case in cases]
    assert broken.flush() == len(cases)
    for future, reference in zip(retry, alone):
        assert np.array_equal(future.value, reference.value)


#: Caller-held dense shapes of the long-lived session property, per route.
LIVE_SHAPES = {"native": (4, 6), "sub-tile": (3, 4), "tiled": (7, 9)}


def _live_program(route, rng):
    if route == "conv":
        return rng.normal(0.0, 1.0, (2, 2, 2))
    return rng.integers(0, 8, LIVE_SHAPES[route])


_LIVE_REQUEST = st.tuples(
    st.sampled_from(("native", "sub-tile", "tiled", "conv")),
    st.integers(min_value=0, max_value=1),
    st.sampled_from(tuple(EXEC_LAYOUTS)),
    st.sampled_from((None, 2.0, "auto")),
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    # Each window: the caller arrays edited in place before it, then
    # its requests.
    windows=st.lists(
        st.tuples(
            st.lists(_LIVE_REQUEST, max_size=2),
            st.lists(_LIVE_REQUEST, min_size=1, max_size=5),
        ),
        min_size=2,
        max_size=4,
    ),
)
@settings(max_examples=15, deadline=None)
def test_long_lived_session_matches_requests_served_alone(seed, windows):
    """One session serves many windows on its program memo: more
    distinct programs than the memo holds (every dense route in every
    layout variant, plus conv banks; the first window submits each
    once), while the caller edits its arrays in place between windows.
    Every value and code equals the request served alone by a fresh
    session, and in-grid codes equal the device loop."""
    rng = np.random.default_rng(seed)
    held = {}
    for route in ("native", "sub-tile", "tiled", "conv"):
        for program in range(2):
            weights = _live_program(route, rng)
            for layout in (None,) if route == "conv" else EXEC_LAYOUTS:
                held[route, program, layout] = (
                    weights.copy() if layout is None else EXEC_LAYOUTS[layout](weights)
                )

    def caller(route, program, layout):
        return held[route, program, None if route == "conv" else layout]

    session = PhotonicSession(grid=EXEC_GRID, cache_capacity=2, max_batch=4)
    scheduler = session.scheduler
    bound = scheduler.cache.capacity + scheduler.tiled_cache.capacity
    sweep = [(route, program, layout or "int64", None) for route, program, layout in held]
    served = []
    for edits, requests in [([], sweep), *windows]:
        for route, program, layout, _ in edits:
            caller(route, program, layout)[...] = _live_program(route, rng)
        for route, program, layout, gain in requests:
            weights = caller(route, program, layout)
            if route == "conv":
                gain = None if gain == "auto" else gain
                x = rng.uniform(0.0, 1.0, (3, 4))
                future = session.submit_conv(weights, x, gain=gain)
            else:
                x = rng.uniform(0.0, 1.0, weights.shape[1])
                future = session.submit(weights, x, gain=gain)
            served.append((route, weights.copy(order="K"), x, gain, future))
        session.flush()
        assert len(scheduler._checked) <= bound
        assert not any(source.flags.writeable for _, source, _ in scheduler._checked.values())
    assert all(weights.flags.writeable for weights in held.values())
    contents = {(w.shape, w.dtype, w.tobytes()) for _, w, *_ in served}
    assert len(contents) > bound

    core = PhotonicTensorCore(rows=EXEC_GRID[0], columns=EXEC_GRID[1])
    for route, weights, x, gain, future in served:
        alone = _exec_session()
        if route == "conv":
            reference = alone.submit_conv(weights, x, gain=gain)
        else:
            reference = alone.submit(weights, x, gain=gain)
        reference.result()
        assert np.array_equal(future.value, reference.value)
        if route in ("native", "sub-tile"):
            assert np.array_equal(future.codes, reference.codes)
            assert np.array_equal(future.codes, _padded_device_codes(core, weights, x, gain))
        else:
            assert future.codes is None


#: Inputs at and just past the edges of [0, 1]: signed zeros, the unit,
#: the doubles either side of the interval, subnormals and non-finites.
EDGE_INPUTS = (
    0.0,
    -0.0,
    1.0,
    float(np.nextafter(1.0, 2.0)),
    float(np.nextafter(0.0, -1.0)),
    5e-324,
    1e-310,
    -1e-310,
    math.nan,
    math.inf,
    -math.inf,
)


@given(
    rows=st.integers(min_value=1, max_value=EXEC_GRID[0] + 2),
    width=st.integers(min_value=1, max_value=EXEC_GRID[1] + 2),
    seed=st.integers(min_value=0, max_value=2**16),
    edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.sampled_from(EDGE_INPUTS)),
        max_size=4,
    ),
)
@example(rows=4, width=6, seed=0, edges=[(3, math.nan)])    # a NaN min/max skip
@example(rows=4, width=6, seed=0, edges=[(0, math.nan)])
@example(rows=2, width=3, seed=0, edges=[(1, -0.0), (2, 1.0)])
@example(rows=4, width=6, seed=0, edges=[(5, -1e-310)])      # the tile's last column
@settings(max_examples=120, deadline=None)
def test_range_check_rejects_exactly_what_the_reductions_reject(rows, width, seed, edges):
    """An input is rejected exactly when ``not (0.0 <= min and max <=
    1.0)`` over it: a NaN anywhere, or an entry outside [0, 1] (``-0.0``
    passes).  The message names the range of the caller's own entries,
    never the tile padding.  The in-grid route checks its padded Python
    floats by min/max/sum, the tiled route its array by the reductions.
    An accepted in-grid request serves the device loop's values and
    codes."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 8, (rows, width))
    x = rng.uniform(0.0, 1.0, width)
    for position, value in edges:
        x[position % width] = value
    in_grid = rows <= EXEC_GRID[0] and width <= EXEC_GRID[1]
    queued = np.zeros(EXEC_GRID[1]) if in_grid else np.zeros(width)
    queued[:width] = x
    session = _exec_session()
    if not (0.0 <= np.minimum.reduce(x) and np.maximum.reduce(x) <= 1.0):
        with pytest.raises(ConfigurationError) as raised:
            session.submit(weights, x)
        assert str(raised.value) == (
            "analog inputs must lie in [0, 1], got range "
            f"[{x.min():.6g}, {x.max():.6g}]"
        )
        assert session.pending == 0
        return
    future = session.submit(weights, x)
    value = future.result()
    if not in_grid:
        assert value.shape == (rows,) and future.codes is None
        return
    core = PhotonicTensorCore(rows=EXEC_GRID[0], columns=EXEC_GRID[1])
    padded = np.zeros(EXEC_GRID, dtype=int)
    padded[:rows, :width] = weights
    core.load_weight_matrix(padded)
    reference = core.matvec(queued)
    assert np.array_equal(value, reference.estimates[:rows])
    assert np.array_equal(future.codes, reference.codes[:rows])


#: Image intensities at and past the edges of "finite and non-negative".
EDGE_PIXELS = (
    0.0, -0.0, 5e-324, -5e-324, -1e-310, 1.0, 1e308, -1.0, math.nan, math.inf, -math.inf,
)


@given(
    shape=st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=95), st.sampled_from(EDGE_PIXELS)),
        max_size=3,
    ),
)
@example(shape=(2, 1, 3, 3), seed=0, edges=[(17, math.nan)])     # the last pixel
@example(shape=(2, 1, 3, 3), seed=0, edges=[(0, math.nan)])
@example(shape=(1, 2, 2, 2), seed=0, edges=[(3, -0.0), (5, math.inf)])
@example(shape=(1, 1, 2, 2), seed=0, edges=[(1, -0.0)])
@example(shape=(0, 1, 4, 4), seed=0, edges=[])
@example(shape=(1, 1, 0, 3), seed=0, edges=[(1, math.nan)])
@settings(max_examples=120, deadline=None)
def test_image_check_rejects_exactly_what_the_elementwise_test_rejects(shape, seed, edges):
    """``_checked_images`` rejects a (batch, channels, H, W) stack
    exactly when ``(isfinite & (>= 0)).all()`` is false over it: a NaN
    anywhere, an infinity or a negative entry (``-0.0`` passes), all
    with one message.  An empty stack passes the check, and a conv of
    it still fails typed, as before the check took two reductions."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, shape)
    flat = images.reshape(-1)
    for position, value in edges:
        if flat.size:
            flat[position % flat.size] = value
    channels = shape[1]
    if (np.isfinite(images) & (images >= 0.0)).all():
        assert _checked_images(images, channels, True) is images
    else:
        with pytest.raises(ConfigurationError) as raised:
            _checked_images(images, channels, True)
        assert str(raised.value) == "image intensities must be finite and non-negative"
    assert _checked_images(images, channels, False) is images
    if images.size == 0:
        core = PhotonicTensorCore(rows=EXEC_GRID[0], columns=EXEC_GRID[1])
        conv = PhotonicConv2d(np.ones((2, channels, 2, 2)), core, runtime=True)
        with pytest.raises(ConfigurationError):
            conv.forward_batch(images)
        if shape[0]:
            session = _exec_session()
            with pytest.raises(ConfigurationError):
                session.submit_conv(np.ones((2, channels, 2, 2)), images[0])
            assert session.pending == 0


def test_programs_padding_to_one_matrix_share_one_batch():
    """4x6, 4x7 (a zero last column) and 5x6 (a zero last row) programs
    pad to one tile matrix, so their requests join one group and run
    as one batch; each future keeps its own rows and codes, equal to
    that request served alone."""
    rng = np.random.default_rng(11)
    base = rng.integers(1, 8, (4, 6))
    programs = [
        base,
        np.hstack([base, np.zeros((4, 1), dtype=base.dtype)]),
        np.vstack([base, np.zeros((1, 6), dtype=base.dtype)]),
    ]
    cases = [
        (weights, rng.uniform(0.0, 1.0, weights.shape[1]))
        for _ in range(3)
        for weights in programs
    ]
    session = PhotonicSession(grid=(8, 8))
    futures = [session.submit(weights, x) for weights, x in cases]
    assert len(session.scheduler._pending["native"]) == 1
    session.flush()
    assert session.report().batches == 1
    for (weights, x), future in zip(cases, futures):
        alone = PhotonicSession(grid=(8, 8)).submit(weights, x)
        alone.result()
        assert future.value.shape == future.codes.shape == (len(weights),)
        assert np.array_equal(future.value, alone.value)
        assert np.array_equal(future.codes, alone.codes)


# -- the program store: a round trip is exact ---------------------------------


def _assert_same_state(restored, original):
    """Equal state_dict trees: arrays by dtype, shape and ``==``, meta by
    ``==``."""
    if isinstance(original, dict):
        assert restored.keys() == original.keys()
        for key in original:
            _assert_same_state(restored[key], original[key])
    elif isinstance(original, np.ndarray):
        assert restored.dtype == original.dtype and restored.shape == original.shape
        assert (restored == original).all()
    else:
        assert restored == original


@given(
    shape=st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)),
    tile=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
    gain=st.sampled_from(("auto", 1.0, 2.5)),
    drift=st.booleans(),
    differential=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_store_round_trip_is_exact(shape, tile, gain, drift, differential, seed):
    """A program restored from a ProgramStore equals the compiled one
    exactly: every state_dict array, the meta and the matmul outputs,
    with and without drift compensation, for grids and differential
    pairs."""
    rng = np.random.default_rng(seed)
    core = PhotonicTensorCore(rows=tile[0], columns=tile[1])
    state = None
    if drift:
        state = DriftState((LaserPowerDecay(rate_per_s=1e-2), TiaGainDrift(drift_per_s=-8e-4)))
        core.drift_state = state
        state.advance(30.0)
        state.recalibrate()
        state.advance(5.0)
    if differential:
        negative = rng.integers(0, 8, shape) * rng.integers(0, 2)
        program = DifferentialProgram(
            *compile_differential_engines(rng.integers(0, 8, shape), negative, core)
        )
        evaluate = {"gain": 1.0 if gain == "auto" else gain}
    else:
        program = TiledMatmul(rng.integers(0, 8, shape), core, gain=gain)
        evaluate = {}
    with tempfile.TemporaryDirectory() as root:
        store = ProgramStore(root)
        store.save(b"program", program, fingerprint="core")
        restored = store.load(
            b"program",
            fingerprint="core",
            epoch=program.calibration_epoch,
            technology=core.technology,
            drift_state=state,
        )
    assert type(restored) is type(program)
    _assert_same_state(restored.state_dict(), program.state_dict())
    batch = rng.uniform(0.0, 1.0, (shape[1], 3))
    estimates = restored.matmul(batch, **evaluate)
    assert np.array_equal(estimates, program.matmul(batch, **evaluate))
    assert np.array_equal(estimates, reference_matmul(restored, batch, **evaluate))


@given(
    shape=st.tuples(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20)),
    tile=st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)),
    weight_bits=st.integers(min_value=1, max_value=4),
    adc_bits=st.integers(min_value=2, max_value=6),
    trim_lsb=st.sampled_from((None, 0.0, 0.05, 1.0)),
    gain=st.sampled_from(("auto", 1.0, 2.5)),
    override=st.sampled_from((None, 0.7, 3.0)),
    drift=st.sampled_from((None, "aged", "recalibrated", "stale")),
    differential=st.booleans(),
    restored=st.booleans(),
    samples=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_stacked_grid_equals_per_tile_loop(
    shape, tile, weight_bits, adc_bits, trim_lsb, gain, override, drift, differential,
    restored, samples, seed,
):
    """A grid evaluated as one stack — one matmul, one read-out, one
    binning pass and one table lookup for every tile — equals the
    per-tile loop bit for bit: every precision, row ADCs mistrimmed
    apart (distinct ladders, binned per row) or sharing one ladder,
    calibrated, explicit and overridden gains, drift aged, recalibrated
    before the compile or after it (stale trims), differential pairs
    (their two-grid stack equal to each half run alone, then
    subtracted) and programs restored from a store.  A one-tile grid's
    codes equal the per-tile loop's, and the device loop's while its
    trims are current and its staircases monotone (a part mistrimmed by
    a whole LSB converts non-monotonically, which no ladder
    reproduces)."""
    rng = np.random.default_rng(seed)
    core = PhotonicTensorCore(
        rows=tile[0], columns=tile[1], weight_bits=weight_bits, adc_bits=adc_bits
    )
    if trim_lsb is not None:
        core.row_adcs = [
            _mistrimmed_adc(adc_bits, trim_lsb, False, seed + row) for row in range(tile[0])
        ]
        core.invalidate_ladders()
    state = None
    if drift is not None:
        state = DriftState((LaserPowerDecay(rate_per_s=1e-2), TiaGainDrift(drift_per_s=-8e-4)))
        core.drift_state = state
        state.advance(30.0)
        if drift == "recalibrated":
            state.recalibrate()
    top = 2**weight_bits
    if differential:
        halves = compile_differential_engines(
            rng.integers(0, top, shape), rng.integers(0, top, shape) * rng.integers(0, 2), core
        )
        compiled = [
            (half.tile_responses.copy(), half.tile_boundaries.copy())
            for half in halves
            if half is not None
        ]
        program = DifferentialProgram(*halves)
        # Pairing restacks the halves' arrays; each half keeps its own.
        for half, (responses, boundaries) in zip(halves, compiled):
            assert np.array_equal(half.tile_responses, responses)
            assert np.array_equal(half.tile_boundaries, boundaries)
    else:
        program = TiledMatmul(rng.integers(0, top, shape), core, gain=gain)
    if restored:
        with tempfile.TemporaryDirectory() as root:
            store = ProgramStore(root)
            store.save(b"program", program, fingerprint="core")
            program = store.load(
                b"program",
                fingerprint="core",
                epoch=program.calibration_epoch,
                technology=core.technology,
                drift_state=state,
            )
    if state is not None:
        if drift == "stale":
            state.recalibrate()
        state.advance(5.0)
    batch = rng.uniform(0.0, 1.0, (shape[1], samples))
    # A grid runs at its calibrated gains and at the override; a
    # differential pair always takes a per-call gain.
    calls = [1.0 if override is None else override] if differential else [None, override]
    for call_gain in calls:
        estimates = program.matmul(batch, gain=call_gain)
        assert np.array_equal(estimates, reference_matmul(program, batch, call_gain))
        if differential and program.negative is not None:
            halves = program.positive.matmul(batch, gain=call_gain) - program.negative.matmul(
                batch, gain=call_gain
            )
            assert np.array_equal(estimates, halves)

    if not differential and program.tile_count == 1:
        padded = np.zeros((tile[1], samples))
        padded[: shape[1]] = batch
        tile_gain = program.gains[0, 0] if override is None else override
        codes = program.tiles[0][0].matmul(padded, gain=tile_gain).codes
        assert np.array_equal(codes, reference_grid_matmul(program, batch, override)[1][0, 0])
        if drift != "stale" and (trim_lsb is None or trim_lsb < 0.3):
            device = [core.matvec(column, gain=tile_gain).codes for column in padded.T]
            assert np.array_equal(codes, np.stack(device, axis=1))


# -- batched im2col: a stack unrolls like its images one by one ---------------


@given(
    images=st.integers(min_value=1, max_value=5),
    channels=st.integers(min_value=1, max_value=3),
    height=st.integers(min_value=1, max_value=10),
    width=st.integers(min_value=1, max_value=10),
    stride=st.integers(min_value=1, max_value=3),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_batched_unroll_equals_per_image_unrolls(
    images, channels, height, width, stride, data, seed
):
    """``im2col_channels`` on a (batch, channels, H, W) stack equals the
    per-image unrolls side by side, each image's windows in row-major
    order and channel-major within a window; and ``forward_batch`` of a
    runtime conv layer (one validation, one unroll, one differential
    pass) equals ``forward`` image by image."""
    kernel_size = data.draw(st.integers(min_value=1, max_value=min(height, width)))
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.0, 1.0, (images, channels, height, width))
    batched = im2col_channels(stack, kernel_size, stride)
    per_image = [im2col_channels(volume, kernel_size, stride) for volume in stack]
    assert np.array_equal(batched, np.concatenate(per_image, axis=1))
    rows, cols = output_shape((height, width), kernel_size, stride)
    windows = [
        volume[:, r * stride : r * stride + kernel_size, c * stride : c * stride + kernel_size]
        for volume in stack
        for r in range(rows)
        for c in range(cols)
    ]
    assert np.array_equal(batched, np.stack([window.ravel() for window in windows], axis=1))

    core = PhotonicTensorCore(rows=4, columns=6)
    kernels = rng.normal(0.0, 1.0, (3, channels, kernel_size, kernel_size))
    conv = PhotonicConv2d(kernels, core, stride=stride, runtime=True)
    maps = conv.forward_batch(stack if channels > 1 else stack[:, 0])
    assert maps.shape == (images, 3, rows, cols)
    for volume, expected in zip(stack, maps):
        assert np.array_equal(conv.forward(volume), expected)


EDGES = Histogram("edges")._edges.tolist()


@given(
    value=st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, math.nan, 5e-324, 1e-310]),
        st.sampled_from(EDGES),
        st.floats(),
        st.integers(min_value=0, max_value=2**20),
    ),
    prior=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=3),
)
@settings(max_examples=300)
def test_histogram_observe_equals_observe_many(value, prior):
    """The scalar ``observe`` leaves the state ``observe_many((v,))``
    does — bins, count, total, min and max, signed zeros and NaN
    included — and raises the same error for a negative value."""
    scalar, batch = Histogram("h"), Histogram("h")
    outcomes = []
    for hist, absorb in ((scalar, scalar.observe), (batch, lambda v: batch.observe_many((v,)))):
        hist.observe_many(prior)
        try:
            absorb(value)
            outcomes.append(None)
        except ConfigurationError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]
    assert np.array_equal(scalar._counts, batch._counts)
    assert scalar.count == batch.count
    assert [repr(scalar.total), repr(scalar.min), repr(scalar.max)] == [
        repr(batch.total), repr(batch.min), repr(batch.max)
    ]


class _PerRequestWindow:
    """The reference latency window: one ``record`` per resolved request
    (negative-clamped, with its tenant's queue wait and service time
    appended), then ``drain``, which feeds every histogram one
    ``observe_many`` and returns the eager exact summary."""

    def __init__(self, metrics):
        self.metrics = metrics
        self.waits, self.e2es, self.tenants = [], [], {}

    def record(self, queue_wait_s, end_to_end_s, label=None):
        wait = max(queue_wait_s, 0.0)
        e2e = max(end_to_end_s, 0.0)
        self.waits.append(wait)
        self.e2es.append(e2e)
        if label is not None:
            bucket = self.tenants.setdefault(label, ([], []))
            bucket[0].append(wait)
            bucket[1].append(max(e2e - wait, 0.0))

    def drain(self):
        if not self.e2es:
            return None
        waits, e2es, tenants = self.waits, self.e2es, self.tenants
        self.waits, self.e2es, self.tenants = [], [], {}
        self.metrics.histogram("queue_wait_s").observe_many(waits)
        self.metrics.histogram("end_to_end_s").observe_many(e2es)
        for label, (tenant_waits, services) in tenants.items():
            self.metrics.histogram(f"queue_wait_s/{label}").observe_many(tenant_waits)
            self.metrics.histogram(f"service_s/{label}").observe_many(services)
        return {
            "queue_wait": quantiles_from_samples(waits),
            "end_to_end": quantiles_from_samples(e2es),
        }


def _bits(value):
    """``value`` with every float as its hex string, so -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Mapping):
        return {key: _bits(item) for key, item in value.items()}
    return value


def _histogram_state(hist):
    return (hist.name, hist.layout, hist._counts.tolist(), hist.count,
            hist.total.hex(), hist.min.hex(), hist.max.hex())


#: Latencies [s]: negatives and signed zeros, the underflow (< 1 ns) and
#: overflow (>= 1000 s) buckets, exact bin edges and the modelled range.
LATENCIES = st.one_of(
    st.sampled_from([-0.0, 0.0, -1e-9]),
    st.floats(min_value=-1e3, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e-9),
    st.sampled_from(EDGES),
    st.floats(min_value=1e-9, max_value=1e-6),
)
#: Tenant label pools a window draws from: unlabelled, one tenant, and
#: repeated labels mixed with None.
LABEL_POOLS = st.sampled_from(
    [(None,), ("solo",), ("a", "b", "c"), (None, "a", "a", "b")]
)


@given(
    windows=st.lists(
        st.tuples(LABEL_POOLS, st.integers(min_value=0, max_value=200)),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_columnar_window_record_equals_per_request_path(windows, data):
    """``Telemetry.drain_window`` over a window's columns leaves every
    histogram (counts, count, total, min, max) in the state the
    per-request path leaves, window after window, and its lazy summary
    equals the eager one bit for bit (None for an empty window)."""
    reference = _PerRequestWindow(MetricsRegistry())
    binding = Telemetry(metrics=MetricsRegistry())
    for pool, size in windows:
        rows = data.draw(
            st.lists(
                st.tuples(LATENCIES, LATENCIES, st.sampled_from(pool)),
                min_size=size,
                max_size=size,
            )
        )
        for wait, e2e, label in rows:
            reference.record(wait, e2e, label)
        expected = reference.drain()
        window = binding.drain_window(
            [wait for wait, _, _ in rows],
            [e2e for _, e2e, _ in rows],
            [label for _, _, label in rows],
        )
        if expected is None:
            assert window is None
            continue
        assert window == expected
        assert _bits(window) == _bits(expected)
    assert binding.metrics.names == reference.metrics.names
    assert [_histogram_state(hist) for hist in binding.metrics.histograms] == [
        _histogram_state(hist) for hist in reference.metrics.histograms
    ]


def _rebuilt_merge(histograms, name=None):
    """The reference rollup: a fresh histogram of the first member's
    layout that merges every member."""
    histograms = [hist for hist in histograms if hist is not None]
    if not histograms:
        return None
    first = histograms[0]
    out = Histogram(
        name if name is not None else first.name,
        lo=first.lo, hi=first.hi, per_decade=first.per_decade,
    )
    for hist in histograms:
        out.merge(hist)
    return out


def _four_pass_summary(hist):
    """The reference summary: one :meth:`Histogram.quantile` per point."""
    if hist.count == 0:
        return None
    summary = {"count": hist.count, "mean": hist.mean, "max": hist.max}
    summary.update(
        (key, hist.quantile(point))
        for key, point in zip(QUANTILE_KEYS, QUANTILE_POINTS)
    )
    return summary


@given(
    members=st.lists(
        st.one_of(st.none(), st.lists(LATENCIES.map(abs), max_size=40)),
        min_size=1,
        max_size=5,
    ),
    layout=st.sampled_from([{}, {"lo": 1.0, "hi": 1e6}, {"lo": 1e-7, "hi": 1e-3, "per_decade": 3}]),
    name=st.sampled_from([None, "fleet"]),
)
@settings(max_examples=150, deadline=None)
def test_merged_copy_and_one_pass_summary_equal_the_references(members, layout, name):
    """``Histogram.merged`` (a copy of the first member, merging the
    rest) equals a rebuilt histogram merging every member, leaves its
    members untouched, and still rejects a layout mismatch; the
    one-pass ``summary()`` equals four ``quantile()`` passes."""
    histograms = []
    for values in members:
        if values is None:
            histograms.append(None)
            continue
        hist = Histogram("core", **layout)
        hist.observe_many(values)
        histograms.append(hist)
    before = [hist and _histogram_state(hist) for hist in histograms]
    merged = Histogram.merged(histograms, name=name)
    rebuilt = _rebuilt_merge(histograms, name=name)
    if rebuilt is None:
        assert merged is None
        return
    assert _histogram_state(merged) == _histogram_state(rebuilt)
    assert _bits(merged.summary()) == _bits(rebuilt.summary())
    assert _bits(merged.summary()) == _bits(_four_pass_summary(merged))
    assert merged.to_dict() == rebuilt.to_dict()
    merged.observe(1.0)
    assert [hist and _histogram_state(hist) for hist in histograms] == before
    with pytest.raises(ConfigurationError, match="cannot merge"):
        Histogram.merged([*histograms, Histogram("other", lo=1e-12, hi=1.0)])


def test_traffic_run_computes_window_quantiles_only_when_read(monkeypatch):
    """A cluster tape with ``metrics=`` and nothing reading its flush
    reports computes no window quantile; a later read computes the
    summary the eager path computed at drain time."""
    eager = quantiles_from_samples
    calls = []

    def counting(samples):
        calls.append(len(samples))
        return eager(samples)

    monkeypatch.setattr(telemetry_metrics, "quantiles_from_samples", counting)
    drain = Telemetry.drain_window
    windows = []

    def recording(self, queue_waits, end_to_ends, tenants=None):
        window = drain(self, queue_waits, end_to_ends, tenants)
        if window is not None:
            windows.append((window, {
                "queue_wait": eager([max(wait, 0.0) for wait in queue_waits]),
                "end_to_end": eager([max(e2e, 0.0) for e2e in end_to_ends]),
            }))
        return window

    monkeypatch.setattr(Telemetry, "drain_window", recording)
    cluster = PhotonicCluster(
        cores=2,
        grid=(8, 8),
        max_batch=16,
        flush_policy=FlushPolicy.max_batch(16),
        routing=RoutingPolicy.cache_affinity(),
        metrics=MetricsRegistry(),
        clock=ModelClock(),
    )
    engine = TrafficEngine(
        cluster, WorkloadMix.zipf(tenants=3, deadline_s=1e-7), Poisson(2e10), seed=3
    )
    summary = engine.run(400)
    assert summary["latency_quantiles"] is not None and len(windows) > 2
    assert calls == []
    for window, expected in windows:
        assert window["end_to_end"] == expected["end_to_end"]
    assert len(calls) == len(windows)
    assert all(window == expected for window, expected in windows)
    assert len(calls) == 2 * len(windows)


#: Programs of the route-memo property: an in-grid, a sub-tile and a
#: tiled dense shape, and two conv banks.
ROUTE_SHAPES = ((4, 6), (3, 4), (8, 9))
ROUTE_BANKS = ((2, 3, 3), (3, 2, 2))
ROUTE_SPECS = st.one_of(
    st.none(),
    st.builds(
        CoreSpec,
        rows=st.sampled_from([None, 4, 8]),
        columns=st.sampled_from([None, 6, 9]),
        adc_bits=st.sampled_from([None, 2, 3, 4, 5, 6]),
    ),
)


def _routed_core(cluster, submit):
    """Run ``submit`` and return the core it was routed to."""
    before = list(cluster._routed)
    submit()
    return next(
        core for core, count in enumerate(before) if cluster._routed[core] == count + 1
    )


def _rotation_events(cluster):
    return (cluster.cores, cluster._drains, cluster._scale_ups, cluster._scale_downs)


@given(
    specs=st.lists(ROUTE_SPECS, min_size=2, max_size=6),
    autoscale=st.booleans(),
    health=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_cluster_routes_match_the_ring_oracle(specs, autoscale, health, seed, data):
    """Under cache-affinity the route memo never changes a placement:
    through drains, restores, grown and parked cores, autoscale and
    health steps firing inside a submit, dtype variants and in-place
    edits of one caller's matrix, every routed request lands on the
    ring lookup of its program over the cores capable of it *now*.
    The memo never outgrows the fleet's caches, and is empty right
    after every rotation change."""
    cluster = PhotonicCluster(
        cores=len(specs),
        technology=TECH,
        grid=(4, 6),
        core_specs=specs,
        routing=RoutingPolicy.cache_affinity(),
        cache_capacity=2,
        flush_policy=FlushPolicy.max_batch(4),
        drift=[TiaGainDrift()] if health else None,
        health_policy=HealthPolicy(recalibrate_threshold=0.0) if health else None,
        autoscaler=(
            Autoscaler(min_cores=1, max_cores=len(specs) + 2, watch_every=1,
                       scale_up_pending=2.0, scale_down_pending=0.5)
            if autoscale
            else None
        ),
    )
    rng = np.random.default_rng(seed)
    programs = [rng.integers(0, 8, shape) for shape in ROUTE_SHAPES]
    banks = [rng.normal(0.0, 1.0, shape) for shape in ROUTE_BANKS]
    adc_floor = st.sampled_from([None, 2, 3, 4, 5, 6])
    # "repeat" resubmits the last dense matrix (edits included) at a
    # fresh precision floor: the memo's hits.
    operations = st.sampled_from(
        ["submit"] * 3 + ["repeat"] * 3 + ["conv", "edit", "drain", "restore",
                                           "add_core", "scale_up", "scale_down",
                                           "flush", "age"]
    )
    last = None
    for _ in range(data.draw(st.integers(min_value=4, max_value=30))):
        operation = data.draw(operations)
        before = _rotation_events(cluster)
        rotated = False
        if operation == "repeat" and last is None:
            operation = "submit"
        if operation == "submit":
            base = programs[data.draw(st.integers(0, len(programs) - 1))]
            dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint8, np.float64]))
            last = base if dtype is np.int64 else base.astype(dtype)
        if operation in ("submit", "repeat"):
            weights = last
            floor = data.draw(adc_floor)
            expected = cluster._ring.lookup(
                b"dense-route:" + weight_key(weights),
                allowed=cluster._capable_cores(weights.shape, floor),
            )
            x = rng.uniform(0.0, 1.0, weights.shape[1])
            core = _routed_core(
                cluster, lambda: cluster.submit(weights, x, min_adc_bits=floor)
            )
            assert core == expected
        elif operation == "conv":
            bank = banks[data.draw(st.integers(0, len(banks) - 1))]
            floor = data.draw(adc_floor)
            shape = (bank.shape[0], int(np.prod(bank.shape[1:])))
            expected = cluster._ring.lookup(
                cluster._conv_route_key(bank),
                allowed=cluster._capable_cores(shape, floor),
            )
            image = rng.uniform(0.0, 1.0, (5, 5))
            core = _routed_core(
                cluster, lambda: cluster.submit_conv(bank, image, min_adc_bits=floor)
            )
            assert core == expected
        elif operation == "edit":
            base = programs[data.draw(st.integers(0, len(programs) - 1))]
            row = data.draw(st.integers(0, base.shape[0] - 1))
            base[row] = rng.integers(0, 8, base.shape[1])
        elif operation == "drain":
            if len(cluster.active_cores) > 1:
                cluster.drain(data.draw(st.sampled_from(cluster.active_cores)))
                rotated = True
        elif operation == "restore":
            if cluster.draining:
                cluster.restore(data.draw(st.sampled_from(cluster.draining)))
                rotated = True
        elif operation == "add_core":
            if cluster.cores < 8:
                cluster.add_core(data.draw(ROUTE_SPECS))
        elif operation == "scale_up":
            if cluster.cores < 8:
                cluster.scale_up()
        elif operation == "scale_down":
            cluster.scale_down()
        elif operation == "flush":
            cluster.flush()
        else:
            cluster.age(1e3)
        bound = sum(
            session.scheduler.cache.capacity + session.scheduler.tiled_cache.capacity
            for session in cluster.sessions
        )
        assert len(cluster._routes) <= bound
        if rotated or _rotation_events(cluster) != before:
            assert cluster._routes == {}


def _parent_trigger(sessions):
    """The traffic engine's next trigger derived from every core's
    policy and stamps, as the engine computed it before sessions
    published their due times."""
    trigger = None
    for session in sessions:
        policy = session.flush_policy
        oldest = session.oldest_pending_at
        if policy.delay_limit is not None and oldest is not None:
            due = oldest + policy.delay_limit
            if trigger is None or due < trigger:
                trigger = due
        deadline = session.next_deadline
        if policy.deadline_headroom is not None and deadline is not None:
            due = deadline - policy.deadline_headroom
            if trigger is None or due < trigger:
                trigger = due
    return trigger


def _true_backlog(session):
    """What a session has queued, read from the one store of queued
    requests: the scheduler's groups, endpoint batches included."""
    return sum(
        len(group.handles)
        for table in session.scheduler._pending.values()
        for group in table.values()
    )


#: Dense programs of the fleet machine on its (4, 6) tile: in-grid,
#: sub-tile and tiled.
FLEET_SHAPES = ((4, 6), (3, 4), (5, 8))
FLEET_PRIORITIES = st.sampled_from([-1, 0, 0, 1])
FLEET_DEADLINES = st.sampled_from([None, None, 1e-9, 4e-10, 2e-10, 0.0])


class FleetBacklogMachine(RuleBasedStateMachine):
    """A 2-3 core cache-affinity fleet on an injected clock, with
    ``max_pending``, a deadline-aware policy with a delay limit and one
    replicated endpoint, driven through every path that queues or
    flushes.  After every step each session's :attr:`pending` equals
    what its queues hold, the cluster's running backlog is their sum,
    the engine's next trigger (read from the cores' published due
    times) equals the one derived from every core's policy and stamps,
    and each core's fleet flush order is (the highest priority, the
    first submit number) of the routed requests its window still holds,
    None when it holds none.  Admission sheds a request exactly when
    that true backlog is at ``max_pending`` and its priority is not
    positive."""

    @initialize(
        cores=st.integers(min_value=2, max_value=3),
        max_pending=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def build(self, cores, max_pending, seed):
        self.rng = np.random.default_rng(seed)
        self.clock = ModelClock()
        self.cluster = PhotonicCluster(
            cores=cores,
            technology=TECH,
            grid=(4, 6),
            max_batch=4,
            flush_policy=FlushPolicy(
                batch_limit=6, delay_limit=2e-9, deadline_headroom=2e-10
            ),
            routing=RoutingPolicy.cache_affinity(),
            max_pending=max_pending,
            metrics=MetricsRegistry(),
            clock=self.clock,
        )
        self.programs = [self.rng.integers(0, 8, shape) for shape in FLEET_SHAPES]
        self.bank = self.rng.normal(0.0, 1.0, (2, 3, 3))
        self.model = self.cluster.compile(
            Model.sequential(Dense(self.rng.normal(0.0, 1.0, (3, 6)))), replicas=2
        )
        self.engine = TrafficEngine(
            self.cluster, WorkloadMix.zipf(tenants=1, rows=4, columns=6), Poisson(1e9)
        )
        self.futures = []
        #: Every routed future with its priority and fleet submit number.
        self.routed = []

    def _admitted(self, priority, submit):
        """Run one routed submit and check the admission decision
        against the true backlog it met."""
        backlog = sum(_true_backlog(session) for session in self.cluster.sessions)
        shed = backlog >= self.cluster.max_pending and priority <= 0
        try:
            future = submit()
        except ClusterSaturatedError:
            assert shed
            return
        assert not shed
        self.futures = (self.futures + [future])[-32:]
        self.routed.append((future, priority, len(self.routed) + 1))

    @rule(program=st.integers(0, len(FLEET_SHAPES) - 1), priority=FLEET_PRIORITIES,
          deadline=FLEET_DEADLINES)
    def submit(self, program, priority, deadline):
        weights = self.programs[program]
        x = self.rng.uniform(0.0, 1.0, weights.shape[1])
        self._admitted(priority, lambda: self.cluster.submit(
            weights, x, priority=priority, deadline=deadline))

    @rule(priority=FLEET_PRIORITIES, deadline=FLEET_DEADLINES)
    def submit_conv(self, priority, deadline):
        image = self.rng.uniform(0.0, 1.0, (5, 5))
        self._admitted(priority, lambda: self.cluster.submit_conv(
            self.bank, image, priority=priority, deadline=deadline))

    @rule(rows=st.integers(1, 3), priority=FLEET_PRIORITIES, deadline=FLEET_DEADLINES)
    def submit_batch(self, rows, priority, deadline):
        batch = self.rng.uniform(0.0, 1.0, (rows, 6))
        self._admitted(priority, lambda: self.model.submit(
            batch, priority=priority, deadline=deadline))

    @rule(seconds=st.sampled_from([0.0, 1e-10, 5e-10, 3e-9]))
    def tick(self, seconds):
        self.clock.now += seconds

    @precondition(lambda self: self.futures)
    @rule(data=st.data())
    def result(self, data):
        future = data.draw(st.sampled_from(self.futures))
        try:
            future.result()
        except ReproError:
            pass

    @rule(data=st.data())
    def flush_core(self, data):
        self.cluster.sessions[data.draw(st.integers(0, self.cluster.cores - 1))].flush()

    @rule()
    def flush(self):
        self.cluster.flush()

    @rule()
    def poll(self):
        self.cluster.poll()

    @rule()
    def age(self):
        self.cluster.age(1e-9)

    @rule(data=st.data())
    def drain(self, data):
        active = self.cluster.active_cores
        if len(active) > 1:
            self.cluster.drain(data.draw(st.sampled_from(active)))

    @precondition(lambda self: self.cluster.draining)
    @rule(data=st.data())
    def restore(self, data):
        self.cluster.restore(data.draw(st.sampled_from(self.cluster.draining)))

    @precondition(lambda self: self.cluster.cores < 4)
    @rule()
    def add_core(self):
        self.cluster.add_core()

    @rule()
    def failed_flush(self):
        with mock.patch.object(
            CompiledCore, "matmul", side_effect=ConversionError("injected")
        ):
            try:
                self.cluster.flush()
            except ConversionError:
                pass

    @invariant()
    def backlog_is_the_queues(self):
        sessions = self.cluster.sessions
        for session in sessions:
            assert session.pending == _true_backlog(session)
        assert self.cluster.pending == sum(session.pending for session in sessions)

    @invariant()
    def order_is_the_windows(self):
        for session in self.cluster.sessions:
            window = {id(future) for future in session._window}
            held = [
                (priority, number)
                for future, priority, number in self.routed
                if id(future) in window
            ]
            expected = None
            if held:
                expected = (
                    max(priority for priority, _ in held),
                    min(number for _, number in held),
                )
            assert session._fleet_order == expected

    @invariant()
    def trigger_is_the_policies(self):
        self.engine._refresh_membership()
        assert self.engine._next_trigger() == _parent_trigger(self.cluster.sessions)


FleetBacklogMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
test_fleet_backlog_and_due_times = FleetBacklogMachine.TestCase
