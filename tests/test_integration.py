"""Integration tests across substrates: the paper's end-to-end flows."""

import numpy as np
import pytest

from repro.core.compute_core import VectorComputeCore
from repro.core.eoadc import EoAdc
from repro.core.psram import PsramBitcell
from repro.core.tensor_core import PhotonicTensorCore
from repro.photonics.laser import CWLaser
from repro.photonics.mrr import AddDropMRR
from repro.photonics.network import PhotonicCircuit
from repro.photonics.photodiode import Photodiode
from repro.photonics.pn_junction import InjectionTuner
from repro.sim.waveform import StepSequence


def test_network_evaluation_matches_analytic_compute(tech):
    """Building one 1-bit multiply as an explicit photonic netlist must
    agree with the vectorized compute-core path."""
    circuit = PhotonicCircuit()
    circuit.add("laser", CWLaser(tech.wavelength, 200e-6))
    ring = AddDropMRR(
        tech.compute_ring_spec(),
        design_wavelength=tech.wavelength,
        design_voltage=0.0,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
        tuner=InjectionTuner(tech.injection),
    )
    ring.voltage = 1.8  # weight = 1
    circuit.add("ring", ring)
    circuit.add("pd", Photodiode(tech.photodiode))
    circuit.add("drop_pd", Photodiode(tech.photodiode))
    circuit.connect("laser", "out", "ring", "in")
    circuit.connect("ring", "thru", "pd", "in")
    circuit.connect("ring", "drop", "drop_pd", "in")
    circuit.evaluate()
    network_power = circuit.component("pd").last_input_power
    analytic = 200e-6 * float(ring.thru_transmission(tech.wavelength))
    assert network_power == pytest.approx(analytic, rel=1e-12)


def test_psram_write_then_compute(tech):
    """Weights written through the pSRAM write path must drive the
    multiplication exactly like directly loaded weights."""
    core = VectorComputeCore(4, 3, tech)
    core.load_weights([5, 2, 7, 0])
    x = np.array([0.9, 0.4, 0.6, 0.8])
    current_a = core.compute(x)
    # Rewrite the same weights via a fresh array write cycle.
    core.load_weights([0, 0, 0, 0])
    core.load_weights([5, 2, 7, 0])
    assert core.compute(x) == pytest.approx(current_a, rel=1e-12)


def test_bitcell_write_consistent_with_array_model(tech):
    """The array's 0.5 pJ/switch bookkeeping matches the transient
    bitcell's ledger."""
    cell = PsramBitcell(tech)
    cell.set_state(0)
    transient_energy = cell.write(1).switch_energy
    assert transient_energy == pytest.approx(0.5e-12, rel=1e-3)


def test_compute_core_output_through_eoadc(tech):
    """Full mixed-signal path: dot product -> TIA scaling -> eoADC code
    must match the analytically expected code."""
    core = VectorComputeCore(4, 3, tech)
    core.load_weights([7, 7, 7, 7])
    adc = EoAdc(tech, trim_errors=np.zeros(8))
    full_scale = core.compute(np.ones(4))
    gain = adc.spec.full_scale_voltage / full_scale
    for fraction in (0.1, 0.45, 0.8):
        x = np.full(4, fraction)
        voltage = min(core.compute(x) * gain, 4.0 - 1e-9)
        code = adc.convert(voltage)
        expected = min(int(voltage / adc.lsb), 7)
        assert abs(code - expected) <= 1


def test_tensor_core_matvec_reproducible(tech):
    core = PhotonicTensorCore(rows=2, columns=4, technology=tech)
    rng = np.random.default_rng(55)
    core.load_weight_matrix(rng.integers(0, 8, (2, 4)))
    x = rng.uniform(0.0, 1.0, 4)
    first = core.matvec(x)
    second = core.matvec(x)
    assert np.array_equal(first.codes, second.codes)
    assert np.allclose(first.currents, second.currents)


def test_weight_streaming_during_inference(tech):
    """The 20 GHz update headline: swapping weight matrices between
    matvecs changes results correctly and books the switch energy."""
    core = PhotonicTensorCore(rows=2, columns=4, technology=tech)
    x = np.full(4, 0.8)
    core.load_weight_matrix(np.zeros((2, 4), dtype=int))
    low = core.matvec(x).estimates
    energy_before = core.weight_update_energy()
    core.load_weight_matrix(np.full((2, 4), 7))
    high = core.matvec(x).estimates
    assert np.all(high > low)
    assert core.weight_update_energy() > energy_before
    assert core.weight_update_time() == pytest.approx(4 / 20e9)


def test_adc_transient_agrees_with_static_for_settled_inputs(ideal_adc):
    """After a full sample period the transient code equals the static
    conversion — the quasi-static limit."""
    for level in (0.4, 1.3, 2.6, 3.6):
        sequence = StepSequence([level], period=250e-12)
        record = ideal_adc.transient_convert(
            sequence, duration=250e-12, sample_rate=4e9
        )
        assert record.codes[-1] == ideal_adc.convert(level)


def test_psram_disturb_free_half_select(tech):
    """A write pulse on WBL only (no WBLB) must flip the target without
    corrupting it on the repeated write (write-1 twice is idempotent)."""
    cell = PsramBitcell(tech)
    cell.set_state(0)
    assert cell.write(1).success
    assert cell.write(1).success
    assert cell.state == 1


def test_hold_bias_removal_is_detected(tech):
    """With the optical bias off, the latch loses its restoring
    currents (the paper: data held only while both biases persist)."""
    import dataclasses

    dark_tech = tech.replace(psram=dataclasses.replace(tech.psram, bias_power=0.0))
    cell = PsramBitcell(dark_tech)
    cell.set_state(1)
    current_q, current_qb = cell.hold_node_currents()
    assert abs(current_q) < 1e-7 and abs(current_qb) < 1e-7


def test_full_pipeline_blob_classification(tech):
    """Sanity: a full photonic matvec classifies an easy sample the
    same way the float path does."""
    from repro.ml.datasets import gaussian_blobs
    from repro.ml.layers import PhotonicDense

    X, y = gaussian_blobs(samples_per_class=20, classes=2, features=4, spread=0.3)
    # Nearest-centroid weights.
    centroids = np.stack([X[y == c].mean(axis=0) for c in range(2)])
    core = PhotonicTensorCore(rows=2, columns=4, adc_bits=6, technology=tech)
    layer = PhotonicDense(centroids, core, signed=True)
    sample = X[y == 1][0]
    scores = layer.forward_sample(sample)
    float_scores = layer.forward_float(sample[None, :])[0]
    assert np.argmax(scores) == np.argmax(float_scores)
