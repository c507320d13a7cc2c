"""Shared fixtures.

Expensive device builds (ADCs, tensor cores, pSRAM transients) are
session-scoped; tests must not mutate them.  Tests that need to mutate
state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import default_technology
from repro.core.eoadc import EoAdc
from repro.core.psram import PsramBitcell
from repro.core.compute_core import VectorComputeCore
from repro.photonics.mrr import AddDropMRR, AllPassMRR
from repro.photonics.pn_junction import DepletionTuner, InjectionTuner


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def compute_ring(tech):
    """A weight/pSRAM-class add-drop ring (read-only)."""
    return AddDropMRR(
        tech.compute_ring_spec(),
        design_wavelength=tech.wavelength,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
        tuner=InjectionTuner(tech.injection),
    )


@pytest.fixture(scope="session")
def adc_ring(tech):
    """An eoADC-class all-pass ring (read-only)."""
    return AllPassMRR(
        tech.adc_ring_spec(),
        design_wavelength=tech.wavelength,
        design_voltage=0.0,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
        tuner=DepletionTuner(tech.depletion),
    )


@pytest.fixture(scope="session")
def ideal_adc(tech):
    """3-bit eoADC with perfect trim (read-only)."""
    return EoAdc(tech, trim_errors=np.zeros(tech.eoadc.levels))


@pytest.fixture(scope="session")
def trimmed_adc(tech):
    """3-bit eoADC with the default seeded trim residuals (read-only)."""
    return EoAdc(tech)


@pytest.fixture(scope="session")
def small_core(tech):
    """A 1x4, 3-bit vector compute core with a fixed weight vector."""
    core = VectorComputeCore(vector_length=4, weight_bits=3, technology=tech)
    core.load_weights([7, 3, 5, 1])
    return core


@pytest.fixture()
def psram_cell(tech):
    """A fresh pSRAM bitcell per test (stateful)."""
    return PsramBitcell(tech)
