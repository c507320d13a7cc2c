"""Fixture: sanctioned compiled-state mutation patterns (0 findings)."""

import numpy as np


class Adc:
    def __init__(self, trim_errors):
        self.trim_errors = trim_errors
        self._boundaries = None

    def invalidate_boundaries(self):
        self._boundaries = None

    def retrim(self, sigma, rng):
        self.trim_errors = rng.normal(0.0, sigma, 8)
        self.invalidate_boundaries()

    def relevel(self, lsb):
        self.reference_voltages = (np.arange(8) + 0.5) * lsb
        self.invalidate_boundaries()


class Core:
    def __init__(self, adc):
        self.adc = adc
        self.ladder = None

    def invalidate_ladders(self):
        self.ladder = None
        self.adc.invalidate_boundaries()

    def reset_memo(self):
        self.ladder = None
        self.invalidate_ladders()

    def adopt_bank(self, bank):
        self._bank = bank
        self.invalidate_ladders()


class DenseLayer:
    def __init__(self, weights):
        self.q_positive = weights
        self._engine = None

    def invalidate_runtime(self):
        self._engine = None

    def set_weights(self, weights):
        self.q_positive = np.asarray(weights)
        self.invalidate_runtime()


class RingCore:
    def __init__(self, rings):
        self.rings = rings
        self._ring_table = None

    def invalidate_ring_table(self):
        self._ring_table = [ring.transmission() for ring in self.rings]

    def heat(self, delta_kelvin):
        for ring in self.rings:
            ring.delta_temperature = delta_kelvin
        self.invalidate_ring_table()


class NoHooksNoContract:
    """A class without invalidate_* hooks is out of contract scope."""

    def __init__(self):
        self.spec = None

    def replace_spec(self, spec):
        self.spec = spec
