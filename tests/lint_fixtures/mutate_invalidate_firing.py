"""Fixture: compiled-state mutations that skip the hook (7 findings)."""

import numpy as np


class Adc:
    def __init__(self, trim_errors):
        self.trim_errors = trim_errors  # clean: __init__ is exempt
        self._boundaries = None

    def invalidate_boundaries(self):
        self._boundaries = None

    def retrim(self, sigma, rng):
        self.trim_errors = rng.normal(0.0, sigma, 8)  # firing: no hook call

    def retrim_in_place(self, rng):
        self.trim_errors[:] = rng.normal(0.0, 1.0, 8)  # firing: subscript store

    def relevel(self, lsb):
        self.reference_voltages = (np.arange(8) + 0.5) * lsb  # firing: no hook call

    def adopt_bank(self, bank):
        self._bank = bank  # firing: bypasses the hook

    def seed_ladder(self, ladder):
        self.ladder = ladder  # firing: a memo the hook owns


class DenseLayer:
    def __init__(self, weights):
        self.q_positive = weights
        self._engine = None

    def invalidate_runtime(self):
        self._engine = None

    def set_weights(self, weights):
        self.q_positive = np.asarray(weights)  # firing: engine stays stale


class RingCore:
    def __init__(self, rings):
        self.rings = rings
        self._ring_table = None  # clean: __init__ is exempt

    def invalidate_ring_table(self):
        self._ring_table = [ring.transmission() for ring in self.rings]

    def adopt_table(self, table):
        self._ring_table = table  # firing: bypasses the hook
