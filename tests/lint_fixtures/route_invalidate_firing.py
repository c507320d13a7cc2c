"""Fixture: rotation-state mutations through mutator calls (4 findings)."""


class Fleet:
    def __init__(self, ring):
        self._ring = ring
        self._drained = set()  # clean: __init__ is exempt
        self._core_caps = []
        self._routes = {}

    def invalidate_routes(self):
        self._routes.clear()

    def drain(self, core):
        self._drained.add(core)  # firing: an in-place mutation, no hook

    def restore(self, core):
        self._drained.discard(core)  # firing: no hook

    def add_core(self, caps):
        self._core_caps.append(caps)  # firing: no hook
        self._ring.add(len(self._core_caps) - 1)  # firing: no hook
