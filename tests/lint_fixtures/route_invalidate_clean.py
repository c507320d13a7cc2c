"""Fixture: sanctioned rotation-state mutations (0 findings)."""


class Fleet:
    def __init__(self, ring):
        self._ring = ring
        self._drained = set()
        self._core_caps = []
        self._routes = {}
        self._pending = []

    def invalidate_routes(self):
        self._routes.clear()

    def drain(self, core):
        self._drained.add(core)
        self.invalidate_routes()

    def restore(self, core):
        self._drained.discard(core)
        self.invalidate_routes()

    def add_core(self, caps):
        self._core_caps.append(caps)
        self._ring.add(len(self._core_caps) - 1)
        self.invalidate_routes()

    def queue(self, request):
        self._pending.append(request)  # not registered: out of contract

    def active(self):
        return sorted(set(range(len(self._core_caps))) - self._drained)


class NoHooksNoContract:
    """A class without invalidate_* hooks is out of contract scope."""

    def __init__(self):
        self._drained = set()

    def drain(self, core):
        self._drained.add(core)
