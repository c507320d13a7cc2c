"""Pluggable routing policies: which core slot serves a request?

A :class:`~repro.api.cluster.PhotonicCluster` owns N core slots, each a
full :class:`~repro.api.PhotonicSession` (its own scheduler, program
caches and ladder memo).  A :class:`RoutingPolicy` decides which slot a
routed request lands on — the cluster-level twin of
:class:`~repro.api.policy.FlushPolicy`:

* :meth:`RoutingPolicy.round_robin` — cycle through the cores in
  submit order; perfectly even request spread, blind to weight reuse.
* :meth:`RoutingPolicy.least_loaded` — send each request to the core
  with the fewest pending requests (ties break to the lowest index),
  reading each candidate core's :attr:`~repro.api.PhotonicSession.pending`
  (its flush window's length) at the request.
* :meth:`RoutingPolicy.cache_affinity` — consistent-hash the request's
  weight-program key onto the fleet, so every request for one weight
  program lands on one core: hot programs stay resident in that core's
  LRU caches and the pSRAM streaming energy is paid once per program
  instead of once per (program, core).  The answer depends only on the
  program and the fleet's rotation, so the cluster routes each program
  once per rotation and memoises the core (see
  :meth:`~repro.api.cluster.PhotonicCluster._route`).

Policies are pure deciders: :meth:`select` maps (per-core loads,
round-robin cursor) to a core index and keeps no state — the cluster
owns the cursor, so one policy object can be shared.  Cache-affinity
keys resolve on the cluster's :class:`HashRing` instead.

:class:`HashRing` is the stateful companion for *elastic* fleets: a
consistent-hash ring over the current member set that the cluster
rebuilds **incrementally** on membership change.  Plain
``hash(key) % cores`` re-homes almost every key when ``cores``
changes; the ring moves only ~``1/(m+1)`` of the keys when a fleet
grows from ``m`` to ``m+1`` cores, so hot programs keep their
cache-resident homes across a scale-up.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from ..errors import ConfigurationError

#: The recognised policy kinds, in documentation order.
ROUTING_KINDS = ("round_robin", "least_loaded", "cache_affinity")


@dataclass(frozen=True)
class RoutingPolicy:
    """How a cluster spreads requests over its cores; see the module
    docstring.  Build with the named constructors."""

    kind: str = "round_robin"

    def __post_init__(self) -> None:
        if self.kind not in ROUTING_KINDS:
            raise ConfigurationError(
                f"unknown routing policy {self.kind!r}; "
                f"choose from {list(ROUTING_KINDS)}"
            )

    # -- constructors --------------------------------------------------------
    @classmethod
    def round_robin(cls) -> "RoutingPolicy":
        """Cycle through the cores in submit order."""
        return cls(kind="round_robin")

    @classmethod
    def least_loaded(cls) -> "RoutingPolicy":
        """Route to the core with the fewest pending requests."""
        return cls(kind="least_loaded")

    @classmethod
    def cache_affinity(cls) -> "RoutingPolicy":
        """Consistent-hash weight-program keys onto cores so hot
        programs stay cache-resident on one core."""
        return cls(kind="cache_affinity")

    # -- decision ------------------------------------------------------------
    @property
    def needs_key(self) -> bool:
        """Whether the policy routes by weight-program key (on a
        :class:`HashRing`) — lets callers skip serializing a weight
        program the other policies ignore."""
        return self.kind == "cache_affinity"

    @property
    def needs_loads(self) -> bool:
        """Whether :meth:`select` reads the load values (every policy
        still needs the list's *length* for the fleet size)."""
        return self.kind == "least_loaded"

    def select(self, loads: Sequence[int], cursor: int) -> int:
        """The core index for one request without a program key.

        ``loads`` is the per-core pending request counts, ``cursor``
        the cluster's monotonically increasing submit counter;
        least-loaded reads the loads, and every other policy takes the
        round-robin cursor.
        """
        cores = len(loads)
        if cores < 1:
            raise ConfigurationError("routing needs at least one core")
        if cores == 1:
            return 0
        if self.kind == "least_loaded":
            return min(range(cores), key=lambda index: (loads[index], index))
        return cursor % cores

    def describe(self) -> str:
        return self.kind


class HashRing:
    """Consistent-hash ring over an elastic member set.

    Each member owns ``replicas`` pseudo-random points on a 64-bit
    ring (blake2b of ``"member:replica"`` — salted ``hash()`` would
    re-home every key on restart); a key routes to the first member
    point clockwise from the key's own hash.  :meth:`add` and
    :meth:`remove` insert/delete only *that member's* points, so
    membership changes are ``O(replicas · log n)`` — the ring is never
    rebuilt from scratch, and keys whose nearest point is unchanged
    keep their placement.

    ``replicas`` trades placement evenness against ring size: 64
    points per member keeps the per-member load spread within a few
    percent for fleets of tens of cores while membership updates stay
    microsecond-cheap.
    """

    def __init__(self, members: Iterable[int] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError(
                f"hash ring needs >= 1 replica point per member, got {replicas}"
            )
        self.replicas = int(replicas)
        #: Sorted ``(point, member)`` pairs — the ring itself.
        self._points: list[tuple[int, int]] = []
        self._members: set[int] = set()
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _member_points(self, member: int) -> list[tuple[int, int]]:
        return [
            (self._hash(f"{member}:{replica}".encode()), member)
            for replica in range(self.replicas)
        ]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: int) -> bool:
        return member in self._members

    @property
    def members(self) -> tuple[int, ...]:
        """The current member set, sorted."""
        return tuple(sorted(self._members))

    def add(self, member: int) -> None:
        """Join ``member``: inserts only its own points (incremental)."""
        if member in self._members:
            return
        self._members.add(member)
        for point in self._member_points(member):
            bisect.insort(self._points, point)

    def remove(self, member: int) -> None:
        """Leave ``member``: deletes only its own points (incremental)."""
        if member not in self._members:
            return
        self._members.discard(member)
        for point in self._member_points(member):
            index = bisect.bisect_left(self._points, point)
            if index < len(self._points) and self._points[index] == point:
                del self._points[index]

    def lookup(self, key: bytes, allowed: Collection[int] | None = None) -> int:
        """The member owning ``key``: first point clockwise from the
        key's hash, wrapping at the top of the ring.

        ``allowed`` restricts the answer to a subset of members (e.g.
        the active, capable cores) *without* mutating the ring — the
        walk skips disallowed points, so a key whose home core is
        temporarily drained falls to the next point clockwise and
        returns home when the core comes back.
        """
        if not self._points:
            raise ConfigurationError("hash ring has no members")
        eligible = self._members if allowed is None else self._members.intersection(allowed)
        if not eligible:
            raise ConfigurationError(
                f"hash ring: no allowed member among {sorted(self._members)}"
            )
        start = bisect.bisect_right(self._points, (self._hash(key), 2**64))
        total = len(self._points)
        for step in range(total):
            _, member = self._points[(start + step) % total]
            if member in eligible:
                return member
        raise ConfigurationError("hash ring walk found no member")  # pragma: no cover
