"""Multi-tenant workload mixes: what does each arrival submit?

A :class:`WorkloadMix` is the demand side of the traffic engine: a set
of :class:`Tenant` specs (traffic share, weight-matrix shape, QoS
priority, per-request deadline, token-bucket rate limit) plus the
seeded machinery to materialize each tenant's weights and draw the
per-arrival tenant sequence.  :meth:`WorkloadMix.zipf` mirrors
:func:`synthetic_trace`, the closed replay stream of the serve benches:
the same four alternating shapes and 1/k popularity, so traffic-engine
runs are comparable with the replay benches.

:class:`TokenBucket` is the standard leaky-bucket admission gate: a
tenant with ``rate_limit=`` set only admits requests while its bucket
holds tokens (refilled continuously at the limit rate on the modelled
clock); over-limit arrivals are dropped at the front door and counted
as ``rate_limited`` by the engine, never reaching a core queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


class TokenBucket:
    """Continuous-refill token bucket on the modelled clock.

    Starts full (``burst`` tokens); :meth:`admit` refills at ``rate``
    tokens/s up to ``burst``, then spends one token if available.
    Admission therefore never depends on host timing — only on the
    modelled arrival times fed in.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0.0:
            raise ConfigurationError(
                f"token bucket rate must be positive [req/s], got {rate}"
            )
        if burst < 1.0:
            raise ConfigurationError(
                f"token bucket burst must be >= 1 token, got {burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._refilled_at = 0.0

    def admit(self, now: float) -> bool:
        """Refill to ``now`` and take one token; False = over limit."""
        if now > self._refilled_at:
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._refilled_at) * self.rate,
            )
            self._refilled_at = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<TokenBucket {self.rate:g} req/s, "
            f"{self._tokens:.1f}/{self.burst:g} tokens>"
        )


@dataclass(frozen=True)
class Tenant:
    """One tenant's traffic contract.

    ``share`` is its fraction of the arrival stream (normalized across
    the mix); ``shape`` the (out, in) weight matrix it serves;
    ``priority`` rides the cluster QoS path; ``deadline_s`` stamps
    every request (None = best effort); ``rate_limit`` [req/s] gates
    admission through a :class:`TokenBucket` of ``burst`` tokens
    (None = unlimited).
    """

    name: str
    share: float
    shape: tuple[int, int]
    priority: int = 0
    deadline_s: float | None = None
    rate_limit: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.share <= 0.0:
            raise ConfigurationError(
                f"tenant {self.name!r} needs a positive traffic share, "
                f"got {self.share}"
            )
        if len(self.shape) != 2 or any(int(d) < 1 for d in self.shape):
            raise ConfigurationError(
                f"tenant {self.name!r} shape must be a positive "
                f"(out, in) pair, got {self.shape!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ConfigurationError(
                f"tenant {self.name!r} deadline_s must be positive "
                f"(or None for best effort), got {self.deadline_s}"
            )
        if self.rate_limit is not None and self.rate_limit <= 0.0:
            raise ConfigurationError(
                f"tenant {self.name!r} rate_limit must be positive "
                f"[req/s] (or None for unlimited), got {self.rate_limit}"
            )
        if self.burst is not None and self.rate_limit is None:
            raise ConfigurationError(
                f"tenant {self.name!r} sets burst without rate_limit"
            )

    def bucket(self) -> TokenBucket | None:
        """A fresh admission bucket (None when unlimited)."""
        if self.rate_limit is None:
            return None
        burst = self.burst if self.burst is not None else self.rate_limit
        return TokenBucket(self.rate_limit, max(burst, 1.0))


def _tenant_shapes(rows: int, columns: int) -> list[tuple[int, int]]:
    """The four tenant shapes on a ``rows x columns`` tile, in tenant
    order: tile-native, smaller than a tile, tiled in both dimensions,
    and tall."""
    return [
        (rows, columns),
        (max(rows // 2, 1), max(columns - 2, 1)),
        (rows + rows // 2, columns + columns // 2),
        (2 * rows + 1, columns),
    ]


def synthetic_trace(
    tenants: int = 6,
    requests: int = 240,
    rows: int = 8,
    columns: int = 8,
    max_weight: int = 7,
    churn: float = 0.02,
    seed: int = 2025,
):
    """A repeatable multi-tenant request stream.

    Yields ``(tenant, weights, x)`` tuples.  Tenant shapes alternate
    between tile-native, smaller-than-tile and tiled (larger than one
    tile in both dimensions); popularity is Zipf-skewed so a few
    tenants dominate (good cache locality) and ``churn`` is the
    per-request probability the chosen tenant retrains its weights
    (forcing a fresh program compile).
    """
    if tenants < 1 or requests < 0:
        raise ConfigurationError("need at least one tenant and requests >= 0")
    rng = np.random.default_rng(seed)
    shapes = _tenant_shapes(rows, columns)
    weights = [
        rng.integers(0, max_weight + 1, shapes[tenant % len(shapes)])
        for tenant in range(tenants)
    ]
    popularity = 1.0 / np.arange(1, tenants + 1)
    popularity /= popularity.sum()
    for _ in range(requests):
        tenant = int(rng.choice(tenants, p=popularity))
        if rng.uniform() < churn:
            weights[tenant] = rng.integers(0, max_weight + 1, weights[tenant].shape)
        x = rng.uniform(0.0, 1.0, weights[tenant].shape[1])
        yield tenant, weights[tenant], x


class WorkloadMix:
    """A normalized set of tenants plus seeded sampling machinery."""

    def __init__(self, tenants: tuple[Tenant, ...], max_weight: int = 7) -> None:
        tenants = tuple(tenants)
        if not tenants:
            raise ConfigurationError("a workload mix needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"tenant names must be unique, got {names}"
            )
        if max_weight < 1:
            raise ConfigurationError(
                f"max_weight must be >= 1, got {max_weight}"
            )
        self.tenants = tenants
        self.max_weight = int(max_weight)
        total = sum(tenant.share for tenant in tenants)
        self.shares = np.array(
            [tenant.share / total for tenant in tenants]
        )

    @classmethod
    def zipf(
        cls,
        tenants: int = 4,
        rows: int = 8,
        columns: int = 8,
        deadline_s: float | None = None,
        max_weight: int = 7,
    ) -> "WorkloadMix":
        """The replay trace as a mix: tenant ``k`` gets popularity
        1/(k+1) and the same four alternating shapes as
        :func:`synthetic_trace` (tile-native, smaller-than-tile, tiled,
        tall), so cache behaviour matches the replay benches.
        ``deadline_s`` stamps every tenant uniformly (None = best
        effort)."""
        if tenants < 1:
            raise ConfigurationError(
                f"need at least one tenant, got {tenants}"
            )
        shapes = _tenant_shapes(rows, columns)
        return cls(
            tuple(
                Tenant(
                    name=f"tenant-{index}",
                    share=1.0 / (index + 1),
                    shape=shapes[index % len(shapes)],
                    deadline_s=deadline_s,
                )
                for index in range(int(tenants))
            ),
            max_weight=max_weight,
        )

    def materialize(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Each tenant's served weight matrix, drawn once per run."""
        return [
            rng.integers(0, self.max_weight + 1, tenant.shape)
            for tenant in self.tenants
        ]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` tenant indices drawn by popularity share."""
        if n < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {n}")
        return rng.choice(len(self.tenants), size=int(n), p=self.shares)

    def input_pool(
        self, rng: np.random.Generator, per_tenant: int = 256
    ) -> list[np.ndarray]:
        """A recycled pool of input vectors per tenant (row ``i % pool``
        serves request ``i``), so a million-request run costs pool-size
        RNG draws instead of one per arrival."""
        if per_tenant < 1:
            raise ConfigurationError(
                f"input pool size must be >= 1, got {per_tenant}"
            )
        return [
            rng.uniform(0.0, 1.0, (int(per_tenant), tenant.shape[1]))
            for tenant in self.tenants
        ]

    def describe(self) -> str:
        limited = sum(
            1 for tenant in self.tenants if tenant.rate_limit is not None
        )
        with_deadline = sum(
            1 for tenant in self.tenants if tenant.deadline_s is not None
        )
        return (
            f"{len(self.tenants)} tenants "
            f"({with_deadline} with deadlines, {limited} rate-limited)"
        )

    def __repr__(self) -> str:
        return f"<WorkloadMix {self.describe()}>"
