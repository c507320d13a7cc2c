"""The one sanctioned host-clock read, :func:`wall_clock`."""

from __future__ import annotations

import time


def wall_clock() -> float:
    """The sanctioned host wall-clock read [s]: a monotonic timestamp
    for measuring *real* elapsed time (bench throughput, flush-policy
    deadline ages).

    Everything on the serving stack accounts modelled time through
    :class:`~repro.telemetry.ModelClock`; the few places that
    legitimately need the host clock — wall-clock benchmark timing and
    real-time flush deadlines — read it through this single accessor
    so the ``modelled-clock-purity`` lint rule can forbid ``time.*``
    everywhere else.  Only differences are meaningful (the epoch is
    arbitrary), exactly like :func:`time.perf_counter`.
    """
    return time.perf_counter()
