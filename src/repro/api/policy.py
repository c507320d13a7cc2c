"""Pluggable flush policies: when does pending traffic evaluate?

The session batches every submitted request until a *flush* evaluates
them together — that is where the throughput comes from.  A
:class:`FlushPolicy` decides when that happens without the caller
hand-placing ``flush()`` calls:

* :meth:`FlushPolicy.explicit` — never auto-flush; only an explicit
  :meth:`~repro.api.PhotonicSession.flush` or a blocking
  :meth:`~repro.api.Future.result` drains the queues (the session
  default, and the hand-flushed batching of the removed
  ``InferenceServer``).
* :meth:`FlushPolicy.max_batch` — flush as soon as the pending request
  count reaches the limit, bounding queue growth at a full batch.
* :meth:`FlushPolicy.max_delay` — flush once the oldest pending
  request has waited longer than the limit, bounding latency.  The
  session is single-threaded, so the deadline is checked on the next
  ``submit`` (and a blocking ``result()`` always flushes immediately).
* :meth:`FlushPolicy.deadline_aware` — the SLO policy: flush early
  once the most urgent pending request's remaining deadline slack
  drops to ``headroom`` seconds, so a batch still filling up never
  rides a request past its deadline.  Requests without a ``deadline=``
  never trip this limit.

Limits compose: ``FlushPolicy(batch_limit=64, delay_limit=0.01)``
flushes on whichever trips first.

Ages and deadline slack are measured on an injected modelled clock
(``PhotonicSession(clock=...)``) when one is given, as in open-loop
simulation (see :mod:`repro.traffic`).  Without one, deadline slack
reads the session's modelled service clock and ages the host wall
clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FlushPolicy:
    """When the session auto-flushes; see the module docstring."""

    #: Flush when this many requests are pending (None = no limit).
    batch_limit: int | None = None
    #: Flush when the oldest pending request is this old [s] (None = no limit).
    delay_limit: float | None = None
    #: Flush when the most urgent pending deadline is within this many
    #: seconds of expiring (None = deadlines never force a flush).
    deadline_headroom: float | None = None

    def __post_init__(self) -> None:
        if self.batch_limit is not None and self.batch_limit < 1:
            raise ConfigurationError(
                f"batch limit must be >= 1, got {self.batch_limit}"
            )
        if self.delay_limit is not None and not (self.delay_limit >= 0.0):
            raise ConfigurationError(
                f"delay limit must be >= 0, got {self.delay_limit}"
            )
        if self.deadline_headroom is not None and not (self.deadline_headroom >= 0.0):
            raise ConfigurationError(
                f"deadline headroom must be >= 0, got {self.deadline_headroom}"
            )

    # -- constructors --------------------------------------------------------
    @classmethod
    def explicit(cls) -> "FlushPolicy":
        """Only flush() / result() drain the queues."""
        return cls()

    @classmethod
    def max_batch(cls, limit: int) -> "FlushPolicy":
        """Auto-flush once ``limit`` requests are pending."""
        return cls(batch_limit=limit)

    @classmethod
    def max_delay(cls, seconds: float) -> "FlushPolicy":
        """Auto-flush once the oldest pending request is ``seconds`` old."""
        return cls(delay_limit=seconds)

    @classmethod
    def deadline_aware(
        cls, headroom: float, batch_limit: int | None = None
    ) -> "FlushPolicy":
        """The SLO policy: auto-flush once the most urgent pending
        request is within ``headroom`` seconds of its deadline (an
        optional ``batch_limit`` still caps queue growth)."""
        return cls(batch_limit=batch_limit, deadline_headroom=headroom)

    # -- decision ------------------------------------------------------------
    def should_flush(
        self,
        pending: int,
        oldest_age: float,
        deadline_slack: float | None = None,
    ) -> bool:
        """Whether the session should flush now, given ``pending``
        queued requests whose oldest has waited ``oldest_age`` seconds
        and whose most urgent deadline expires in ``deadline_slack``
        seconds (None = no pending request carries a deadline)."""
        if pending <= 0:
            return False
        if self.batch_limit is not None and pending >= self.batch_limit:
            return True
        if self.delay_limit is not None and oldest_age >= self.delay_limit:
            return True
        if (
            self.deadline_headroom is not None
            and deadline_slack is not None
            and deadline_slack <= self.deadline_headroom
        ):
            return True
        return False

    def describe(self) -> str:
        parts = []
        if self.batch_limit is not None:
            parts.append(f"max_batch={self.batch_limit}")
        if self.delay_limit is not None:
            parts.append(f"max_delay={self.delay_limit:g}s")
        if self.deadline_headroom is not None:
            parts.append(f"slo_headroom={self.deadline_headroom:g}s")
        return ", ".join(parts) if parts else "explicit"
