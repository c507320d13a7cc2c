"""The one front door: :class:`PhotonicSession` and deployed models.

A session owns everything the serving stack used to scatter across
three surfaces: the physical tensor core and its batching scheduler,
the shared LRU weight-program cache, the cross-engine ADC ladder memo,
the gain policy, and the flush policy.  Every request route hangs off
it and returns a :class:`~repro.api.futures.Future`:

* ``session.submit(weights, x)`` — raw dense W @ x (any shape; padded
  onto one tile or sharded onto a tiled grid automatically);
* ``session.submit_conv(kernels, image)`` — im2col convolution against
  a cached differential conv program;
* ``session.compile(model)`` — turn a declarative
  :class:`~repro.api.graph.Model` into a :class:`DeployedModel`
  endpoint whose ``submit(batch)`` serves whole network forwards.

Dense and conv requests queue in the session's
:class:`~repro.runtime.scheduler.BatchScheduler`, whose one flush loop
compiles, sheds, evaluates and accounts every group on one modelled
service clock; endpoint batches drain after it on the same clock and
ledger.  A pluggable :class:`~repro.api.policy.FlushPolicy` replaces
hand-called ``flush()``: requests queue until the policy trips
(max_batch / max_delay) or a blocking ``Future.result()`` forces the
evaluation.  Each flush produces one unified
:class:`~repro.api.futures.RunReport` carried by every future it
resolves.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import Technology, default_technology
from ..elastic import ProgramStore, core_fingerprint
from ..errors import ConfigurationError
from ..health.drift import DriftModel, DriftState
from ..health.monitor import HealthMonitor, HealthPolicy, HealthReport
from ..ml.convolution import (
    PhotonicConv2d,
    avg_pool2d,
    normalize_image,
    normalize_image_batch,
    normalize_kernel_bank,
    output_shape,
)
from ..ml.layers import PhotonicDense, relu
from ..runtime.engine import check_unit_inputs, weight_key
from ..runtime.scheduler import BatchScheduler, WeightProgramCache, check_dense_weights
from ..telemetry import Counter, MetricsRegistry, ModelClock, Telemetry, TraceRecorder
from ..telemetry.profiling import wall_clock
from .futures import Future, RunReport
from .graph import AvgPool, Conv2d, Dense, Flatten, Model, ReLU
from .policy import FlushPolicy

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from ..core.performance import PerformanceModel
    from ..core.tensor_core import PhotonicTensorCore
    from ..obs import Observer
    from .cluster import PhotonicCluster

#: Everything the ``drift`` knob accepts: a ready state, one model, an
#: iterable of models (wrapped into a fresh state), or None.
DriftLike = DriftState | DriftModel | Iterable[DriftModel] | None

#: The :class:`~repro.runtime.scheduler.SchedulerStats` ledger fields a
#: :class:`~repro.api.futures.RunReport` carries.
_LEDGER_FIELDS = (
    "requests", "batches", "samples", "cache_hits", "cache_misses",
    "cache_evictions", "weight_energy_spent", "weight_energy_saved",
    "weight_time_spent", "analog_time", "analog_energy", "deadline_misses",
)


@dataclass
class CompiledStage:
    """One model layer bound to the session core: the declarative
    ``spec`` plus, for compute layers, the photonic ``layer`` executing
    it (None for digital ReLU/AvgPool/Flatten glue)."""

    spec: object
    layer: PhotonicDense | PhotonicConv2d | None = None


class DeployedModel:
    """A compiled model graph serving as a session endpoint.

    ``submit(batch)`` queues a whole-network forward and returns a
    :class:`~repro.api.futures.Future`; pending batches coalesce at the
    next flush into one dense evaluation per input shape.  ``predict``
    (also ``__call__``) is the blocking convenience: submit + result.
    """

    def __init__(
        self,
        session: "PhotonicSession",
        model: Model,
        stages: list[CompiledStage],
        label: str,
    ) -> None:
        self._session = session
        self.model = model
        self.stages = stages
        self.label = label
        self._queue: list[tuple[np.ndarray, Future]] = []
        self._submitted = 0
        #: Set by a session recalibration: the compute layers must be
        #: re-attached to fresh cached programs before the next drain.
        self._needs_rebind = False

    @property
    def session(self) -> "PhotonicSession":
        return self._session

    @property
    def layers(self) -> list:
        """The compiled photonic layers (Dense/Conv2d stages), in order."""
        return [stage.layer for stage in self.stages if stage.layer is not None]

    # -- request path --------------------------------------------------------
    def _validated_batch(self, batch: ArrayLike) -> np.ndarray:
        """The batch as float, checked at submit so a bad batch is never
        queued: its shape for the model's input domain, finite entries,
        and the input checks a compute first stage makes at drain (a
        Dense layer's feature count and non-negative intensities, a
        Conv2d's channel count and non-negative intensities)."""
        batch = np.asarray(batch, dtype=float)
        if self.model.input_domain == "vector":
            if batch.ndim != 2 or len(batch) == 0:
                raise ConfigurationError(
                    f"model '{self.label}' expects a non-empty "
                    f"(samples, features) batch, got shape {batch.shape}"
                )
        elif batch.ndim not in (3, 4) or len(batch) == 0:
            raise ConfigurationError(
                f"model '{self.label}' expects a non-empty image batch "
                f"(batch, H, W) or (batch, channels, H, W), got shape {batch.shape}"
            )
        if not np.isfinite(batch).all():
            raise ConfigurationError(f"model '{self.label}' inputs must be finite")
        first = self.stages[0]
        if isinstance(first.spec, Conv2d):
            normalize_image_batch(batch, first.layer.in_channels)
        elif isinstance(first.spec, Dense):
            if batch.shape[1] != first.layer.in_features:
                raise ConfigurationError(
                    f"model '{self.label}' expects {first.layer.in_features} "
                    f"features, got shape {batch.shape}"
                )
            if (batch < 0.0).any():
                raise ConfigurationError(
                    f"model '{self.label}' inputs are analog intensities "
                    f"for its Dense input layer and must be non-negative"
                )
        return batch

    def submit(
        self,
        batch: ArrayLike,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one forward pass over ``batch``; resolved at the next
        flush (or immediately if the session flush policy trips).
        ``deadline`` / ``tenant`` follow the
        :meth:`PhotonicSession.submit` semantics — an endpoint batch
        whose deadline expires before its drain begins is shed."""
        batch = self._validated_batch(batch)
        session = self._session
        if deadline is not None:
            session._check_deadline(deadline)
        self._submitted += 1
        label = ("model '{}' batch #{}", self.label, self._submitted)
        future = session._new_future(label, deadline, tenant)
        if future.done:
            return future
        self._queue.append((batch, future))
        session._queued(future, "model")
        return future

    def predict(self, batch: ArrayLike) -> np.ndarray:
        """Blocking forward: submit + :meth:`Future.result`."""
        return self.submit(batch).result()

    __call__ = predict

    # -- evaluation (session flush internals) --------------------------------
    def _drain(self) -> int:
        """Serve the queue as one forward per input shape on the
        scheduler's ledger and service clock; returns resolved count.

        Endpoint batches shed on the simple rule: a deadline already
        past when the drain begins cannot be met (whole-network
        forwards have no cheap completion estimate).  Every future the
        drain resolved is stamped at its end, also when a later group's
        forward raises, so the failed flush reports finite latencies for
        what it served.
        """
        queue, self._queue = self._queue, []
        scheduler = self._session.scheduler
        live = scheduler._shed([future for _, future in queue], 0.0)
        if live is not None:
            queue = [queue[index] for index in live]
        groups: dict[tuple, list[tuple[np.ndarray, Future]]] = {}
        for batch, future in queue:
            groups.setdefault(batch.shape[1:], []).append((batch, future))
        try:
            for entries in groups.values():
                stack = np.concatenate([batch for batch, _ in entries], axis=0)
                outputs = self._forward(stack)
                scheduler._stats.batches += 1
                offset = 0
                for batch, future in entries:
                    future._resolve(outputs[offset : offset + len(batch)])
                    offset += len(batch)
        finally:
            resolved_at = scheduler.clock.now
            for _, future in queue:
                if future.done:
                    future._resolved_at = resolved_at
        return len(queue)

    def _forward(self, batch: np.ndarray) -> np.ndarray:
        """Run the stage chain, charging each compute stage's analog
        passes to the scheduler ledger as the compiled engines evaluate:
        one ADC sample period per pass per input column, the active
        grid burning its tile count times one tile's power (the same
        model as the conv route)."""
        current = batch
        for stage in self.stages:
            spec, layer = stage.spec, stage.layer
            if isinstance(spec, Dense):
                samples = len(current)
                current = layer.forward(current)
                self._charge(layer, samples)
            elif isinstance(spec, Conv2d):
                current = layer.forward_batch(current)
                self._charge(layer, len(current) * current.shape[2] * current.shape[3])
            elif isinstance(spec, ReLU):
                current = relu(current)
            elif isinstance(spec, AvgPool):
                current = avg_pool2d(current, spec.size)
            elif isinstance(spec, Flatten):
                current = current.reshape(len(current), -1)
            else:  # a spec added to graph.py but not wired up here
                raise ConfigurationError(
                    f"no forward rule for layer spec {type(spec).__name__}"
                )
        return current

    def _charge(self, layer: PhotonicDense | PhotonicConv2d, samples: int) -> None:
        program = layer.runtime_program()
        self._session.scheduler._charge(samples, program.passes, program.tile_count)

    def __repr__(self) -> str:
        return (
            f"<DeployedModel '{self.label}': "
            f"{len(self.model.compute_layers)} compute layers, "
            f"{len(self._queue)} pending>"
        )


class PhotonicSession:
    """A serving session owning one tile-sized core and all its state.

    ``grid=(rows, columns)`` sets the physical tile; any (out, in)
    unsigned weight matrix is served as a cached
    :class:`~repro.runtime.tiling.TiledMatmul` grid compiled on the
    session core — smaller shapes are zero-padded onto one tile (and
    return ADC codes), larger shapes are sharded across tiles.
    Declarative models deploy through :meth:`compile`.

    ``drift=[...DriftModel...]`` attaches a live
    :class:`~repro.health.DriftState` — the analog stack then ages
    with modelled serving time and conversions (and :meth:`age`) — and
    ``health_policy=HealthPolicy(...)`` closes the loop: probe checks
    on a flush cadence, automatic :meth:`recalibrate` past the
    code-error threshold (see :mod:`repro.health`).
    """

    def __init__(
        self,
        technology: Technology | None = None,
        grid: tuple[int, int] | None = None,
        weight_bits: int | None = None,
        adc_bits: int | None = None,
        cache_capacity: int = 8,
        max_batch: int = 256,
        flush_policy: FlushPolicy | None = None,
        drift: DriftLike = None,
        health_policy: HealthPolicy | None = None,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        telemetry: Telemetry | None = None,
        clock: ModelClock | None = None,
        program_store: ProgramStore | None = None,
        obs: Observer | None = None,
        label: str = "session",
    ) -> None:
        rows, columns = self._validated_grid(grid)
        self.technology = technology if technology is not None else default_technology()
        self._flush_policy = (
            flush_policy if flush_policy is not None else FlushPolicy.explicit()
        )
        self.label = str(label)
        if clock is not None and not isinstance(clock, ModelClock):
            raise ConfigurationError(
                f"clock must be a repro.telemetry.ModelClock or None "
                f"(host wall clock), got {type(clock).__name__}"
            )
        #: Injected time source, a :class:`~repro.telemetry.ModelClock`
        #: the caller advances (or None): ``deadline=`` stamps, the
        #: ``deadline_headroom`` slack, queue stamps and ``max_delay``
        #: ages read its ``now``, and every flush pulls the service
        #: clock up to it (never backwards).  None = the first three
        #: read the modelled service clock (``scheduler.clock``) and
        #: only ``max_delay`` ages read the host wall clock, via
        #: :func:`~repro.telemetry.profiling.wall_clock`.  The
        #: open-loop traffic engine injects a clock it advances to each
        #: arrival so simulation results never depend on host timing
        #: (see :mod:`repro.traffic`).
        self.clock = clock
        # -- telemetry (repro.telemetry) --------------------------------
        #: Optional :class:`~repro.telemetry.Telemetry` binding: the
        #: modelled clock, trace recorder and metrics registry of this
        #: core's timeline.  None (the default) = the serving path
        #: makes zero telemetry calls.
        self.telemetry: Telemetry | None
        if telemetry is not None:
            if not isinstance(telemetry, Telemetry):
                raise ConfigurationError(
                    f"telemetry must be a repro.telemetry.Telemetry, "
                    f"got {type(telemetry).__name__}"
                )
            self.telemetry = telemetry
        elif trace is not None or metrics is not None:
            if trace is not None and not isinstance(trace, TraceRecorder):
                raise ConfigurationError(
                    f"trace must be a repro.telemetry.TraceRecorder, "
                    f"got {type(trace).__name__}"
                )
            self.telemetry = Telemetry(
                trace=trace, metrics=metrics, process=self.label
            )
        else:
            self.telemetry = None
        # -- active observability (repro.obs) ---------------------------
        #: Optional :class:`~repro.obs.Observer`: the alerting monitor
        #: this session feeds its flush/health/event stream.  None (the
        #: default) = the serving path makes zero obs calls.  An
        #: attached observer needs per-flush latency windows, so it
        #: implies a metrics-only telemetry binding when none was
        #: passed.
        if obs is not None:
            from ..obs import Observer as _Observer

            if not isinstance(obs, _Observer):
                raise ConfigurationError(
                    f"obs must be a repro.obs.Observer, "
                    f"got {type(obs).__name__}"
                )
            if self.telemetry is None:
                self.telemetry = Telemetry(process=self.label)
        self.obs = obs
        self.scheduler = BatchScheduler(
            rows=rows,
            columns=columns,
            weight_bits=weight_bits,
            adc_bits=adc_bits,
            technology=self.technology,
            cache_capacity=cache_capacity,
            max_batch=max_batch,
            label="session",
        )
        self.scheduler.telemetry = self.telemetry
        if self.telemetry is not None:
            # One timeline: telemetry stamps the service clock itself.
            self.scheduler.clock = self.telemetry.clock
        #: The physical tile's shape.
        self.rows = self.scheduler.rows
        self.columns = self.scheduler.columns
        self._endpoints: list[DeployedModel] = []
        #: Futures queued since the last flush, in submit order: every
        #: request pending on any route, so its length is :attr:`pending`.
        #: It owns the four stamps derived from it below; :meth:`flush`
        #: clears all five in one statement.
        self._window: list[Future] = []
        #: The cluster whose running backlog counts this window (set by
        #: the cluster that builds the session; None for a lone session).
        self._fleet: PhotonicCluster | None = None
        self._oldest_pending: float | None = None
        #: Most urgent absolute deadline among pending requests (None =
        #: no pending request carries one); feeds the SLO-aware policy.
        self._earliest_deadline: float | None = None
        #: When the flush policy next trips on its own, from the two
        #: stamps above (see :meth:`_policy_due`); None when it cannot.
        self._due: float | None = None
        #: The cluster's flush order for the window's routed requests:
        #: (highest priority, fleet submit number of the first), or None
        #: (set by ``PhotonicCluster._note_routed``).
        self._fleet_order: tuple[int, int] | None = None
        self._flushes = 0
        #: Service-clock timestamp the current flush started at
        #: (queue-wait = flush start - submit stamp).
        self._flush_started = 0.0
        self._submit_count = 0
        #: The binding's ``requests`` counter, looked up on the first
        #: queued request (so none exists before it) and kept.
        self._requests_counter: Counter | None = None

        # -- health loop (repro.health) ----------------------------------
        #: Live degradation state of the core (None = ageless hardware).
        self.drift = self._coerce_drift(drift)
        if self.drift is not None:
            self.core.drift_state = self.drift
        if health_policy is not None and not isinstance(health_policy, HealthPolicy):
            raise ConfigurationError(
                f"health_policy must be a repro.health.HealthPolicy, "
                f"got {type(health_policy).__name__}"
            )
        self.health_policy = health_policy
        #: Probe monitor (built at construction when a policy is set,
        #: lazily by :meth:`check_health` otherwise).
        self.health: HealthMonitor | None = None
        self._health_history: list[HealthReport] = []
        self._probe_runs = 0
        self._probe_vectors = 0
        self._recalibrations = 0
        self._calibration_time = 0.0
        self._calibration_energy = 0.0
        self._in_maintenance = False
        if self.health_policy is not None:
            self.ensure_monitor(self.health_policy)

        # -- persisted warm starts (repro.elastic) -----------------------
        #: Optional :class:`~repro.elastic.ProgramStore` both program
        #: caches write through to and read back from: compiled
        #: programs persist across sessions (and processes), so a fresh
        #: core warm-starts bit-for-bit instead of recompiling.
        if program_store is not None and not isinstance(program_store, ProgramStore):
            raise ConfigurationError(
                f"program_store must be a repro.elastic.ProgramStore, "
                f"got {type(program_store).__name__}"
            )
        self.program_store = program_store
        if program_store is not None:
            fingerprint = core_fingerprint(
                self.technology,
                self.rows,
                self.columns,
                self.core.weight_bits,
                self.core.row_adcs[0].bits,
            )
            for cache in (self.scheduler.cache, self.tiled_cache):
                cache.attach_store(program_store, self.core, fingerprint)
        self._last_totals = self._totals()

    # -- geometry ------------------------------------------------------------
    @property
    def core(self) -> PhotonicTensorCore:
        """The physical tensor core backing every route."""
        return self.scheduler.core

    @property
    def performance(self) -> PerformanceModel:
        return self.scheduler.performance

    @property
    def tiled_cache(self) -> WeightProgramCache:
        """Shared LRU of tiled, conv and model-layer programs."""
        return self.scheduler.tiled_cache

    @property
    def flushes(self) -> int:
        """Completed flush count (futures name flush ``flushes + 1``)."""
        return self._flushes

    @property
    def pending(self) -> int:
        """Requests submitted but not yet flushed, across all routes:
        the flush window's length (every booked request joins it, and a
        flush empties it), so a read sums no queue."""
        return len(self._window)

    @property
    def flush_policy(self) -> FlushPolicy:
        """When pending traffic flushes on its own (see
        :class:`~repro.api.policy.FlushPolicy`).  Assigning a new policy
        re-derives the published due time of the current window."""
        return self._flush_policy

    @flush_policy.setter
    def flush_policy(self, policy: FlushPolicy) -> None:
        self._flush_policy = policy
        self._due = self._policy_due()

    @property
    def endpoints(self) -> tuple:
        """Deployed model endpoints, in compile order."""
        return tuple(self._endpoints)

    # -- gain policy ---------------------------------------------------------
    @staticmethod
    def _validated_gain(gain: float | str | None) -> float | str | None:
        """Normalize the shared gain semantics of every request path:
        None = native TIA gain 1.0, "auto" = calibrate the range from
        the weights, a positive float = explicit setting."""
        if gain is None or gain == "auto":
            return gain
        if not isinstance(gain, (int, float)):
            raise ConfigurationError(f"gain must be a number, 'auto' or None, got {gain!r}")
        if gain <= 0.0:
            raise ConfigurationError(f"TIA gain must be positive, got {gain}")
        return float(gain)

    @staticmethod
    def _validated_grid(
        grid: tuple[int, int] | None,
    ) -> tuple[int | None, int | None]:
        """``grid=`` as ``(rows, columns)`` ints, or ``(None, None)``
        for the technology's default tile; the one parser of the
        session and the cluster."""
        if grid is None:
            return None, None
        try:
            rows, columns = (int(dim) for dim in grid)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"grid must be a (rows, columns) pair, got {grid!r}"
            ) from None
        return rows, columns

    # -- raw dense route -----------------------------------------------------
    @staticmethod
    def _check_dense(
        weights: ArrayLike, x: ArrayLike, gain: float | str | None, max_weight: int
    ) -> None:
        """Raise what :meth:`submit` and the scheduler would for a
        malformed dense request that never reaches them (shed at fleet
        admission): its shapes, its gain, its weights against ``[0,
        max_weight]`` and its input within [0, 1].  :meth:`submit`
        keeps its own checks inline, so an admitted request pays no
        call for them."""
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ConfigurationError(
                f"weight matrix must be 2-D, got shape {weights.shape}"
            )
        x = np.asarray(x, dtype=float)
        if x.shape != (weights.shape[1],):
            raise ConfigurationError(
                f"input must have shape ({weights.shape[1]},), got {x.shape}"
            )
        PhotonicSession._validated_gain(gain)
        check_dense_weights(weights, max_weight)
        check_unit_inputs(x)

    def submit(
        self,
        weights: ArrayLike,
        x: ArrayLike,
        gain: float | str | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one W @ x request; returns its :class:`Future`.

        ``gain`` sets the row-TIA range on every tile the request
        touches: None runs at the native gain 1.0, ``"auto"``
        calibrates the range from the weights (the same rule on both
        the single-tile and the tiled path), and a positive float is
        applied as-is.

        ``deadline`` (seconds from now, None = best effort; "now" is
        the injected ``clock=`` when one is given, else the modelled
        service clock, and a NaN is rejected) sheds the request with a
        :class:`~repro.errors.DeadlineExceededError` instead of serving
        it late: a non-positive deadline sheds at submit, and a flush
        whose batch cannot complete in time sheds at evaluation —
        either way the returned future's ``expired`` flag is set and
        the miss counts on :attr:`RunReport.deadline_misses`.
        ``tenant`` labels the request for per-tenant telemetry.
        """
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ConfigurationError(
                f"weight matrix must be 2-D, got shape {weights.shape}"
            )
        x = np.asarray(x, dtype=float)
        out_features, in_features = weights.shape
        if x.shape != (in_features,):
            raise ConfigurationError(
                f"input must have shape ({in_features},), got {x.shape}"
            )
        gain = self._validated_gain(gain)
        if deadline is not None and self._check_deadline(deadline):
            # Shed at submit, before the scheduler would check the weights
            # and the input: check them here, so a malformed request
            # raises instead of counting as a deadline miss.
            check_dense_weights(weights, self.core.max_weight)
            check_unit_inputs(x)
        self._submit_count += 1
        label = ("dense {}x{} request #{}", out_features, in_features, self._submit_count)
        future = self._new_future(label, deadline, tenant)
        if future.done:
            return future
        # None is the native gain 1.0 on both dense routes; the scheduler
        # resolves "auto" by the one range-calibration rule (per tile on
        # a grid).  Requests at different gains never share a batch.
        gain = 1.0 if gain is None else gain
        # The queue holds a private input, never the caller's buffer; the
        # scheduler pads the weights once per content while its memo
        # holds them.  An in-grid input queues as one list of Python
        # floats zero-padded to the tile: the private copy, the padding
        # and the operand of the scheduler's range check in one.
        columns = self.columns
        if out_features <= self.rows and in_features <= columns:
            column = x.tolist()
            column += [0.0] * (columns - in_features)
            self.scheduler.submit("native", weights, column, future, gain, out_features)
            self._queued(future, "native")
        else:
            self.scheduler.submit("tiled", weights, x.copy(), future, gain)
            self._queued(future, "tiled")
        return future

    # -- conv route ----------------------------------------------------------
    @staticmethod
    def _validated_conv(
        kernels: ArrayLike, image: ArrayLike, stride: int, gain: float | None
    ) -> tuple[np.ndarray, np.ndarray, float, tuple[int, int]]:
        """A conv request checked whole: the kernel bank
        (:func:`~repro.ml.convolution.normalize_kernel_bank`), its
        numeric gain (None = native 1.0), the image against the bank's
        channels and its output shape at ``stride``.  Returns the bank,
        the image, the gain and the (rows, columns) output shape."""
        kernels = normalize_kernel_bank(kernels)
        gain = PhotonicSession._validated_gain(gain)
        if gain == "auto":
            raise ConfigurationError(
                "the conv route takes a numeric gain (or None for native 1.0)"
            )
        gain = 1.0 if gain is None else float(gain)
        image = normalize_image(image, kernels.shape[1])
        return kernels, image, gain, output_shape(image.shape[1:], kernels.shape[2], stride)

    def submit_conv(
        self,
        kernels: ArrayLike,
        image: ArrayLike,
        stride: int = 1,
        gain: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one im2col convolution; returns its :class:`Future`.

        ``kernels`` is a float bank of finite taps, of shape (n, k, k)
        — or (n, channels, k, k) — quantized (once per bank content,
        by the scheduler's program memo) into a differential conv program
        keyed on the quantized integers, so repeated banks hit the
        shared program cache; ``image`` is a finite, non-negative
        (H, W) or (channels, H, W) intensity map, validated here and
        queued as a private copy: the flush unrolls and encodes the
        batch's images together.  ``gain`` is the row-TIA range
        setting applied to every tile (None = native 1.0); the
        per-tile ``"auto"`` calibration is not offered here because
        differential halves must digitize at one common gain to
        subtract exactly.  ``deadline`` / ``tenant`` follow the
        :meth:`submit` semantics; a request already expired at submit
        is shed before any quantization or im2col work.
        """
        kernels, image, gain, (out_rows, out_cols) = self._validated_conv(
            kernels, image, stride, gain
        )
        kernel_size = kernels.shape[2]
        if deadline is not None:
            self._check_deadline(deadline)
        self._submit_count += 1
        label = ("conv {}-kernel request #{}", kernels.shape[0], self._submit_count)
        shape = (kernels.shape[0], out_rows, out_cols)
        future = self._new_future(label, deadline, tenant, shape=shape)
        if future.done:
            return future
        # A private copy: ``normalize_image`` may return a view of the
        # caller's array, which could change before the flush unrolls it.
        self.scheduler.submit(
            "conv",
            kernels,
            (image.copy(), kernel_size, stride, out_rows * out_cols),
            future,
            gain,
        )
        self._queued(future, "conv")
        return future

    # -- model endpoints -----------------------------------------------------
    def compile(
        self,
        model: Model,
        calibration: np.ndarray | None = None,
        label: str | None = None,
    ) -> DeployedModel:
        """Deploy a declarative :class:`Model` onto this session's core.

        Compute layers quantize onto the core's pSRAM format and bind
        to compiled tile engines from the shared program cache (a model
        recompiled with the same quantized weights hits the cache and
        skips the pSRAM re-streaming).  ``calibration`` — a float batch
        of model inputs — range-calibrates every Dense layer whose spec
        leaves ``gain=None``, exactly as
        :class:`~repro.ml.network.PhotonicMLP` does per layer.
        """
        if not isinstance(model, Model):
            raise ConfigurationError(
                f"compile() takes a repro.api.Model, got {type(model).__name__}"
            )
        label = label if label is not None else f"model-{len(self._endpoints)}"
        stages: list[CompiledStage] = []
        for spec in model.layers:
            if isinstance(spec, Dense):
                layer = PhotonicDense(
                    spec.weights,
                    self.core,
                    bias=spec.bias,
                    signed=spec.signed,
                    runtime=True,
                )
                if spec.gain is not None:
                    layer.gain = float(spec.gain)
                self._bind_program(layer, prefix=b"dense:")
                stages.append(CompiledStage(spec=spec, layer=layer))
            elif isinstance(spec, Conv2d):
                layer = PhotonicConv2d(
                    spec.kernels,
                    self.core,
                    stride=spec.stride,
                    gain=spec.gain,
                    runtime=True,
                )
                self._bind_program(layer, prefix=b"conv:")
                stages.append(CompiledStage(spec=spec, layer=layer))
            else:
                stages.append(CompiledStage(spec=spec))
        if calibration is not None:
            self._calibrate(stages, calibration)
        endpoint = DeployedModel(self, model, stages, label)
        self._endpoints.append(endpoint)
        return endpoint

    def _bind_program(
        self, layer: PhotonicDense | PhotonicConv2d, prefix: bytes
    ) -> None:
        """Bind a quantized layer to cached compiled engines (the same
        key scheme as the conv route, so a served kernel bank and a
        compiled model layer share one program)."""
        source = np.concatenate([layer.q_positive, layer.q_negative])
        program = self.scheduler._program("conv", prefix + weight_key(source), source)
        layer.attach_program(program)

    def _calibrate(self, stages: list[CompiledStage], batch: ArrayLike) -> None:
        """Propagate a float calibration batch through the stage chain,
        range-calibrating each uncommitted Dense layer on the float
        activations reaching it (the per-layer ADC range calibration
        standard in analog IMC deployments)."""
        current = np.asarray(batch, dtype=float)
        for stage in stages:
            spec, layer = stage.spec, stage.layer
            if isinstance(spec, Dense):
                if current.ndim != 2 or current.shape[1] != layer.in_features:
                    raise ConfigurationError(
                        f"dense layer expects {layer.in_features} features, "
                        f"but the calibration batch reaches it with shape "
                        f"{current.shape}"
                    )
                if spec.gain is None:
                    layer.calibrate_gain(current)
                current = layer.forward_float(current)
            elif isinstance(spec, Conv2d):
                current = np.stack([layer.forward_float(image) for image in current])
            elif isinstance(spec, ReLU):
                current = relu(current)
            elif isinstance(spec, AvgPool):
                current = avg_pool2d(current, spec.size)
            elif isinstance(spec, Flatten):
                current = current.reshape(len(current), -1)
            else:  # a spec added to graph.py but not wired up here
                raise ConfigurationError(
                    f"no calibration rule for layer spec {type(spec).__name__}"
                )

    # -- health: drift, probes, recalibration --------------------------------
    @staticmethod
    def _coerce_drift(drift: DriftLike) -> DriftState | None:
        """Accept None, a ready DriftState, one DriftModel or an
        iterable of models (wrapped into a fresh state)."""
        if drift is None:
            return None
        if isinstance(drift, DriftState):
            return drift
        if isinstance(drift, DriftModel):
            return DriftState((drift,), label="session")
        try:
            models = tuple(drift)
        except TypeError:
            raise ConfigurationError(
                f"drift must be a DriftState, DriftModel(s) or None, "
                f"got {type(drift).__name__}"
            ) from None
        # An empty suite models nothing: same as no drift at all (and
        # keeps recalibration from ever chasing an inactive state).
        if not models:
            return None
        return DriftState(models, label="session")

    #: Bisection probes per ADC code boundary during a ladder re-trim
    #: (full-scale range down to ~uV resolution).
    _LADDER_BISECTION_STEPS = 40

    @property
    def health_history(self) -> tuple[HealthReport, ...]:
        """Every probe check this session ran, in order."""
        return tuple(self._health_history)

    def ensure_monitor(self, policy: HealthPolicy | None = None) -> HealthMonitor:
        """The session's probe monitor, built on first use (golden
        codes freeze at that point; they are pristine regardless of the
        core's age, so a late monitor still measures true drift)."""
        if self.health is None:
            policy = policy if policy is not None else (self.health_policy or HealthPolicy())
            self.health = HealthMonitor(
                self, probes=policy.probes, seed=policy.probe_seed
            )
        return self.health

    def check_health(self, recalibrated: bool = False) -> HealthReport:
        """Replay the probe vectors through the live core and report
        the code walk against the compile-time golden codes."""
        report = self.ensure_monitor().check(recalibrated=recalibrated)
        self._health_history.append(report)
        obs = self.obs
        if obs is not None:
            obs.observe_health(self.scheduler.clock.now, self.label, report)
        return report

    def age(self, seconds: float) -> None:
        """Model ``seconds`` of idle time passing: the service clock
        advances by them (later completions and deadline sheds read the
        gap) and, with drift attached, the analog stack ages too.
        ``seconds`` must be finite and non-negative; it is checked
        before anything moves."""
        if not (0.0 <= seconds < math.inf):
            raise ConfigurationError(
                f"age must be finite and non-negative, got {seconds}"
            )
        if self.drift is not None:
            self.drift.advance(seconds=seconds)
        self.scheduler.clock.advance(seconds)

    def recalibrate(self) -> HealthReport | None:
        """Re-trim the core online and invalidate exactly the stale
        programs.

        The modelled re-trim re-bisects every row ADC's code ladder
        (:meth:`~repro.core.eoadc.EoAdc.code_boundaries` probes charged
        to the calibration ledger by formula; on the host the row ADCs'
        banks are rebuilt via :meth:`~repro.core.tensor_core.
        PhotonicTensorCore.invalidate_ladders`, and unchanged trims take
        their ladder back from the process-wide ladder memo) and
        programs the measured drift into the
        TIA gain trims — :meth:`DriftState.recalibrate` bumps the
        calibration epoch.  Cached weight programs compiled under an
        older epoch are evicted so hot programs recompile lazily on
        their next request; deployed model endpoints rebind at their
        next flush.  Returns the post-trim verification probe check
        (bit-for-bit against golden on a healthy trim) when a monitor
        exists.
        """
        if self.drift is None or not self.drift.active:
            raise ConfigurationError(
                "this session models no drift; construct it with "
                "drift=[...DriftModel...] to enable recalibration"
            )
        if self.pending:
            self.flush()
        # Modelled re-trim cost: one bisection ladder per row ADC, each
        # boundary probed down the full-scale range, at the converter's
        # own sample rate and energy per conversion.
        adc = self.core.row_adcs[0]
        conversions = (
            self.core.rows * (adc.levels - 1) * self._LADDER_BISECTION_STEPS
        )
        retrim_time = conversions / adc.sample_rate
        self._calibration_time += retrim_time
        self._calibration_energy += conversions * adc.energy_per_conversion
        clock = self.scheduler.clock
        retrim_start = clock.now
        clock.advance(retrim_time)
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("recalibrations").inc()
            if tel.trace is not None:
                tel.span(
                    "recalibrate",
                    "health",
                    retrim_start,
                    retrim_time,
                    args={
                        "epoch": self.drift.epoch + 1,
                        "ladder_conversions": conversions,
                    },
                )
            obs = self.obs
            if obs is not None:
                obs.note_event(
                    clock.now,
                    "recalibrate",
                    {"source": self.label, "epoch": self.drift.epoch + 1},
                )
        self.drift.recalibrate()
        self.core.invalidate_ladders()
        epoch = self.drift.epoch
        for cache in (self.scheduler.cache, self.tiled_cache):
            cache.evict_where(lambda program: program.calibration_epoch != epoch)
        for endpoint in self._endpoints:
            endpoint._needs_rebind = True
        self._recalibrations += 1
        if self.health is not None:
            self.health.recompile()
            return self.check_health(recalibrated=True)
        return None

    def _maybe_run_health(self) -> None:
        """The flush-time health hook: probe on the policy cadence and
        recalibrate past its threshold."""
        policy = self.health_policy
        if policy is None or self._in_maintenance:
            return
        if self._flushes % policy.probe_every:
            return
        self._in_maintenance = True
        try:
            report = self.check_health()
            if (
                policy.recalibrate_threshold is not None
                and report.code_error_rate > policy.recalibrate_threshold
            ):
                self.recalibrate()
        finally:
            self._in_maintenance = False

    def _rebind_endpoint(self, endpoint: DeployedModel) -> None:
        """Re-attach a recalibrated endpoint's compute layers to fresh
        cached programs (misses recompile and are charged as usual)."""
        for stage in endpoint.stages:
            if stage.layer is None:
                continue
            prefix = b"dense:" if isinstance(stage.spec, Dense) else b"conv:"
            self._bind_program(stage.layer, prefix=prefix)
        endpoint._needs_rebind = False

    # -- clocks & deadlines --------------------------------------------------
    def _now(self) -> float:
        """The ``max_delay`` age source [s]: the injected clock source
        when one is set, the host wall clock otherwise."""
        clock = self.clock
        if clock is None:
            return wall_clock()
        return clock.now

    def _stamp_now(self) -> float:
        """'Now' for deadline stamps, the deadline slack and queue
        stamps [s]: the injected clock when one is set, else the
        modelled service clock, so a deadline is always judged on
        modelled time."""
        clock = self.clock
        if clock is None:
            return self.scheduler.clock.now
        return clock.now

    @staticmethod
    def _check_deadline(deadline: float) -> bool:
        """Reject a ``deadline=`` [s] that is not a number, or is NaN:
        every submit route runs this before it counts or numbers the
        request, and fleet admission before it sheds one, so all share
        one error message.  Returns whether the deadline has already
        passed (it is not positive)."""
        if (
            not isinstance(deadline, (int, float))
            or isinstance(deadline, bool)
            or math.isnan(deadline)
        ):
            raise ConfigurationError(
                f"deadline must be seconds from now (a number) or None, "
                f"got {deadline!r}"
            )
        return deadline <= 0.0

    def _new_future(
        self,
        label: tuple,
        deadline: float | None,
        tenant: str | None,
        shape: tuple | None = None,
    ) -> Future:
        """A future for the next flush.  Given a ``deadline`` (already
        checked by :meth:`_check_deadline`), it reads :meth:`_stamp_now`
        once and carries the absolute deadline past it: shed at once (it
        never enters a queue) when ``deadline`` is already non-positive,
        else keeping the stamp as its submit stamp for :meth:`_queued`.
        ``label`` is the ``(template, *args)`` its label formats from
        on first read."""
        future = Future(self, label, self._flushes + 1, shape=shape)
        future._tenant = tenant
        if deadline is not None:
            stamp = self._stamp_now()
            future._deadline = stamp + float(deadline)
            if deadline <= 0.0:
                self._shed_future(future)
            else:
                future._submitted_at = stamp
        return future

    def _shed_future(self, future: Future) -> None:
        """Fail one request expired at submit: reads raise the typed
        error, the miss counts on the scheduler's ledger with the
        flush-time sheds."""
        future._expire()
        self.scheduler._stats.deadline_misses += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("deadline_misses").inc()

    def _queued(self, future: Future, route: str) -> None:
        """Book one request into the flush window (and its cluster's
        backlog) and count it on the ``requests`` ledger, the one place
        every route counts it: its telemetry submit stamp, the most
        urgent pending deadline and the oldest stamp (republishing the
        due time when either moves under a policy that reads it), then
        the flush policy itself.  A request reads the stamp clock at
        most once, kept on the future: the deadline stamp, the
        telemetry submit stamp and the deadline slack share it.  With no
        deadline, no telemetry and no delay or headroom limit it reads
        neither the stamp clock nor builds a due time."""
        window = self._window
        window.append(future)
        self.scheduler._stats.requests += 1
        fleet = self._fleet
        if fleet is not None:
            fleet._backlog += 1
        stamp = future._submitted_at
        tel = self.telemetry
        if tel is not None:
            if stamp is None:
                stamp = future._submitted_at = self._stamp_now()
            future._route = route
            counter = self._requests_counter
            if counter is None:
                counter = self._requests_counter = tel.metrics.counter("requests")
            counter.inc()
        policy = self._flush_policy
        moved = False
        deadline_at = future._deadline
        if deadline_at is not None and (
            self._earliest_deadline is None
            or deadline_at < self._earliest_deadline
        ):
            self._earliest_deadline = deadline_at
            moved = policy.deadline_headroom is not None
        # The age source is read only to stamp the window's first
        # request or for a policy that has a delay limit.
        age = 0.0
        if self._oldest_pending is None:
            self._oldest_pending = self._now()
            moved = moved or policy.delay_limit is not None
        elif policy.delay_limit is not None:
            age = self._now() - self._oldest_pending
        if moved:
            self._due = self._policy_due()
        slack = None
        if policy.deadline_headroom is not None and self._earliest_deadline is not None:
            if stamp is None:
                stamp = self._stamp_now()
            slack = self._earliest_deadline - stamp
        if policy.should_flush(len(window), age, slack):
            self.flush()

    # -- flush ---------------------------------------------------------------
    def _policy_due(self) -> float | None:
        """The modelled time the flush policy next trips on its own:
        the oldest stamp plus the delay limit or the earliest deadline
        minus the headroom, whichever comes first; None when neither
        applies.  An event loop polls at it
        (:meth:`repro.traffic.TrafficEngine._next_trigger`)."""
        policy = self._flush_policy
        due = None
        oldest = self._oldest_pending
        if policy.delay_limit is not None and oldest is not None:
            due = oldest + policy.delay_limit
        deadline = self._earliest_deadline
        if policy.deadline_headroom is not None and deadline is not None:
            slack_due = deadline - policy.deadline_headroom
            if due is None or slack_due < due:
                due = slack_due
        return due

    def _deadline_slack(self) -> float | None:
        """Seconds until the most urgent pending deadline expires, on
        the deadlines' own timeline (:meth:`_stamp_now`); None = no
        pending deadline, or the policy ignores them — skipping the
        arithmetic keeps the common path free."""
        if (
            self._flush_policy.deadline_headroom is None
            or self._earliest_deadline is None
        ):
            return None
        return self._earliest_deadline - self._stamp_now()

    def poll(self) -> int:
        """Re-check the flush policy's deadline without submitting.

        ``max_delay`` / SLO deadlines are otherwise only evaluated
        inside submit/result calls, so a lone queued request could sit
        past its deadline until the next API call arrives.  Event loops
        call this periodically; it flushes if the policy has tripped
        and returns the resolved count (0 when nothing was due).  Ages
        are measured on the session's clock source — the host wall
        clock by default, the injected ``clock=`` in simulation — and
        deadline slack as in :meth:`_stamp_now`.
        """
        if self._oldest_pending is None:
            return 0
        now = self._now()
        if self._flush_policy.should_flush(
            len(self._window), now - self._oldest_pending, self._deadline_slack()
        ):
            return self.flush()
        return 0

    @property
    def next_deadline(self) -> float | None:
        """The most urgent pending absolute deadline (None = no pending
        request carries one); with ``deadline_headroom`` the flush
        policy trips at ``next_deadline - deadline_headroom``."""
        return self._earliest_deadline

    @property
    def oldest_pending_at(self) -> float | None:
        """Session-clock timestamp the oldest pending request was
        submitted at (None = nothing pending); with ``delay_limit`` the
        flush policy trips at ``oldest_pending_at + delay_limit``.  The
        session publishes the earlier of the two due times as it books
        requests (:meth:`_policy_due`), and the traffic engine schedules
        its :meth:`poll` calls on that."""
        return self._oldest_pending

    def flush(self) -> int:
        """Evaluate every pending request; returns resolved count.

        The scheduler's one loop serves every dense and conv group, then
        model endpoints drain, all on the one modelled service clock
        (``scheduler.clock``), attached or not.  With an injected
        ``clock=`` the flush first pulls the service clock up to its
        'now' (never backwards): an idle core starts serving at the
        present, a backlogged one keeps its later time.  Requests
        carrying a ``deadline=`` are shed instead of evaluated when
        their batch's modelled completion time falls past the deadline
        (the estimate uses the *pre-shed* batch size, so a shed never
        resurrects a later request).  The window and everything derived
        from it (the oldest stamp, the earliest deadline, the due time
        and the fleet flush order) leave in one statement as the flush
        starts, served or not, and the window leaves its cluster's
        backlog with them.
        """
        tel = self.telemetry
        clock = self.scheduler.clock
        if self.clock is not None:
            now = self._now()
            if clock.now < now:
                clock.now = now
        self._flush_started = clock.now
        (window, self._window, self._oldest_pending, self._earliest_deadline,
         self._due, self._fleet_order) = (self._window, [], None, None, None, None)
        fleet = self._fleet
        if fleet is not None:
            fleet._backlog -= len(window)
        try:
            resolved = self.scheduler.flush()
            for endpoint in self._endpoints:
                if endpoint._queue:
                    if endpoint._needs_rebind:
                        self._rebind_endpoint(endpoint)
                    resolved += endpoint._drain()
        finally:
            # Never leave a stale endpoint queue behind (the scheduler
            # clears its own groups): a failed evaluation must not wedge
            # every subsequent flush.  Futures the failure left unresolved
            # are marked abandoned so their reads say "re-submit".
            for endpoint in self._endpoints:
                endpoint._queue.clear()
            served = []
            for future in window:
                if not future.done:
                    future._abandon()
                elif future._error is None:
                    served.append(future)
            self._flushes += 1
            report = self._delta_report(served)
            for future in served:
                future._attach_report(report)
        if tel is not None:
            self._emit_flush_telemetry(report, served)
        # The flush's modelled serving time and conversions age the
        # core; the policy then probes (and maybe recalibrates) on its
        # cadence.  Skipped when the evaluation raised — a failed flush
        # serves nothing, so it ages nothing.
        if self.drift is not None and self.drift.active:
            self.drift.advance(
                seconds=report.total_latency, inferences=report.samples
            )
        self._maybe_run_health()
        obs = self.obs
        if obs is not None:
            obs.observe_flush(clock.now, self.label, report, pending=self.pending)
        return resolved

    def _emit_flush_telemetry(
        self, report: RunReport, resolved_futures: list[Future]
    ) -> None:
        """Close the flush on the telemetry side: counters, the flush
        span on the core track, and one lifecycle span per resolved
        request on the requests track."""
        tel = self.telemetry
        if tel is None:
            return
        tel.metrics.counter("flushes").inc()
        tel.metrics.gauge("pending").set(self.pending)
        if tel.trace is None:
            return
        tel.span(
            f"flush #{self._flushes}",
            "flush",
            self._flush_started,
            self.scheduler.clock.now - self._flush_started,
            args={
                "requests": report.requests,
                "batches": report.batches,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "latency_us": report.total_latency * 1e6,
                "pending": self.pending,
            },
        )
        for future in resolved_futures:
            if future._submitted_at is None or future._resolved_at is None:
                continue
            tel.request_span(
                future.label,
                future._submitted_at,
                future._resolved_at - future._submitted_at,
                args={"route": future._route, "flush": self._flushes},
            )

    # -- reporting -----------------------------------------------------------
    def _totals(self) -> dict:
        stats = self.scheduler._stats
        return {
            **{name: getattr(stats, name) for name in _LEDGER_FIELDS},
            "probe_runs": self._probe_runs,
            "probe_vectors": self._probe_vectors,
            "recalibrations": self._recalibrations,
            "calibration_time": self._calibration_time,
            "calibration_energy": self._calibration_energy,
        }

    def _delta_report(self, served: list[Future]) -> RunReport:
        """The flush's :class:`RunReport`; with telemetry attached, its
        served window goes to the binding as columns, once: queue wait
        (flush start minus submit stamp), end-to-end latency (resolve
        minus submit stamp) and tenant labels."""
        totals = self._totals()
        delta = {
            key: totals[key] - self._last_totals[key] for key in totals
        }
        self._last_totals = totals
        quantiles = None
        if self.telemetry is not None:
            submitted = np.array([f._submitted_at for f in served], dtype=float)
            resolved = np.array([f._resolved_at for f in served], dtype=float)
            quantiles = self.telemetry.drain_window(
                self._flush_started - submitted,
                resolved - submitted,
                [f._tenant for f in served],
            )
        return RunReport(
            flush_index=self._flushes, latency_quantiles=quantiles, **delta
        )

    def report(self) -> RunReport:
        """Cumulative session accounting as one unified RunReport.

        With a telemetry binding attached, ``latency_quantiles``
        carries the cumulative per-request queue-wait and end-to-end
        modelled latency distributions (histogram-derived quantiles)
        and ``tenant_quantiles`` the same split per request label;
        without one both are None and every other field is bit-for-bit
        what the uninstrumented session reports.
        """
        tel = self.telemetry
        quantiles = tel.latency_quantiles() if tel is not None else None
        tenants = tel.tenant_quantiles() if tel is not None else None
        return RunReport(
            flush_index=self._flushes,
            latency_quantiles=quantiles,
            tenant_quantiles=tenants,
            **self._totals(),
        )
