"""Request batching, weight-program caching and the one flush executor.

The physical core imposes two costs a naive caller pays on every
request: streaming the weight matrix through the pSRAM arrays (one
20 GHz cycle per column, plus 0.5 pJ per flipped bitcell) and one ADC
sample period per input vector.  Traffic amortizes both:

* :class:`WeightProgramCache` — an LRU of compiled weight programs
  keyed on the matrix bytes.  A hit skips the pSRAM re-streaming
  entirely (the weights are already latched and compiled); only misses
  pay load energy and compile time.
* :class:`BatchScheduler` — the one pending-group executor behind
  :class:`repro.api.PhotonicSession`, and the one store of its queued
  requests.  Requests queue in four group kinds, flushed in this
  order: in-grid dense requests on one-tile
  :class:`~repro.runtime.tiling.TiledMatmul` grids (the only kind that
  returns ADC codes and chunks at ``max_batch``), larger dense
  requests on multi-tile grids, im2col convolutions on
  :class:`~repro.runtime.tiling.DifferentialProgram` pairs, each per
  (weight program, TIA gain), and model endpoint batches per
  (endpoint, per-sample input shape).  One
  :meth:`~BatchScheduler.flush` loop sheds, evaluates, stamps and
  clears every group, paying the Python/ADC dispatch once per batch.

Work that depends only on a weight program is done once per program
per *scheduler*, not per request: the first request for given weight
content runs the weight checks, pads the matrix to the tile, keys it
(:func:`~repro.runtime.engine.weight_key`) and resolves its ``"auto"``
gain; later requests with the same content — same shape, dtype and
bytes — look that up, in this window or any later one, and
range-check only their own input.  A conv kernel bank is likewise
checked, quantized into its differential pair and keyed once, under a
content key tagged ``"conv"`` of the bank as given, which the session
probes before it checks anything else.  The memo outlives flushes
(failed ones too) and is bounded like the cluster's route memo: once
it holds as many programs as both program caches together, it is
cleared whole before the next insert.  Keying on content keeps it
exact: an in-place edit of the caller's array changes its bytes and
misses, and the memo's private arrays, which compiled programs alias,
are read-only.  Groups
stay keyed on the canonical key of the padded matrix (of the
quantized pair, for a bank), so copies of one matrix in other integer
dtypes or memory layouts still share one batch, as do banks that
quantize to the same integers (each request keeps its own weight
scale).

Per-request dense work is the input's range check.  An in-grid input
queues as one list of Python floats zero-padded to the tile (its
private copy), checked by C-level ``min``/``max`` and a NaN-catching
``sum``; a tiled input, which has no width bound, queues as an array
copy checked by the two ufunc reductions, as
:func:`~repro.runtime.engine.check_unit_inputs` checks a batch.  Both
reject what the reductions reject, a NaN anywhere or an entry outside
[0, 1], with one message.  The flush builds each dense batch with one
``np.array`` of the queued entries and one C-contiguous transpose (the
same float64 bytes either way, so programs of different declared
widths that pad to one matrix share a batch), and each future takes
its view of the result, sliced once per batch.

Per-image conv work is done once per batch: a conv group queues each
request's validated image (a private copy), and the flush unrolls the
batch's images with one :func:`~repro.ml.convolution.im2col_channels`
call per run of consecutive requests sharing an image shape, kernel
size and stride, peak-encodes every patch with one
:func:`~repro.ml.convolution.encode_patch_batch` call (a C-ordered
batch, which the kernel chunks without padding it) and evaluates the
pair in one stacked kernel pass, which reads out only the bank's
rows.  The batch is scaled once, ``(raw * weight scale) * patch
scale`` as each request's own product would be, with one scalar weight
scale when the group shares it and one per patch column otherwise;
each image then takes a copy of its columns in its own output shape,
so equal patch counts never share a shape and a kept value never pins
the batch.

A model group queues each endpoint batch as the private copy its
endpoint checked at submit; the flush stacks a group's batches and
runs them through the endpoint's stage chain in one forward, which
charges each compute stage to the ledger and clock itself.  A
whole-network forward has no cheap completion estimate, so a model
batch sheds only the deadlines already past at its start.

Accounting rides on the device models: load energy is one pSRAM switch
per set weight bit of the program, analog time/energy come from
:class:`~repro.core.performance.PerformanceModel`, and every cache hit
is credited with the re-streaming cost it avoided.  Every load and
batch advances the scheduler's one modelled service clock
(:attr:`BatchScheduler.clock`), which deadline shedding reads; the
owning session's probes, re-trims and idle gaps advance the same clock,
with or without telemetry attached.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, groupby, pairwise, repeat

import numpy as np

from ..config import Technology, default_technology
from ..core.performance import PerformanceModel
from ..core.quantization import quantize_weights_differential
from ..core.tensor_core import PhotonicTensorCore
from ..errors import ConfigurationError, ProgramStoreError
from ..ml.convolution import encode_patch_batch, im2col_channels, normalize_kernel_bank
from ..ml.layers import compile_differential_program
from ..telemetry.clock import ModelClock
from .engine import unit_range_error, weight_key
from .tiling import TiledMatmul, auto_range_gain


def check_dense_weights(weights: np.ndarray, max_weight: int) -> None:
    """Reject a dense weight matrix no ``max_weight`` core can hold.

    Checks the values as given, before any cast: a dtype outside bool,
    integer and float first (a string, object or complex matrix would
    raise untyped from numpy), then non-finite or non-integral entries,
    then entries outside ``[0, max_weight]``.  So NaN or 1e30 fail
    typed instead of warning in an int64 cast, and an error reports the
    caller's range.  The range test is a negated in-range comparison.
    """
    if weights.dtype.kind not in "biuf":
        raise ConfigurationError(
            f"weights must be a bool, integer or float array, "
            f"got dtype {weights.dtype}"
        )
    if weights.dtype.kind == "f" and not np.all(
        np.isfinite(weights) & (weights == np.floor(weights))
    ):
        raise ConfigurationError("weights must be integers, got non-integral entries")
    if weights.size:
        low, high = weights.min(), weights.max()
        if not (0 <= low and high <= max_weight):
            raise ConfigurationError(
                f"weights must lie in [0, {max_weight}], got range [{low}, {high}]"
            )


class WeightProgramCache:
    """Least-recently-used cache of weight programs.

    Generic over the cached value (a scheduler keeps its one-tile
    in-grid programs in one cache and its larger tiled and
    differential grids in another); the key is the canonical byte
    string of the weight matrix (:func:`repro.runtime.engine.weight_key`).
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._programs: OrderedDict[bytes, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Programs dropped by :meth:`evict_where` (recalibration),
        #: not by LRU capacity pressure.
        self.invalidations = 0
        #: Programs restored from the attached program store instead of
        #: recompiled (:meth:`read_back`).
        self.restores = 0
        #: Store entries rejected on read-back (stale epoch, corrupt
        #: payload) — each one fell back to a cold compile.
        self.store_rejects = 0
        self._store = None
        self._store_core: PhotonicTensorCore | None = None
        self._store_fingerprint: str | None = None

    def __len__(self) -> int:
        return len(self._programs)

    def __contains__(self, key: bytes) -> bool:
        return key in self._programs

    def keys(self) -> list[bytes]:
        """Cached keys, least recently used first."""
        return list(self._programs)

    def get(self, key: bytes):
        """Look up a program, refreshing its recency.  Counts the
        hit/miss; returns None on miss."""
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            return None
        self._programs.move_to_end(key)
        self.hits += 1
        return program

    def evict_where(self, predicate) -> int:
        """Drop every cached program ``predicate(program)`` selects;
        returns the dropped count.

        This is the *invalidation* path (recalibration dropping
        programs compiled under stale trims), tallied separately from
        capacity ``evictions`` so the LRU pressure statistics stay
        meaningful.
        """
        stale = [
            key for key, program in self._programs.items() if predicate(program)
        ]
        for key in stale:
            del self._programs[key]
        self.invalidations += len(stale)
        return len(stale)

    def put(self, key: bytes, program) -> object | None:
        """Insert a program, evicting the least recently used entry
        beyond capacity.  Returns the evicted program (or None).

        With a program store attached (:meth:`attach_store`) the insert
        writes through: the compiled program is persisted so another
        core — or another process — can warm-start it.  Capacity
        evictions do *not* remove store entries (the store is the
        durable tier; the LRU is the hot tier).
        """
        if self._store is not None:
            try:
                self._store.save(key, program, fingerprint=self._store_fingerprint)
            except (ConfigurationError, ProgramStoreError):
                # A value kind the store does not persist (the cache is
                # generic), or an entry it cannot write; keep it
                # hot-tier only.
                pass
        return self._insert(key, program)

    def _insert(self, key: bytes, program) -> object | None:
        """:meth:`put` without the write-through (a program restored
        from the store is already persisted there)."""
        self._programs[key] = program
        self._programs.move_to_end(key)
        if len(self._programs) > self.capacity:
            _, evicted = self._programs.popitem(last=False)
            self.evictions += 1
            return evicted
        return None

    # -- persistence tier ----------------------------------------------------
    def attach_store(
        self, store, core: PhotonicTensorCore, fingerprint: str
    ) -> None:
        """Back this cache with a :class:`repro.elastic.ProgramStore`.

        ``core`` is the core the cached programs compile on, and
        ``fingerprint`` its :func:`repro.elastic.core_fingerprint`
        (computed once by the caller).  :meth:`read_back` reads the
        core at restore time: its technology, its live
        :class:`~repro.health.DriftState` (restored engines rebind to
        it) and its *current* calibration epoch (entries from other
        epochs are rejected and recompiled).  Once attached,
        :meth:`put` writes through and :meth:`read_back` restores
        misses.
        """
        self._store = store
        self._store_core = core
        self._store_fingerprint = fingerprint

    @property
    def store(self):
        """The attached :class:`repro.elastic.ProgramStore` (or None)."""
        return self._store

    def read_back(self, key):
        """Restore ``key`` from the attached store, or None.

        Counts ``restores`` / ``store_rejects`` (a reject — stale
        calibration epoch or corrupt entry — means the caller should
        compile cold; the fresh :meth:`put` overwrites the bad entry).
        Does *not* insert: callers charge the load ledgers exactly like
        a cold compile, then insert without writing the program back
        (:meth:`_insert`).
        """
        if self._store is None:
            return None
        core = self._store_core
        drift = core.drift_state
        try:
            program = self._store.load(
                key,
                fingerprint=self._store_fingerprint,
                epoch=drift.epoch if drift is not None and drift.active else 0,
                technology=core.technology,
                drift_state=drift,
            )
        except ProgramStoreError:
            self.store_rejects += 1
            return None
        if program is not None:
            self.restores += 1
        return program

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Group:
    """One pending group: the weight source its (program, gain) compiles
    from, or the endpoint a model group runs, and per request its input,
    handle and kept rows."""

    __slots__ = ("source", "inputs", "handles", "rows", "has_deadline")

    def __init__(self, source) -> None:
        self.source = source
        self.inputs: list = []
        self.handles: list = []
        self.rows: list[int | None] = []
        self.has_deadline = False


#: Group kinds in flush order: in-grid, tiled, conv, then model.
_KINDS = ("native", "tiled", "conv", "model")


@dataclass
class SchedulerStats:
    """Aggregate accounting of a scheduler's traffic so far (every group
    kind, plus whatever the owning session charges through it); what is
    pending is the session's flush window, not a ledger field."""

    #: Requests the owning session booked into its window, on any route.
    requests: int = 0
    flushed: int = 0
    batches: int = 0
    max_batch: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: pSRAM streaming energy actually spent on cache misses [J].
    weight_energy_spent: float = 0.0
    #: pSRAM streaming energy avoided by cache hits [J].
    weight_energy_saved: float = 0.0
    #: Weight streaming time actually spent [s] / avoided [s].
    weight_time_spent: float = 0.0
    weight_time_saved: float = 0.0
    #: Sequential ADC sample slots consumed: one per batched input
    #: column and analog pass.
    samples: int = 0
    #: Analog compute time [s] and wall-plug energy [J] from the
    #: PerformanceModel (one sample period per column and pass, the
    #: active grid burning its tile count times one tile's power).
    analog_time: float = 0.0
    analog_energy: float = 0.0
    #: Requests shed for their ``deadline=``: at submit, already
    #: expired (the owning session counts these here), and at flush,
    #: when their batch's modelled completion time fell past it.
    deadline_misses: int = 0

    @property
    def batch_fill(self) -> float:
        """Mean evaluated batch size over the configured maximum."""
        if self.batches == 0 or self.max_batch == 0:
            return 0.0
        return self.flushed / (self.batches * self.max_batch)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_latency(self) -> float:
        """Modelled serving time [s]: weight streaming plus analog compute."""
        return self.weight_time_spent + self.analog_time

    @property
    def total_energy(self) -> float:
        """Modelled serving energy [J]: weight streaming plus analog compute."""
        return self.weight_energy_spent + self.analog_energy


class BatchScheduler:
    """Coalesces requests into batched compiled evaluations.

    One physical :class:`PhotonicTensorCore` backs the scheduler and
    compiles every program on itself; each distinct in-grid weight
    matrix becomes a one-tile grid in the LRU ``cache``, and larger
    grids and differential pairs live in ``tiled_cache``.  Requests
    queue per (weight program, gain), endpoint batches per (endpoint,
    per-sample shape), and :meth:`flush` runs every group: in-grid
    groups as dense batches of at most ``max_batch`` columns, tiled,
    conv and model groups whole.  The owning session counts and books
    the requests (:attr:`repro.api.PhotonicSession.pending`).
    """

    def __init__(
        self,
        rows: int | None = None,
        columns: int | None = None,
        weight_bits: int | None = None,
        adc_bits: int | None = None,
        technology: Technology | None = None,
        cache_capacity: int = 8,
        max_batch: int = 256,
        label: str = "sched",
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max batch must be >= 1, got {max_batch}")
        self.technology = technology if technology is not None else default_technology()
        self.core = PhotonicTensorCore(
            rows=rows,
            columns=columns,
            weight_bits=weight_bits,
            adc_bits=adc_bits,
            technology=self.technology,
            label=label,
        )
        self.performance = PerformanceModel(
            technology=self.technology,
            rows=self.core.rows,
            columns=self.core.columns,
            weight_bits=self.core.weight_bits,
        )
        self.rows = self.core.rows
        self.columns = self.core.columns
        #: The ledger's constants: one ADC sample period [s] and one
        #: tile's wall-plug power [W].
        self._period = 1.0 / self.performance.sample_rate
        self._tile_power = self.performance.total_power
        self.cache = WeightProgramCache(cache_capacity)
        #: LRU of multi-tile and differential programs.
        self.tiled_cache = WeightProgramCache(4)
        self.max_batch = max_batch
        self._pending: dict[str, dict[tuple, _Group]] = {kind: {} for kind in _KINDS}
        #: Checked programs, kept across flushes: (shape, dtype, bytes)
        #: of dense weights as given -> (key, padded read-only private
        #: copy, resolved "auto" gain; None on a grid), and ("conv",
        #: shape, dtype, bytes) of a kernel bank as given -> (key,
        #: read-only W+ over W-, (scale, normalized bank shape)).
        #: Cleared whole when full (see :meth:`_memoised`).
        self._checked: dict[tuple, tuple] = {}
        #: The (shape, dtype, bytes) content key of the next dense
        #: request's weights when its caller has already built it: a
        #: cluster sets it around the one session submit it routes (its
        #: route memo keys on the same tuple) and clears it after, so
        #: the program memo does not key the weights a second time.
        self._content_key: tuple | None = None
        self._stats = SchedulerStats(max_batch=max_batch)
        #: Optional :class:`repro.telemetry.Telemetry` binding (set by
        #: the owning session).  None = zero telemetry calls on the
        #: flush path.
        self.telemetry = None
        #: The one modelled service clock [s]: every load, batch and
        #: shed reads or advances it.  A session with a telemetry
        #: binding makes the binding's clock this clock, so telemetry
        #: stamps the same timeline.
        self.clock = ModelClock()

    # -- request path --------------------------------------------------------
    def submit(
        self,
        kind: str,
        source: np.ndarray,
        column,
        handle,
        gain: float | str = 1.0,
        rows: int | None = None,
    ) -> None:
        """Queue one request on its (program, gain) group: the
        scheduler's one request entry point, called by the owning
        session's submit routes.

        ``kind`` says what the other arguments hold: ``"native"`` — the
        weight matrix as given (at most one tile; padded here) and the
        input as a list of Python floats zero-padded to the tile's
        columns; ``"tiled"`` — both as given, the input a float array
        (larger than one tile); ``"conv"`` — the kernel bank's memo
        entry (:meth:`_conv_program`, which the session probes before it
        checks the image) and one validated image's ``(private
        (channels, H, W) copy, kernel size, stride, patch count)``,
        unrolled and encoded with its batch at flush; ``"model"`` — the
        :class:`~repro.api.DeployedModel` and the private batch copy it
        checked at submit, grouped on the batch's per-sample shape
        (``gain`` is unused).  Dense requests
        are validated here (the weights once per weight content while
        the memo holds it, see :meth:`_dense_program`; the input every
        time: a native list by ``min``/``max``/``sum``, a tiled array by
        the two ufunc reductions; one rule and one message), and a
        native ``gain="auto"`` takes the gain calibrated there.
        ``handle`` is the session future the flush resolves (or sheds,
        when its absolute ``_deadline`` on :attr:`clock` falls before
        its batch completes); ``rows`` keeps that many outputs of a
        native request.  The caller hands over ``column`` and books the
        request.
        """
        if kind == "model":
            # The per-sample shape takes the gain's place in the group key.
            key, program, gain = source, source, column.shape[1:]
        elif kind == "conv":
            key, program, (weight_scale, _) = source
            column = (*column, weight_scale)
        else:
            key, program, auto = self._dense_program(kind, source)
            if gain == "auto" and auto is not None:
                gain = auto
            if kind == "native":
                # At most one tile of Python floats: C-level min/max reject
                # entries outside [0, 1], and a sum of entries in [0, 1]
                # never exceeds their count unless one is a NaN (which
                # min/max skip when it is not the first entry).
                if not (
                    0.0 <= min(column)
                    and max(column) <= 1.0
                    and sum(column) <= len(column)
                ):
                    # Name the caller's entries, not the tile padding.
                    raise unit_range_error(column[: source.shape[1]])
            # A tiled column is a 1-D array of any width: the ufunc
            # reductions ``ndarray.min``/``max`` wrap, without the
            # wrapper's per-call cost; a NaN fails the negated test.
            elif column.size and not (
                0.0 <= np.minimum.reduce(column) and np.maximum.reduce(column) <= 1.0
            ):
                raise unit_range_error(column)
        table = self._pending[kind]
        group = table.get((key, gain))
        if group is None:
            # Every weight source is a private array made by the memo:
            # an in-place change to the caller's array before the flush
            # would otherwise compile other weights under this key and
            # poison the program cache for every later request.
            group = table[key, gain] = _Group(program)
        group.inputs.append(column)
        group.handles.append(handle)
        group.rows.append(rows)
        if handle._deadline is not None:
            group.has_deadline = True

    def _dense_program(self, kind: str, weights: np.ndarray) -> tuple:
        """The memo's checked program for these weights: ``(key,
        source, auto gain)`` (see ``_checked``).

        Looked up by the weights' exact content as given, never by
        their int64 cast (``[[2.5]]`` casts to ``[[2]]``, so a cast key
        would let a non-integral matrix skip the check), and only for
        numeric dtypes (an object array's bytes are pointers).  A miss
        validates the caller's matrix with :func:`check_dense_weights`
        (which rejects every other dtype) before padding it, so an
        error reports the caller's range; then it takes a private int
        copy (``"native"``: padded to the tile, with its ``"auto"``
        gain range-calibrated; a grid calibrates per tile at compile)
        and keys it.  A content key the caller already built
        (``_content_key``) is used as given.
        """
        content = self._content_key
        if content is None and weights.dtype.kind in "biuf":
            content = (weights.shape, weights.dtype, weights.tobytes())
        if content is not None:
            program = self._checked.get(content)
            if program is not None:
                return program
        max_weight = self.core.max_weight
        check_dense_weights(weights, max_weight)
        checked = np.asarray(weights, dtype=int)
        auto = None
        if kind == "native":
            source = np.zeros((self.rows, self.columns), dtype=int)
            source[: checked.shape[0], : checked.shape[1]] = checked
            auto = auto_range_gain(source, self.columns * max_weight)
        else:
            source = checked.copy()
        return self._memoised(content, (weight_key(source), source, auto))

    def _conv_program(self, kernels) -> tuple:
        """The memo's checked program for a kernel bank as its caller
        gave it: ``(key, W+ stacked over W-, (weight scale, (n, channels,
        k, k) shape of the normalized bank))`` (see ``_checked``).

        Looked up by the bank's exact content as given, before any
        check, and only for numeric dtypes, as dense weights are.  A
        miss checks and promotes the bank with
        :func:`~repro.ml.convolution.normalize_kernel_bank` (a bank
        that fails raises and is never memoised), quantizes it into its
        differential pair and keys the pair; the ``"conv:"`` key prefix
        keeps a bank from colliding with a plain weight matrix in the
        tiled LRU."""
        kernels = np.asarray(kernels)
        content = None
        if kernels.dtype.kind in "biuf":
            content = ("conv", kernels.shape, kernels.dtype, kernels.tobytes())
            program = self._checked.get(content)
            if program is not None:
                return program
        bank = normalize_kernel_bank(kernels)
        q_positive, q_negative, weight_scale = quantize_weights_differential(
            bank.reshape(len(bank), -1), self.core.weight_bits
        )
        pair = np.concatenate([q_positive, q_negative])
        return self._memoised(
            content, (b"conv:" + weight_key(pair), pair, (weight_scale, bank.shape))
        )

    def _memoised(self, content: tuple | None, program: tuple) -> tuple:
        """Store ``program`` under ``content`` (None: a bank of a dtype
        the memo does not key, returned unstored), its source made
        read-only (compiled programs alias it).  A memo already holding
        as many programs as both caches together is cleared whole
        first, the cluster route memo's rule."""
        program[1].flags.writeable = False
        if content is None:
            return program
        checked = self._checked
        if len(checked) >= self.cache.capacity + self.tiled_cache.capacity:
            checked.clear()
        checked[content] = program
        return program

    # -- the shared flush helpers --------------------------------------------
    def _compile(self, kind: str, source: np.ndarray):
        if kind != "conv":
            return TiledMatmul(source, self.core)
        half = len(source) // 2
        return compile_differential_program(source[:half], source[half:], self.core)

    def _program(self, kind: str, key: bytes, source: np.ndarray):
        """Fetch, warm-restore or compile one program (``kind`` as in
        :meth:`submit`; model layers bind theirs as ``"conv"``).  A hit
        is credited with the pSRAM streaming it avoids; a miss pays it
        on the ledger and the service clock, even when the program is
        restored from the attached store (that skips only the host-side
        compile)."""
        cache = self.cache if kind == "native" else self.tiled_cache
        stats = self._stats
        tel = self.telemetry
        program = cache.get(key)
        if program is not None:
            stats.cache_hits += 1
            stats.weight_energy_saved += program.weight_update_energy
            stats.weight_time_saved += program.weight_update_time
            if tel is not None:
                tel.metrics.counter("cache_hits").inc()
                if tel.trace is not None:
                    tel.instant("cache_hit", "cache", args={"program": key[:12].hex()})
            return program
        stats.cache_misses += 1
        program = cache.read_back(key)
        restored = program is not None
        if not restored:
            program = self._compile(kind, source)
        load_time = program.weight_update_time
        stats.weight_energy_spent += program.weight_update_energy
        stats.weight_time_spent += load_time
        insert = cache._insert if restored else cache.put
        if insert(key, program) is not None:
            stats.cache_evictions += 1
        clock = self.clock
        start = clock.now
        clock.advance(load_time)
        if tel is not None:
            tel.metrics.counter("cache_misses").inc()
            if restored:
                tel.metrics.counter("warm_starts").inc()
            if tel.trace is not None:
                tel.span(
                    f"{'warm start' if restored else 'compile'} {kind}",
                    "fleet" if restored else "compile",
                    start,
                    load_time,
                    args={
                        "program": key[:12].hex(),
                        "tiles": program.tile_count,
                        "load_energy_pj": program.weight_update_energy * 1e12,
                    },
                )
        return program

    def _shed(self, handles: list, seconds: float) -> list[int] | None:
        """Expire every handle whose deadline falls before a completion
        ``seconds`` of service from the clock's now; returns the
        survivors' indices, or None when every request survives."""
        completion = self.clock.now + seconds
        live = []
        for index, handle in enumerate(handles):
            if handle._deadline is not None and handle._deadline < completion:
                handle._expire()
            else:
                live.append(index)
        misses = len(handles) - len(live)
        if not misses:
            return None
        self._stats.deadline_misses += misses
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("deadline_misses").inc(misses)
        return live

    def _charge(self, columns: int, passes: int = 1, tiles: int = 1) -> None:
        """Charge analog evaluation to the ledger and the service clock:
        one ADC sample period per input column and analog pass, the
        active grid burning ``tiles`` times one tile's power."""
        period = self._period
        seconds = columns * period * passes
        stats = self._stats
        stats.samples += columns * passes
        stats.analog_time += seconds
        stats.analog_energy += columns * period * self._tile_power * tiles
        self.clock.advance(seconds)

    # -- evaluation ----------------------------------------------------------
    def flush(self) -> int:
        """Evaluate every pending group; returns resolved request count.

        Groups run by kind — in-grid, tiled, conv, model — each in
        first-submit order: a weight group's program is fetched,
        restored or compiled (:meth:`_program`; a model group runs its
        endpoint, which binds its own), then each batch (in-grid groups
        chunk at ``max_batch``, the others run whole) goes through
        :meth:`_run`.  Everything runs on :attr:`clock`, which carries on
        from where the last flush, probe or idle gap left it.  Every
        group is cleared as the flush ends, served or not.
        """
        resolved = 0
        try:
            for kind, table in self._pending.items():
                for (key, gain), group in table.items():
                    program = (
                        group.source
                        if kind == "model"
                        else self._program(kind, key, group.source)
                    )
                    size = len(group.handles)
                    step = self.max_batch if kind == "native" else size
                    for start in range(0, size, step):
                        part = slice(start, start + step)
                        resolved += self._run(kind, key, gain, program, group, part)
        finally:
            # Never leave a stale group behind: a failed compile or
            # evaluation must not wedge every subsequent flush (the
            # checked programs stay memoised).
            for table in self._pending.values():
                table.clear()
            self._stats.flushed += resolved
        return resolved

    def _run(self, kind: str, key, gain, program, group: _Group, part: slice) -> int:
        """One batch of a group; returns its resolved count.

        Requests carrying a deadline are shed first when it falls before
        the batch's completion — one ADC sample period per column and
        pass of the *pre-shed* batch from the service clock's now, so a
        shed never resurrects a later request; a model batch, whose
        whole-network forward has no cheap estimate, is judged at its
        start (a 0 s estimate).  The survivors run as one matmul (a model
        batch as one forward, which charges its own stages), the ledger
        and clock are charged, and each handle resolves with its view of
        the result, stamped at the batch's completion.
        """
        inputs, handles, rows = group.inputs[part], group.handles[part], group.rows[part]
        if group.has_deadline:
            seconds = 0.0
            if kind != "model":
                columns = (
                    sum(entry[3] for entry in inputs) if kind == "conv" else len(inputs)
                )
                seconds = columns * self._period * program.passes
            live = self._shed(handles, seconds)
            if live is not None:
                inputs = [inputs[index] for index in live]
                handles = [handles[index] for index in live]
                rows = [rows[index] for index in live]
                if not handles:
                    return 0
        clock = self.clock
        start = clock.now
        codes = repeat(None)
        if kind == "model":
            stack = np.concatenate(inputs)
            outputs = program._forward(stack)
            columns = len(stack)
            bounds = pairwise([0, *accumulate(map(len, inputs))])
            values = [outputs[lo:hi] for lo, hi in bounds]
        elif kind == "conv":
            batch, scales = encode_patch_batch(_unroll(inputs))
            raw = program.matmul(batch, gain=gain)
            counts = [entry[3] for entry in inputs]
            # One scale per batch, in the per-request product's order:
            # (raw * weight scale) * patch scale.  Banks that quantize to
            # the same integers share a group with their own scales.
            weight_scale = inputs[0][4]
            if any(entry[4] != weight_scale for entry in inputs):
                weight_scale = np.repeat([entry[4] for entry in inputs], counts)
            scaled = raw * weight_scale * scales
            values = []
            offset = 0
            for count, handle in zip(counts, handles):
                stop = offset + count
                # Each image's own array, in its own output shape: a kept
                # value never pins the batch.
                values.append(scaled[:, offset:stop].reshape(handle.shape).copy())
                offset = stop
        else:
            # One (requests, columns) float64 array of the queued entries
            # (lists or arrays; the dtype spares the type discovery) and
            # one C-contiguous transpose: the array
            # ``np.stack(inputs, axis=1)`` builds, for less.
            batch = np.ascontiguousarray(np.array(inputs, dtype=float).T)
            if kind == "tiled":
                values = program.matmul(batch, gain=None if gain == "auto" else gain).T
            else:
                result = program.tiles[0][0].matmul(batch, gain=gain)
                values, codes = result.estimates.T, result.codes.T
                kept = rows[0]
                if rows.count(kept) == len(rows):
                    values, codes = values[:, :kept], codes[:, :kept]
                else:
                    # Programs of different declared rows padded to one
                    # matrix share the group: each keeps its own rows.
                    values = [value[:count] for value, count in zip(values, rows)]
                    codes = [code[:count] for code, count in zip(codes, rows)]
        if kind != "model":
            columns = batch.shape[1]
            self._charge(columns, program.passes, program.tile_count)
        self._stats.batches += 1
        now = clock.now
        for handle, value, code in zip(handles, values, codes):
            handle._resolve(value, code, now)
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("batches").inc()
            tel.metrics.histogram(
                "batch_size", lo=1.0, hi=1e6, per_decade=16
            ).observe(float(columns))
            if tel.trace is not None:
                if kind == "model":
                    args = {"endpoint": program.label, "samples": columns}
                else:
                    args = {
                        "program": key[:12].hex(),
                        "columns": columns,
                        "passes": program.passes,
                        "tiles": program.tile_count,
                        "gain": gain,
                    }
                duration = clock.now - start
                tel.span(f"{kind} batch x{columns}", "batch", start, duration, args)
        return len(handles)

    def stats(self) -> SchedulerStats:
        """Detached snapshot of the accounting so far."""
        return dataclasses.replace(self._stats)


def _unroll(inputs: list) -> np.ndarray:
    """The im2col columns of a conv batch's queued images, in request
    order: one :func:`~repro.ml.convolution.im2col_channels` call on the
    stacked images of each run of consecutive requests that share a
    geometry (image shape, kernel size, stride)."""
    parts = [
        im2col_channels(np.stack([entry[0] for entry in run]), kernel_size, stride)
        for (_, kernel_size, stride), run in groupby(
            inputs, key=lambda entry: (entry[0].shape, entry[1], entry[2])
        )
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
