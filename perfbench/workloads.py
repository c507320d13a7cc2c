"""The four benchmark workloads, driven through the public serving API.

Every workload builds its inputs from the seed alone, then runs in
*rounds*: a round is a fixed, seeded unit of work, and the runner
repeats rounds until the measuring time is up.  Round 0 is the
reference round.  Its outputs are kept and a seeded sample of them is
checked against the device-loop oracles, and the modelled (``modelled_``)
figures come from its reports, so they repeat exactly for a seed.
Later rounds are timed on the host clock.

* ``warm_dense`` — one session, eight Zipf-popular dense programs over
  the four serve-bench shapes, all compiled during set-up; one caller
  submits bursts of 64 requests and reads every result.
* ``cold_churn`` — every program is new: a writer session compiles
  each one and writes it through to a fresh :class:`ProgramStore`,
  then fresh reader sessions restore every program from that store.
* ``fleet_traffic`` — a :class:`TrafficEngine` replays a seeded Poisson
  tape of eight tenants against a four-core cache-affinity cluster,
  open-loop on the modelled clock, with admission and deadline sheds.
* ``warm_conv_model`` — one session serves conv images against one
  kernel bank, interleaved with ``DeployedModel.predict`` batches of a
  calibrated Conv2d → ReLU → AvgPool → Flatten → Dense endpoint.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import clock
from repro.api import FlushPolicy, PhotonicCluster, PhotonicSession, RoutingPolicy
from repro.api.graph import AvgPool, Conv2d, Dense, Flatten, Model, ReLU
from repro.core.tensor_core import PhotonicTensorCore
from repro.elastic import ProgramStore
from repro.ml.convolution import PhotonicConv2d, avg_pool2d
from repro.ml.layers import PhotonicDense, relu
from repro.ml.mapping import MatrixTiler
from repro.telemetry import MetricsRegistry, ModelClock
from repro.traffic import SLO, Poisson, Tenant, TrafficEngine, WorkloadMix


#: The four serve-bench shapes on an 8x8 tile: native, sub-tile, tiled, tall.
SHAPES = ((8, 8), (4, 6), (12, 12), (17, 8))
GRID = (8, 8)
MAX_WEIGHT = 7
BURST = 64

#: Float outputs of the tiled, conv and model routes must match the
#: device loop to within summation-order rounding; one ADC code apart
#: is a full LSB, far outside this.
RTOL = 1e-9
ATOL = 1e-12


class NoTrace:
    """Stand-in for :class:`tracer.Tracer` in untraced runs."""

    request: object = None


@dataclass
class Round:
    """One round's host timing and request accounting."""

    #: Requests the round carried through the front door (for the
    #: fleet, every tape arrival: each ends resolved or shed).
    requests: int
    seconds: float
    #: Requests the fleet shed at admission or by deadline.  The tape is
    #: sized to shed them, so they count in ``error_rate`` but are not
    #: failures of the program.
    shed: int = 0
    #: Host speed during the round relative to the reference host (set
    #: by the runner from :mod:`hostspeed`); host rates divide by it.
    speed: float = 1.0
    #: Workload-specific phase figures (cold_churn write/read split).
    phases: dict = field(default_factory=dict)


def _close(value: np.ndarray, reference: np.ndarray) -> bool:
    return value.shape == reference.shape and bool(
        np.allclose(value, reference, rtol=RTOL, atol=ATOL)
    )


def _report_delta(after, before) -> dict:
    """Modelled ledger of a window between two cumulative reports."""
    return {
        "requests": after.requests - before.requests,
        "time": (after.analog_time + after.weight_time_spent)
        - (before.analog_time + before.weight_time_spent),
        "energy": (after.analog_energy + after.weight_energy_spent)
        - (before.analog_energy + before.weight_energy_spent),
    }


def _modelled(ops: float, completed: int, time_s: float, energy_j: float) -> dict:
    return {
        "modelled_tops": ops / time_s / 1e12,
        "modelled_tops_per_w": ops / energy_j / 1e12,
        "modelled_throughput_per_s": completed / time_s,
    }


def _cache_counters(sessions) -> dict:
    """Cumulative program-cache and scheduler counters of ``sessions``."""
    totals = dict.fromkeys(
        ("cache_hits", "cache_misses", "cache_evictions", "compiled",
         "sched_flushed", "sched_batches", "sched_deadline_misses", "requests"),
        0,
    )
    for session in sessions:
        stats = session.scheduler.stats()
        report = session.report()
        totals["cache_hits"] += report.cache_hits
        totals["cache_misses"] += report.cache_misses
        totals["cache_evictions"] += report.cache_evictions
        for cache in (session.scheduler.cache, session.tiled_cache):
            totals["compiled"] += cache.misses - cache.restores
        totals["sched_flushed"] += stats.flushed
        totals["sched_batches"] += stats.batches
        totals["sched_deadline_misses"] += stats.deadline_misses
        totals["requests"] += report.requests
    return totals


class DenseOracle:
    """The device loops the tier-1 tests compare against: codes of
    :meth:`PhotonicTensorCore.matvec` for shapes that fit one tile, and
    :meth:`MatrixTiler.matvec` estimates for tiled shapes."""

    def __init__(self) -> None:
        self.core = PhotonicTensorCore(rows=GRID[0], columns=GRID[1])
        self.tiler = MatrixTiler(self.core)

    def mismatches(self, cases) -> int:
        """``cases``: (weights, x, value, codes) per checked request;
        returns how many disagree with the device loop."""
        rows, columns = self.core.rows, self.core.columns
        failed = 0
        for weights, x, value, codes in sorted(
            cases, key=lambda case: id(case[0])
        ):
            out_features, in_features = weights.shape
            if out_features <= rows and in_features <= columns:
                padded_w = np.zeros((rows, columns), dtype=int)
                padded_w[:out_features, :in_features] = weights
                padded_x = np.zeros(columns)
                padded_x[:in_features] = x
                if not np.array_equal(self.core.weight_matrix, padded_w):
                    self.core.load_weight_matrix(padded_w)
                expected = self.core.matvec(padded_x, gain=1.0).codes[:out_features]
                ok = codes is not None and np.array_equal(codes, expected)
            else:
                ok = _close(value, self.tiler.matvec(weights, x, gain=1.0))
            failed += not ok
        return failed


class Workload:
    """Round-based workload driven by :mod:`run`."""

    name = ""
    #: Whether the target carries a telemetry binding.
    attached = False
    #: Rounds every timed phase runs at least, however short.
    min_rounds = 3

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.scratch = scratch
        self.tracer = NoTrace()

    def build(self) -> object:
        """Build a target and fill its caches (timed as ``setup_s``)."""
        raise NotImplementedError

    def use(self, target: object) -> None:
        """Serve the following rounds on ``target`` (a fresh build)."""

    def reference(self) -> tuple[Round, dict]:
        """Run round 0 keeping its outputs; returns the round and its
        modelled figures."""
        raise NotImplementedError

    def round(self, index: int) -> Round:
        """Run one timed round."""
        raise NotImplementedError

    def verify(self) -> tuple[int, int]:
        """(requests checked, mismatches) of the correctness gate."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Cumulative counters of the workload's targets so far."""
        raise NotImplementedError

    def character(self, timed: dict) -> list[str]:
        """Violations of the workload's defining behaviour, given the
        counter deltas over the timed phase."""
        return []

    def extra_metrics(self, rounds: list[Round]) -> dict:
        """Workload-specific host figures printed beside the contract."""
        return {}


class WarmDense(Workload):
    """One warm session, eight Zipf-popular programs, bursts of 64."""

    name = "warm_dense"
    PROGRAMS = 8
    ROUND_REQUESTS = 8192
    SAMPLE = 64

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = np.random.default_rng([self.seed, 1])
        self.weights = [
            rng.integers(0, MAX_WEIGHT + 1, SHAPES[index % len(SHAPES)])
            for index in range(self.PROGRAMS)
        ]
        # Exact Zipf counts in a seeded order: every seed serves the
        # same shape mix, so host cost does not drift with the seed.
        popularity = 1.0 / np.arange(1, self.PROGRAMS + 1)
        counts = np.floor(self.ROUND_REQUESTS * popularity / popularity.sum())
        counts[0] += self.ROUND_REQUESTS - counts.sum()
        self.programs = rng.permutation(
            np.repeat(np.arange(self.PROGRAMS), counts.astype(int))
        )
        self.inputs = [
            rng.uniform(0.0, 1.0, self.weights[program].shape[1])
            for program in self.programs
        ]
        self.sample = np.sort(
            rng.choice(self.ROUND_REQUESTS, size=self.SAMPLE, replace=False)
        )
        self.ops = sum(2 * self.weights[p].size for p in self.programs)
        self._reference_futures: list = []
        self._round_samples: list[list[np.ndarray]] = []

    def build(self) -> PhotonicSession:
        session = PhotonicSession(grid=GRID, flush_policy=FlushPolicy.max_batch(BURST))
        for weights in self.weights:
            session.submit(weights, np.zeros(weights.shape[1])).result()
        return session

    def use(self, target: PhotonicSession) -> None:
        self.session = target

    def _serve(self) -> tuple[list, float]:
        submit = self.session.submit
        tracer = self.tracer
        weights = self.weights
        programs = self.programs
        inputs = self.inputs
        futures: list = []
        started = clock()
        for first in range(0, self.ROUND_REQUESTS, BURST):
            burst = []
            for index in range(first, min(first + BURST, self.ROUND_REQUESTS)):
                tracer.request = index
                burst.append(submit(weights[programs[index]], inputs[index]))
            for index, future in enumerate(burst, start=first):
                tracer.request = index
                future.result()
            futures.extend(burst)
        return futures, clock() - started

    def reference(self) -> tuple[Round, dict]:
        before = self.session.report()
        futures, seconds = self._serve()
        delta = _report_delta(self.session.report(), before)
        self._reference_futures = futures
        modelled = _modelled(self.ops, delta["requests"], delta["time"], delta["energy"])
        return Round(len(futures), seconds), modelled

    def round(self, index: int) -> Round:
        futures, seconds = self._serve()
        self._round_samples.append([futures[i].value for i in self.sample])
        return Round(len(futures), seconds)

    def verify(self) -> tuple[int, int]:
        cases = []
        for index in self.sample:
            future = self._reference_futures[index]
            program = self.programs[index]
            cases.append(
                (self.weights[program], self.inputs[index], future.value, future.codes)
            )
        failed = DenseOracle().mismatches(cases)
        reference = [self._reference_futures[i].value for i in self.sample]
        for values in self._round_samples:
            failed += sum(
                not np.array_equal(value, expected)
                for value, expected in zip(values, reference)
            )
        checked = len(cases) * (1 + len(self._round_samples))
        return checked, failed

    def counters(self) -> dict:
        return _cache_counters([self.session])

    def character(self, timed: dict) -> list[str]:
        if timed["cache_misses"]:
            return [f"{timed['cache_misses']} cache misses in the timed phase"]
        return []


class ColdChurn(Workload):
    """New programs only: compile + write-through, then warm restores."""

    name = "cold_churn"
    min_rounds = 2
    PROGRAMS = 25
    REQUESTS_PER_PROGRAM = 3
    READERS = 4
    #: Shape of program i is PATTERN[i % 10]: 30% tiled, so neither the
    #: first-result p50 nor the p90 sits on the native/tiled boundary.
    PATTERN = (
        (8, 8), (4, 6), (12, 12), (8, 8), (4, 6),
        (17, 8), (8, 8), (4, 6), (12, 12), (8, 8),
    )
    SAMPLE_PROGRAMS = 6

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.ops = 2 * sum(
            out * inp * (self.REQUESTS_PER_PROGRAM + self.READERS)
            for out, inp in (
                self.PATTERN[i % len(self.PATTERN)] for i in range(self.PROGRAMS)
            )
        )
        self._totals = dict.fromkeys(
            ("cache_hits", "cache_misses", "cache_evictions", "compiled",
             "sched_flushed", "sched_batches", "sched_deadline_misses",
             "requests", "store_saves", "store_restores", "store_misses",
             "store_stale", "store_corrupt", "store_bytes", "programs"),
            0,
        )
        self._kept: dict = {}
        self._violations: list[str] = []

    def _programs(self, index: int) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng([self.seed, 2, index])
        programs = []
        for number in range(self.PROGRAMS):
            shape = self.PATTERN[number % len(self.PATTERN)]
            weights = rng.integers(0, MAX_WEIGHT + 1, shape)
            inputs = rng.uniform(0.0, 1.0, (self.REQUESTS_PER_PROGRAM, shape[1]))
            programs.append((weights, inputs))
        return programs

    def build(self) -> None:
        # The target is rebuilt every round (that is the workload), so
        # set-up primes the compile and store paths instead: one program
        # per shape compiled and written through to a fresh store, then
        # restored by a second session, and the store torn down.
        rng = np.random.default_rng([self.seed, 7])
        primers = [rng.integers(0, MAX_WEIGHT + 1, shape) for shape in SHAPES]
        root = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            store = ProgramStore(root)
            for session in (self._session(store), self._session(store)):
                for weights in primers:
                    session.submit(weights, np.zeros(weights.shape[1])).result()
        finally:
            shutil.rmtree(root)

    def _session(self, store: ProgramStore) -> PhotonicSession:
        return PhotonicSession(
            grid=GRID, flush_policy=FlushPolicy.max_batch(BURST), program_store=store
        )

    def _run(self, index: int, keep: bool) -> tuple[Round, list]:
        programs = self._programs(index)
        tracer = self.tracer
        root = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            store = ProgramStore(root)
            first_ms = []
            written = []
            started = clock()
            writer = self._session(store)
            for number, (weights, inputs) in enumerate(programs):
                tracer.request = number
                submitted = clock()
                first = writer.submit(weights, inputs[0])
                first.result()
                first_ms.append((clock() - submitted) * 1e3)
                rest = [writer.submit(weights, x) for x in inputs[1:]]
                for future in rest:
                    future.result()
                written.append([first, *rest])
            write_s = clock() - started
            readers = []
            restored = []
            started = clock()
            for _ in range(self.READERS):
                reader = self._session(store)
                futures = []
                for number, (weights, inputs) in enumerate(programs):
                    tracer.request = number
                    future = reader.submit(weights, inputs[0])
                    future.result()
                    futures.append(future)
                readers.append(reader)
                restored.append(futures)
            read_s = clock() - started
            totals = _cache_counters([writer, *readers])
            writer_counts = _cache_counters([writer])
            totals.update(
                store_saves=store.saves,
                store_restores=store.restores,
                store_misses=store.misses,
                store_stale=store.stale_rejects,
                store_corrupt=store.corrupt_rejects,
                store_bytes=sum(path.stat().st_size for path in root.iterdir()),
                programs=len(programs),
            )
        finally:
            shutil.rmtree(root)
        for key, value in totals.items():
            self._totals[key] += value
        reads = len(programs) * self.READERS
        if store.restores != reads:
            self._violations.append(
                f"round {index}: {store.restores} restores for {reads} reads"
            )
        if store.stale_rejects or store.corrupt_rejects:
            self._violations.append(
                f"round {index}: {store.stale_rejects} stale and "
                f"{store.corrupt_rejects} corrupt store rejects"
            )
        if writer_counts["compiled"] != len(programs):
            self._violations.append(
                f"round {index}: {writer_counts['compiled']} compiles for "
                f"{len(programs)} new programs"
            )
        requests = len(programs) * self.REQUESTS_PER_PROGRAM + reads
        result = Round(
            requests,
            write_s + read_s,
            phases={
                "programs": len(programs),
                "reads": reads,
                "write_s": write_s,
                "read_s": read_s,
                "first_result_ms": first_ms,
            },
        )
        kept = [programs, written, restored, [writer, *readers]] if keep else []
        return result, kept

    def reference(self) -> tuple[Round, dict]:
        result, (programs, written, restored, sessions) = self._run(0, keep=True)
        self._kept = {"programs": programs, "written": written, "restored": restored}
        ledger = {"requests": 0, "time": 0.0, "energy": 0.0}
        for session in sessions:
            report = session.report()
            ledger["requests"] += report.requests
            ledger["time"] += report.analog_time + report.weight_time_spent
            ledger["energy"] += report.analog_energy + report.weight_energy_spent
        modelled = _modelled(
            self.ops, ledger["requests"], ledger["time"], ledger["energy"]
        )
        return result, modelled

    def round(self, index: int) -> Round:
        result, _ = self._run(index, keep=False)
        return result

    def verify(self) -> tuple[int, int]:
        programs = self._kept["programs"]
        written = self._kept["written"]
        restored = self._kept["restored"]
        rng = np.random.default_rng([self.seed, 3])
        chosen = rng.choice(len(programs), size=self.SAMPLE_PROGRAMS, replace=False)
        cases = []
        for number in chosen:
            weights, inputs = programs[number]
            for x, future in zip(inputs, written[number]):
                cases.append((weights, x, future.value, future.codes))
        failed = DenseOracle().mismatches(cases)
        checked = len(cases)
        # Every restored program must serve exactly what its cold
        # compile served for the same input.
        for futures in restored:
            for number, future in enumerate(futures):
                expected = written[number][0]
                checked += 1
                failed += not (
                    np.array_equal(future.value, expected.value)
                    and (
                        expected.codes is None
                        or np.array_equal(future.codes, expected.codes)
                    )
                )
        return checked, failed

    def counters(self) -> dict:
        return dict(self._totals)

    def character(self, timed: dict) -> list[str]:
        return list(self._violations)

    def extra_metrics(self, rounds: list[Round]) -> dict:
        first_ms = [ms for r in rounds for ms in r.phases["first_result_ms"]]
        p50, p90 = np.percentile(first_ms, [50, 90])
        return {
            "cold_programs_per_s": statistics.median(
                r.phases["programs"] / r.phases["write_s"] / r.speed for r in rounds
            ),
            "warm_restores_per_s": statistics.median(
                r.phases["reads"] / r.phases["read_s"] / r.speed for r in rounds
            ),
            "first_result_ms_p50": float(p50),
            "first_result_ms_p90": float(p90),
            "first_result_samples": len(first_ms),
        }


class _ShiftedPoisson(Poisson):
    """A Poisson tape starting at ``start`` instead of 0, so successive
    rounds replay the same seeded tape later on the modelled clock."""

    def __init__(self, rate: float, start: float) -> None:
        super().__init__(rate)
        self.start = float(start)

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.start + super().times(n, rng)


#: Engine seeds whose cache-affinity placement, at the commit that
#: added the benchmark, had the canonical load profile: the hottest
#: tenant alone on its core, every other core serving between 17% and
#: 25% of the traffic.  The fleet's knee is set by its busiest core;
#: without the profile every seed would place the Zipf tenants
#: differently and the knee would move by up to 70% from seed to seed.
#: The table is fixed rather than searched at run time, so a change to
#: the routing or to ``weight_key`` serves the same traffic as its
#: parent; the placement it then gets is reported, not required.
BALANCED_ENGINE_SEEDS = (
    505670531, 48215159, 701739968, 1449349347, 3785745297, 1857197643,
    3277618603, 1728581775, 3886320360, 3942504602, 1009813631, 1757702290,
    3386342647, 1341379159, 3339810853, 1505470847, 1280465656, 2122544796,
    494790870, 372464598, 2562220209, 3957233674, 3256803949, 2833701772,
    3892758917, 2837778839, 1569439546, 2549803526, 235136543, 733363096,
    481106885, 1549714187, 1123292466, 3894520309, 3068931723, 713721192,
    3572790699, 3096457559, 3325843612, 229337592, 3758560282, 170780929,
    3830725721, 2781540486, 1937847722, 4063539771, 1092197345, 977887249,
    1914313156, 2331371697, 138159912, 2472809684, 2963114486, 3803678584,
    2289217406, 1310650440, 4173247747, 567345319, 497671604, 3082678660,
    49475914, 1399349253, 1220749193, 3929025723,
)


class FleetTraffic(Workload):
    """Open-loop Poisson tape against a 4-core cache-affinity fleet."""

    name = "fleet_traffic"
    attached = True
    CORES = 4
    TENANTS = 8
    TAPE = 16384
    #: ~20% past the knee of the busiest core (8e9 req/s over its 36.8%
    #: share), with a fleet admission cap just under four full batches:
    #: a few percent of requests shed at admission and a few by deadline.
    RATE = 2.6e10
    DEADLINE_S = 1e-7
    P99_SLO_S = 2e-7
    MAX_PENDING = 216
    SAMPLE = 48

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        # WorkloadMix.zipf's shapes and 1/(k+1) shares, every tenant
        # with a deadline; the hottest tenant has priority, so it
        # bypasses admission control and keeps its core flushing.
        self.mix = WorkloadMix(
            tuple(
                Tenant(
                    name=f"tenant-{k}",
                    share=1.0 / (k + 1),
                    shape=SHAPES[k % len(SHAPES)],
                    priority=1 if k == 0 else 0,
                    deadline_s=self.DEADLINE_S,
                )
                for k in range(self.TENANTS)
            ),
            max_weight=MAX_WEIGHT,
        )
        self.slo = SLO(p99_latency=self.P99_SLO_S, deadline_miss_budget=0.05)
        self.engine_seed = BALANCED_ENGINE_SEEDS[self.seed % len(BALANCED_ENGINE_SEEDS)]
        self.weights = self._tenant_weights()
        self._reference: list = []
        self.queue_wait: tuple[float, float] = (0.0, 0.0)
        self.imbalance = 1.0
        self.p99 = 0.0

    def _tenant_weights(self) -> list[np.ndarray]:
        """The tenants' programs: the engine draws tape, tenant sequence
        and weights from one generator in this order, so replaying the
        draws gives the programs it will serve."""
        rng = np.random.default_rng(self.engine_seed)
        Poisson(self.RATE).times(self.TAPE, rng)
        self.mix.sample(self.TAPE, rng)
        return self.mix.materialize(rng)

    def build(self) -> PhotonicCluster:
        cluster = PhotonicCluster(
            cores=self.CORES,
            grid=GRID,
            max_batch=BURST,
            flush_policy=self.slo.flush_policy(batch_limit=BURST),
            routing=RoutingPolicy.cache_affinity(),
            max_pending=self.MAX_PENDING,
            metrics=MetricsRegistry(),
            clock=ModelClock(),
        )
        for weights in self.weights:
            cluster.submit(weights, np.zeros(weights.shape[1]))
        cluster.flush()
        return cluster

    def use(self, target: PhotonicCluster) -> None:
        self.cluster = target

    def _idle_at(self) -> float:
        sessions = self.cluster.sessions
        return max(
            [sessions[0].clock.now]
            + [session.telemetry.clock.now for session in sessions]
        )

    def _tape(self, keep: bool) -> tuple[dict, float, float, list]:
        """Replay the tape once; returns (summary, host seconds,
        modelled makespan, kept (tenant, x, future) submissions)."""
        start = self._idle_at() + self.DEADLINE_S
        engine = TrafficEngine(
            self.cluster,
            self.mix,
            _ShiftedPoisson(self.RATE, start),
            slo=self.slo,
            seed=self.engine_seed,
        )
        kept: list = []
        cluster = self.cluster
        tracer = self.tracer
        tag = keep or not isinstance(tracer, NoTrace)
        if tag:
            submit = cluster.submit
            numbers = iter(range(self.TAPE))

            def tagged(weights, x, **kwargs):
                tracer.request = next(numbers)
                future = submit(weights, x, **kwargs)
                if keep:
                    kept.append((kwargs["tenant"], x, future))
                return future

            cluster.submit = tagged
        try:
            started = clock()
            summary = engine.run(self.TAPE)
            seconds = clock() - started
        finally:
            if tag:
                del cluster.submit
        return summary, seconds, self._idle_at() - start, kept

    def reference(self) -> tuple[Round, dict]:
        before = self.cluster.report()
        summary, seconds, makespan, kept = self._tape(keep=True)
        after = self.cluster.report()
        delta = _report_delta(after.total, before.total)
        self._reference = kept
        self.summary = summary
        self.p99 = after.latency_quantiles["end_to_end"]["p99"]
        wait = after.latency_quantiles["queue_wait"]
        self.queue_wait = (wait["p50"], wait["p99"])
        self.imbalance = after.imbalance
        # The hottest tenant has its core to itself when some core's
        # routed count is exactly that tenant's traffic.
        routed = [now - then for now, then in zip(after.routed, before.routed)]
        self.core_shares = [count / sum(routed) for count in routed]
        self.isolated = sum(tenant == "tenant-0" for tenant, _, _ in kept) in routed
        ops = 0
        for tenant, _, future in kept:
            if future.done and not future.expired:
                out, inp = self.weights[int(tenant.rsplit("-", 1)[1])].shape
                ops += 2 * out * inp
        modelled = _modelled(ops, summary["resolved"], delta["time"], delta["energy"])
        modelled["modelled_throughput_per_s"] = summary["resolved"] / makespan
        return self._round(summary, seconds), modelled

    @staticmethod
    def _round(summary: dict, seconds: float) -> Round:
        shed = summary["admission_shed"] + summary["deadline_misses"]
        return Round(summary["offered"], seconds, shed=shed)

    def round(self, index: int) -> Round:
        summary, seconds, _, _ = self._tape(keep=False)
        return self._round(summary, seconds)

    def verify(self) -> tuple[int, int]:
        resolved = [
            entry for entry in self._reference
            if entry[2].done and not entry[2].expired
        ]
        rng = np.random.default_rng([self.seed, 4])
        chosen = rng.choice(len(resolved), size=min(self.SAMPLE, len(resolved)),
                            replace=False)
        cases = []
        for position in chosen:
            tenant, x, future = resolved[position]
            weights = self.weights[int(tenant.rsplit("-", 1)[1])]
            cases.append((weights, x, future.value, future.codes))
        return len(cases), DenseOracle().mismatches(cases)

    def counters(self) -> dict:
        totals = _cache_counters(self.cluster.sessions)
        totals["cluster_shed"] = self.cluster.report().shed
        return totals

    def character(self, timed: dict) -> list[str]:
        problems = []
        if not self.summary["admission_shed"]:
            problems.append("the reference tape shed nothing at admission")
        if not self.summary["deadline_misses"]:
            problems.append("the reference tape shed nothing by deadline")
        if timed["cache_misses"]:
            problems.append(f"{timed['cache_misses']} cache misses after set-up")
        return problems

    def extra_metrics(self, rounds: list[Round]) -> dict:
        summary = self.summary
        return {
            "modelled_p99_latency_s": self.p99,
            "admission_shed_share": summary["admission_shed"] / summary["offered"],
            "deadline_shed_share": summary["deadline_misses"] / summary["offered"],
            "hot_tenant_isolated": float(self.isolated),
            **{
                f"core_{index}_routed_share": share
                for index, share in enumerate(self.core_shares)
            },
        }


class WarmConvModel(Workload):
    """Conv images against one bank, interleaved with model batches."""

    name = "warm_conv_model"
    CONV_GRID = (8, 9)
    KERNELS = 4
    KERNEL_SIZE = 3
    IMAGE = 8
    POOL = 2
    CLASSES = 10
    CONV_PER_CYCLE = 8
    MODEL_BATCH = 8
    CYCLES = 32
    SAMPLE_CONV = 2
    SAMPLE_MODEL = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = np.random.default_rng([self.seed, 5])
        k, size = self.KERNEL_SIZE, self.IMAGE
        self.bank = rng.normal(0.0, 1.0, (self.KERNELS, k, k))
        side = size - k + 1
        features = self.KERNELS * (side // self.POOL) ** 2
        self.head = rng.normal(0.0, 1.0 / np.sqrt(features), (self.CLASSES, features))
        self.bias = rng.normal(0.0, 0.1, self.CLASSES)
        self.calibration = rng.uniform(0.0, 1.0, (16, size, size))
        self.conv_images = rng.uniform(
            0.0, 1.0, (self.CYCLES, self.CONV_PER_CYCLE, size, size)
        )
        self.model_batches = rng.uniform(
            0.0, 1.0, (self.CYCLES, self.MODEL_BATCH, size, size)
        )
        conv_ops = 2 * self.KERNELS * k * k * side * side
        model_ops = conv_ops + 2 * self.CLASSES * features
        self.ops = self.CYCLES * (
            self.CONV_PER_CYCLE * conv_ops + self.MODEL_BATCH * model_ops
        )
        self.items = self.CYCLES * (self.CONV_PER_CYCLE + self.MODEL_BATCH)
        self.model = Model.sequential(
            Conv2d(self.bank),
            ReLU(),
            AvgPool(self.POOL),
            Flatten(),
            Dense(self.head, bias=self.bias),
        )
        self._reference: tuple = ()
        self._round_samples: list = []
        self._sample_conv = rng.choice(
            self.CYCLES * self.CONV_PER_CYCLE, size=self.SAMPLE_CONV, replace=False
        )
        self._sample_model = rng.choice(
            self.CYCLES * self.MODEL_BATCH, size=self.SAMPLE_MODEL, replace=False
        )

    def build(self) -> tuple:
        session = PhotonicSession(
            grid=self.CONV_GRID, flush_policy=FlushPolicy.max_batch(BURST)
        )
        endpoint = session.compile(self.model, calibration=self.calibration)
        session.submit_conv(self.bank, self.calibration[0]).result()
        return session, endpoint

    def use(self, target: tuple) -> None:
        self.session, self.endpoint = target

    def _serve(self) -> tuple[list, list, float]:
        submit_conv = self.session.submit_conv
        predict = self.endpoint.predict
        bank = self.bank
        tracer = self.tracer
        conv_futures: list = []
        outputs: list = []
        started = clock()
        for cycle in range(self.CYCLES):
            tracer.request = cycle
            futures = [submit_conv(bank, image) for image in self.conv_images[cycle]]
            outputs.append(predict(self.model_batches[cycle]))
            for future in futures:
                future.result()
            conv_futures.extend(futures)
        return conv_futures, outputs, clock() - started

    def reference(self) -> tuple[Round, dict]:
        before = self.session.report()
        conv_futures, outputs, seconds = self._serve()
        delta = _report_delta(self.session.report(), before)
        self._reference = (conv_futures, np.concatenate(outputs))
        modelled = _modelled(self.ops, self.items, delta["time"], delta["energy"])
        return Round(self.items, seconds), modelled

    def round(self, index: int) -> Round:
        conv_futures, outputs, seconds = self._serve()
        predictions = np.concatenate(outputs)
        self._round_samples.append(
            (
                [conv_futures[i].value for i in self._sample_conv],
                predictions[self._sample_model],
            )
        )
        return Round(self.items, seconds)

    def verify(self) -> tuple[int, int]:
        conv_futures, predictions = self._reference
        core = PhotonicTensorCore(rows=self.CONV_GRID[0], columns=self.CONV_GRID[1])
        conv_spec, dense_spec = self.model.layers[0], self.model.layers[4]
        conv_loop = PhotonicConv2d(
            conv_spec.kernels, core, stride=conv_spec.stride, gain=conv_spec.gain
        )
        dense_loop = PhotonicDense(
            dense_spec.weights, core, bias=dense_spec.bias, signed=dense_spec.signed
        )
        dense_loop.gain = self.endpoint.layers[1].gain
        failed = 0
        conv_images = self.conv_images.reshape(-1, self.IMAGE, self.IMAGE)
        for index in self._sample_conv:
            failed += not _close(
                conv_futures[index].value, conv_loop.forward(conv_images[index])
            )
        model_images = self.model_batches.reshape(-1, self.IMAGE, self.IMAGE)
        for index in self._sample_model:
            maps = relu(conv_loop.forward(model_images[index]))
            pooled = avg_pool2d(maps[np.newaxis], self.POOL).reshape(1, -1)
            failed += not _close(predictions[index], dense_loop.forward(pooled)[0])
        reference_conv = [conv_futures[i].value for i in self._sample_conv]
        reference_model = predictions[self._sample_model]
        for conv_values, model_values in self._round_samples:
            failed += sum(
                not np.array_equal(value, expected)
                for value, expected in zip(conv_values, reference_conv)
            )
            failed += sum(
                not np.array_equal(value, expected)
                for value, expected in zip(model_values, reference_model)
            )
        per_round = self.SAMPLE_CONV + self.SAMPLE_MODEL
        return per_round * (1 + len(self._round_samples)), failed

    def counters(self) -> dict:
        return _cache_counters([self.session])

    def character(self, timed: dict) -> list[str]:
        if timed["cache_misses"]:
            return [f"{timed['cache_misses']} cache misses in the timed phase"]
        return []


WORKLOADS = {
    workload.name: workload
    for workload in (WarmDense, ColdChurn, FleetTraffic, WarmConvModel)
}
