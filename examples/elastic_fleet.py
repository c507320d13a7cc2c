"""Scaling elastically: warm starts, autoscaling, heterogeneous slots.

Compiling a weight program is the dominant cold-start cost of this
serving stack, so an elastic fleet is only viable if new cores skip
the compile.  This example walks the three `repro.elastic` layers:

1. a ``ProgramStore`` persisting compiled programs to disk so a fresh
   session warm-starts bit-for-bit instead of recompiling,
2. an ``Autoscaler`` growing a cluster under backlog and parking the
   extra cores once the queue drains,
3. a heterogeneous fleet whose capability-aware router places each
   program shape on the cheapest capable slot.
"""

import tempfile

import numpy as np

from repro import (
    Autoscaler,
    CoreSpec,
    FlushPolicy,
    ModelClock,
    PhotonicCluster,
    PhotonicSession,
    ProgramStore,
)
from repro.telemetry.profiling import wall_clock

rng = np.random.default_rng(11)
PROGRAMS = [rng.integers(0, 8, (8, 8)) for _ in range(6)]
INPUTS = [rng.random(8) for _ in PROGRAMS]


def serve_all(session):
    """Compile-and-serve every program once; returns (results, wall s)."""
    start = wall_clock()
    futures = [session.submit(w, x) for w, x in zip(PROGRAMS, INPUTS)]
    session.flush()
    return [f.result() for f in futures], wall_clock() - start


# -- 1. persisted warm starts ---------------------------------------------
store = ProgramStore(tempfile.mkdtemp(prefix="programs-"))
cold = PhotonicSession(grid=(8, 8), program_store=store)
cold_results, cold_s = serve_all(cold)          # compiles, writes through

warm = PhotonicSession(grid=(8, 8), program_store=store)
warm_results, warm_s = serve_all(warm)          # restores from disk
bit_for_bit = all(np.array_equal(a, b)
                  for a, b in zip(cold_results, warm_results))
print(f"cold compile      : {len(PROGRAMS)} programs in {cold_s * 1e3:.1f} ms")
print(f"warm start        : same programs in {warm_s * 1e3:.1f} ms "
      f"({cold_s / warm_s:.1f}x), bit-for-bit: {bit_for_bit}")
print(f"store             : {store.describe()}")

# -- 2. autoscaling on backlog --------------------------------------------
clock = ModelClock()
fleet = PhotonicCluster(
    cores=1,
    grid=(8, 8),
    flush_policy=FlushPolicy.explicit(),
    clock=clock,
    program_store=store,
    autoscaler=Autoscaler(min_cores=1, max_cores=3, watch_every=2,
                          scale_up_pending=4.0, scale_down_pending=1.0),
)
for _ in range(12):                              # backlog builds: grow
    fleet.submit(PROGRAMS[0], rng.random(8))
print(f"\nbacklog of 12     : active cores {list(fleet.active_cores)}")
fleet.flush()
clock.advance(1.0)
for _ in range(8):                               # queues stay empty: park
    fleet.submit(PROGRAMS[0], rng.random(8))
    fleet.flush()
report = fleet.report()
print(f"quiet again       : active {list(fleet.active_cores)}, "
      f"parked {list(fleet.parked)}")
print(f"fleet report      : {report.scale_ups} scale-ups, "
      f"{report.scale_downs} scale-downs, "
      f"{report.core_seconds:.3g} core-seconds")

# -- 3. heterogeneous slots -----------------------------------------------
mixed = PhotonicCluster(
    cores=2,
    grid=(8, 8),
    flush_policy=FlushPolicy.explicit(),
    core_specs=[None, CoreSpec(rows=16, columns=16, adc_bits=7)],
)
mixed.submit(rng.integers(0, 8, (8, 8)), rng.random(8))     # small + cheap
mixed.submit(rng.integers(0, 8, (16, 16)), rng.random(16))  # needs one pass
mixed.submit(rng.integers(0, 8, (8, 8)), rng.random(8),
             min_adc_bits=7)                                # needs precision
placements = [session.pending for session in mixed.sessions]
mixed.flush()
specs = [spec.describe() if spec else "default" for spec in mixed.core_specs]
print(f"\nheterogeneous     : specs {specs}")
print(f"placement         : small program on core 0, 16x16 and "
      f"7-bit programs on core 1 -> pending {placements}")
