"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each serving layer from the
outside (class attributes and module functions are swapped for timing
wrappers while :func:`instrumented` is active), so the program under
test carries no tracing code of its own.  Every wrapped call records
one span — name, start, end, parent span and the request id the
workload driver set on :attr:`Tracer.request` — and adds to two
running totals per span name:

* ``calls`` — how often the entry point ran;
* ``self_s`` — the span's duration minus the time its child spans
  cover, so nested layers (a tiled matmul calling the dense kernel per
  tile) are never counted twice.

Spans stay in memory (the first :data:`KEEP_SPANS` to start, enclosing
spans included; the totals always cover every call) and
:meth:`Tracer.chrome_trace` turns them into Chrome trace-event JSON
that opens in Perfetto.  Times are the process's CPU time, the clock
the benchmark measures with.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

#: Spans kept for the Chrome trace; later ones only add to the totals.
KEEP_SPANS = 50_000

#: A count hook runs after a wrapped call returns, outside its span:
#: ``hook(tracer, args, kwargs, result)`` adds to :attr:`Tracer.counts`.
Hook = Callable[["Tracer", tuple, dict, object], None]


def _kernel_hook(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    """Columns and bytes of one dense kernel call: the input batch and
    response matrix read, the codes/estimates/currents written."""
    engine = args[0]
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    counts = tracer.counts
    counts["kernel_columns"] = counts.get("kernel_columns", 0) + batch.shape[1]
    moved = (
        batch.nbytes
        + engine.response.nbytes
        + result.codes.nbytes
        + result.estimates.nbytes
        + result.currents.nbytes
    )
    counts["kernel_bytes"] = counts.get("kernel_bytes", 0) + moved


def _patches_hook(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    """im2col output columns: one per convolution patch."""
    tracer.counts["patches"] = tracer.counts.get("patches", 0) + result.shape[1]


def _poll_hook(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    """Cluster polls, and the polls that resolved nothing."""
    counts = tracer.counts
    counts["polls"] = counts.get("polls", 0) + 1
    if result == 0:
        counts["empty_polls"] = counts.get("empty_polls", 0) + 1


#: Every traced entry point: (span name, owner, attribute names, hook).
#: The owner is ``module:Class`` for methods or a module for functions;
#: a function is wrapped in every ``repro`` module that imported it by
#: name, so call sites that look it up there are traced too.
LAYERS: tuple[tuple[str, str, tuple[str, ...], Hook | None], ...] = (
    ("api.cluster.submit", "repro.api.cluster:PhotonicCluster", ("submit",), None),
    ("api.cluster.flush", "repro.api.cluster:PhotonicCluster", ("flush",), None),
    ("api.cluster.poll", "repro.api.cluster:PhotonicCluster", ("poll",), _poll_hook),
    ("api.routing.lookup", "repro.api.routing:HashRing", ("lookup",), None),
    ("api.session.open", "repro.api.session:PhotonicSession", ("__init__",), None),
    ("api.session.submit", "repro.api.session:PhotonicSession", ("submit",), None),
    ("api.session.submit_conv", "repro.api.session:PhotonicSession", ("submit_conv",), None),
    ("api.session.flush", "repro.api.session:PhotonicSession", ("flush",), None),
    ("api.session.poll", "repro.api.session:PhotonicSession", ("poll",), None),
    ("api.session.predict", "repro.api.session:DeployedModel", ("predict",), None),
    ("runtime.scheduler.submit", "repro.runtime.scheduler:BatchScheduler", ("submit",), None),
    ("runtime.scheduler.flush", "repro.runtime.scheduler:BatchScheduler", ("flush",), None),
    ("runtime.scheduler.cache_get", "repro.runtime.scheduler:WeightProgramCache", ("get",), None),
    ("runtime.scheduler.cache_put", "repro.runtime.scheduler:WeightProgramCache", ("put",), None),
    ("core.compute_core.load_weights", "repro.core.compute_core:VectorComputeCore",
     ("load_weights",), None),
    ("core.compute_core.element_responses", "repro.core.compute_core:VectorComputeCore",
     ("element_responses",), None),
    ("core.eoadc.code_boundaries", "repro.core.eoadc:EoAdc", ("code_boundaries",), None),
    ("runtime.engine.compile", "repro.runtime.engine:CompiledCore", ("__init__",), None),
    ("runtime.engine.matmul", "repro.runtime.engine:CompiledCore", ("matmul",), _kernel_hook),
    ("runtime.engine.weight_key", "repro.runtime.engine", ("weight_key",), None),
    ("runtime.tiling.compile", "repro.runtime.tiling:TiledMatmul", ("__init__",), None),
    ("runtime.tiling.matmul", "repro.runtime.tiling:TiledMatmul", ("matmul",), None),
    ("runtime.tiling.matmul", "repro.runtime.tiling:DifferentialProgram", ("matmul",), None),
    ("elastic.store.save", "repro.elastic.store:ProgramStore", ("save",), None),
    ("elastic.store.load", "repro.elastic.store:ProgramStore", ("load",), None),
    ("ml.convolution.im2col_channels", "repro.ml.convolution", ("im2col_channels",),
     _patches_hook),
    ("ml.convolution.encode_patch_batch", "repro.ml.convolution", ("encode_patch_batch",),
     None),
    ("api.futures.result", "repro.api.futures:Future", ("result",), None),
    ("api.futures.session_report", "repro.api.session:PhotonicSession", ("report",), None),
    ("api.futures.cluster_report", "repro.api.cluster:PhotonicCluster", ("report",), None),
    ("api.futures.combined", "repro.api.futures:RunReport", ("combined",), None),
    ("telemetry.binding", "repro.telemetry.binding:Telemetry",
     ("span", "instant", "request_span", "record_request", "drain_window",
      "tenant_quantiles", "latency_quantiles"), None),
    ("telemetry.histogram", "repro.telemetry.metrics:Histogram",
     ("observe", "observe_many"), None),
    ("traffic.engine.run", "repro.traffic.engine:TrafficEngine", ("run",), None),
)

#: Span names in report order (a name may cover several entry points).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in LAYERS))


class Tracer:
    """Span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self.self_s: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        #: Counts the hooks gather at the same boundaries.
        self.counts: dict[str, int] = {}
        #: Retained spans: (span id, name, start, end, parent id, request).
        self.spans: list[tuple[int, str, float, float, int | None, object]] = []
        self.dropped = 0
        #: Request id stamped on every span that starts while it is set.
        self.request: object = None
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        clock = time.process_time
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id < KEEP_SPANS:
                    spans.append((span_id, name, start, end, parent, tracer.request))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hooked = clock()
                hook(tracer, args, kwargs, result)
                if stack:
                    # Hook time is tracer bookkeeping, not the parent's work.
                    stack[-1][1] += clock() - hooked
            return result

        return traced

    @property
    def attributed_s(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_s.values())

    def chrome_trace(self, label: str) -> dict:
        """The retained spans as Chrome trace-event JSON (microseconds
        from the first span; one track, nesting shown by containment)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": label}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "host"}},
        ]
        for span_id, name, start, end, parent, request in sorted(
            self.spans, key=lambda span: (span[2], span[0])
        ):
            args: dict = {"span": span_id}
            if parent is not None:
                args["parent"] = parent
            if request is not None:
                args["request"] = request
            events.append(
                {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "process cpu", "dropped_spans": self.dropped},
        }


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module if not class_name else getattr(module, class_name)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Swap every entry point in :data:`LAYERS` for a traced wrapper
    for the duration of the block, then restore the originals."""
    patched: list[tuple[object, str, object]] = []
    try:
        for name, owner, attributes, hook in LAYERS:
            target = _resolve(owner)
            for attribute in attributes:
                if isinstance(target, type):
                    raw = target.__dict__[attribute]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(tracer.wrap(name, raw.__func__, hook))
                    else:
                        wrapped = tracer.wrap(name, raw, hook)
                    patched.append((target, attribute, raw))
                    setattr(target, attribute, wrapped)
                    continue
                original = getattr(target, attribute)
                wrapped = tracer.wrap(name, original, hook)
                for module_name, module in list(sys.modules.items()):
                    if (
                        module_name.split(".")[0] == "repro"
                        and getattr(module, attribute, None) is original
                    ):
                        patched.append((module, attribute, original))
                        setattr(module, attribute, wrapped)
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
