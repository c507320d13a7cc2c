"""The benchmark tracer's entry points exist in the package.

``perfbench/tracer.py`` wraps every entry point named in its ``LAYERS``
table while a traced run is active: a method through its class's own
``__dict__`` (so a method that was deleted, renamed or left only on a
base class raises ``KeyError`` there), a module function through
``getattr``.  These tests make the same lookups, so removing or
renaming a traced entry point fails the suite rather than the traced
benchmark step.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_every_traced_entry_point_resolves():
    missing = []
    for name, owner, attributes, _ in tracer.LAYERS:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name, None)
            if not isinstance(target, type):
                missing.append(f"{name}: class {owner}")
                continue
        for attribute in attributes:
            if isinstance(target, type):
                found = target.__dict__.get(attribute)
            else:
                found = getattr(target, attribute, None)
            if not (callable(found) or isinstance(found, classmethod)):
                missing.append(f"{name}: {owner}.{attribute}")
    assert missing == []


def test_instrumented_wraps_and_restores_every_entry_point():
    from repro.telemetry import Histogram, Telemetry

    before = (Telemetry.__dict__["drain_window"], Histogram.__dict__["observe_many"])
    with tracer.instrumented(tracer.Tracer()):
        assert Telemetry.__dict__["drain_window"] is not before[0]
    assert (
        Telemetry.__dict__["drain_window"],
        Histogram.__dict__["observe_many"],
    ) == before
