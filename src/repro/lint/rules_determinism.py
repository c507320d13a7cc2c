"""Determinism contracts: seeded randomness and the modelled clock.

The whole reproduction argument rests on runs being replayable: the
drift loop, the serve benches and the bit-for-bit engine equivalence
tests all assume that re-running with the same seed produces the same
codes and the same modelled timeline.  One ``np.random.rand()`` or
``time.time()`` on a hot path silently breaks that for every benchmark
downstream, so these rules forbid the global-state entry points at
*every* call site instead of sampling a few in tests.
"""

from __future__ import annotations

import ast

from .findings import Finding, Severity
from .registry import ModuleUnderLint, Rule, register

#: numpy.random module-level functions that read or mutate the hidden
#: global BitGenerator.  Seeded constructors (``default_rng(seed)``,
#: ``Generator``, ``SeedSequence``, ``PCG64`` ...) are the sanctioned
#: route and stay allowed.
_SANCTIONED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
}

#: stdlib ``random`` module-level functions (same hidden-global-state
#: problem as ``np.random.*``).  ``random.Random(seed)`` is fine.
_SANCTIONED_STDLIB_RANDOM = {"Random", "SystemRandom"}


def _attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Names the module binds to the numpy package (``np``, ``numpy``)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


@register
class NoUnseededRng(Rule):
    """Every random draw must come from an explicitly seeded generator."""

    name = "no-unseeded-rng"
    severity = Severity.ERROR
    contract = (
        "randomness flows through an explicit seeded Generator "
        "(np.random.default_rng(seed) threaded via an rng/seed "
        "parameter); global-state draws and argless default_rng() are "
        "forbidden"
    )
    rationale = (
        "drift injection, probe monitoring and the serve benches are "
        "only comparable across runs because every draw is replayable; "
        "one hidden-global-state call makes a benchmark unrepeatable"
    )

    def check(self, module: ModuleUnderLint) -> list[Finding]:
        findings: list[Finding] = []
        numpy_names = _numpy_aliases(module.tree)
        stdlib_random_names = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random":
                        stdlib_random_names.add(item.asname or "random")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            # np.random.<global-state fn>(...)
            if (
                len(chain) == 3
                and chain[0] in numpy_names
                and chain[1] == "random"
                and chain[2] not in _SANCTIONED_NP_RANDOM
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        (
                            f"np.random.{chain[2]}() draws from the hidden "
                            "global BitGenerator; thread an explicit "
                            "np.random.default_rng(seed) through an "
                            "rng/seed parameter instead"
                        ),
                    )
                )
                continue
            # random.<global-state fn>(...)
            if (
                len(chain) == 2
                and chain[0] in stdlib_random_names
                and chain[1] not in _SANCTIONED_STDLIB_RANDOM
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        (
                            f"random.{chain[1]}() uses the process-global "
                            "RNG; use a seeded np.random.default_rng or "
                            "random.Random(seed) instead"
                        ),
                    )
                )
                continue
            # <anything>.default_rng() or bare default_rng() with no
            # seed (the chain is just ["default_rng"] for the bare
            # call after `from numpy.random import default_rng`).
            if chain[-1] == "default_rng" and not node.args and not node.keywords:
                findings.append(
                    self.finding(
                        module,
                        node,
                        (
                            "default_rng() without a seed is entropy-seeded "
                            "and unrepeatable; pass the seed explicitly"
                        ),
                    )
                )
        return findings


@register
class ModelledClockPurity(Rule):
    """Time on serving paths is modelled time, never the host clock."""

    name = "modelled-clock-purity"
    severity = Severity.ERROR
    contract = (
        "wall-clock reads (time.*, datetime.now/utcnow/today) live only "
        "in repro.telemetry.profiling; everything else reads the "
        "ModelClock or repro.telemetry.profiling.wall_clock"
    )
    rationale = (
        "traces, latency quantiles and the drift timeline all sit on "
        "the modelled clock; a stray wall-clock read desynchronizes "
        "them and makes modelled-time benches machine-dependent"
    )
    exempt_prefixes = ("src/repro/telemetry/profiling.py",)

    #: ``time`` module attributes that read the host clock.
    _TIME_ATTRS = {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check(self, module: ModuleUnderLint) -> list[Finding]:
        findings: list[Finding] = []
        time_aliases = set()
        from_time_names = set()
        datetime_like = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "time":
                        time_aliases.add(item.asname or "time")
                    if item.name == "datetime":
                        datetime_like.add(item.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for item in node.names:
                        if item.name in self._TIME_ATTRS:
                            from_time_names.add(item.asname or item.name)
                if node.module == "datetime":
                    for item in node.names:
                        if item.name in ("datetime", "date"):
                            datetime_like.add(item.asname or item.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            wall = None
            if (
                len(chain) == 2
                and chain[0] in time_aliases
                and chain[1] in self._TIME_ATTRS
            ):
                wall = f"time.{chain[1]}"
            elif len(chain) == 1 and chain[0] in from_time_names:
                wall = f"time.{chain[0]}"
            elif (
                len(chain) >= 2
                and chain[0] in datetime_like
                and chain[-1] in self._DATETIME_ATTRS
            ):
                wall = ".".join(chain)
            if wall is not None:
                findings.append(
                    self.finding(
                        module,
                        node,
                        (
                            f"{wall}() reads the host clock; modelled-time "
                            "code uses ModelClock, and sanctioned wall-clock "
                            "access goes through repro.telemetry.profiling"
                        ),
                    )
                )
        return findings
