"""Hot-path contracts: guarded telemetry and cache invalidation.

The zero-overhead telemetry promise (PR 6) and the stale-compiled-state
lessons (PRs 2/5 each shipped a cache-poisoning fix) are structural
properties of the code, not of any single test vector — so they are
checked structurally, at every call site.
"""

from __future__ import annotations

import ast

from .findings import Finding, Severity
from .registry import ModuleUnderLint, Rule, register


def _is_telemetry_source(node: ast.AST) -> bool:
    """True for expressions that read a telemetry or observability
    binding off an object: ``self.telemetry``, ``session.telemetry``,
    ``self.obs``, ``target.obs``, ... — both follow the same nullable
    guard contract."""
    return isinstance(node, ast.Attribute) and node.attr in (
        "telemetry",
        "obs",
    )


def _guard_key(node: ast.AST) -> str | None:
    """The guardable identity of an expression: a bare name's id, or
    the dotted path of a pure attribute chain (``self.telemetry``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _guard_key(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _guard_keys(test: ast.AST, positive: bool) -> set[str]:
    """Guard keys ``test`` proves non-None on the branch taken when it
    holds (``positive=True``) or fails (``positive=False``) — handles
    ``x is not None`` / ``x is None`` and ``and``-chains of them."""
    keys: set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and positive:
        for value in test.values:
            keys |= _guard_keys(value, positive=True)
        return keys
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, (op,), (right,) = test.left, test.ops, test.comparators
        if not (isinstance(right, ast.Constant) and right.value is None):
            return keys
        key = _guard_key(left)
        if key is None:
            return keys
        if (positive and isinstance(op, ast.IsNot)) or (
            not positive and isinstance(op, ast.Is)
        ):
            keys.add(key)
    return keys


def _terminates(stmts: list[ast.stmt]) -> bool:
    """True when the statement list cannot fall through (ends in
    return / raise / continue / break)."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


@register
class HotPathTelemetryGuard(Rule):
    """Telemetry on serving paths only behind an ``is not None`` check."""

    name = "hot-path-telemetry-guard"
    severity = Severity.ERROR
    contract = (
        "every use of a telemetry or obs binding in repro.runtime / "
        "repro.api / repro.traffic / repro.elastic / repro.obs is "
        "dominated by an 'is not None' guard on that binding"
    )
    rationale = (
        "an uninstrumented session holds telemetry = None and obs = "
        "None; an unguarded tel.* / obs.* access either crashes the "
        "hot path or quietly assumes a binding exists, breaking the "
        "zero-overhead / bit-for-bit promise of PRs 6 and 10"
    )
    scope_prefixes = (
        "src/repro/runtime/",
        "src/repro/api/",
        "src/repro/traffic/",
        "src/repro/elastic/",
        "src/repro/obs/",
    )

    def check(self, module: ModuleUnderLint) -> list[Finding]:
        findings: list[Finding] = []
        # ast.walk yields every function (nested included) exactly
        # once; _walk_block below skips nested defs so no function is
        # analyzed twice.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(module, node, findings)
        return findings

    # -- per-function dominance walk -----------------------------------------
    def _check_function(
        self,
        module: ModuleUnderLint,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        aliases: set[str] = set()
        # Parameters named like telemetry/obs bindings count as
        # bindings — they may be None exactly like self.telemetry.
        for arg in list(func.args.args) + list(func.args.kwonlyargs):
            if arg.arg in ("tel", "telemetry", "obs"):
                aliases.add(arg.arg)
        self._walk_block(module, func.body, aliases, set(), findings)

    def _walk_block(
        self,
        module: ModuleUnderLint,
        stmts: list[ast.stmt],
        aliases: set[str],
        guarded: set[str],
        findings: list[Finding],
    ) -> None:
        guarded = set(guarded)
        for stmt in stmts:
            # A (re)binding `tel = <obj>.telemetry` names a new alias
            # and voids any earlier guard on that name.
            if isinstance(stmt, ast.Assign) and _is_telemetry_source(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
                        guarded.discard(target.id)
                continue
            if isinstance(stmt, ast.If):
                positive = _guard_keys(stmt.test, positive=True)
                negative = _guard_keys(stmt.test, positive=False)
                self._check_expr(module, stmt.test, aliases, guarded, findings)
                self._walk_block(
                    module, stmt.body, aliases, guarded | positive, findings
                )
                self._walk_block(
                    module, stmt.orelse, aliases, guarded | negative, findings
                )
                # `if tel is None: return` guards the rest of the block.
                if negative and _terminates(stmt.body):
                    guarded |= negative
                continue
            if isinstance(stmt, ast.Assert):
                guarded |= _guard_keys(stmt.test, positive=True)
                continue
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # Handled by the top-level ast.walk with a fresh scope.
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_expr(module, stmt.iter, aliases, guarded, findings)
                self._walk_block(module, stmt.body, aliases, guarded, findings)
                self._walk_block(module, stmt.orelse, aliases, guarded, findings)
                continue
            if isinstance(stmt, ast.While):
                self._check_expr(module, stmt.test, aliases, guarded, findings)
                positive = _guard_keys(stmt.test, positive=True)
                self._walk_block(
                    module, stmt.body, aliases, guarded | positive, findings
                )
                self._walk_block(module, stmt.orelse, aliases, guarded, findings)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._check_expr(
                        module, item.context_expr, aliases, guarded, findings
                    )
                self._walk_block(module, stmt.body, aliases, guarded, findings)
                continue
            if isinstance(stmt, ast.Try):
                self._walk_block(module, stmt.body, aliases, guarded, findings)
                for handler in stmt.handlers:
                    self._walk_block(
                        module, handler.body, aliases, guarded, findings
                    )
                self._walk_block(module, stmt.orelse, aliases, guarded, findings)
                self._walk_block(
                    module, stmt.finalbody, aliases, guarded, findings
                )
                continue
            self._check_expr(module, stmt, aliases, guarded, findings)

    def _check_expr(
        self,
        module: ModuleUnderLint,
        node: ast.AST | None,
        aliases: set[str],
        guarded: set[str],
        findings: list[Finding],
    ) -> None:
        """Flag unguarded telemetry uses inside one expression tree,
        honouring the inline guard forms (``x is not None and ...``,
        ternaries, comprehension ``if`` clauses)."""
        if node is None:
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            proven: set[str] = set()
            for value in node.values:
                self._check_expr(module, value, aliases, guarded | proven, findings)
                proven |= _guard_keys(value, positive=True)
            return
        if isinstance(node, ast.IfExp):
            positive = _guard_keys(node.test, positive=True)
            negative = _guard_keys(node.test, positive=False)
            self._check_expr(module, node.test, aliases, guarded, findings)
            self._check_expr(
                module, node.body, aliases, guarded | positive, findings
            )
            self._check_expr(
                module, node.orelse, aliases, guarded | negative, findings
            )
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            proven = set()
            for generator in node.generators:
                self._check_expr(
                    module, generator.iter, aliases, guarded | proven, findings
                )
                for cond in generator.ifs:
                    self._check_expr(
                        module, cond, aliases, guarded | proven, findings
                    )
                    proven |= _guard_keys(cond, positive=True)
            element_guard = guarded | proven
            parts = (
                (node.key, node.value)
                if isinstance(node, ast.DictComp)
                else (node.elt,)
            )
            for part in parts:
                self._check_expr(module, part, aliases, element_guard, findings)
            return
        if isinstance(node, ast.Attribute):
            # An access *on* a telemetry binding is the use the guard
            # must dominate; the `tel is not None` comparison itself
            # reads only the name and is never flagged.
            base = node.value
            base_key = _guard_key(base)
            flagged = False
            if (
                isinstance(base, ast.Name)
                and base.id in aliases
                and base.id not in guarded
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        (
                            f"telemetry binding '{base.id}' is used without "
                            f"a dominating '{base.id} is not None' guard; "
                            "an uninstrumented session holds None here"
                        ),
                    )
                )
                flagged = True
            elif (
                _is_telemetry_source(base)
                and base_key is not None
                and base_key not in guarded
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        (
                            f"'{base_key}' is used without a dominating "
                            f"'{base_key} is not None' guard; an "
                            "uninstrumented session holds None here"
                        ),
                    )
                )
                flagged = True
            if flagged:
                return
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                self._check_expr(module, child, aliases, guarded, findings)


#: attribute name -> the invalidation hooks that make mutating it safe.
#: A method of a class *defining* one of the hooks that assigns one of
#: these attributes, or calls one of :data:`MUTATOR_METHODS` on it,
#: must call a matching hook (directly or on the owning core) in the
#: same method.
INVALIDATION_REGISTRY: dict[str, tuple[str, ...]] = {
    # eoADC state: the bank copies it, and conversion and the compiled
    # ladders read the bank.
    "trim_errors": ("invalidate_boundaries", "invalidate_ladders"),
    "spec": ("invalidate_boundaries", "invalidate_ladders"),
    "reference_voltages": ("invalidate_boundaries", "invalidate_ladders"),
    # The bank itself and its bisected-ladder memo.
    "_bank": ("invalidate_boundaries", "invalidate_ladders"),
    "ladder": ("invalidate_boundaries", "invalidate_ladders"),
    # Quantized layer weights: compiled tile engines snapshot them.
    "float_weights": ("invalidate_runtime",),
    "q_positive": ("invalidate_runtime",),
    "q_negative": ("invalidate_runtime",),
    "weight_scale": ("invalidate_runtime",),
    # Two-state ring transmissions: weight loads select from them.
    "_ring_table": ("invalidate_ring_table",),
    # A cluster's rotation: its memoised routes were picked under it.
    "_drained": ("invalidate_routes",),
    "_ring": ("invalidate_routes",),
    "_core_caps": ("invalidate_routes",),
    "_heterogeneous": ("invalidate_routes",),
}

#: In-place mutators: ``self.<registered attribute>.<mutator>(...)``
#: changes the attribute as surely as assigning it.
MUTATOR_METHODS = frozenset(
    {"add", "discard", "remove", "append", "extend", "insert", "pop", "clear",
     "update", "setdefault"}
)


@register
class MutateMustInvalidate(Rule):
    """Mutating compiled-state-bearing attributes must invalidate."""

    name = "mutate-must-invalidate"
    severity = Severity.ERROR
    contract = (
        "a method assigning, or calling an in-place mutator such as "
        "add/append/clear on, a registered compiled-state attribute "
        f"({', '.join(INVALIDATION_REGISTRY)}) on a class "
        "that defines the matching invalidate_* hook must call that "
        "hook; only __init__ and the hook itself mutate freely"
    )
    rationale = (
        "PRs 2 and 5 both shipped stale-cache bugs: compiled engines "
        "and bisected ladders silently kept serving pre-mutation "
        "state; the invalidate hooks exist exactly so the next compile "
        "re-derives"
    )

    def check(self, module: ModuleUnderLint) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(module, node, findings)
        return findings

    def _check_class(
        self, module: ModuleUnderLint, cls: ast.ClassDef, findings: list[Finding]
    ) -> None:
        hooks = {
            item.name
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name.startswith("invalidate_")
        }
        if not hooks:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__" or item.name in hooks:
                continue
            mutated = self._mutated_attributes(item)
            relevant = {
                attr: node
                for attr, node in mutated.items()
                if any(hook in hooks for hook in INVALIDATION_REGISTRY[attr])
            }
            if not relevant:
                continue
            called = self._called_hooks(item)
            for attr, node in sorted(relevant.items(), key=lambda kv: kv[1].lineno):
                required = INVALIDATION_REGISTRY[attr]
                if not any(hook in called for hook in required):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            (
                                f"{cls.name}.{item.name} mutates "
                                f"self.{attr} (compiled or memoised state "
                                f"depends on it) without calling "
                                f"{' or '.join(required)}; stale state "
                                "keeps serving the old value"
                            ),
                        )
                    )

    @staticmethod
    def _mutated_attributes(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, ast.AST]:
        """Registered ``self.<attr>`` mutations in ``func``: plain,
        augmented, tuple-unpacked and ``self.attr[...] = ...`` stores,
        and ``self.attr.<mutator>(...)`` calls."""
        mutated: dict[str, ast.AST] = {}

        def record(target: ast.AST, node: ast.AST) -> None:
            if isinstance(target, ast.Subscript):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in INVALIDATION_REGISTRY
            ):
                mutated.setdefault(target.attr, node)

        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Tuple):
                        for element in target.elts:
                            record(element, node)
                    else:
                        record(target, node)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                record(node.target, node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
            ):
                record(node.func.value, node)
        return mutated

    @staticmethod
    def _called_hooks(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names of ``invalidate_*`` methods called anywhere in
        ``func``, on any receiver (``self.invalidate_runtime()``,
        ``self.core.invalidate_ladders()``, ...)."""
        called: set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("invalidate_")
            ):
                called.add(node.func.attr)
        return called
