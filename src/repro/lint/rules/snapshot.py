"""RPR014 — snapshot discipline on per-query paths.

The whole concurrency story of the service rests on one convention
(DESIGN.md §6/§11, PAPER.md Alg. 2–4): per-query code never touches
live substrate state — it **adopts** an immutable view
(``adopt_view()`` / ``snapshot()``), and only the
membership/maintenance paths (which hold the membership lock) may
drive the substrate's mutating API.  A query path that calls
``substrate.build()`` directly, pokes a private substrate method, or
rebinds adopted ``KernelView`` state would work in every single-
threaded test and corrupt answers only under concurrent churn.

This rule enforces the convention over the whole-program call graph.
Entry points are the per-query surfaces: public methods of the
classes in the service core/executor modules and the coordinator's
``submit`` / ``submit_batch`` / ``dispatch_group`` — *excluding* the
sanctioned mutation surfaces (membership changes, lifecycle,
``prepare``/warm-up).  From those entries it walks every resolved
call chain and flags, in functions defined **outside** the
substrate's own module (the substrate is internally synchronized —
its own internals are its business):

* calls on a substrate-typed or substrate-named receiver to anything
  but the sanctioned read API (``adopt_view``, ``snapshot``,
  ``peek``) — mutating methods and
  ``_private`` internals alike;
* attribute writes through a substrate receiver
  (``self._substrate.x = ...``) or to ``KernelView``-ish bindings
  (``view.csr = ...``, ``kernel_view.spaces[...] = ...``).

Receivers are recognized two ways: **typed** (``self.x`` whose
``__init__`` assigned ``x = AggregationSubstrate(...)`` — resolved
through the symbol table) and **named** (a terminal name containing
``substrate``) so the rule still bites where construction is hidden
behind a factory.  Unknown receivers degrade to "not a substrate":
no guessing, no false positives.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.graph import FunctionInfo, ProjectGraph
from repro.lint.rules import ProjectContext, Rule, register

__all__ = ["SnapshotDisciplineRule"]

#: The class whose state adoption protects.
SUBSTRATE_CLASS = "AggregationSubstrate"

#: The read-only adoption facade: callable from anywhere.
SANCTIONED = frozenset(
    {
        "adopt_view",
        "snapshot",
        "peek",
        # read-only properties accessed as calls via getattr patterns
        "generation",
        "built",
        "hosts",
        "distances",
    }
)

#: Modules whose per-query entry points start the walk.
ENTRY_MODULE_SUFFIXES = ("service.core", "service.executor")

#: Coordinator entries (query path only).
COORDINATOR_ENTRIES = frozenset(
    {"submit", "submit_batch", "dispatch_group"}
)
COORDINATOR_MODULE_SUFFIX = "net.coordinator"

#: Public methods on the entry modules that legitimately mutate: the
#: membership path, warm-up, and lifecycle are not query paths.
_NON_QUERY_METHODS = frozenset(
    {
        "__init__",
        "add_host",
        "remove_host",
        "invalidate",
        "prepare",
        "start",
        "close",
        "stop",
        "__enter__",
        "__exit__",
    }
)

#: Receiver names that mark an adopted kernel view.
_VIEWISH_NAMES = frozenset({"view", "kernel_view", "kview"})


def _module_matches(name: str, suffix: str) -> bool:
    return name == suffix or name.endswith("." + suffix)


def _receiver_is_substrate(
    expr: ast.expr, function: FunctionInfo, graph: ProjectGraph
) -> bool:
    """Whether *expr* (a call/attribute receiver) is the substrate."""
    # Typed: ``self.x`` where __init__ assigned x = AggregationSubstrate(...)
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
        and function.class_name is not None
    ):
        info = function.module.classes.get(function.class_name)
        if info is not None:
            constructor = info.attr_constructors.get(expr.attr)
            if constructor == SUBSTRATE_CLASS:
                return True
            if constructor is not None:
                # Typed knowledge beats the name heuristic: an attr
                # constructed as something else (the generation memo
                # *holding* a substrate, say) is not the substrate.
                return False
        return "substrate" in expr.attr.lower()
    # Named: any terminal identifier containing "substrate".
    if isinstance(expr, ast.Name):
        return "substrate" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "substrate" in expr.attr.lower()
    return False


def _substrate_module(graph: ProjectGraph) -> str | None:
    for class_info in graph.classes():
        if class_info.name == SUBSTRATE_CLASS:
            return class_info.module.name
    return None


@register
class SnapshotDisciplineRule(Rule):
    """Flag substrate/KernelView mutation reachable from query paths."""

    rule_id = "RPR014"
    summary = (
        "per-query paths must adopt substrate state (adopt_view/"
        "snapshot), never mutate it or reach into its internals"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = project.graph
        entries = list(self._entries(graph))
        if not entries:
            return
        home = _substrate_module(graph)
        reported: set[tuple[str, int]] = set()
        for function, path in graph.walk(entries):
            if home is not None and function.module.name == home:
                # The substrate's own module is internally
                # synchronized; its internals are exempt.
                continue
            yield from self._check_function(
                graph, function, path, reported
            )

    def _entries(self, graph: ProjectGraph) -> Iterable[FunctionInfo]:
        for function in graph.functions():
            if function.class_name is None or function.parent is not None:
                continue
            name = function.module.name
            if any(
                _module_matches(name, suffix)
                for suffix in ENTRY_MODULE_SUFFIXES
            ):
                if (
                    not function.name.startswith("_")
                    and function.name not in _NON_QUERY_METHODS
                ):
                    yield function
            elif _module_matches(name, COORDINATOR_MODULE_SUFFIX):
                if function.name in COORDINATOR_ENTRIES:
                    yield function

    def _check_function(
        self,
        graph: ProjectGraph,
        function: FunctionInfo,
        path: tuple[str, ...],
        reported: set[tuple[str, int]],
    ) -> Iterable[Finding]:
        via = (
            f" (reachable via {' -> '.join(path)})" if len(path) > 1 else ""
        )
        for site, _targets in graph.callees(function):
            func = site.node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _receiver_is_substrate(func.value, function, graph):
                continue
            if site.name in SANCTIONED:
                continue
            key = (function.context.display, site.node.lineno)
            if key in reported:
                continue
            reported.add(key)
            kind = (
                "private substrate internal"
                if site.name.startswith("_")
                else "mutating substrate call"
            )
            yield function.context.finding(
                site.node,
                self.rule_id,
                f"{kind} .{site.name}() on a per-query path — reads "
                "go through adopt_view()/snapshot(); mutation belongs "
                f"to the membership path{via}",
            )
        # Attribute writes through substrate/view receivers.
        for node in ast.walk(function.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                base = target
                # Unwrap subscripts: view.spaces[i] = ... writes view
                # state just the same.
                while isinstance(base, ast.Subscript):
                    base = base.value
                if not isinstance(base, ast.Attribute):
                    continue
                receiver = base.value
                viewish = (
                    isinstance(receiver, ast.Name)
                    and receiver.id.lower() in _VIEWISH_NAMES
                )
                if not viewish and not _receiver_is_substrate(
                    receiver, function, graph
                ):
                    continue
                key = (function.context.display, node.lineno)
                if key in reported:
                    continue
                reported.add(key)
                what = (
                    "adopted KernelView state"
                    if viewish
                    else "substrate state"
                )
                yield function.context.finding(
                    node,
                    self.rule_id,
                    f"write to {what} (.{base.attr}) on a per-query "
                    "path — adopted views are immutable; mutation "
                    f"belongs to the membership path{via}",
                )
