"""RPR010 — keep the kernel layer dependency-clean.

``repro.kernels`` sits at the bottom of the dependency stack: the core
protocol layer calls *into* it, the service layer sits above that, and
the observability spans around kernel work are emitted by the callers.
A kernel module that imports ``repro.service``/``repro.sim``/
``repro.obs`` (or any other high layer) inverts that order and creates
an import cycle through the core layer that calls it.  Kernel modules
may import only:

* the standard library,
* ``numpy``,
* other ``repro.kernels`` modules (absolute or relative),
* ``repro.metrics`` (shared array helpers) and ``repro.exceptions``.

Everything else is flagged, including imports hidden inside functions
(the rule walks the whole module tree, not just the top level).
"""

from __future__ import annotations

import ast
import sys
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, register

__all__ = ["KernelImportRule"]

SCOPE = "repro/kernels/"

#: Non-stdlib roots the kernel layer may depend on.
_ALLOWED_ROOTS = frozenset({"numpy"})

#: ``repro.*`` prefixes the kernel layer may depend on.
_ALLOWED_REPRO = ("repro.kernels", "repro.metrics", "repro.exceptions")


def _module_allowed(module: str) -> bool:
    root = module.split(".", 1)[0]
    if root in sys.stdlib_module_names or root in _ALLOWED_ROOTS:
        return True
    if root != "repro":
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _ALLOWED_REPRO
    )


@register
class KernelImportRule(Rule):
    """Flag imports that pierce the kernel layer's dependency contract."""

    rule_id = "RPR010"
    summary = (
        "repro.kernels may import only stdlib, numpy, repro.kernels, "
        "repro.metrics, and repro.exceptions"
    )

    def applies_to(self, display: str) -> bool:
        return SCOPE in display

    def check_file(self, context: FileContext) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if not _module_allowed(alias.name):
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"kernel module imports {alias.name!r}; "
                            "allowed: stdlib, numpy, repro.kernels, "
                            "repro.metrics, repro.exceptions",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative imports stay inside repro.kernels.
                    continue
                module = node.module or ""
                if not _module_allowed(module):
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"kernel module imports from {module!r}; "
                        "allowed: stdlib, numpy, repro.kernels, "
                        "repro.metrics, repro.exceptions",
                    )
