"""RC008 — the graph owns its flat arrays.

A :class:`~repro.graph.graph.Graph` builds its numpy CSR views once
(``graph.csr()`` / ``graph.rev_csr()``) and a
:class:`~repro.dynamic.graph.DynamicGraph` patches them on every mutation;
every other layer *asks the graph*.  A driver, engine or harness that
converts a graph itself pays the whole interpreted pass again per call
(10 ms at 16,000 nodes) and works on arrays no session cache is keyed to.

* **One owner.**  A call to, or import of, one of the ``csr_builders``
  (``to_csr`` and the two patch helpers) anywhere under ``source_root``
  outside the declared ``csr_owner_modules`` is a finding.
* **Rot guard.**  A declared owner that no longer defines, imports or
  calls any builder is itself a finding, so the map shrinks with the code.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.framework import (
    Checker,
    Finding,
    Project,
    call_name,
    register,
    source_files,
)
from repro.analysis.project import DEFAULT_CONFIG, AnalysisConfig

__all__ = ["CsrOwnership"]


def _builder_uses(
    tree: ast.Module, builders: frozenset
) -> Iterator[Tuple[int, str, str]]:
    """``(line, builder, "calls" | "imports" | "defines")`` for ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and call_name(node) in builders:
            yield node.lineno, call_name(node), "calls"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rsplit(".", 1)[-1]
                if name in builders:
                    yield node.lineno, name, "imports"
        elif isinstance(node, ast.FunctionDef) and node.name in builders:
            yield node.lineno, node.name, "defines"


@register
class CsrOwnership(Checker):
    rule = "RC008"
    name = "csr-ownership"
    description = (
        "only the graph classes build or patch CSR views; every other "
        "module asks graph.csr()"
    )

    def __init__(self, config: AnalysisConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    def check(self, project: Project) -> Iterator[Finding]:
        builders = self.config.csr_builders
        owners = set(self.config.csr_owner_modules)
        for rel in sorted(owners):
            source = project.source(rel)
            if source is None:
                yield self.missing(rel)
            elif not any(_builder_uses(source.tree, builders)):
                yield project.finding(
                    self.rule,
                    rel,
                    1,
                    "declared CSR owner no longer defines, imports or calls "
                    f"any of {sorted(builders)} (update csr_owner_modules)",
                )
        for source in source_files(project, self.config.source_root):
            if source.rel in owners:
                continue
            for line, builder, verb in _builder_uses(source.tree, builders):
                yield project.finding(
                    self.rule,
                    source.rel,
                    line,
                    f"{verb} {builder}: the graph owns its flat arrays — "
                    "ask graph.csr() / graph.rev_csr() instead of "
                    "building or patching a view here",
                )
