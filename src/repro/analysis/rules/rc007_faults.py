"""RC007 — fault-point hygiene.

The fault-injection subsystem (:mod:`repro.faults`) is only trustworthy
under three conventions this rule enforces mechanically:

* **Literal, registered, unique names.**  Every ``fault_point(...)`` /
  ``fault_frame(...)`` call names its seam with a *string literal* (a
  computed name cannot be matched by a plan rule or audited here), the
  name is registered in the :data:`~repro.analysis.project.AnalysisConfig`
  ``fault_points`` catalog against the module that declares it, and no
  name is declared twice — duplicate declarations would make a plan's
  per-point hit counters lie about which seam actually fired.
* **Rot guard.**  A registered name whose declaration disappears from its
  module is itself a finding, so refactors keep the catalog honest (the
  same contract every other map-driven rule here follows).
* **No production enabling.**  ``install_plan(...)`` may be called only
  inside the faults package itself (the ``REPRO_FAULT_PLAN`` bootstrap)
  — library code must never switch injection on; tests and benchmarks
  (outside ``src/``) do that explicitly.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.analysis.framework import (
    Checker,
    Finding,
    Project,
    call_name,
    register,
    source_files,
)
from repro.analysis.project import DEFAULT_CONFIG, AnalysisConfig

__all__ = ["FaultPointHygiene"]


def _hook_calls(
    tree: ast.Module, hook_names: frozenset
) -> Iterator[Tuple[str, ast.Call]]:
    """(hook name, call node) for every injection-hook call in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in hook_names:
            yield name, node


@register
class FaultPointHygiene(Checker):
    rule = "RC007"
    name = "fault-point-hygiene"
    description = (
        "fault points use unique literal registered names; nothing in "
        "the library installs a fault plan"
    )

    def __init__(self, config: AnalysisConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    def check(self, project: Project) -> Iterator[Finding]:
        declared: Dict[str, List[Tuple[str, int]]] = {}
        modules = sorted(set(self.config.fault_points.values()))
        for rel in modules:
            source = project.source(rel)
            if source is None:
                yield self.missing(rel)
                continue
            for hook, call in _hook_calls(
                source.tree, self.config.fault_hook_names
            ):
                if not call.args or not (
                    isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)
                ):
                    yield project.finding(
                        self.rule,
                        rel,
                        call.lineno,
                        f"{hook}() must name its point with a string "
                        "literal (computed names cannot be matched by "
                        "plan rules or audited)",
                    )
                    continue
                point = call.args[0].value
                declared.setdefault(point, []).append((rel, call.lineno))
                registered_in = self.config.fault_points.get(point)
                if registered_in is None:
                    yield project.finding(
                        self.rule,
                        rel,
                        call.lineno,
                        f"fault point {point!r} is not registered in the "
                        "analysis fault_points catalog",
                    )
                elif registered_in != rel:
                    yield project.finding(
                        self.rule,
                        rel,
                        call.lineno,
                        f"fault point {point!r} is registered to "
                        f"{registered_in}, not here",
                    )
        # Uniqueness: one declaration site per name.
        for point, sites in sorted(declared.items()):
            if len(sites) > 1:
                for rel, line in sites[1:]:
                    yield project.finding(
                        self.rule,
                        rel,
                        line,
                        f"fault point {point!r} is declared more than "
                        f"once (first at {sites[0][0]}:{sites[0][1]}); "
                        "duplicate names make plan hit counters lie",
                    )
        # Rot guard: every registered name still exists where it claims.
        for point, rel in sorted(self.config.fault_points.items()):
            if project.source(rel) is None:
                continue  # already reported as missing above
            if point not in declared:
                yield project.finding(
                    self.rule,
                    rel,
                    1,
                    f"registered fault point {point!r} is no longer "
                    "declared in this module (update the catalog)",
                )
        # No production enabling: install_plan stays inside the package.
        yield from self._production_installs(project)

    # ------------------------------------------------------------------
    def _production_installs(self, project: Project) -> Iterator[Finding]:
        package_prefix = self.config.faults_package.rstrip("/") + "/"
        for source in source_files(project, self.config.source_root):
            if source.rel.startswith(package_prefix):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Call) and call_name(node) == "install_plan":
                    yield project.finding(
                        self.rule,
                        source.rel,
                        node.lineno,
                        "library code must never install a fault plan; "
                        "only repro.faults' env bootstrap (and tests/"
                        "benchmarks) may enable injection",
                    )
