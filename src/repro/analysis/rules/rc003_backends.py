"""RC003 — backend-registry parity across the five mirrors.

``repro.core.backends.BACKENDS`` is the registry of execution backends,
but four other places must track it by hand: the planner's per-backend
cost tables, the CLI's ``--backend`` argparse choices, the executor's
dispatch strings, and the README's backend table.  PR 7 and PR 8 each
re-discovered this by test failure when a new backend landed; this rule
makes the parity a static property.

Checks (``concrete`` = registry minus the virtual ``"auto"`` policy):

* ``BACKEND_COST_FACTORS`` / ``BACKEND_FIXED_COSTS`` keys == concrete
  (both directions — a stale key is as wrong as a missing one).
* Every ``--backend`` argparse flag's ``choices`` == the full registry.
* Every concrete backend appears as a string constant in the executor
  (its dispatch/route tables must know the name).
* Every concrete backend has a row in the README's backend table, and
  every row names a registered backend (a deleted tier's row is stale).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.analysis.framework import Checker, Finding, Project, register
from repro.analysis.project import DEFAULT_CONFIG, AnalysisConfig

__all__ = ["BackendRegistryParity"]

#: A backend token in a README table row: | `"python"` | ...
_README_ROW = re.compile(r'^\s*\|\s*`"([a-z]+)"`')


def _assigned_literal(tree: ast.Module, symbol: str) -> Optional[ast.AST]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == symbol:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == symbol
                and node.value is not None
            ):
                return node.value
    return None


def _string_elements(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            out.append(element.value)
        return out
    return None


def _dict_string_keys(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, ast.Dict):
        out = []
        for key in node.keys:
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            out.append(key.value)
        return out
    return None


def _module_strings(tree: ast.Module) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@register
class BackendRegistryParity(Checker):
    rule = "RC003"
    name = "backend-registry-parity"
    description = (
        "BACKENDS must agree with the planner cost tables, CLI choices, "
        "executor dispatch, and README backend table"
    )

    def __init__(self, config: AnalysisConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    def check(self, project: Project) -> Iterator[Finding]:
        cfg = self.config
        source = project.source(cfg.backends_module)
        if source is None:
            yield self.missing(cfg.backends_module)
            return
        literal = _assigned_literal(source.tree, cfg.backends_symbol)
        registry = _string_elements(literal) if literal is not None else None
        if registry is None:
            yield project.finding(
                self.rule,
                cfg.backends_module,
                1,
                f"{cfg.backends_symbol} is not a literal tuple of strings "
                f"(the registry must stay statically readable)",
            )
            return
        full = set(registry)
        concrete = full - set(cfg.virtual_backends)
        yield from self._check_planner(project, concrete)
        yield from self._check_cli(project, full)
        yield from self._check_executor(project, concrete)
        yield from self._check_readme(project, concrete, full)

    # ------------------------------------------------------------------
    def _check_planner(self, project, concrete):
        cfg = self.config
        source = project.source(cfg.planner_module)
        if source is None:
            yield self.missing(cfg.planner_module)
            return
        for symbol in cfg.planner_symbols:
            literal = _assigned_literal(source.tree, symbol)
            keys = _dict_string_keys(literal) if literal is not None else None
            if keys is None:
                yield project.finding(
                    self.rule,
                    cfg.planner_module,
                    1,
                    f"{symbol} is missing or not a literal dict with "
                    f"string keys",
                )
                continue
            line = getattr(literal, "lineno", 1)
            for backend in sorted(concrete - set(keys)):
                yield project.finding(
                    self.rule,
                    cfg.planner_module,
                    line,
                    f"backend {backend!r} is registered in BACKENDS but "
                    f"has no {symbol} entry",
                )
            for backend in sorted(set(keys) - concrete):
                yield project.finding(
                    self.rule,
                    cfg.planner_module,
                    line,
                    f"{symbol} has an entry for {backend!r}, which is not "
                    f"a registered concrete backend",
                )

    def _check_cli(self, project, full):
        cfg = self.config
        source = project.source(cfg.cli_module)
        if source is None:
            yield self.missing(cfg.cli_module)
            return
        flags = 0
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == cfg.cli_flag
            ):
                continue
            flags += 1
            choices = None
            for keyword in node.keywords:
                if keyword.arg == "choices":
                    choices = _string_elements(keyword.value)
            if choices is None:
                yield project.finding(
                    self.rule,
                    cfg.cli_module,
                    node.lineno,
                    f"{cfg.cli_flag} argument has no literal choices tuple",
                )
                continue
            if set(choices) != full:
                missing = sorted(full - set(choices))
                extra = sorted(set(choices) - full)
                detail = []
                if missing:
                    detail.append(f"missing {missing}")
                if extra:
                    detail.append(f"unknown {extra}")
                yield project.finding(
                    self.rule,
                    cfg.cli_module,
                    node.lineno,
                    f"{cfg.cli_flag} choices disagree with BACKENDS: "
                    + "; ".join(detail),
                )
        if flags == 0:
            yield project.finding(
                self.rule,
                cfg.cli_module,
                1,
                f"no {cfg.cli_flag} argument found — the CLI no longer "
                f"exposes the backend registry",
            )

    def _check_executor(self, project, concrete):
        cfg = self.config
        source = project.source(cfg.executor_module)
        if source is None:
            yield self.missing(cfg.executor_module)
            return
        present = _module_strings(source.tree)
        for backend in sorted(concrete - present):
            yield project.finding(
                self.rule,
                cfg.executor_module,
                1,
                f"backend {backend!r} is registered in BACKENDS but never "
                f"named in the executor's dispatch/route tables",
            )

    def _check_readme(self, project, concrete, full):
        cfg = self.config
        text = project.text(cfg.readme)
        if text is None:
            yield self.missing(cfg.readme)
            return
        rows = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _README_ROW.match(line)
            if match:
                rows.setdefault(match.group(1), lineno)
        if not rows:
            yield Finding(
                rule=self.rule,
                path=cfg.readme,
                line=1,
                message=(
                    "README has no backend table (rows shaped like "
                    '`| `"python"` | ... |`)'
                ),
            )
            return
        for backend in sorted(concrete - set(rows)):
            yield Finding(
                rule=self.rule,
                path=cfg.readme,
                line=min(rows.values()),
                message=(
                    f"backend {backend!r} is registered in BACKENDS but "
                    f"has no row in the README backend table"
                ),
            )
        for backend in sorted(set(rows) - full):
            yield Finding(
                rule=self.rule,
                path=cfg.readme,
                line=rows[backend],
                message=(
                    f"README backend table has a row for {backend!r}, "
                    f"which is not in BACKENDS"
                ),
            )
