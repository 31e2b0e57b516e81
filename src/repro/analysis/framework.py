"""Core machinery of ``repro-check`` — the project-invariant analysis suite.

A *checker* is a class with a stable ``rule`` id (``RC001``, ...) and a
``check(project)`` method yielding :class:`Finding`s.  The suite exists
because this codebase's correctness rests on cross-module conventions no
generic linter can see (deadline polling in kernels, writer-lock
discipline, a backend registry mirrored across five modules, stable wire
codes, frame-encodable task payloads, declared fault points, one CSR
owner); each
checker mechanically enforces one of them against the live tree.

Everything here is dependency-free on purpose: the suite must run on the
no-numpy CI cell, so only :mod:`ast`, :mod:`tokenize` and :mod:`json` are
used.

Suppressions
------------
A finding is *waived* by an inline comment on its line or the line above::

    for attempt in (0, 1):  # repro: allow[RC001] retry wrapper, round polls

    # repro: allow[RC002,RC005]
    self._table.clear()

Waived findings are reported (with ``--show-waived``) but never fail the
run.  Findings can also be *grandfathered* into a committed baseline file
(:mod:`repro.analysis.baseline`) — new code must come in clean while old
debt is paid down deliberately.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

__all__ = [
    "Finding",
    "Checker",
    "SourceFile",
    "Project",
    "REGISTRY",
    "register",
    "all_checkers",
    "run_checkers",
]

#: ``# repro: allow[RC001]`` / ``# repro: allow[RC001,RC005] free text``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str
    waived: bool = False

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline mechanism.

        Deliberately excludes the line number so unrelated edits shifting
        a grandfathered finding down the file do not resurrect it.
        """
        return f"{self.rule}|{self.path}|{self.message}"

    def render(self) -> str:
        suffix = "  (waived)" if self.waived else ""
        return f"{self.path}:{self.line}: {self.rule} {self.message}{suffix}"


class SourceFile:
    """One parsed source file: text, AST, and inline-suppression table."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.text, filename=str(path))
        self._allowed: Optional[Dict[int, set]] = None

    @property
    def allowed(self) -> Dict[int, set]:
        """line number -> set of rule ids allowed on that line."""
        if self._allowed is None:
            table: Dict[int, set] = {}
            try:
                tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
                for tok in tokens:
                    if tok.type != tokenize.COMMENT:
                        continue
                    match = _ALLOW_RE.search(tok.string)
                    if match:
                        rules = {
                            part.strip()
                            for part in match.group(1).split(",")
                            if part.strip()
                        }
                        table.setdefault(tok.start[0], set()).update(rules)
            except tokenize.TokenError:  # pragma: no cover - unparseable tail
                pass
            self._allowed = table
        return self._allowed

    def is_allowed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is waived on ``line`` or the line above it."""
        for candidate in (line, line - 1):
            if rule in self.allowed.get(candidate, ()):
                return True
        return False


class Project:
    """The tree under analysis: a root directory plus a source-file cache."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()
        self._cache: Dict[str, Optional[SourceFile]] = {}

    def source(self, rel: str) -> Optional[SourceFile]:
        """The parsed source at ``rel`` (posix, repo-relative), or None."""
        if rel not in self._cache:
            path = self.root / rel
            if path.is_file():
                self._cache[rel] = SourceFile(self.root, path)
            else:
                self._cache[rel] = None
        return self._cache[rel]

    def text(self, rel: str) -> Optional[str]:
        """Raw text of any repo file (docs included), or None when absent."""
        source = self._cache.get(rel)
        if source is not None:
            return source.text
        path = self.root / rel
        if path.is_file():
            return path.read_text(encoding="utf-8")
        return None

    def finding(
        self, rule: str, rel: str, line: int, message: str
    ) -> Finding:
        """A finding with the waiver table of ``rel`` already applied."""
        source = self.source(rel)
        waived = bool(source is not None and source.is_allowed(rule, line))
        return Finding(rule=rule, path=rel, line=line, message=message, waived=waived)


class Checker:
    """Base class: subclasses set ``rule``/``name`` and yield findings."""

    rule: str = ""
    name: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    # Convenience used by every concrete checker -----------------------
    def missing(self, rel: str) -> Finding:
        """Standard finding for a file the checker's contract points at."""
        return Finding(
            rule=self.rule,
            path=rel,
            line=1,
            message=f"file named by the {self.rule} contract does not exist",
        )


#: rule id -> checker class, filled by :func:`register`.
REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the suite registry."""
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} has no rule id")
    existing = REGISTRY.get(cls.rule)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate checker rule id {cls.rule!r}")
    REGISTRY[cls.rule] = cls
    return cls


def all_checkers() -> List[Type[Checker]]:
    """Every registered checker class, in rule-id order."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [REGISTRY[rule] for rule in sorted(REGISTRY)]


@dataclass
class Report:
    """Outcome of one analysis run, partitioned by disposition."""

    active: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    rules_run: Sequence[str] = ()

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def run_checkers(
    root: Path,
    checkers: Optional[Iterable[Checker]] = None,
    baseline: Optional[set] = None,
) -> Report:
    """Run ``checkers`` (default: all registered) over the tree at ``root``."""
    project = Project(root)
    instances = (
        list(checkers)
        if checkers is not None
        else [cls() for cls in all_checkers()]
    )
    report = Report(rules_run=[checker.rule for checker in instances])
    baseline = baseline or set()
    for checker in instances:
        for finding in checker.check(project):
            if finding.waived:
                report.waived.append(finding)
            elif finding.fingerprint() in baseline:
                report.baselined.append(finding)
            else:
                report.active.append(finding)
    for bucket in (report.active, report.waived, report.baselined):
        bucket.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return report


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules
# ----------------------------------------------------------------------
def call_name(node: ast.AST) -> Optional[str]:
    """The terminal name of a call target: ``f()`` -> f, ``a.b.c()`` -> c."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def source_files(project: Project, source_root: str) -> Iterator[SourceFile]:
    """Every parseable ``*.py`` under ``source_root``, in path order."""
    root = project.root / source_root
    if root.is_dir():
        for path in sorted(root.rglob("*.py")):
            source = project.source(path.relative_to(project.root).as_posix())
            if source is not None:
                yield source


def function_table(tree: ast.Module) -> Dict[str, ast.AST]:
    """Qualname -> def node for module functions and single-level methods."""
    table: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    table[f"{node.name}.{item.name}"] = item
    return table


def walk_function(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a def body without descending into nested function definitions."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every call in ``node``'s subtree, nested defs excluded."""
    if isinstance(node, ast.Call):
        yield node
    for child in walk_function(node):
        if isinstance(child, ast.Call):
            yield child
