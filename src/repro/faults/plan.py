"""Deterministic, seeded fault injection for the distributed seams.

Every distributed layer (parallel pool, socket cluster, HTTP serving)
declares named **fault points** — :func:`fault_point` for control-flow
faults, :func:`fault_frame` where raw frame bytes pass by.  With no plan
installed a fault point is one global load and a ``None`` check, so the
hooks stay in production code permanently (the disabled cost is measured
by ``benchmarks/bench_faults.py``, which warns above 1%).

A :class:`FaultPlan` is a seeded schedule of fault events::

    plan = FaultPlan.from_spec({
        "seed": 7,
        "rules": [
            {"point": "cluster.worker.task", "kind": "crash",
             "after": 3, "count": 1},
            {"point": "cluster.frame.send", "kind": "corrupt_frame",
             "probability": 0.25},
        ],
    })
    install_plan(plan)

Rules fire on per-point *hit counters* and per-rule seeded RNG streams, so
the same plan against the same execution replays the same failure
sequence — that is what makes a chaos failure a unit test instead of a
flake.  Activation is strictly opt-in: :func:`install_plan` in-process, or
the ``REPRO_FAULT_PLAN`` environment variable (inline JSON, ``@path``, or
``preset:NAME,seed=N``), which spawned worker processes inherit.  No
production code path installs a plan — the RC007 repro-check rule enforces
that, plus the uniqueness and registration of every fault-point name
(see ``repro/analysis/rules/rc007_faults.py``).

Fault kinds and how they manifest at a point:

``crash``
    ``os._exit(86)`` — an abrupt process death, exactly what the pool's
    and transport's respawn/re-issue machinery must absorb.
``delay``
    ``time.sleep(rule.delay)`` — a straggler; hedging's prey.
``transient_error``
    raises :class:`~repro.errors.FaultInjectedError` (``retryable=True``)
    — a recoverable, typed failure the re-issue/retry layers must absorb.
``refuse_connect``
    raises ``ConnectionRefusedError`` — a down peer at connect time.
``truncate_frame`` / ``corrupt_frame``
    at a :func:`fault_frame` site, cut the frame short / flip bytes in its
    header region so the receiver fails its decode *loudly* (never
    silently corrupting payload data); at a plain :func:`fault_point`
    site they degrade to a ``ConnectionError``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import FaultInjectedError, InvalidParameterError

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "fault_frame",
    "install_plan",
    "clear_plan",
    "active_plan",
    "preset_plan",
    "PRESET_NAMES",
]

FAULT_KINDS = frozenset(
    {
        "crash",
        "delay",
        "truncate_frame",
        "corrupt_frame",
        "refuse_connect",
        "transient_error",
    }
)

#: Environment variable read once at import; worker processes inherit it.
ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule.

    ``point`` is an exact fault-point name or a ``prefix.*`` glob.  The
    rule fires on a hit when the point's hit counter has passed ``after``,
    the rule has fired fewer than ``count`` times (``None`` = unlimited),
    every ``match`` label equals the fault point's label, and the rule's
    seeded RNG draw lands under ``probability``.
    """

    point: str
    kind: str
    probability: float = 1.0
    after: int = 0
    count: Optional[int] = None
    delay: float = 0.05
    match: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )

    def matches_point(self, name: str) -> bool:
        if self.point.endswith(".*"):
            return name.startswith(self.point[:-1])
        return name == self.point

    def matches_labels(self, labels: Mapping[str, object]) -> bool:
        return all(labels.get(key) == value for key, value in self.match.items())

    def to_spec(self) -> dict:
        spec: dict = {"point": self.point, "kind": self.kind}
        if self.probability != 1.0:
            spec["probability"] = self.probability
        if self.after:
            spec["after"] = self.after
        if self.count is not None:
            spec["count"] = self.count
        if self.kind == "delay":
            spec["delay"] = self.delay
        if self.match:
            spec["match"] = dict(self.match)
        return spec


class FaultPlan:
    """A seeded, replayable schedule of fault events.

    Thread-safe: the decision path takes one lock (fault points sit at
    frame/connection/task boundaries, never inside kernels, so the lock is
    uncontended in practice).  Per-rule RNG streams are seeded from
    ``(seed, rule index)`` via the string-seeding path, which is stable
    across Python versions — two processes running the same plan against
    the same hit sequence take identical fault decisions.
    """

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fired_counts: List[int] = [0] * len(self.rules)
        self._rngs = [
            random.Random(f"repro-faults:{self.seed}:{index}")
            for index in range(len(self.rules))
        ]
        #: Chronological (point, kind, hit) log of every fired event.
        self.fired: List[Tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "FaultPlan":
        if not isinstance(spec, Mapping):
            raise InvalidParameterError(
                f"fault plan spec must be an object, got {type(spec).__name__}"
            )
        raw_rules = spec.get("rules") or ()
        rules = []
        for raw in raw_rules:
            if not isinstance(raw, Mapping):
                raise InvalidParameterError(
                    f"fault rule must be an object, got {raw!r}"
                )
            kwargs = dict(raw)
            unknown = set(kwargs) - {
                "point",
                "kind",
                "probability",
                "after",
                "count",
                "delay",
                "match",
            }
            if unknown:
                raise InvalidParameterError(
                    f"unknown fault rule field(s): {sorted(unknown)}"
                )
            rules.append(FaultRule(**kwargs))
        return cls(rules, seed=int(spec.get("seed", 0) or 0))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULT_PLAN`` forms.

        * inline JSON: ``{"seed": 3, "rules": [...]}``
        * a file: ``@/path/to/plan.json``
        * a named preset: ``preset:crash-heavy,seed=3``
        """
        text = text.strip()
        if not text:
            raise InvalidParameterError("empty fault plan spec")
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as handle:
                return cls.from_spec(json.load(handle))
        if text.startswith("preset:"):
            body = text[len("preset:") :]
            name, _, tail = body.partition(",")
            seed = 0
            if tail:
                key, _, value = tail.partition("=")
                if key.strip() != "seed" or not value.strip().lstrip("-").isdigit():
                    raise InvalidParameterError(
                        f"malformed preset spec {text!r}; "
                        f"expected preset:NAME[,seed=N]"
                    )
                seed = int(value)
            return preset_plan(name.strip(), seed=seed)
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(
                f"fault plan is not valid JSON, @path, or preset:NAME: {exc}"
            ) from None
        return cls.from_spec(spec)

    def to_spec(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_spec() for rule in self.rules],
        }

    # ------------------------------------------------------------------
    def decide(
        self, name: str, labels: Mapping[str, object]
    ) -> Optional[FaultRule]:
        """Advance ``name``'s hit counter; the rule that fires, if any."""
        with self._lock:
            hit = self._hits.get(name, 0) + 1
            self._hits[name] = hit
            for index, rule in enumerate(self.rules):
                if not rule.matches_point(name):
                    continue
                if not rule.matches_labels(labels):
                    continue
                if rule.count is not None and (
                    self._fired_counts[index] >= rule.count
                ):
                    continue
                if hit <= rule.after:
                    continue
                if (
                    rule.probability < 1.0
                    and self._rngs[index].random() >= rule.probability
                ):
                    continue
                self._fired_counts[index] += 1
                self.fired.append((name, rule.kind, hit))
                return rule
        return None

    def hits(self) -> Dict[str, int]:
        """Snapshot of per-point hit counters (observability/bench)."""
        with self._lock:
            return dict(self._hits)

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.rules),
                "hits": dict(self._hits),
                "fired": list(self.fired),
            }


# ----------------------------------------------------------------------
# The active plan + the hooks production code calls
# ----------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` process-wide (``None`` deactivates).

    Test/bench-only: production code never calls this (RC007 enforces it);
    worker processes pick plans up from ``REPRO_FAULT_PLAN`` instead.
    """
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def _execute(rule: FaultRule, name: str) -> None:
    kind = rule.kind
    if kind == "delay":
        time.sleep(rule.delay)
    elif kind == "crash":
        os._exit(86)
    elif kind == "transient_error":
        raise FaultInjectedError(f"injected transient error at {name}")
    elif kind == "refuse_connect":
        raise ConnectionRefusedError(f"injected connect refusal at {name}")
    else:
        # truncate/corrupt at a non-frame point: the nearest physical
        # analogue is a broken connection.
        raise ConnectionError(f"injected {kind} at {name}")


def fault_point(name: str, **labels: object) -> None:
    """Named injection hook; a no-op unless a plan is installed."""
    plan = _PLAN
    if plan is None:
        return
    rule = plan.decide(name, labels)
    if rule is not None:
        _execute(rule, name)


def fault_frame(
    name: str, data: bytes, *, header_offset: int = 8, **labels: object
) -> bytes:
    """Frame-bytes injection hook; returns ``data`` unchanged when disabled.

    ``header_offset`` is where the frame's JSON header region starts in
    ``data`` — corruption is confined to it so a corrupted frame always
    fails the receiver's decode instead of silently bending array blobs.
    A truncating site must treat a shortened return value as a mid-frame
    connection cut (ship the prefix, then fail like the network did).
    """
    plan = _PLAN
    if plan is None:
        return data
    rule = plan.decide(name, labels)
    if rule is None:
        return data
    if rule.kind == "truncate_frame":
        keep = min(len(data), header_offset + 2)
        return data[:keep]
    if rule.kind == "corrupt_frame":
        buffer = bytearray(data)
        start = min(header_offset, max(0, len(buffer) - 1))
        for index in range(start, min(len(buffer), start + 16)):
            buffer[index] ^= 0x5A
        return bytes(buffer)
    _execute(rule, name)
    return data


# ----------------------------------------------------------------------
# Presets — the CI chaos matrix and the quickstart vocabulary
# ----------------------------------------------------------------------

PRESET_NAMES = ("crash-heavy", "delay-heavy", "corrupt-heavy")


def preset_plan(name: str, *, seed: int = 0) -> FaultPlan:
    """A canonical plan per chaos profile, varied by ``seed``.

    ``after`` offsets keep crash storms inside the transports' respawn
    budgets for a single-query workload: each worker process dies at most
    once per generation, with at least a few completed tasks between
    generations, so recovery always converges.
    """
    if name == "crash-heavy":
        rules = [
            {"point": "cluster.worker.task", "kind": "crash",
             "after": 3 + seed % 2, "count": 1},
            {"point": "parallel.worker.task", "kind": "crash",
             "after": 2 + seed % 3, "count": 1},
        ]
    elif name == "delay-heavy":
        rules = [
            {"point": "cluster.worker.task", "kind": "delay",
             "delay": 0.05, "probability": 0.4},
            {"point": "parallel.worker.task", "kind": "delay",
             "delay": 0.05, "probability": 0.4},
            {"point": "cluster.frame.send", "kind": "delay",
             "delay": 0.01, "probability": 0.2},
            {"point": "serving.connection", "kind": "delay",
             "delay": 0.01, "probability": 0.2},
        ]
    elif name == "corrupt-heavy":
        rules = [
            {"point": "cluster.frame.send", "kind": "corrupt_frame",
             "after": 2 + seed % 3, "count": 1},
            {"point": "cluster.worker.frame.recv", "kind": "truncate_frame",
             "after": 5 + seed % 3, "count": 1},
            {"point": "cluster.frame.recv", "kind": "corrupt_frame",
             "after": 8 + seed % 3, "count": 1},
        ]
    else:
        raise InvalidParameterError(
            f"unknown fault preset {name!r}; expected one of {PRESET_NAMES}"
        )
    return FaultPlan.from_spec({"seed": seed, "rules": rules})


def _bootstrap_from_env() -> None:
    spec = os.environ.get(ENV_VAR)
    if spec:
        # Loud on malformed specs: a fault plan is a test instrument, and
        # a silently-ignored one would report green runs that tested
        # nothing.
        install_plan(FaultPlan.parse(spec))


_bootstrap_from_env()
