"""The declared project contracts the checkers enforce.

Every rule in :mod:`repro.analysis.rules` is *map-driven*: it checks the
files and symbols named here, nothing guessed.  The maps double as rot
guards — a declared function or class that stops existing is itself a
finding, so refactors must keep this file honest.

Tests build small :class:`AnalysisConfig` instances pointing at fixture
trees; the live suite runs :data:`DEFAULT_CONFIG`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "HotModule",
    "LockContract",
    "AnalysisConfig",
    "DEFAULT_CONFIG",
]


@dataclass(frozen=True)
class HotModule:
    """RC001 contract for one module on the kernel/task hot path.

    ``functions``: scan/round drivers whose expansion loops must poll
    :func:`repro.core.deadline.check_deadline` at block boundaries.
    ``helpers``: per-block helpers that expand neighborhoods but are only
    ever called from inside an already-polled loop (exempt by contract).
    ``delegates``: callables that poll on the caller's behalf — a loop
    that calls one (e.g. a round dispatcher) is covered.
    """

    functions: FrozenSet[str] = frozenset()
    helpers: FrozenSet[str] = frozenset()
    delegates: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class LockContract:
    """RC002 contract for one module: class -> declared mutator methods.

    A declared mutator must enter one of ``locks`` (``with self._lock:``
    or ``with self._write_guard():`` style) or call a sibling declared
    mutator that does.
    """

    mutators: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    locks: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything the rule modules need to know about the tree."""

    # ---- RC001 deadline coverage -------------------------------------
    hot_paths: Dict[str, HotModule] = field(default_factory=dict)
    #: Calls that mark a loop as "does neighborhood-expansion-scale work".
    expansion_primitives: FrozenSet[str] = frozenset()
    #: The polling call every covered loop must reach.
    poll_call: str = "check_deadline"

    # ---- RC002 lock discipline ---------------------------------------
    lock_contracts: Dict[str, LockContract] = field(default_factory=dict)

    # ---- RC003 backend-registry parity -------------------------------
    backends_module: str = "src/repro/core/backends.py"
    backends_symbol: str = "BACKENDS"
    #: Registry entries that are resolution policies, not concrete backends.
    virtual_backends: FrozenSet[str] = frozenset({"auto"})
    planner_module: str = "src/repro/core/planner.py"
    planner_symbols: Tuple[str, ...] = ("BACKEND_COST_FACTORS", "BACKEND_FIXED_COSTS")
    cli_module: str = "src/repro/cli.py"
    cli_flag: str = "--backend"
    executor_module: str = "src/repro/core/executor.py"
    readme: str = "README.md"

    # ---- RC004 wire-code exhaustiveness ------------------------------
    errors_module: str = "src/repro/errors.py"
    errors_base: str = "ReproError"
    protocol_module: str = "src/repro/serving/protocol.py"
    status_map_symbol: str = "_STATUS_BY_CLASS"

    # ---- RC005 spawn/frame safety ------------------------------------
    #: Modules whose dispatch sinks move payloads across process/machine
    #: boundaries; arguments must stay frame/pickle-safe.
    dispatch_modules: Tuple[str, ...] = ()
    sink_names: FrozenSet[str] = frozenset({"encode_frame", "write_frame"})
    sink_attrs: FrozenSet[str] = frozenset({"send", "request", "dumps"})

    # ---- RC007 fault-point hygiene -----------------------------------
    #: Registered fault-point name -> the one module allowed to declare it.
    #: Doubles as the rot guard: a registered name that stops existing in
    #: its module is a finding, and so is an unregistered hook call.
    fault_points: Dict[str, str] = field(default_factory=dict)
    #: The injection-hook callables whose first argument is a point name.
    fault_hook_names: FrozenSet[str] = frozenset(
        {"fault_point", "fault_frame"}
    )
    #: The package owning plan state; the only code allowed to install one.
    faults_package: str = "src/repro/faults"
    #: Source tree scanned for production installs of a fault plan (and,
    #: by RC008, for CSR builders outside their owners).
    source_root: str = "src/repro"

    # ---- RC008 CSR ownership -----------------------------------------
    #: The functions that make or alter a graph's flat arrays.
    csr_builders: FrozenSet[str] = frozenset(
        {"to_csr", "patch_csr", "append_csr_node"}
    )
    #: The only modules that may name one: where they are defined and the
    #: graph classes that own the arrays.  A declared owner that stops
    #: naming any builder is a finding (the rot guard).
    csr_owner_modules: Tuple[str, ...] = ()


#: Names whose presence in a loop marks it as expansion-scale work.  The
#: list spans the python reference (``hop_ball``/``.ball``), the numpy
#: kernels (``batched_hop_balls*``), the kernel-provider block primitives
#: the vectorized drivers and worker tasks call, and the jitted kernels —
#: anything that walks neighborhoods.
_EXPANSION_PRIMITIVES = frozenset(
    {
        "hop_ball",
        "ball",
        "batched_hop_balls",
        "batched_hop_balls_with_distances",
        "ball_values",
        "weighted_ball_sums",
        "fused_ball_values",
        "prune_step",
        "aggregate_blocks",
        "distance_aggregate_blocks",
        "batch_aggregate_blocks",
        "forward_prune_block",
    }
)

#: The live tree's RC001 hot-path map.  ``core/batch.py`` is deliberately
#: absent: coalesced fused-scan groups answer many callers with different
#: deadlines, and aborting the shared scan for the most impatient member
#: would take everyone else's answer with it (see repro/core/deadline.py).
_HOT_PATHS = {
    "src/repro/core/base.py": HotModule(functions=frozenset({"base_topk"})),
    "src/repro/core/forward.py": HotModule(functions=frozenset({"forward_topk"})),
    "src/repro/core/backward.py": HotModule(functions=frozenset({"backward_topk"})),
    "src/repro/core/weighted.py": HotModule(
        functions=frozenset({"weighted_base_topk", "weighted_backward_topk"})
    ),
    "src/repro/core/executor.py": HotModule(
        functions=frozenset({"_iter_exact_values", "_stream_updates"}),
        delegates=frozenset({"_iter_exact_values"}),
    ),
    # The route drivers of every vectorized backend, plus the numpy kernel
    # provider, which owns no loop: its block primitives are helpers (only
    # ever called from a polled driver/task loop, like the generators of
    # the lazy candidate order).
    "src/repro/core/vectorized.py": HotModule(
        functions=frozenset(
            {
                "base_topk_numpy",
                "forward_topk_numpy",
                "distribute_scores",
                "verify_blocked",
                "_backward_topk",
            }
        ),
        helpers=frozenset(
            {
                "NumpyKernels._block_pairs",
                "NumpyKernels.weighted_ball_sums",
                "NumpyKernels.fused_ball_values",
                "descending_prefixes",
                "in_blocks",
            }
        ),
    ),
    "src/repro/parallel/worker.py": HotModule(
        functions=frozenset(
            {
                "_scan_task",
                "_batch_task",
            }
        ),
    ),
    # The one sharded coordinator: both engines (pipe link, socket link)
    # inherit these routes and own no round loop themselves.
    "src/repro/parallel/coordinator.py": HotModule(
        functions=frozenset(
            {
                "ShardedCoordinator._collect_topk",
                "ShardedCoordinator.execute_scan",
                "ShardedCoordinator.run_batch",
            }
        ),
        delegates=frozenset({"_run_round"}),
    ),
    # The cluster worker runs the *parallel* worker's task handlers under
    # a per-task deadline scope; it owns no expansion loop itself.  Listed
    # with no functions so new loops added here surface as findings.
    "src/repro/cluster/worker.py": HotModule(),
}

_LOCK_CONTRACTS = {
    "src/repro/session.py": LockContract(
        mutators={
            "Network": (
                "add_scores",
                "add_edge",
                "remove_edge",
                "update_score",
            )
        },
        locks=frozenset({"_write_guard"}),
    ),
    "src/repro/core/context.py": LockContract(
        mutators={
            "GraphContext": (
                "invalidate",
                "edge_write",
                "score_write",
                "check_fresh",
                "build_indexes",
                "load_index",
                "close",
            ),
            "Phase1Memo": ("get", "put", "successor", "carry"),
        },
        locks=frozenset({"_lock"}),
    ),
    "src/repro/service/cache.py": LockContract(
        mutators={
            "ResultCache": ("put", "clear", "invalidate_score")
        },
        locks=frozenset({"_lock"}),
    ),
}

#: The live tree's RC007 fault-point catalog.  One module per name: the
#: seam a fault simulates lives in exactly one place, and a second
#: declaration of the same name would make chaos-plan hit counters lie.
_FAULT_POINTS = {
    "cluster.connect": "src/repro/cluster/transport.py",
    "cluster.frame.send": "src/repro/cluster/frames.py",
    "cluster.frame.recv": "src/repro/cluster/frames.py",
    "cluster.worker.frame.recv": "src/repro/cluster/frames.py",
    "cluster.worker.task": "src/repro/cluster/worker.py",
    "parallel.worker.task": "src/repro/parallel/worker.py",
    "parallel.pipe.send": "src/repro/parallel/pool.py",
    "parallel.reply.recv": "src/repro/parallel/pool.py",
    "serving.connection": "src/repro/serving/server.py",
}

DEFAULT_CONFIG = AnalysisConfig(
    hot_paths=_HOT_PATHS,
    expansion_primitives=_EXPANSION_PRIMITIVES,
    lock_contracts=_LOCK_CONTRACTS,
    dispatch_modules=(
        "src/repro/parallel/pool.py",
        "src/repro/cluster/engine.py",
        "src/repro/cluster/transport.py",
        "src/repro/cluster/worker.py",
        "src/repro/cluster/frames.py",
    ),
    fault_points=_FAULT_POINTS,
    csr_owner_modules=(
        "src/repro/graph/csr.py",  # defines them
        "src/repro/graph/__init__.py",  # the package's public re-export
        "src/repro/graph/graph.py",  # Graph.csr() / rev_csr(): built once
        "src/repro/dynamic/graph.py",  # DynamicGraph: patched per mutation
    ),
)
