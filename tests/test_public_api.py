"""Public-API snapshot: surface changes must be deliberate.

Pins (1) ``repro.__all__`` — the package's exported names — (2) the
fluent :class:`~repro.session.QueryBuilder` / :class:`~repro.session.Network`
method surfaces, including parameter names, and the exported
``build_differential_index``'s parameters, (3) the option fields of the
service's and the sharded backends' config classes, and (4) the lowered
:class:`~repro.core.request.QueryRequest`'s fields and the executor's entry
points.  A failing test here means the
public contract moved: update the snapshot *in the same change, on
purpose*, and call it out in the changelog.  CI runs this module in every
matrix cell (and as a dedicated lint-adjacent step), so an accidental
rename or removal cannot slip through.
"""

from __future__ import annotations

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.config
from repro.session import Network, QueryBuilder

EXPECTED_ALL = [
    "__version__",
    "ReproError",
    "Graph",
    "GraphBuilder",
    "build_differential_index",
    "DynamicGraph",
    "MaintainedAggregateView",
    "Network",
    "QueryBuilder",
    "QueryService",
    "QueryHandle",
    "ServiceConfig",
    "ParallelConfig",
    "RemoteNetwork",
    "RetryPolicy",
    "FaultPlan",
    "error_from_wire",
    "QueryRequest",
    "StreamUpdate",
    "BatchQuery",
    "BatchResult",
    "combine_query_stats",
    "QuerySpec",
    "TopKResult",
    "QueryStats",
    "AggregateKind",
    "base_topk",
    "forward_topk",
    "backward_topk",
    "ScoreVector",
    "MixtureRelevance",
    "BinaryRelevance",
    "RandomAssignmentRelevance",
    "RandomWalkRelevance",
    "IterativeClassifierRelevance",
    "uniform_scores",
    "indicator_scores",
]

#: method name -> parameter names after self (None = property).
BUILDER_SURFACE = {
    "limit": ["k"],
    "k": ["k"],
    "hops": ["hops"],
    "aggregate": ["aggregate"],
    "where": ["predicate_or_nodes"],
    "algorithm": ["algorithm"],
    "backend": ["backend"],
    "gamma": ["gamma"],
    "distribution_fraction": ["fraction"],
    "exact_sizes": ["exact"],
    "ordering": ["ordering"],
    "seed": ["seed"],
    "weighted": ["profile"],
    "priority": ["priority"],
    "deadline": ["seconds"],
    "request": [],
    "spec": [],
    "run": [],
    "submit": ["priority", "deadline", "stream", "cached"],
    "stream": [],
    "explain": ["amortize_index"],
}

NETWORK_SURFACE = {
    "__init__": ["graph", "hops", "include_self", "backend"],
    "add_scores": ["name", "relevance"],
    "score_names": [],
    "scores_of": ["name"],
    "query": ["score"],
    "service": ["config", "options"],
    "parallel": ["config", "options"],
    "close": [],
    "topk": ["score", "k", "aggregate", "builder_options"],
    "topk_weighted": ["score", "k", "profile", "algorithm", "options"],
    "batch": ["queries"],
    "build_indexes": [],
    "save_index": ["path"],
    "load_index": ["path"],
    "maintain": ["score"],
    "view": ["score"],
    "add_edge": ["u", "v"],
    "remove_edge": ["u", "v"],
    "update_score": ["score", "node", "value"],
}


#: Every independently settable option of the service and the two sharded
#: backends.  Each field is one more configuration to test and benchmark:
#: add one on purpose.
CONFIG_FIELDS = {
    "ServiceConfig": [
        "workers", "max_pending", "coalesce", "coalesce_limit", "cache_entries",
    ],
    "ParallelConfig": ["workers", "min_nodes", "seed", "timeout"],
    "ClusterConfig": [
        "workers", "shards", "min_nodes", "seed", "timeout",
        "connect_timeout", "io_timeout", "hedge", "ship_policy",
    ],
}


def test_sharded_config_fields_are_pinned():
    for name, fields in CONFIG_FIELDS.items():
        cls = getattr(repro.config, name)
        assert [f.name for f in dataclasses.fields(cls)] == fields


def test_request_fields_and_executor_entry_points_are_pinned():
    from repro.core import executor
    from repro.core.request import QueryRequest

    assert [f.name for f in dataclasses.fields(QueryRequest)] == [
        "k", "aggregate", "hops", "include_self", "backend", "score",
        "algorithm", "candidates", "gamma", "distribution_fraction",
        "exact_sizes", "ordering", "seed", "weights",
        "priority", "deadline", "pinned",
    ]
    assert executor.__all__ == [
        "execute", "execute_batch", "stream", "plan", "choose_algorithm",
    ]


def test_exported_index_builder_signature_is_pinned():
    """``ball_index``: read every ball through a session's ball index."""
    assert list(inspect.signature(repro.build_differential_index).parameters) == [
        "graph", "hops", "include_self", "counter", "ball_index",
    ]


def test_package_all_is_pinned():
    assert list(repro.__all__) == EXPECTED_ALL


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ exports missing name {name}"


def _parameters(cls, name):
    method = inspect.getattr_static(cls, name)
    signature = inspect.signature(method)
    return [p for p in signature.parameters if p != "self"]


def test_query_builder_surface():
    public = {
        name
        for name, member in inspect.getmembers(QueryBuilder)
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(
            inspect.getattr_static(QueryBuilder, name), property
        ))
    }
    assert public == set(BUILDER_SURFACE) | {"score"}
    for name, params in BUILDER_SURFACE.items():
        assert _parameters(QueryBuilder, name) == params, (
            f"QueryBuilder.{name} signature moved"
        )


def test_network_surface():
    for name, params in NETWORK_SURFACE.items():
        assert _parameters(Network, name) == params, (
            f"Network.{name} signature moved"
        )


def test_builder_methods_return_new_builders():
    net = Network(repro.Graph.from_edges([(0, 1), (1, 2)]), hops=1)
    net.add_scores("s", [0.1, 0.2, 0.3])
    builder = net.query("s")
    for name in (
        "limit",
        "aggregate",
        "algorithm",
        "backend",
        "gamma",
        "distribution_fraction",
        "exact_sizes",
        "ordering",
        "seed",
        "priority",
        "deadline",
    ):
        argument = {
            "limit": 2,
            "aggregate": "avg",
            "algorithm": "base",
            "backend": "python",
            "gamma": 0.5,
            "distribution_fraction": 0.2,
            "exact_sizes": True,
            "ordering": "degree",
            "seed": 1,
            "priority": 3,
            "deadline": 1.5,
        }[name]
        out = getattr(builder, name)(argument)
        assert isinstance(out, QueryBuilder) and out is not builder


def test_version_is_stringy():
    assert isinstance(repro.__version__, str) and repro.__version__


def test_setup_py_reports_the_package_version():
    """One version number: ``setup.py`` reads ``repro.__version__``'s line."""
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    reported = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.split()[-1]
    assert reported == repro.__version__
