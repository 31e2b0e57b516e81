"""Seeded chaos: parity and bounded-time liveness under fault presets.

Every test runs a real distributed engine (socket cluster, process pool,
HTTP serving) under a deterministic :class:`repro.faults.FaultPlan` and
asserts the two acceptance gates from the resilience work:

* **Parity** — the chaos answer is entry-for-entry identical to the
  fault-free reference.  Crashes, stragglers, and corrupted frames are
  allowed to cost time, never correctness.
* **Liveness** — recovery converges within a per-test deadline.  A fault
  schedule that wedges a round is a bug in the re-issue machinery, and it
  fails here as a deadline miss instead of hanging CI.

The coordinator side installs the plan in-process; worker processes
inherit it through ``REPRO_FAULT_PLAN`` (set via monkeypatch *before* the
engine spawns them).  The CI chaos-smoke job pins one profile per matrix
cell by exporting ``REPRO_FAULT_PLAN=preset:NAME,seed=N``; when that
variable is present this module narrows its parameterization to exactly
that profile, so each cell replays one schedule rather than all of them.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.client import RemoteNetwork, RetryPolicy
from repro.faults import ENV_VAR, clear_plan, install_plan, preset_plan
from repro.serving import QueryServer, ServerConfig
from repro.session import Network
from tests.conftest import random_graph

np = pytest.importorskip("numpy")

#: Liveness bound per chaos run.  Generous against slow CI cells — the
#: point is catching hangs (which would otherwise eat the whole job), not
#: benchmarking recovery latency (that is ``benchmarks/bench_faults.py``).
DEADLINE = 120.0

WORKERS = 2


def _profiles():
    """(preset, seed) cells — narrowed to the env-pinned one under CI."""
    spec = os.environ.get(ENV_VAR, "")
    if spec.startswith("preset:"):
        body = spec[len("preset:"):]
        name, _, tail = body.partition(",")
        seed = int(tail.partition("=")[2] or 0)
        return [(name.strip(), seed)]
    return [
        ("crash-heavy", 0),
        ("crash-heavy", 1),
        ("delay-heavy", 0),
        ("corrupt-heavy", 0),
        ("corrupt-heavy", 1),
    ]


PROFILES = _profiles()


@pytest.fixture(autouse=True)
def _fresh_plan_state():
    """No plan leaks across tests (including the env bootstrap's)."""
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def chaos(request, monkeypatch):
    """Install ``(profile, seed)`` coordinator-side and for spawned workers."""
    name, seed = request.param
    monkeypatch.setenv(ENV_VAR, f"preset:{name},seed={seed}")
    install_plan(preset_plan(name, seed=seed))
    yield name, seed
    clear_plan()


def _bounded(fn, seconds=DEADLINE):
    """Run ``fn`` under a liveness deadline; a hang fails loudly."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    started = time.monotonic()
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        pytest.fail(
            f"chaos run still live after {seconds:.0f}s "
            f"(elapsed {time.monotonic() - started:.1f}s): "
            "recovery did not converge"
        )
    if "error" in out:
        raise out["error"]
    return out["value"]


def _entries(result):
    return [(node, round(value, 9)) for node, value in result.entries]


def _scores(n, seed):
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


@pytest.mark.parametrize("chaos", PROFILES, indirect=True, ids=str)
class TestClusterChaos:
    def test_parity_and_liveness(self, chaos):
        g = random_graph(300, 0.02, seed=700)
        net = Network(g, hops=2)
        net.add_scores("s", _scores(300, 701))
        # The fault-free reference first: the numpy backend crosses no
        # fault points, so computing it under the installed plan is safe
        # and keeps the whole test inside one fixture lifetime.
        ref_scan = net.query("s").limit(6).backend("numpy").run()
        ref_back = (
            net.query("s").limit(5).algorithm("backward")
            .backend("numpy").run()
        )
        net.cluster(workers=WORKERS, min_nodes=0)
        try:
            # The engine declines LONA-Backward, so its row crosses no
            # fault point: a parity row beside the faulted scan.
            got_scan = _bounded(
                lambda: net.query("s").limit(6).backend("cluster").run()
            )
            got_back = _bounded(
                lambda: net.query("s").limit(5).algorithm("backward")
                .backend("cluster").run()
            )
            assert _entries(got_scan) == _entries(ref_scan)
            assert _entries(got_back) == _entries(ref_back)
        finally:
            net.close()


@pytest.mark.parametrize("chaos", PROFILES, indirect=True, ids=str)
class TestParallelChaos:
    def test_parity_and_liveness(self, chaos):
        g = random_graph(300, 0.02, seed=710)
        net = Network(g, hops=2)
        net.add_scores("s", _scores(300, 711))
        ref = net.query("s").limit(6).backend("numpy").run()
        net.parallel(workers=WORKERS, min_nodes=0)
        try:
            got = _bounded(
                lambda: net.query("s").limit(6).backend("parallel").run()
            )
            assert _entries(got) == _entries(ref)
        finally:
            net.close()


@pytest.mark.parametrize("chaos", PROFILES, indirect=True, ids=str)
class TestServingChaos:
    def test_client_parity_under_chaos(self, chaos):
        g = random_graph(80, 0.08, seed=720)
        net = Network(g, hops=2)
        net.add_scores("s", _scores(80, 721))
        ref = net.query("s").limit(5).run()
        server = QueryServer(net, ServerConfig(replicas=1)).start()
        try:
            def roundtrip():
                with RemoteNetwork(
                    server.url,
                    retry=RetryPolicy(
                        attempts=5, base_delay=0.02, jitter=0.0
                    ),
                ) as client:
                    return client.topk("s", 5)

            got = _bounded(roundtrip)
            assert _entries(got) == _entries(ref)
        finally:
            server.close()
            net.close()


class TestChaosObservability:
    """Fired faults are visible after the fact — a chaos run that injected
    nothing would silently test nothing, so the engine stats prove the
    schedule actually fired (crash-heavy's worker crashes show up as
    respawns charged against the budget)."""

    @pytest.mark.parametrize(
        "chaos", [("crash-heavy", 0)], indirect=True, ids=str
    )
    def test_crash_preset_charges_the_respawn_budget(self, chaos):
        g = random_graph(300, 0.02, seed=730)
        net = Network(g, hops=2)
        net.add_scores("s", _scores(300, 731))
        ref = net.query("s").limit(5).backend("numpy").run()
        engine = net.cluster(workers=WORKERS, min_nodes=0)
        try:
            # Crash-heavy kills each worker on its 4th task; keep issuing
            # queries until a death has been absorbed (bounded — the
            # trigger is deterministic, so a handful of rounds suffices).
            for _ in range(6):
                got = _bounded(
                    lambda: net.query("s").limit(5).backend("cluster").run()
                )
                assert _entries(got) == _entries(ref)
                if engine.stats()["respawns"] >= 1:
                    break
            assert engine.stats()["respawns"] >= 1
        finally:
            net.close()
