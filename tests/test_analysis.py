"""Tests for the repro-check static-analysis suite (repro.analysis).

Each rule gets a failing and a passing fixture tree built under tmp_path
with a small :class:`~repro.analysis.project.AnalysisConfig` pointing at
it; the suite's own acceptance bar — the live tree analyses clean — is a
test here too, so a regression in any checked invariant fails the normal
test run as well as the CI repro-check job.

The suite is dependency-free by design; none of these tests need numpy.
"""

from __future__ import annotations

import json
import textwrap

from repro.analysis import (
    BASELINE_NAME,
    all_checkers,
    load_baseline,
    render_json,
    render_text,
    run_checkers,
    write_baseline,
)
from repro.analysis.project import (
    DEFAULT_CONFIG,
    AnalysisConfig,
    HotModule,
    LockContract,
)
from repro.analysis.rules.rc001_deadline import DeadlineCoverage
from repro.analysis.rules.rc002_locks import LockDiscipline
from repro.analysis.rules.rc003_backends import BackendRegistryParity
from repro.analysis.rules.rc004_wire import WireCodeExhaustiveness
from repro.analysis.rules.rc005_spawn import SpawnFrameSafety
from repro.analysis.rules.rc007_faults import FaultPointHygiene
from repro.analysis.rules.rc008_csr_owner import CsrOwnership

REPO_ROOT = __file__.rsplit("/tests/", 1)[0]


def _tree(tmp_path, files):
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return tmp_path


def _run(root, checker):
    return run_checkers(root, checkers=[checker])


# ----------------------------------------------------------------------
# RC001 deadline coverage
# ----------------------------------------------------------------------
class TestRC001:
    CFG = AnalysisConfig(
        hot_paths={
            "mod.py": HotModule(
                functions=frozenset({"scan"}),
                delegates=frozenset({"_round"}),
            )
        },
        expansion_primitives=frozenset({"hop_ball"}),
    )

    def test_unpolled_expansion_loop_is_flagged(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            def scan(centers):
                out = []
                for c in centers:
                    out.append(hop_ball(c))
                return out
        """})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert [f.rule for f in report.active] == ["RC001"]
        assert "scan" in report.active[0].message

    def test_polled_loop_passes(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            def scan(centers):
                out = []
                for c in centers:
                    check_deadline()
                    out.append(hop_ball(c))
                return out
        """})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert report.active == []

    def test_delegating_loop_passes(self, tmp_path):
        # The loop expands (hop_ball) but calls the declared polling
        # delegate, which checks the deadline on its behalf.
        _tree(tmp_path, {"mod.py": """
            def scan(rounds):
                for r in rounds:
                    _round(hop_ball(r))
        """})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert report.active == []

    def test_nested_loop_without_primitive_still_needs_poll(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            def scan(blocks):
                for block in blocks:
                    for item in block:
                        item.work()
        """})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert len(report.active) == 1

    def test_bookkeeping_loop_is_exempt(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            def scan(pairs):
                total = 0
                for a, b in pairs:
                    total += a * b
                return total
        """})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert report.active == []

    def test_unlisted_function_calling_primitive_is_flagged(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            def scan(centers):
                for c in centers:
                    check_deadline()
                    hop_ball(c)

            def sneaky(c):
                return hop_ball(c)
        """})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert len(report.active) == 1
        assert "sneaky" in report.active[0].message

    def test_declared_helper_is_exempt(self, tmp_path):
        cfg = AnalysisConfig(
            hot_paths={
                "mod.py": HotModule(helpers=frozenset({"_block_helper"}))
            },
            expansion_primitives=frozenset({"hop_ball"}),
        )
        _tree(tmp_path, {"mod.py": """
            def _block_helper(c):
                return hop_ball(c)
        """})
        report = _run(tmp_path, DeadlineCoverage(cfg))
        assert report.active == []

    def test_map_rot_is_a_finding(self, tmp_path):
        _tree(tmp_path, {"mod.py": "x = 1\n"})
        report = _run(tmp_path, DeadlineCoverage(self.CFG))
        assert len(report.active) == 1
        assert "'scan'" in report.active[0].message

    def test_provider_primitive_in_an_unpolled_driver_loop_is_flagged(
        self, tmp_path
    ):
        # The drivers no longer name an expansion kernel — they call a
        # kernel provider's block primitives — so those method names are
        # registered in the live primitive set.
        from repro.analysis.project import DEFAULT_CONFIG

        cfg = AnalysisConfig(
            hot_paths={"mod.py": HotModule(functions=frozenset({"scan", "polled"}))},
            expansion_primitives=DEFAULT_CONFIG.expansion_primitives,
        )
        _tree(tmp_path, {"mod.py": """
            def scan(kernels, blocks, counter):
                for centers in blocks:
                    kernels.ball_values(centers, counter)

            def polled(kernels, blocks, counter):
                for centers in blocks:
                    check_deadline()
                    kernels.fused_ball_values(centers, counter)
        """})
        report = _run(tmp_path, DeadlineCoverage(cfg))
        assert len(report.active) == 1
        assert "expansion loop in scan" in report.active[0].message


# ----------------------------------------------------------------------
# RC002 lock discipline
# ----------------------------------------------------------------------
class TestRC002:
    CFG = AnalysisConfig(
        lock_contracts={
            "mod.py": LockContract(
                mutators={"Store": ("put", "clear")},
                locks=frozenset({"_lock"}),
            )
        }
    )

    def test_bare_mutator_is_flagged(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            class Store:
                def put(self, k, v):
                    with self._lock:
                        self._d[k] = v

                def clear(self):
                    self._d.clear()
        """})
        report = _run(tmp_path, LockDiscipline(self.CFG))
        assert len(report.active) == 1
        assert "Store.clear" in report.active[0].message

    def test_locked_and_delegating_mutators_pass(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            class Store:
                def put(self, k, v):
                    with self._lock:
                        self._d[k] = v

                def clear(self):
                    self.put(None, None)
        """})
        report = _run(tmp_path, LockDiscipline(self.CFG))
        assert report.active == []

    def test_missing_method_is_map_rot(self, tmp_path):
        _tree(tmp_path, {"mod.py": """
            class Store:
                def put(self, k, v):
                    with self._lock:
                        self._d[k] = v
        """})
        report = _run(tmp_path, LockDiscipline(self.CFG))
        assert len(report.active) == 1
        assert "no longer exists" in report.active[0].message

    CONTEXT = "src/repro/core/context.py"

    def test_live_contract_covers_every_context_writer(self):
        mutators = DEFAULT_CONFIG.lock_contracts[self.CONTEXT].mutators
        assert {"edge_write", "score_write"} <= set(mutators["GraphContext"])
        assert mutators["Phase1Memo"] == ("get", "put", "successor", "carry")

    def test_an_unlocked_context_writer_is_flagged(self, tmp_path):
        with open(f"{REPO_ROOT}/{self.CONTEXT}", encoding="utf-8") as handle:
            live = handle.read()
        locked = "with self._lock:\n            self._slots.setdefault("
        assert live.count(locked) == 1
        bare = live.replace(locked, "if True:\n            self._slots.setdefault(")
        path = tmp_path / self.CONTEXT
        path.parent.mkdir(parents=True)
        path.write_text(bare, encoding="utf-8")
        cfg = AnalysisConfig(
            lock_contracts={self.CONTEXT: DEFAULT_CONFIG.lock_contracts[self.CONTEXT]}
        )
        report = _run(tmp_path, LockDiscipline(cfg))
        assert len(report.active) == 1
        assert "Phase1Memo.put" in report.active[0].message


# ----------------------------------------------------------------------
# RC003 backend-registry parity
# ----------------------------------------------------------------------
class TestRC003:
    CFG = AnalysisConfig(
        backends_module="backends.py",
        planner_module="planner.py",
        cli_module="cli.py",
        executor_module="executor.py",
        readme="README.md",
    )

    GOOD = {
        "backends.py": 'BACKENDS = ("auto", "python", "numpy")\n',
        "planner.py": """
            BACKEND_COST_FACTORS = {"python": 1.0, "numpy": 0.2}
            BACKEND_FIXED_COSTS = {"python": 0.0, "numpy": 0.1}
        """,
        "cli.py": """
            def build(parser):
                parser.add_argument(
                    "--backend", choices=("auto", "python", "numpy")
                )
        """,
        "executor.py": """
            def pick(name):
                if name == "python":
                    return 1
                if name == "numpy":
                    return 2
        """,
        "README.md": """
            | backend    | substrate |
            |------------|-----------|
            | `"python"` | loops     |
            | `"numpy"`  | arrays    |
        """,
    }

    def test_consistent_mirrors_pass(self, tmp_path):
        _tree(tmp_path, self.GOOD)
        report = _run(tmp_path, BackendRegistryParity(self.CFG))
        assert report.active == []

    def test_each_mirror_drift_is_flagged(self, tmp_path):
        files = dict(
            self.GOOD,
            **{
                "backends.py": (
                    'BACKENDS = ("auto", "python", "numpy", "gpu")\n'
                )
            },
        )
        _tree(tmp_path, files)
        report = _run(tmp_path, BackendRegistryParity(self.CFG))
        paths = sorted({f.path for f in report.active})
        # Unknown backend 'gpu' must surface in every mirror.
        assert paths == ["README.md", "cli.py", "executor.py", "planner.py"]

    def test_stale_planner_key_is_flagged(self, tmp_path):
        files = dict(
            self.GOOD,
            **{
                "planner.py": """
                    BACKEND_COST_FACTORS = {
                        "python": 1.0, "numpy": 0.2, "fortran": 9.9
                    }
                    BACKEND_FIXED_COSTS = {"python": 0.0, "numpy": 0.1}
                """
            },
        )
        _tree(tmp_path, files)
        report = _run(tmp_path, BackendRegistryParity(self.CFG))
        assert any("'fortran'" in f.message for f in report.active)

    def test_stale_readme_row_is_flagged(self, tmp_path):
        readme = self.GOOD["README.md"] + '    | `"native"` | jitted    |\n'
        _tree(tmp_path, dict(self.GOOD, **{"README.md": readme}))
        report = _run(tmp_path, BackendRegistryParity(self.CFG))
        assert [f.path for f in report.active] == ["README.md"]
        assert "'native'" in report.active[0].message
        assert report.active[0].line == 6


# ----------------------------------------------------------------------
# RC004 wire-code exhaustiveness
# ----------------------------------------------------------------------
class TestRC004:
    CFG = AnalysisConfig(
        errors_module="errors.py", protocol_module="protocol.py"
    )

    GOOD = {
        "errors.py": """
            class ReproError(Exception):
                code = "error"

            class AlphaError(ReproError):
                code = "alpha"

            class BetaError(AlphaError):
                code = "beta"
        """,
        "protocol.py": """
            from errors import AlphaError

            _STATUS_BY_CLASS = (
                (AlphaError, 400),
            )
        """,
    }

    def test_complete_taxonomy_passes(self, tmp_path):
        _tree(tmp_path, self.GOOD)
        report = _run(tmp_path, WireCodeExhaustiveness(self.CFG))
        assert report.active == []

    def test_inherited_code_is_flagged(self, tmp_path):
        files = dict(self.GOOD)
        files["errors.py"] = files["errors.py"].replace(
            '    code = "beta"\n', "    pass\n"
        )
        _tree(tmp_path, files)
        report = _run(tmp_path, WireCodeExhaustiveness(self.CFG))
        assert any(
            "BetaError" in f.message and "own string" in f.message
            for f in report.active
        )

    def test_duplicate_code_is_flagged(self, tmp_path):
        files = dict(self.GOOD)
        files["errors.py"] = files["errors.py"].replace(
            'code = "beta"', 'code = "alpha"'
        )
        _tree(tmp_path, files)
        report = _run(tmp_path, WireCodeExhaustiveness(self.CFG))
        assert any("reuses wire code" in f.message for f in report.active)

    def test_unmapped_class_is_flagged(self, tmp_path):
        files = dict(self.GOOD)
        files["errors.py"] = """
            class ReproError(Exception):
                code = "error"

            class AlphaError(ReproError):
                code = "alpha"

            class BetaError(AlphaError):
                code = "beta"

            class GammaError(ReproError):
                code = "gamma"
        """
        _tree(tmp_path, files)
        report = _run(tmp_path, WireCodeExhaustiveness(self.CFG))
        assert any(
            "GammaError" in f.message and "500" in f.message
            for f in report.active
        )

    def test_stale_map_entry_is_flagged(self, tmp_path):
        files = dict(self.GOOD)
        files["protocol.py"] = """
            _STATUS_BY_CLASS = (
                (AlphaError, 400),
                (GhostError, 400),
            )
        """
        _tree(tmp_path, files)
        report = _run(tmp_path, WireCodeExhaustiveness(self.CFG))
        assert any("GhostError" in f.message for f in report.active)


# ----------------------------------------------------------------------
# RC005 spawn/frame safety
# ----------------------------------------------------------------------
class TestRC005:
    CFG = AnalysisConfig(dispatch_modules=("dispatch.py",))

    def test_lambda_in_payload_is_flagged(self, tmp_path):
        _tree(tmp_path, {"dispatch.py": """
            def send_task(peer, spec):
                peer.send({"task": spec, "score": lambda x: x + 1})
        """})
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        assert len(report.active) == 1
        assert "lambda" in report.active[0].message

    def test_closure_through_local_assignment_is_flagged(self, tmp_path):
        _tree(tmp_path, {"dispatch.py": """
            def run(pool, items):
                def build():
                    return items

                payload = {"builder": build}
                pool.send(payload)
        """})
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        assert len(report.active) == 1
        assert "'build'" in report.active[0].message

    def test_generator_payload_is_flagged(self, tmp_path):
        _tree(tmp_path, {"dispatch.py": """
            def ship(sock, rows):
                write_frame(sock, (r for r in rows))
        """})
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        assert len(report.active) == 1

    def test_plain_data_payload_passes(self, tmp_path):
        _tree(tmp_path, {"dispatch.py": """
            def send_task(peer, spec, task_id):
                frame = {"type": "task", "task_id": task_id, "task": spec}
                peer.send(frame)

            def helper(items):
                # a nested def not referenced by any sink is fine
                def local():
                    return items

                return local()
        """})
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        assert report.active == []


# ----------------------------------------------------------------------
# RC007 fault-point hygiene
# ----------------------------------------------------------------------
class TestRC007:
    CFG = AnalysisConfig(
        fault_points={"net.send": "net.py", "net.recv": "net.py"},
        faults_package="faults",
        source_root=".",
    )

    def test_registered_literal_points_pass(self, tmp_path):
        _tree(tmp_path, {"net.py": """
            def ship(data):
                fault_point("net.send", peer=0)
                return fault_frame("net.recv", data)
        """})
        report = _run(tmp_path, FaultPointHygiene(self.CFG))
        assert report.active == []

    def test_computed_name_is_flagged(self, tmp_path):
        _tree(tmp_path, {"net.py": """
            def ship(data, name):
                fault_point("net." + name)
                fault_point("net.send")
                fault_frame("net.recv", data)
        """})
        report = _run(tmp_path, FaultPointHygiene(self.CFG))
        assert len(report.active) == 1
        assert "string literal" in report.active[0].message

    def test_unregistered_name_is_flagged(self, tmp_path):
        _tree(tmp_path, {"net.py": """
            def ship(data):
                fault_point("net.send")
                fault_point("net.mystery")
                fault_frame("net.recv", data)
        """})
        report = _run(tmp_path, FaultPointHygiene(self.CFG))
        assert len(report.active) == 1
        assert "not registered" in report.active[0].message

    def test_duplicate_declaration_is_flagged(self, tmp_path):
        _tree(tmp_path, {"net.py": """
            def ship(data):
                fault_point("net.send")
                fault_frame("net.recv", data)

            def ship_again():
                fault_point("net.send")
        """})
        report = _run(tmp_path, FaultPointHygiene(self.CFG))
        assert len(report.active) == 1
        assert "more than once" in report.active[0].message

    def test_rotted_registration_is_flagged(self, tmp_path):
        _tree(tmp_path, {"net.py": """
            def ship(data):
                fault_point("net.send")
        """})
        report = _run(tmp_path, FaultPointHygiene(self.CFG))
        assert len(report.active) == 1
        assert "no longer declared" in report.active[0].message
        assert "net.recv" in report.active[0].message

    def test_production_install_plan_is_flagged(self, tmp_path):
        _tree(tmp_path, {
            "net.py": """
                def ship(data):
                    fault_point("net.send")
                    fault_frame("net.recv", data)
            """,
            "sneaky.py": """
                from faults import install_plan

                def enable():
                    install_plan(object())
            """,
            "faults/plan.py": """
                def _bootstrap():
                    install_plan(None)  # the package itself may
            """,
        })
        report = _run(tmp_path, FaultPointHygiene(self.CFG))
        assert len(report.active) == 1
        assert report.active[0].path.endswith("sneaky.py")
        assert "never install" in report.active[0].message


# ----------------------------------------------------------------------
# RC008 CSR ownership
# ----------------------------------------------------------------------
class TestRC008:
    CFG = AnalysisConfig(
        csr_owner_modules=("graph/csr.py", "graph/graph.py", "graph/dynamic.py"),
        source_root=".",
    )
    OWNERS = {
        "graph/csr.py": """
            def to_csr(graph, use_numpy=False): ...
            def patch_csr(csr, rows, positions, heads=None): ...
        """,
        "graph/graph.py": """
            class Graph:
                def csr(self):
                    from graph.csr import to_csr
                    return to_csr(self, use_numpy=True)
        """,
        "graph/dynamic.py": """
            from graph.csr import patch_csr

            class DynamicGraph:
                def add_edge(self, u, v):
                    self._csr = patch_csr(self._csr, [u], [0], [v])
        """,
    }

    def test_drivers_that_ask_the_graph_pass(self, tmp_path):
        _tree(tmp_path, {**self.OWNERS, "core/driver.py": """
            def base_topk_numpy(graph, scores):
                csr = graph.csr()  # mentions of to_csr in comments are fine
                return csr.num_arcs
        """})
        report = _run(tmp_path, CsrOwnership(self.CFG))
        assert report.active == []

    def test_build_outside_the_owners_is_flagged(self, tmp_path):
        _tree(tmp_path, {**self.OWNERS, "core/driver.py": """
            from graph.csr import to_csr

            def base_topk_numpy(graph, scores, csr=None):
                if csr is None:
                    csr = to_csr(graph, use_numpy=True)
                return csr.num_arcs
        """})
        report = _run(tmp_path, CsrOwnership(self.CFG))
        assert [f.path for f in report.active] == ["core/driver.py"] * 2
        assert "imports to_csr" in report.active[0].message
        assert "calls to_csr" in report.active[1].message

    def test_owner_that_stopped_building_is_map_rot(self, tmp_path):
        files = dict(self.OWNERS)
        files["graph/dynamic.py"] = """
            class DynamicGraph:
                def add_edge(self, u, v):
                    self._adj[u].append(v)
        """
        _tree(tmp_path, files)
        report = _run(tmp_path, CsrOwnership(self.CFG))
        assert len(report.active) == 1
        assert report.active[0].path == "graph/dynamic.py"
        assert "no longer" in report.active[0].message


# ----------------------------------------------------------------------
# Framework: suppressions, baseline, reporters, registry
# ----------------------------------------------------------------------
class TestFramework:
    CFG = TestRC005.CFG

    BAD = {"dispatch.py": """
        def send_task(peer, spec):
            peer.send({"score": lambda x: x})
    """}

    def test_inline_suppression_waives(self, tmp_path):
        _tree(tmp_path, {"dispatch.py": """
            def send_task(peer, spec):
                # repro: allow[RC005] test double, never crosses a boundary
                peer.send({"score": lambda x: x})
        """})
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        assert report.active == []
        assert len(report.waived) == 1
        assert report.exit_code == 0

    def test_suppression_for_another_rule_does_not_waive(self, tmp_path):
        _tree(tmp_path, {"dispatch.py": """
            def send_task(peer, spec):
                # repro: allow[RC001]
                peer.send({"score": lambda x: x})
        """})
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        assert len(report.active) == 1
        assert report.exit_code == 1

    def test_baseline_grandfathers_and_expires(self, tmp_path):
        _tree(tmp_path, self.BAD)
        checker = SpawnFrameSafety(self.CFG)
        first = _run(tmp_path, checker)
        assert len(first.active) == 1

        baseline_path = tmp_path / BASELINE_NAME
        write_baseline(
            baseline_path, (f.fingerprint() for f in first.active)
        )
        second = run_checkers(
            tmp_path,
            checkers=[SpawnFrameSafety(self.CFG)],
            baseline=load_baseline(baseline_path),
        )
        assert second.active == []
        assert len(second.baselined) == 1
        assert second.exit_code == 0

        # A *new* violation is not covered by the old baseline.
        (tmp_path / "dispatch.py").write_text(
            textwrap.dedent(self.BAD["dispatch.py"])
            + textwrap.dedent("""
                def other(peer):
                    peer.send({"gen": (x for x in ())})
            """),
            encoding="utf-8",
        )
        third = run_checkers(
            tmp_path,
            checkers=[SpawnFrameSafety(self.CFG)],
            baseline=load_baseline(baseline_path),
        )
        assert len(third.active) == 1
        assert "generator" in third.active[0].message

    def test_baseline_fingerprint_is_line_independent(self, tmp_path):
        _tree(tmp_path, self.BAD)
        first = _run(tmp_path, SpawnFrameSafety(self.CFG))
        baseline = {f.fingerprint() for f in first.active}

        # Shift the finding down the file; the fingerprint must not move.
        (tmp_path / "dispatch.py").write_text(
            "# a new leading comment\n\n"
            + textwrap.dedent(self.BAD["dispatch.py"]),
            encoding="utf-8",
        )
        shifted = run_checkers(
            tmp_path, checkers=[SpawnFrameSafety(self.CFG)], baseline=baseline
        )
        assert shifted.active == []
        assert len(shifted.baselined) == 1

    def test_reporters(self, tmp_path):
        _tree(tmp_path, self.BAD)
        report = _run(tmp_path, SpawnFrameSafety(self.CFG))
        text = render_text(report)
        assert "dispatch.py" in text and "RC005" in text
        payload = json.loads(render_json(report))
        assert payload["counts"]["active"] == 1
        assert payload["findings"][0]["rule"] == "RC005"
        assert payload["exit_code"] == 1

    def test_registry_is_complete_and_ordered(self):
        rules = [cls.rule for cls in all_checkers()]
        assert rules == [
            "RC001", "RC002", "RC003", "RC004", "RC005", "RC007", "RC008",
        ]


# ----------------------------------------------------------------------
# The acceptance bar: the live tree analyses clean
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_live_tree_has_no_active_findings(self):
        report = run_checkers(REPO_ROOT)
        assert report.active == [], "\n" + "\n".join(
            f.render() for f in report.active
        )

    def test_cli_check_exits_zero_on_live_tree(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--root", REPO_ROOT]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK repro-check:")
