"""Tests for index persistence and the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import main as cli_main
from repro.errors import IndexNotBuiltError
from repro.graph.diffindex import _set_build, build_differential_index
from repro.graph.index_io import (
    graph_fingerprint,
    load_differential_index,
    save_differential_index,
)
from tests.conftest import random_graph


class TestFingerprint:
    def test_stable(self):
        g = random_graph(30, 0.15, seed=171)
        assert graph_fingerprint(g) == graph_fingerprint(g)

    def test_sensitive_to_structure(self):
        a = random_graph(30, 0.15, seed=172)
        b = random_graph(30, 0.15, seed=173)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_sensitive_to_direction(self):
        edges = [(0, 1), (1, 2)]
        from repro.graph.graph import Graph

        undirected = Graph.from_edges(edges)
        directed = Graph.from_edges(edges, num_nodes=3, directed=True)
        assert graph_fingerprint(undirected) != graph_fingerprint(directed)


class TestIndexRoundtrip:
    def test_roundtrip_file(self, tmp_path):
        g = random_graph(25, 0.15, seed=174)
        idx = build_differential_index(g, 2)
        path = tmp_path / "graph.lonaidx"
        save_differential_index(idx, g, path)
        loaded = load_differential_index(g, path)
        assert loaded.hops == 2
        assert loaded.include_self
        for u in g.nodes():
            assert list(loaded.delta_row(u)) == list(idx.delta_row(u))
            assert loaded.sizes.value(u) == idx.sizes.value(u)

    def test_roundtrip_buffer(self):
        g = random_graph(15, 0.2, seed=175)
        idx = build_differential_index(g, 1)
        buffer = io.BytesIO()
        save_differential_index(idx, g, buffer)
        buffer.seek(0)
        loaded = load_differential_index(g, buffer)
        assert list(loaded.delta_row(0)) == list(idx.delta_row(0))

    def test_wrong_graph_rejected(self, tmp_path):
        a = random_graph(20, 0.2, seed=176)
        b = random_graph(20, 0.2, seed=177)
        idx = build_differential_index(a, 2)
        path = tmp_path / "a.lonaidx"
        save_differential_index(idx, a, path)
        with pytest.raises(IndexNotBuiltError):
            load_differential_index(b, path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an index at all")
        g = random_graph(10, 0.2, seed=178)
        with pytest.raises(IndexNotBuiltError):
            load_differential_index(g, path)

    def test_truncated_rejected(self, tmp_path):
        g = random_graph(20, 0.2, seed=179)
        idx = build_differential_index(g, 2)
        path = tmp_path / "full.lonaidx"
        save_differential_index(idx, g, path)
        truncated = tmp_path / "trunc.lonaidx"
        truncated.write_bytes(path.read_bytes()[:40])
        with pytest.raises(IndexNotBuiltError):
            load_differential_index(g, truncated)

    def test_loaded_index_answers_queries(self, tmp_path):
        from repro.core.base import base_topk
        from repro.core.forward import forward_topk
        from repro.core.query import QuerySpec
        from tests.conftest import random_scores, rounded

        g = random_graph(30, 0.12, seed=180)
        scores = random_scores(30, seed=181)
        idx = build_differential_index(g, 2)
        path = tmp_path / "q.lonaidx"
        save_differential_index(idx, g, path)
        loaded = load_differential_index(g, path)
        spec = QuerySpec(k=6, hops=2)
        expected = base_topk(g, scores, spec)
        actual = forward_topk(g, scores, spec, diff_index=loaded)
        assert rounded(actual.values) == rounded(expected.values)


class TestFormat:
    """One ``LONADIF1`` format whichever build filled the index."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_the_ball_index_build_saves_the_set_builds_bytes(self, directed, hops):
        pytest.importorskip("numpy")
        from repro.graph.csr import CSRBallIndex

        g = random_graph(30, 0.1, seed=182 + hops, directed=directed)
        saved = []
        for index in (
            _set_build(g, hops),
            build_differential_index(g, hops, ball_index=CSRBallIndex(g.csr(), hops)),
        ):
            buffer = io.BytesIO()
            save_differential_index(index, g, buffer)
            saved.append(buffer.getvalue())
        assert saved[0] == saved[1]
        assert saved[0].startswith(b"LONADIF1")
        assert len(saved[0]) == 8 + 21 + 4 * (2 * g.num_nodes + len(list(g.arcs())))

    def test_load_reads_the_flat_tables(self):
        g = random_graph(25, 0.15, seed=185)
        idx = build_differential_index(g, 2)
        buffer = io.BytesIO()
        save_differential_index(idx, g, buffer)
        buffer.seek(0)
        loaded = load_differential_index(g, buffer)
        assert list(loaded.deltas) == list(idx.deltas)
        assert list(loaded.offsets) == list(idx.offsets)
        assert list(loaded.sizes.upper_values()) == list(idx.sizes.upper_values())
        loaded.check_compatible(g, 2, True)

    def test_a_row_length_mismatch_is_rejected(self):
        g = random_graph(25, 0.15, seed=186)
        buffer = io.BytesIO()
        save_differential_index(build_differential_index(g, 2), g, buffer)
        data = bytearray(buffer.getvalue())
        # Move one arc from node 0's row to node 1's: same total, same
        # fingerprint (it hashes the graph, not the file), wrong rows.
        degrees = memoryview(data)[8 + 21 : 8 + 21 + 8].cast("i")
        degrees[0] += 1
        degrees[1] -= 1
        degrees.release()
        with pytest.raises(IndexNotBuiltError, match="row length mismatch at node 0"):
            load_differential_index(g, io.BytesIO(bytes(data)))


class TestCLI:
    def test_query_dataset(self, capsys):
        code = cli_main(
            [
                "query",
                "--dataset",
                "intrusion_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--binary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 3

    def test_query_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("a b\nb c\nc d\na c\n")
        code = cli_main(
            ["query", "--edge-list", str(path), "--k", "2", "--blacking-ratio", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1\t" in out

    def test_query_with_scores_file(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("a b\nb c\n")
        scores_path = tmp_path / "s.txt"
        scores_path.write_text("a 1.0\nb 0.5\n# comment\nc 0.0\n")
        code = cli_main(
            [
                "query",
                "--edge-list",
                str(graph_path),
                "--scores",
                str(scores_path),
                "--k",
                "1",
                "--hops",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # a sees {a, b} = 1.5 and b sees {a, b, c} = 1.5: a tie at the top;
        # the accumulator keeps the first-offered node (a).
        assert "\t1.500000" in out

    def test_explain_subcommand(self, capsys):
        code = cli_main(
            [
                "explain",
                "--dataset",
                "collaboration_like",
                "--scale",
                "0.05",
                "--k",
                "5",
                "--binary",
            ]
        )
        assert code == 0
        assert "chosen algorithm" in capsys.readouterr().out

    def test_profile_subcommand(self, capsys):
        code = cli_main(
            ["profile", "--dataset", "citation_like", "--scale", "0.05"]
        )
        assert code == 0
        assert "degree:" in capsys.readouterr().out

    def test_build_index_and_query_with_it(self, tmp_path, capsys):
        index_path = tmp_path / "collab.lonaidx"
        code = cli_main(
            [
                "build-index",
                "--dataset",
                "collaboration_like",
                "--scale",
                "0.05",
                "--out",
                str(index_path),
            ]
        )
        assert code == 0
        assert index_path.exists()
        code = cli_main(
            [
                "query",
                "--dataset",
                "collaboration_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--algorithm",
                "forward",
                "--index",
                str(index_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm=forward" in out

    def test_query_with_mismatched_index(self, tmp_path, capsys):
        index_path = tmp_path / "tiny.lonaidx"
        assert (
            cli_main(
                [
                    "build-index",
                    "--dataset",
                    "intrusion_like",
                    "--scale",
                    "0.05",
                    "--out",
                    str(index_path),
                ]
            )
            == 0
        )
        code = cli_main(
            [
                "query",
                "--dataset",
                "collaboration_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--index",
                str(index_path),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_subcommand(self, capsys):
        code = cli_main(
            [
                "serve",
                "--dataset",
                "intrusion_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--queries",
                "4",
                "--workers",
                "2",
                "--repeat",
                "2",
                "--blacking-ratio",
                "0.4",
                "--binary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 8 queries" in out
        assert "cache hits" in out
        lines = [l for l in out.splitlines() if l.startswith("q")]
        assert len(lines) == 4

    def test_serve_json_inline_workers(self, capsys):
        import json

        code = cli_main(
            [
                "serve",
                "--dataset",
                "intrusion_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--queries",
                "3",
                "--workers",
                "0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "serve"
        assert payload["queries"] == 3
        assert payload["service"]["completed"] == 3
        assert payload["service"]["workers"] == 0
        assert payload["result_cache"]["misses"] == 3
        assert set(payload["top_nodes"]) == {"q0", "q1", "q2"}

    def test_engine_save_load_roundtrip(self, tmp_path):
        from repro.session import Network
        from tests.conftest import random_scores, rounded

        g = random_graph(25, 0.15, seed=182)
        scores = random_scores(25, seed=183)
        writer = Network(g, hops=2).add_scores("s", scores)
        path = tmp_path / "engine.lonaidx"
        writer.save_index(path)
        reader = Network(g, hops=2).add_scores("s", scores)
        reader.load_index(path)
        assert reader.diff_index is not None
        fast = reader.topk("s", 5, algorithm="forward")
        assert fast.stats.index_build_sec == 0.0
        assert rounded(fast.values) == rounded(
            writer.topk("s", 5, algorithm="base").values
        )

    def test_engine_load_wrong_hops(self, tmp_path):
        from repro.session import Network

        g = random_graph(20, 0.2, seed=184)
        writer = Network(g, hops=1)
        path = tmp_path / "h1.lonaidx"
        writer.save_index(path)
        reader = Network(g, hops=2)
        with pytest.raises(IndexNotBuiltError):
            reader.load_index(path)

    def test_error_exit_code(self, tmp_path, capsys):
        bad_scores = tmp_path / "bad.txt"
        bad_scores.write_text("only-one-token\n")
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("a b\n")
        code = cli_main(
            [
                "query",
                "--edge-list",
                str(graph_path),
                "--scores",
                str(bad_scores),
                "--k",
                "1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCLIJson:
    """--json output mode: one machine-readable object per command."""

    @staticmethod
    def _run_json(capsys, argv):
        import json as _json

        code = cli_main(argv)
        assert code == 0
        return _json.loads(capsys.readouterr().out)

    def test_query_json(self, capsys):
        payload = self._run_json(
            capsys,
            [
                "query",
                "--dataset",
                "intrusion_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--binary",
                "--json",
            ],
        )
        assert payload["command"] == "query"
        assert payload["graph"]["nodes"] > 0
        assert len(payload["entries"]) == 3
        first = payload["entries"][0]
        assert set(first) == {"rank", "node", "label", "value"}
        assert payload["entries"][0]["rank"] == 1
        values = [e["value"] for e in payload["entries"]]
        assert values == sorted(values, reverse=True)
        assert payload["stats"]["algorithm"] in (
            "base",
            "forward",
            "backward",
        )
        assert "elapsed_sec" in payload["stats"]

    def test_query_json_matches_text_entries(self, capsys):
        argv = [
            "query",
            "--dataset",
            "collaboration_like",
            "--scale",
            "0.05",
            "--k",
            "4",
        ]
        assert cli_main(argv) == 0
        text_out = capsys.readouterr().out
        text_entries = [
            line.split("\t")
            for line in text_out.splitlines()
            if line and not line.startswith("#")
        ]
        payload = self._run_json(capsys, argv + ["--json"])
        assert [e["label"] for e in payload["entries"]] == [
            row[1] for row in text_entries
        ]
        for entry, row in zip(payload["entries"], text_entries):
            assert round(entry["value"], 6) == float(row[2])

    def test_explain_json(self, capsys):
        payload = self._run_json(
            capsys,
            [
                "explain",
                "--dataset",
                "collaboration_like",
                "--scale",
                "0.05",
                "--k",
                "5",
                "--json",
            ],
        )
        assert payload["command"] == "explain"
        plan = payload["plan"]
        assert plan["chosen"] in ("base", "forward", "backward")
        algorithms = {est["algorithm"] for est in plan["estimates"]}
        assert "base" in algorithms
        for est in plan["estimates"]:
            assert est["online_ball_expansions"] >= 0

    def test_query_relational_via_cli(self, capsys):
        code = cli_main(
            [
                "query",
                "--dataset",
                "collaboration_like",
                "--scale",
                "0.05",
                "--k",
                "3",
                "--algorithm",
                "relational",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm=relational" in out
