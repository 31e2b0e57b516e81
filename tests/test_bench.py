"""Tests for the benchmark harness, workloads, reporting, and CLI."""

from __future__ import annotations

import csv
import io
import os

import pytest

from repro.bench.figures import main as figures_main
from repro.bench.harness import run_figure
from repro.bench.reporting import (
    format_figure,
    format_speedups,
    write_csv,
    write_series,
)
from repro.bench.workloads import ABLATIONS, FIGURES, PAPER_KS, FigureSpec, figure
from repro.core.backends import numpy_available
from repro.errors import InvalidParameterError


class TestWorkloads:
    def test_six_figures_defined(self):
        assert sorted(FIGURES) == ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"]

    def test_parameters_match_paper(self):
        assert FIGURES["fig1"].aggregate == "sum"
        assert FIGURES["fig3"].blacking_ratio == 0.2
        assert FIGURES["fig6"].blacking_ratio == 0.01
        assert all(spec.hops == 2 for spec in FIGURES.values())
        assert all(spec.ks == PAPER_KS for spec in FIGURES.values())

    def test_figure_lookup_forms(self):
        assert figure("1").figure_id == "fig1"
        assert figure("fig2").figure_id == "fig2"
        mixture = figure("3-mixture")
        assert mixture.figure_id == "fig3-mixture"
        assert not mixture.binary_relevance

    def test_unknown_figure(self):
        with pytest.raises(InvalidParameterError):
            figure("fig9")

    def test_build_graph_and_scores(self):
        spec = FIGURES["fig1"]
        g = spec.build_graph(scale=0.05)
        scores = spec.build_scores(g)
        assert len(scores) == g.num_nodes
        assert scores.is_binary

    def test_mixture_variant_scores_not_binary(self):
        spec = figure("1-mixture")
        g = spec.build_graph(scale=0.05)
        assert not spec.build_scores(g).is_binary


@pytest.fixture(scope="module")
def small_run():
    """One cheap harness execution shared by the reporting tests."""
    return run_figure(FIGURES["fig1"], scale=0.05, ks=[3, 6], repetitions=1)


class TestHarness:
    def test_measurements_cover_grid(self, small_run):
        cells = {(m.algorithm, m.k) for m in small_run.measurements}
        assert cells == {
            (a, k) for a in ("base", "forward", "backward") for k in (3, 6)
        }

    def test_cross_algorithm_verification_ran(self, small_run):
        by_k = {}
        for m in small_run.measurements:
            by_k.setdefault(m.k, set()).add(round(m.top_value, 9))
        for k, tops in by_k.items():
            assert len(tops) == 1, f"algorithms disagreed at k={k}"

    def test_series_sorted_by_k(self, small_run):
        ks = [m.k for m in small_run.series("base")]
        assert ks == sorted(ks)

    def test_speedup_keys(self, small_run):
        speedups = small_run.speedup_over_base("backward")
        assert set(speedups) == {3, 6}
        assert all(s > 0 for s in speedups.values())

    def test_index_built_once(self, small_run):
        assert small_run.index_build_sec > 0.0

    def test_algorithm_override(self):
        run = run_figure(
            FIGURES["fig1"], scale=0.05, ks=[3], algorithms=["base", "materialized"]
        )
        algos = {m.algorithm for m in run.measurements}
        assert algos == {"base", "materialized"}

    def test_backward_indexfree_alias(self):
        run = run_figure(
            FIGURES["fig1"],
            scale=0.05,
            ks=[3],
            algorithms=["base", "backward-indexfree"],
        )
        assert {m.algorithm for m in run.measurements} == {
            "base",
            "backward-indexfree",
        }

    def test_invalid_repetitions(self):
        with pytest.raises(InvalidParameterError):
            run_figure(FIGURES["fig1"], scale=0.05, repetitions=0)

    @pytest.mark.parametrize(
        "algorithm",
        [
            "backward:ordering=random",
            "forward:gamma=0.5",
            "base:exp",
            "forward:",
            "backward:gamma=abc",
            "forward:ordering=bogus",
            "weighted-base:decay=0.5",
        ],
    )
    def test_bad_algorithm_parameter(self, algorithm, monkeypatch):
        # Rejected before the graph (or any index) is built.
        monkeypatch.setattr(FigureSpec, "build_graph", None)
        with pytest.raises(InvalidParameterError):
            run_figure(FIGURES["fig1"], scale=0.05, ks=[3], algorithms=[algorithm])


class TestReporting:
    def test_format_figure_contains_series(self, small_run):
        text = format_figure(small_run)
        assert "Fig. 1" in text
        assert "base (s)" in text
        assert "speedup over base" in text

    def test_format_with_counters(self, small_run):
        text = format_figure(small_run, show_counters=True)
        assert "ball evaluations" in text

    def test_format_speedups_no_base(self):
        run = run_figure(FIGURES["fig1"], scale=0.05, ks=[3], algorithms=["backward"])
        assert "unavailable" in format_speedups(run)

    @pytest.mark.parametrize("profile", ["", ":exp"])
    def test_weighted_routes_take_the_weighted_scan_as_base(self, profile):
        run = run_figure(
            FIGURES["fig1"], scale=0.05, ks=[3, 6],
            algorithms=[f"weighted-base{profile}", f"weighted-backward{profile}"],
        )
        speedups = run.speedup_over_base(f"weighted-backward{profile}")
        assert set(speedups) == {3, 6} and all(s > 0 for s in speedups.values())
        text = format_speedups(run)
        assert "unavailable" not in text
        assert text.startswith(
            f"speedup over weighted-base{profile} — weighted-backward{profile}: k=3: "
        )
        assert text.count("\n") == 0  # the base series has no line of its own

    def test_write_csv(self, small_run, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(small_run, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(small_run.measurements)
        assert rows[0]["figure"] == "fig1"

    def test_write_csv_to_buffer(self, small_run):
        buffer = io.StringIO()
        write_csv(small_run, buffer)
        assert "elapsed_sec" in buffer.getvalue()

    def test_write_series(self, small_run, tmp_path):
        paths = write_series(small_run, tmp_path)
        assert len(paths) == 3
        for path in paths:
            assert os.path.exists(path)
            with open(path) as handle:
                content = handle.read()
            assert content.startswith("#")


class TestCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--figure", "fig9"],
            ["--figure", "1", "--reps", "0"],
            ["--figure", "1", "--algorithms", "backward:gamma=abc"],
        ],
    )
    def test_library_errors_exit_like_the_cli(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(FigureSpec, "build_graph", None)  # rejected first
        assert figures_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_single_figure(self, capsys):
        code = figures_main(["--figure", "1", "--scale", "0.05", "--ks", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1" in out

    def test_csv_and_series_output(self, tmp_path, capsys):
        code = figures_main(
            [
                "--figure",
                "2",
                "--scale",
                "0.05",
                "--ks",
                "3",
                "--csv",
                str(tmp_path / "csv"),
                "--series",
                str(tmp_path / "dat"),
            ]
        )
        assert code == 0
        assert (tmp_path / "csv" / "fig2.csv").exists()
        assert (tmp_path / "dat" / "fig2_base.dat").exists()

    def test_algorithm_subset(self, capsys):
        code = figures_main(
            [
                "--figure",
                "3",
                "--scale",
                "0.05",
                "--ks",
                "3",
                "--algorithms",
                "base,backward",
                "--counters",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backward" in out and "forward (s)" not in out


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_ablation_cells_cross_check(ablation, tmp_path, capsys):
    """Every ablation runs through the figure CLI and every cell agrees.

    The harness raises when a cell's values differ from its table's first
    algorithm; the CSV is read back to check each call produced its full
    grid (a backend sweep times every algorithm, Base too, on each backend)
    and that the top values agree.
    """
    calls = ABLATIONS[ablation]
    if not numpy_available() and any(call.backends for call in calls):
        pytest.skip("sweeps the numpy backend")
    assert figures_main(
        ["--figure", ablation, "--scale", "0.05", "--csv", str(tmp_path)]
    ) == 0
    assert ablation in capsys.readouterr().out
    for spec, _scale, backends in calls:
        with open(tmp_path / f"{spec.figure_id}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["figure"] for row in rows} == {spec.figure_id}
        grid = sorted(
            (algorithm, backend, str(k))
            for algorithm in spec.algorithms
            for backend in backends or ("auto",)
            for k in spec.ks
        )
        assert sorted((row["algorithm"], row["backend"], row["k"]) for row in rows) == grid
        for k in spec.ks:
            tops = {row["top_value"] for row in rows if row["k"] == str(k)}
            assert len(tops) == 1, f"{spec.figure_id} k={k}: cells disagreed"
