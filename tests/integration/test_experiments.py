"""Integration tests for the experiment runners (figure harness)."""

import pathlib

import pytest

from repro.analysis import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6_7,
    figure8,
    render_figure2,
    render_figure3,
    run_cell,
    table1,
)
from repro.analysis.parallel import GridCell
from repro.config import MigrationPolicy
from repro.sim.simulator import Simulator


SUBSET = ("fdtd", "ra")

#: The committed figure tables (small scale, seed 0).
RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/results"


class TestTable1:
    def test_renders_all_parameters(self):
        txt = table1()
        for needle in ("Page Size", "45us", "Tree-based", "PCIe 3.0 16x",
                       "2048KB", "1481 MHz"):
            assert needle in txt


class TestRunCell:
    def test_returns_result(self):
        r = run_cell(GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25,
                              scale="tiny"))
        assert r.workload == "ra"
        assert r.total_cycles > 0


class TestFigureRunners:
    def test_figure1_structure(self):
        res = figure1(scale="tiny", subset=SUBSET)
        assert set(res.measured) == {"125% oversub", "150% oversub"}
        for series in res.measured.values():
            assert set(series) == set(SUBSET)
            assert all(v > 0 for v in series.values())
        assert "Figure 1" in res.render()
        assert "paper" in res.render()

    def test_figure2_histograms(self):
        data = figure2(scale="tiny")
        assert set(data) == {"fdtd", "sssp"}
        fdtd_rows = {r["name"]: r for r in data["fdtd"]}
        assert any(name.startswith("fdtd.") for name in fdtd_rows)
        txt = render_figure2(data)
        assert "fdtd" in txt and "acc/page" in txt

    def test_figure2_shows_hot_cold_split_for_sssp(self):
        data = figure2(scale="tiny")
        rows = {r["name"]: r for r in data["sssp"]}
        # Cold read-only edges vs hot read-write distance array.
        assert rows["sssp.edges"]["read_only"]
        assert not rows["sssp.dist"]["read_only"]
        assert rows["sssp.dist"]["accesses_per_page"] > \
            rows["sssp.edges"]["accesses_per_page"]

    def test_figure3_traces_selected_iterations(self):
        data = figure3(scale="tiny")
        fdtd_iters = {rec.iteration for rec in data["fdtd"]}
        assert fdtd_iters == {2}  # tiny preset runs 3 iterations (0..2)
        sssp_iters = {rec.iteration for rec in data["sssp"]}
        assert sssp_iters <= {3, 5}
        assert "Figure 3" in render_figure3(data)

    @pytest.mark.parametrize("figure, render, table", [
        (figure2, render_figure2, "figure2.txt"),
        (figure3, render_figure3, "figure3.txt")])
    def test_stream_figures_simulate_nothing(self, figure, render, table,
                                             monkeypatch):
        """Figures 2 and 3 summarize recorded streams: with simulation
        refused they still render the committed tables."""
        def refuse(*args, **kwargs):
            raise AssertionError("Figures 2 and 3 simulate nothing")

        monkeypatch.setattr(Simulator, "run", refuse)
        text = render(figure(scale="small")) + "\n"
        assert text == (RESULTS / table).read_text()

    def test_figure4_normalizes_to_ts8(self):
        res = figure4(scale="tiny", subset=("ra",))
        assert set(res.measured) == {"ts=16", "ts=32"}
        assert res.paper["ts=16"]["ra"] == pytest.approx(0.9294)

    def test_figure5_no_oversub(self):
        res = figure5(scale="tiny", subset=SUBSET)
        assert set(res.measured) == {"always", "adaptive"}
        # Adaptive tracks baseline at no oversubscription.
        for v in res.measured["adaptive"].values():
            assert v == pytest.approx(1.0, abs=0.35)

    def test_figure6_7_share_runs(self):
        f6, f7 = figure6_7(scale="tiny", subset=("ra",))
        assert f6.runs is f7.runs
        assert f6.measured["adaptive"]["ra"] < 1.0
        assert f7.measured["adaptive"]["ra"] < 1.0

    def test_figure8_penalty_series(self):
        res = figure8(scale="tiny", subset=("ra",), penalties=(2, 8))
        assert set(res.measured) == {"p=2", "p=8"}
        assert res.measured["p=8"]["ra"] <= res.measured["p=2"]["ra"] * 1.2
