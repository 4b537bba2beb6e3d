"""Unit tests for the command-line interface."""

import pytest

from repro.analysis.parallel import GridCell
from repro.cli import _scenario, build_parser, main
from repro.config import MigrationPolicy
from repro.scenario import build_cell


class TestParser:
    def test_run_defaults(self):
        """Omitted knob flags stay unset; the cell takes its defaults."""
        args = build_parser().parse_args(["run", "ra"])
        scenario = _scenario(args, "run")
        assert scenario == {"mode": "run", "workload": "ra"}
        cell = build_cell(scenario)
        assert cell == GridCell("ra")
        assert cell.policy is MigrationPolicy.ADAPTIVE
        assert cell.oversubscription == 1.25

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nosuch"])

    def test_figure_ids(self):
        args = build_parser().parse_args(["figure", "fig6"])
        assert args.id == "fig6"

    def test_trace_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "record", "ra", "-o", "out.npz"])
        assert args.trace_cmd == "record"
        args = build_parser().parse_args(
            ["trace", "replay", "-i", "in.npz", "--policy", "always"])
        assert _scenario(args, "trace")["policy"] == {"variant": "always"}

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out and "adaptive" in out and "fig6" in out

    def test_run_tiny(self, capsys):
        rc = main(["run", "ra", "--scale", "tiny", "--oversub", "1.25",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "thrash_migrations" in out
        assert "cycle breakdown" in out

    def test_run_with_histogram(self, capsys):
        rc = main(["run", "fdtd", "--scale", "tiny", "--oversub", "0.8",
                   "--histogram"])
        assert rc == 0
        assert "access histogram" in capsys.readouterr().out

    def test_run_with_options(self, capsys):
        rc = main(["run", "ra", "--scale", "tiny", "--policy", "always",
                   "--evict", "64kb", "--prefetcher", "sequential",
                   "--prefetch-degree", "2", "--ts", "16"])
        assert rc == 0

    def test_compare(self, capsys):
        rc = main(["compare", "ra", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        for policy in ("disabled", "always", "oversub", "adaptive"):
            assert policy in out

    def test_compare_honours_sim_flags(self, capsys):
        """compare's adaptive row is the run of the same flags."""
        flags = ["ra", "--scale", "tiny", "--evict", "64kb",
                 "--prefetcher", "none"]
        assert main(["compare", *flags]) == 0
        row = next(line.split()
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("adaptive"))
        assert main(["run", *flags]) == 0
        summary = dict(line.split()[:2]
                       for line in capsys.readouterr().out.splitlines()
                       if len(line.split()) == 2)
        assert row[1] == f"{float(summary['runtime_ms']):.2f}"
        assert row[4] == summary["remote"]

    @pytest.mark.parametrize("argv", [
        ["run", "ra", "--scale", "tiny", "--ts", "0"],
        ["run", "ra", "--scale", "tiny", "--prefetcher", "sequential",
         "--prefetch-degree", "0"],
        ["compare", "ra", "--scale", "tiny", "--ts", "0"],
        ["serve", "--penalty", "0"],
        ["trace", "replay", "-i", "missing.npz"],
    ])
    def test_bad_inputs_exit_cleanly(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith(f"repro {argv[0]}: ")
        assert "\n" not in message

    def test_figure_table1(self, capsys, tmp_path):
        out_file = tmp_path / "t1.txt"
        rc = main(["figure", "table1", "--out", str(out_file)])
        assert rc == 0
        assert "Tree-based" in out_file.read_text()

    def test_trace_roundtrip(self, capsys, tmp_path):
        trace_file = tmp_path / "ra.npz"
        rc = main(["trace", "record", "ra", "--scale", "tiny",
                   "-o", str(trace_file)])
        assert rc == 0
        assert trace_file.exists()
        rc = main(["trace", "replay", "-i", str(trace_file),
                   "--policy", "adaptive"])
        assert rc == 0
        assert "cycle breakdown" in capsys.readouterr().out
