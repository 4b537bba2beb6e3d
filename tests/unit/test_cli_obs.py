"""CLI tests for the observability flags and ``repro inspect``."""

import json

import pytest

from repro.cli import build_parser, main

from tests.conftest import profile_shares


class TestParser:
    def test_run_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["run", "ra", "--events", "e.jsonl", "--metrics", "m.json",
             "--profile"])
        assert args.events == "e.jsonl"
        assert args.metrics == "m.json"
        assert args.profile is True

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["run", "ra"])
        assert args.events is None and args.metrics is None
        assert args.profile is False

    def test_replay_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["trace", "replay", "-i", "t.npz", "--profile"])
        assert args.profile is True

    def test_grid_commands_accept_metrics(self):
        args = build_parser().parse_args(
            ["sweep", "ra", "--metrics", "g.json"])
        assert args.metrics == "g.json"
        args = build_parser().parse_args(
            ["figure", "table1", "--metrics", "g.json"])
        assert args.metrics == "g.json"

    def test_inspect_parses(self):
        args = build_parser().parse_args(["inspect", "e.jsonl", "--top", "3"])
        assert args.events == "e.jsonl" and args.top == 3

    def test_run_accepts_archive_and_timeline(self):
        args = build_parser().parse_args(
            ["run", "ra", "--archive", "--timeline", "t.json",
             "--runs", "/tmp/r"])
        assert args.archive is True
        assert args.timeline == "t.json"
        assert args.runs == "/tmp/r"
        args = build_parser().parse_args(["run", "ra"])
        assert args.archive is False and args.timeline is None

    def test_grid_commands_accept_archive(self):
        args = build_parser().parse_args(["sweep", "ra", "--archive"])
        assert args.archive is True
        args = build_parser().parse_args(
            ["figure", "table1", "--archive", "--runs", "/tmp/r"])
        assert args.archive is True and args.runs == "/tmp/r"

    def test_runs_and_diff_parse(self):
        args = build_parser().parse_args(["runs"])
        assert args.runs is None
        args = build_parser().parse_args(
            ["diff", "abc", "def", "--json", "--top", "5",
             "--tolerance", "2.5"])
        assert args.run_a == "abc" and args.run_b == "def"
        assert args.json is True and args.top == 5
        assert args.tolerance == 2.5


class TestExecution:
    def test_run_writes_events_and_metrics(self, tmp_path, capsys):
        ev = tmp_path / "e.jsonl"
        mx = tmp_path / "m.json"
        assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                     "--events", str(ev), "--metrics", str(mx),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "-- profile:" in out

        rows = [json.loads(line) for line in ev.read_text().splitlines()]
        assert rows[0]["event"] == "run_meta"
        assert any(r["event"] == "migration_decision" for r in rows)

        metrics = json.loads(mx.read_text())
        assert "driver.decisions.migrate" in metrics
        assert "engine.wave_cycles" in metrics

    def test_profile_shares_add_up_to_the_root(self, capsys):
        assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                     "--profile"]) == 0
        shares = profile_shares(capsys.readouterr().out)
        assert {"run", "uvm.driver", "migrate_drain",
                "uvm.eviction"} <= set(shares)
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_replay_profile_times_recorded_waves(self, tmp_path, capsys):
        """A replayed wave carries its grouping and takes the driver's
        other per-wave entry point: it is a wave span all the same."""
        from repro.obs.timeline import TID_WAVES

        trace_file = tmp_path / "ra.npz"
        timeline = tmp_path / "t.trace.json"
        assert main(["trace", "record", "ra", "--scale", "tiny",
                     "-o", str(trace_file)]) == 0
        capsys.readouterr()
        assert main(["trace", "replay", "-i", str(trace_file), "--oversub",
                     "1.5", "--profile", "--timeline", str(timeline)]) == 0
        shares = profile_shares(capsys.readouterr().out)
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)
        events = json.loads(timeline.read_text())["traceEvents"]
        waves = sum(e["ph"] == "B" and e["name"] == "uvm.driver"
                    for e in events)
        frames = sum(e["ph"] == "i" and e["tid"] == TID_WAVES
                     for e in events)
        assert waves > 0 and frames == waves

    def test_inspect_round_trips_events(self, tmp_path, capsys):
        ev = tmp_path / "e.jsonl"
        assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                     "--events", str(ev)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(ev), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "== event log: ra / adaptive" in out
        assert "migration_decision" in out

    def test_inspect_missing_file_is_cli_error(self):
        with pytest.raises(SystemExit, match="repro inspect"):
            main(["inspect", "/nonexistent/events.jsonl"])

    def test_run_without_flags_prints_no_obs_output(self, tmp_path, capsys):
        assert main(["run", "ra", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "-- profile:" not in out
        assert "[metrics" not in out and "[events" not in out

    def test_sweep_writes_grid_metrics(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["sweep", "ra", "--scale", "tiny", "--levels", "1.25",
                     "--policies", "adaptive", "--metrics", str(path)]) == 0
        metrics = json.loads(path.read_text())
        assert metrics["grid.cells_completed"]["value"] == 1
        assert metrics["grid.cell_ms"]["count"] == 1

    def test_gzip_events_inspect_round_trip(self, tmp_path, capsys):
        import gzip

        ev = tmp_path / "e.jsonl.gz"
        assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                     "--events", str(ev)]) == 0
        capsys.readouterr()
        # the sink actually compressed (magic bytes), and inspect reads it
        assert ev.read_bytes()[:2] == b"\x1f\x8b"
        with gzip.open(ev, "rt") as fh:
            assert json.loads(fh.readline())["event"] == "run_meta"
        assert main(["inspect", str(ev)]) == 0
        out = capsys.readouterr().out
        assert "== event log: ra / adaptive" in out
        assert "round trips per thrashing block" in out


def _archived_id(out: str) -> str:
    import re

    match = re.search(r"\[archived as ([0-9a-f]+)", out)
    assert match, f"no archive line in output: {out!r}"
    return match.group(1)


class TestArchiveWorkflow:
    def test_archive_diff_round_trip(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        ids = []
        for seed in ("0", "1"):
            assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                         "--seed", seed, "--archive", "--runs", runs]) == 0
            ids.append(_archived_id(capsys.readouterr().out))
        assert len(set(ids)) == 2

        assert main(["runs", "--runs", runs]) == 0
        listing = capsys.readouterr().out
        assert all(i in listing for i in ids)

        assert main(["diff", ids[0], ids[1], "--runs", runs]) == 0
        out = capsys.readouterr().out
        assert "== run diff ==" in out
        assert "migrated_blocks" in out and "evicted_blocks" in out
        assert "td trajectory per allocation" in out

        assert main(["diff", ids[0][:6], ids[1][:6], "--runs", runs,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config_changes"]["seed"] == {"a": 0, "b": 1}
        assert payload["events"]["td_trajectories"]

    def test_rerun_lands_in_the_same_slot(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        ids = []
        for _ in range(2):
            assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                         "--archive", "--runs", runs]) == 0
            ids.append(_archived_id(capsys.readouterr().out))
        assert ids[0] == ids[1]

    def test_diff_unknown_id_is_cli_error(self, tmp_path):
        with pytest.raises(SystemExit, match="repro diff"):
            main(["diff", "aaaa", "bbbb", "--runs",
                  str(tmp_path / "runs")])

    def test_timeline_export_is_valid(self, tmp_path, capsys):
        from repro.obs import validate_trace

        trace_path = tmp_path / "t.trace.json"
        assert main(["run", "ra", "--scale", "tiny", "--oversub", "1.5",
                     "--timeline", str(trace_path)]) == 0
        # Artifact notes go to stderr (stdout stays machine-readable).
        assert "[timeline" in capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        assert validate_trace(trace) == []
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "run" in names and "uvm.driver" in names
        assert any(n and n.startswith("wave ") for n in names)

    def test_sweep_archives_grid_cells(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        assert main(["sweep", "ra", "--scale", "tiny",
                     "--levels", "1.25,1.5", "--policies", "adaptive",
                     "--archive", "--runs", runs]) == 0
        assert "cells archived" in capsys.readouterr().out

        from repro.obs.store import RunStore

        manifests = RunStore(runs).list()
        assert len(manifests) == 2
        assert {m.kind for m in manifests} == {"grid-cell"}
        assert len({m.sweep_id for m in manifests}) == 1
        assert {m.oversubscription for m in manifests} == {1.25, 1.5}
