"""Unit tests for the ``repro serve`` command."""

import argparse
import json
import pathlib

import pytest

from repro.cli import _load_slo_config, _scenario, build_parser, main
from repro.config import ServeConfig
from repro.obs.live.slo import SloConfig
from repro.scenario import build_serve_config, load_scenario, run_scenarios

from tests.conftest import profile_shares


class TestServeParser:
    def test_defaults(self):
        """A bare ``repro serve`` compiles to the ServeConfig defaults."""
        args = build_parser().parse_args(["serve"])
        scenario = _scenario(args, "serve", mode="serve")
        assert scenario == {"mode": "serve"}
        cfg = build_serve_config(scenario)
        assert cfg == ServeConfig()
        assert cfg.arrival_rate == 400.0
        assert cfg.tenants == 12
        assert cfg.process == "poisson"
        assert cfg.shed_watermark == 2.5
        assert cfg.workload_mix == ("ra", "sssp", "bfs", "fdtd")

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--arrival-rate", "2000", "--tenants", "6",
             "--process", "bursty",
             "--shed-watermark", "2.0", "--queue-depth", "3",
             "--mix", "ra,bfs", "--capacity-mb", "24"])
        serve = _scenario(args, "serve", mode="serve")["serve"]
        assert serve["arrival_rate"] == 2000.0
        assert serve["tenants"] == 6
        assert serve["process"] == "bursty"
        assert serve["queue_depth"] == 3
        assert serve["workload_mix"] == ["ra", "bfs"]

    def test_unknown_process_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--process", "sawtooth"])


class TestServeExecution:
    def test_serve_prints_summary(self, capsys):
        rc = main(["serve", "--tenants", "3", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== serve:" in out
        assert "per-tenant lifecycle" in out
        assert "peak live oversubscription" in out

    def test_serve_json(self, capsys):
        rc = main(["serve", "--tenants", "3", "--seed", "0", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["arrivals"] == 3
        assert len(d["tenants"]) == 3
        assert d["config"]["seed"] == 0

    def test_serve_json_deterministic(self, capsys):
        main(["serve", "--tenants", "3", "--seed", "5", "--json"])
        a = capsys.readouterr().out
        main(["serve", "--tenants", "3", "--seed", "5", "--json"])
        b = capsys.readouterr().out
        assert a == b

    def test_serve_json_profile_keeps_stdout_one_document(self, tmp_path,
                                                          capsys):
        flags = ["serve", "--tenants", "3", "--seed", "0", "--json"]
        main(flags)
        plain = json.loads(capsys.readouterr().out)
        assert main(flags + ["--profile", "--archive",
                             "--runs", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == plain
        assert "[archived as" in captured.err
        shares = profile_shares(captured.err)
        assert {"serve.session", "uvm.batch", "uvm.driver", "migrate_drain",
                "uvm.eviction"} <= set(shares)
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_invalid_mix_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--tenants", "3", "--mix", "ra,nosuch"])

    def test_invalid_watermarks_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--tenants", "3", "--admit-watermark", "3.0",
                  "--shed-watermark", "2.0"])

    def test_serve_events_log(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        rc = main(["serve", "--tenants", "3", "--seed", "0",
                   "--events", str(path)])
        assert rc == 0
        kinds = {json.loads(line)["event"]
                 for line in path.read_text().splitlines() if line}
        assert {"run_meta", "tenant_arrival", "tenant_admitted",
                "tenant_complete"} <= kinds

    def test_serve_inspect_round_trip(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        main(["serve", "--tenants", "3", "--seed", "0",
              "--events", str(path)])
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tenants (serve log)" in out

    def test_serve_archives(self, tmp_path, capsys):
        rc = main(["serve", "--tenants", "3", "--seed", "0",
                   "--archive", "--runs", str(tmp_path)])
        assert rc == 0
        assert main(["runs", "--runs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "serve" in out


#: Hot enough for SLO violations and alerts at this seed.
OVERLOAD_FLAGS = ["serve", "--tenants", "8", "--seed", "1",
                  "--arrival-rate", "2000", "--capacity-mb", "24",
                  "--queue-depth", "2", "--throttle-watermark", "1.0",
                  "--admit-watermark", "1.6", "--shed-watermark", "2.0"]


def write_slo_yaml(tmp_path, body=None):
    path = tmp_path / "slo.yaml"
    path.write_text(body if body is not None else
                    "slo:\n"
                    "  p99_latency_us: 300.0\n"
                    "  latency_attainment: 0.95\n"
                    "  max_shed_rate: 0.1\n")
    return path


class TestServeSlo:
    def test_slo_config_enables_telemetry(self, tmp_path, capsys):
        slo = write_slo_yaml(tmp_path)
        rc = main(OVERLOAD_FLAGS + ["--slo-config", str(slo), "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["slo_violations"] > 0

    def test_slo_config_accepts_flat_keys(self, tmp_path, capsys):
        slo = write_slo_yaml(tmp_path, "p99_latency_us: 300.0\n")
        rc = main(OVERLOAD_FLAGS + ["--slo-config", str(slo), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["slo_violations"] > 0

    def test_slo_config_rejects_unknown_key(self, tmp_path):
        slo = write_slo_yaml(tmp_path, "p99_latencyus: 300.0\n")
        with pytest.raises(SystemExit,
                           match=r"slo\.p99_latencyus: unknown key"):
            main(OVERLOAD_FLAGS + ["--slo-config", str(slo)])

    def test_slo_config_rejects_no_objectives(self, tmp_path):
        slo = write_slo_yaml(tmp_path, "fast_windows: 2\n")
        with pytest.raises(SystemExit, match="no\\s+objective"):
            main(OVERLOAD_FLAGS + ["--slo-config", str(slo)])

    def test_slo_config_bad_value_exits_before_simulating(
            self, tmp_path, monkeypatch):
        """A value the schema rejects stops the run before it starts,
        with the key's path in the message."""
        from repro.serve import ServeSession
        monkeypatch.setattr(ServeSession, "run",
                            lambda self: pytest.fail("serve run started"))
        slo = write_slo_yaml(tmp_path, "slo:\n  p99_latency_us: 300\n"
                                       "  fast_windows: 2.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--scale", "tiny", "--tenants", "12",
                  "--slo-config", str(slo)])
        assert "slo.fast_windows: expected int, got float (2.5)" in str(
            exc.value.code)

    def test_live_admission_off_matches_bare_run(self, tmp_path, capsys):
        """--slo-config must not perturb the simulated schedule."""
        slo = write_slo_yaml(tmp_path)
        main(OVERLOAD_FLAGS + ["--json"])
        bare = json.loads(capsys.readouterr().out)
        main(OVERLOAD_FLAGS + ["--slo-config", str(slo), "--json"])
        with_slo = json.loads(capsys.readouterr().out)
        for key in ("slo_violations", "alerts_fired"):
            bare.pop(key), with_slo.pop(key)
        assert bare == with_slo

    def test_live_admission_flag_runs(self, tmp_path, capsys):
        slo = write_slo_yaml(tmp_path)
        rc = main(OVERLOAD_FLAGS + ["--slo-config", str(slo),
                                    "--live-admission",
                                    "--live-thrash-threshold", "0.05",
                                    "--window-ms", "2.0", "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["config"]["live_admission"] is True
        assert d["config"]["live_thrash_threshold"] == 0.05
        assert d["config"]["window_ms"] == 2.0

    def test_scenario_slo_section_flows_through(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text(
            "name: slo-smoke\nmode: serve\nseed: 1\n"
            "serve:\n  tenants: 8\n  arrival_rate: 2000.0\n"
            "  capacity_mb: 24\n  queue_depth: 2\n"
            "  throttle_watermark: 1.0\n  admit_watermark: 1.6\n"
            "  shed_watermark: 2.0\n"
            "slo:\n  p99_latency_us: 300.0\n  latency_attainment: 0.95\n")
        rc = main(["serve", "--config", str(scenario), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["slo_violations"] > 0

    def test_batch_route_keeps_scenario_slo(self, capsys):
        """``repro serve --config`` and the batch route of ``repro sweep
        --config`` (:func:`run_scenarios`) give one result for a
        scenario with an ``slo:`` section."""
        path = pathlib.Path(__file__).resolve().parents[2] / "configs" / \
            "serve_slo.yaml"
        assert main(["serve", "--config", str(path), "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        (outcome,) = run_scenarios([load_scenario(path)])
        (variant,) = outcome.variants
        batch = json.loads(json.dumps(variant.result.as_dict()))
        assert batch["slo_violations"] > 0
        assert batch == direct

    def test_prom_export(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        rc = main(["serve", "--tenants", "3", "--seed", "0",
                   "--prom", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "serve_waves_total" in text
        assert text.endswith("# EOF\n")

    def test_flush_events_tailable_then_top(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        slo = write_slo_yaml(tmp_path)
        main(OVERLOAD_FLAGS + ["--slo-config", str(slo),
                               "--events", str(path),
                               "--flush-events", "1"])
        capsys.readouterr()
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "slo att" in out

    def test_flush_events_rejects_gz(self, tmp_path):
        path = tmp_path / "ev.jsonl.gz"
        with pytest.raises((SystemExit, ValueError)):
            main(["serve", "--tenants", "3", "--events", str(path),
                  "--flush-events", "1"])


class TestSloConfigFile:
    """``--slo-config`` files compile through the scenario schema."""

    def load(self, tmp_path, body):
        slo = write_slo_yaml(tmp_path, body)
        return _load_slo_config(argparse.Namespace(slo_config=str(slo)))

    def test_accepts_nested_bare_and_prefixed_keys(self, tmp_path):
        nested = self.load(tmp_path, "slo:\n  p99_latency_us: 200\n"
                                     "  max_shed_rate: 0.1\n")
        bare = self.load(tmp_path, "p99_latency_us: 200.0\n"
                                   "max_shed_rate: 0.1\n")
        prefixed = self.load(tmp_path, "slo.p99_latency_us: 200.0\n"
                                       "slo.max_shed_rate: 0.1\n")
        assert nested == bare == prefixed == SloConfig(
            p99_latency_us=200.0, max_shed_rate=0.1)
        assert isinstance(nested.p99_latency_us, float)

    def test_rejects_unknown_keys(self, tmp_path):
        with pytest.raises(SystemExit, match="p99_latencyus: unknown key"):
            self.load(tmp_path, "p99_latencyus: 200.0\n")

    def test_skips_null(self, tmp_path):
        cfg = self.load(tmp_path, "p99_latency_us: 200.0\n"
                                  "max_shed_rate: null\n")
        assert cfg.max_shed_rate is None

    def test_rejects_invalid_objective(self, tmp_path):
        with pytest.raises(SystemExit, match="latency_attainment"):
            self.load(tmp_path, "p99_latency_us: 200.0\n"
                                "latency_attainment: 1.5\n")
