"""CLI surface of the scenario-config subsystem.

``run --config`` / ``sweep --config`` / ``sweep --config-dir`` /
``serve --config`` / ``config validate`` / ``config show``.
"""

import json

import pytest

from repro.analysis.checkpoint import encode_cell, encode_config
from repro.cli import main
from repro.config import MigrationPolicy, SimulationConfig
from repro.obs.store import RunStore
from repro.scenario import build_cell

yaml = pytest.importorskip("yaml")


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def run_cfg(tmp_path):
    return write(tmp_path / "one.yaml",
                 "workload: ra\nscale: tiny\noversubscription: 1.25\n")


@pytest.fixture
def sweep_cfg(tmp_path):
    return write(tmp_path / "grid.yaml", """\
mode: sweep
workload: ra
scale: tiny
sweep:
  policy.variant: [disabled, adaptive]
""")


class TestRunConfig:
    def test_run_config_executes(self, run_cfg, capsys):
        assert main(["run", "--config", run_cfg]) == 0
        out = capsys.readouterr().out
        assert "cycle breakdown" in out

    def test_run_config_honours_flag_overlays(self, run_cfg, capsys):
        assert main(["run", "--config", run_cfg, "--histogram"]) == 0
        assert "access histogram" in capsys.readouterr().out

    def test_workload_plus_config_rejected(self, run_cfg):
        with pytest.raises(SystemExit, match="not both"):
            main(["run", "ra", "--config", run_cfg])

    def test_neither_workload_nor_config_rejected(self):
        with pytest.raises(SystemExit, match="workload name or --config"):
            main(["run"])

    def test_invalid_config_fails_cleanly(self, tmp_path):
        bad = write(tmp_path / "bad.yaml", "workload: nosuch\n")
        with pytest.raises(SystemExit, match="nosuch"):
            main(["run", "--config", bad])

    def test_swept_config_runs_as_batch(self, sweep_cfg, capsys):
        assert main(["run", "--config", sweep_cfg]) == 0
        out = capsys.readouterr().out
        assert "grid[policy.variant=disabled]" in out
        assert "grid[policy.variant=adaptive]" in out

    def test_run_config_archives_scenario(self, run_cfg, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["run", "--config", run_cfg, "--archive",
                     "--runs", str(runs)]) == 0
        (manifest,) = RunStore(runs).list()
        assert manifest.scenario == "one"
        assert manifest.config["scenario"]["workload"] == "ra"


    def test_flags_override_config_keys(self, run_cfg, tmp_path, capsys):
        """Explicit flags win over --config keys, and the archived
        scenario shows the values that ran."""
        runs = tmp_path / "runs"
        assert main(["run", "--config", run_cfg, "--policy", "always",
                     "--ts", "16", "--seed", "2", "--archive",
                     "--runs", str(runs)]) == 0
        (manifest,) = RunStore(runs).list()
        assert manifest.policy == "always" and manifest.seed == 2
        scenario = manifest.config["scenario"]
        assert scenario["policy"] == {"variant": "always",
                                      "static_threshold": 16}
        assert scenario["seed"] == 2 and scenario["scale"] == "tiny"
        sim = manifest.config["sim"]
        assert sim["policy"]["policy"] == "always"
        assert sim["policy"]["static_threshold"] == 16

    def test_flag_run_archives_config_alone(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["run", "ra", "--scale", "tiny", "--archive",
                     "--runs", str(runs)]) == 0
        (manifest,) = RunStore(runs).list()
        assert manifest.scenario is None
        assert manifest.config == encode_config(
            SimulationConfig().with_policy(MigrationPolicy.ADAPTIVE))
        assert (manifest.scale, manifest.oversubscription) == ("tiny", 1.25)


class TestSweepConfig:
    def test_sweep_config_renders_table(self, sweep_cfg, capsys):
        assert main(["sweep", "--config", sweep_cfg]) == 0
        out = capsys.readouterr().out
        assert "scenario grid" in out
        assert "runtime (ms)" in out

    def test_config_dir_runs_every_scenario(self, tmp_path, capsys):
        write(tmp_path / "_base.yaml", "scale: tiny\nworkload: ra\n")
        write(tmp_path / "a.yaml", "inherits: _base\n")
        write(tmp_path / "b.yaml",
              "inherits: _base\nmode: multigpu\n"
              "multigpu: {gpus: 2, throttle: 0.75}\n")
        assert main(["sweep", "--config-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario a" in out
        assert "scenario b" in out
        assert "makespan" in out

    def test_config_and_config_dir_mutually_exclusive(self, sweep_cfg,
                                                      tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(["sweep", "--config", sweep_cfg,
                  "--config-dir", str(tmp_path)])

    def test_workload_plus_config_rejected(self, sweep_cfg):
        with pytest.raises(SystemExit, match="not both"):
            main(["sweep", "ra", "--config", sweep_cfg])

    def test_sweep_config_archives_resolved_variants(self, sweep_cfg,
                                                     tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["sweep", "--config", sweep_cfg, "--archive",
                     "--runs", str(runs)]) == 0
        manifests = RunStore(runs).list()
        assert len(manifests) == 2
        variants = set()
        for manifest in manifests:
            assert manifest.scenario == "grid"
            variants.add(manifest.config["scenario"]["policy"]["variant"])
        assert variants == {"disabled", "adaptive"}

    def test_scenario_cells_archive_like_grid_cells(self, tmp_path, capsys):
        """Scenario manifests encode the cell the way the grid archiver
        does: no trace path in the cell identity."""
        cfg = write(tmp_path / "grid.yaml", """\
mode: sweep
workload: ra
scale: tiny
sweep:
  policy.variant: [disabled, adaptive]
""")
        runs = tmp_path / "runs"
        assert main(["sweep", "--config", cfg, "--archive",
                     "--runs", str(runs)]) == 0
        manifests = RunStore(runs).list()
        assert len(manifests) == 2
        for manifest in manifests:
            cell = build_cell(manifest.config["scenario"])
            assert manifest.config["cell"] == encode_cell(cell)
            assert "trace_path" not in manifest.config["cell"]


class TestServeConfig:
    def test_serve_config_executes(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.yaml", """\
mode: serve
scale: tiny
serve:
  tenants: 2
  workload_mix: [ra]
  capacity_mb: 16
""")
        assert main(["serve", "--config", cfg]) == 0
        assert "tenants" in capsys.readouterr().out

    def test_non_serve_config_redirected(self, run_cfg):
        with pytest.raises(SystemExit, match="mode"):
            main(["serve", "--config", run_cfg])

    def test_config_route_matches_flag_route(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.yaml", """\
mode: serve
scale: tiny
seed: 1
serve:
  tenants: 2
  workload_mix: [ra, bfs]
  capacity_mb: 16
""")
        assert main(["serve", "--config", cfg, "--json"]) == 0
        from_config = json.loads(capsys.readouterr().out)
        assert main(["serve", "--scale", "tiny", "--seed", "1",
                     "--tenants", "2", "--mix", "ra,bfs",
                     "--capacity-mb", "16", "--json"]) == 0
        from_flags = json.loads(capsys.readouterr().out)
        assert from_config.pop("scenario") == "s"
        assert from_flags.pop("scenario") is None
        assert from_config == from_flags

    def test_flags_override_serve_config(self, tmp_path, capsys):
        cfg = write(tmp_path / "s.yaml", """\
mode: serve
scale: tiny
serve:
  tenants: 2
  workload_mix: [ra]
  capacity_mb: 16
  scheduler: round_robin
""")
        runs = tmp_path / "runs"
        assert main(["serve", "--config", cfg, "--scheduler", "drr",
                     "--tenants", "3", "--json", "--archive",
                     "--runs", str(runs)]) == 0
        out = capsys.readouterr().out
        result = json.loads(out[:out.rindex("}") + 1])
        assert result["config"]["scheduler"] == "drr"
        assert result["config"]["tenants"] == 3
        (manifest,) = RunStore(runs).list()
        assert manifest.config["scenario"]["serve"]["scheduler"] == "drr"
        assert manifest.config["serve"]["tenants"] == 3


class TestConfigCommand:
    def test_validate_ok(self, run_cfg, capsys):
        assert main(["config", "validate", run_cfg]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_failures(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.yaml", "workload: ra\nbogus: 1\n")
        assert main(["config", "validate", bad]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_directory(self, tmp_path, capsys):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        write(tmp_path / "a.yaml", "inherits: _base\nworkload: ra\n")
        assert main(["config", "validate", str(tmp_path)]) == 0

    def test_show_prints_resolved_json(self, tmp_path, capsys):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        cfg = write(tmp_path / "a.yaml", "inherits: _base\nworkload: ra\n")
        assert main(["config", "show", cfg]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["scale"] == "tiny"
        assert "inherits" not in payload

    def test_shipped_library_validates(self, capsys):
        assert main(["config", "validate", "configs", "configs/smoke",
                     "configs/section8_throttle"]) == 0
