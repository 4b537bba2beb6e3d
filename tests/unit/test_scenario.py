"""Unit tests for the scenario-config subsystem (schema/loader/compile)."""

import pytest

from repro.analysis.parallel import GridCell
from repro.config import MigrationPolicy, ServeConfig, SimulationConfig
from repro.scenario import (SCHEMA, ScenarioError, build_cell,
                            build_multigpu_spec, build_serve_config,
                            build_sim_config, check, compile_check,
                            deep_merge, expand, is_base, load_directory,
                            load_scenario, scenario_files, validate)
from repro.scenario import build_slo_config
from repro.scenario.compile import compiled_default as default
from repro.scenario.schema import key_reference, reads, unflatten

yaml = pytest.importorskip("yaml")


def write(path, text):
    path.write_text(text)
    return path


class TestDeepMerge:
    def test_child_scalar_wins(self):
        assert deep_merge({"a": 1}, {"a": 2}) == {"a": 2}

    def test_nested_mappings_merge_key_by_key(self):
        base = {"policy": {"variant": "adaptive", "static_threshold": 8}}
        child = {"policy": {"static_threshold": 16}}
        assert deep_merge(base, child) == {
            "policy": {"variant": "adaptive", "static_threshold": 16}}

    def test_lists_replace_wholesale(self):
        base = {"serve": {"workload_mix": ["ra", "bfs"]}}
        child = {"serve": {"workload_mix": ["sssp"]}}
        merged = deep_merge(base, child)
        assert merged["serve"]["workload_mix"] == ["sssp"]

    def test_explicit_null_overrides(self):
        assert deep_merge({"seed": 3}, {"seed": None}) == {"seed": None}

    def test_inputs_not_mutated(self):
        base = {"policy": {"variant": "adaptive"}}
        child = {"policy": {"variant": "always"}}
        deep_merge(base, child)
        assert base["policy"]["variant"] == "adaptive"


class TestInheritance:
    def test_single_base(self, tmp_path):
        write(tmp_path / "_base.yaml", "scale: tiny\nworkload: ra\n")
        path = write(tmp_path / "child.yaml",
                     "inherits: _base\noversubscription: 1.5\n")
        data = load_scenario(path)
        assert data["scale"] == "tiny"
        assert data["oversubscription"] == 1.5
        assert data["name"] == "child"
        assert "inherits" not in data

    def test_chain_resolves_recursively(self, tmp_path):
        write(tmp_path / "a.yaml", "workload: ra\nseed: 1\n")
        write(tmp_path / "b.yaml", "inherits: a\nscale: tiny\n")
        path = write(tmp_path / "c.yaml", "inherits: b\nseed: 2\n")
        data = load_scenario(path)
        assert data["workload"] == "ra"
        assert data["scale"] == "tiny"
        assert data["seed"] == 2

    def test_multiple_bases_later_wins(self, tmp_path):
        write(tmp_path / "a.yaml", "workload: ra\nscale: tiny\n")
        write(tmp_path / "b.yaml", "scale: small\n")
        path = write(tmp_path / "c.yaml", "inherits: [a, b]\n")
        assert load_scenario(path)["scale"] == "small"

    def test_child_beats_every_base(self, tmp_path):
        write(tmp_path / "a.yaml", "workload: ra\nscale: tiny\n")
        write(tmp_path / "b.yaml", "scale: small\n")
        path = write(tmp_path / "c.yaml",
                     "inherits: [a, b]\nscale: medium\n")
        assert load_scenario(path)["scale"] == "medium"

    def test_cycle_rejected_with_chain(self, tmp_path):
        write(tmp_path / "a.yaml", "inherits: b\n")
        write(tmp_path / "b.yaml", "inherits: a\n")
        with pytest.raises(ScenarioError, match="cycle.*a.yaml"):
            load_scenario(tmp_path / "a.yaml")

    def test_self_cycle_rejected(self, tmp_path):
        path = write(tmp_path / "a.yaml", "inherits: a\n")
        with pytest.raises(ScenarioError, match="cycle"):
            load_scenario(path)

    def test_missing_base_lists_candidates(self, tmp_path):
        path = write(tmp_path / "a.yaml", "inherits: nosuch\n")
        with pytest.raises(ScenarioError, match="cannot find base 'nosuch'"):
            load_scenario(path)

    def test_suffix_optional(self, tmp_path):
        write(tmp_path / "base.yml", "workload: ra\n")
        path = write(tmp_path / "a.yaml", "inherits: base\nscale: tiny\n")
        assert load_scenario(path)["workload"] == "ra"

    def test_bad_inherits_type_rejected(self, tmp_path):
        path = write(tmp_path / "a.yaml", "inherits: {x: 1}\n")
        with pytest.raises(ScenarioError, match="name or list of names"):
            load_scenario(path)


class TestSchema:
    def test_unknown_key_suggested(self):
        errors = check({"name": "x", "workload": "ra", "oversubscripton": 2})
        assert any("oversubscripton" in e and "oversubscription" in e
                   for e in errors)

    def test_retired_keys_are_unknown(self):
        """``shards``, ``backend``, ``serve.batch_waves``,
        ``memory.prefetch_degree``, ``serve.duration_ms``,
        ``serve.throttle_rounds`` and ``serve.throttle_decay`` were
        removed settings: configs still naming them fail with the
        unknown-key error."""
        errors = check({"name": "x", "workload": "ra", "shards": 4,
                        "backend": "python",
                        "memory": {"prefetch_degree": 2},
                        "serve": {"batch_waves": True}})
        errors += check({"name": "y", "mode": "serve",
                         "serve": {"duration_ms": 50.0,
                                   "throttle_rounds": 4,
                                   "throttle_decay": 0.5}})
        for key in ("shards", "backend", "serve.batch_waves",
                    "memory.prefetch_degree", "serve.duration_ms",
                    "serve.throttle_rounds", "serve.throttle_decay"):
            assert any(e.startswith(f"{key}: unknown key")
                       for e in errors), key

    @pytest.mark.parametrize("text, unread", [
        ("mode: run\nworkload: ra\nserve:\n  tenants: 5\n"
         "multigpu:\n  gpus: 4\n", ("serve.tenants", "multigpu.gpus")),
        ("mode: serve\noversubscription: 3.0\n", ("oversubscription",)),
    ], ids=["run-with-serve-and-multigpu", "serve-with-oversub"])
    def test_key_its_mode_never_reads_rejected(self, tmp_path, text,
                                               unread):
        """A key the scenario's mode would silently ignore is an error
        naming the key and the mode."""
        path = write(tmp_path / "s.yaml", text)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        mode = yaml.safe_load(text)["mode"]
        for key in unread:
            assert f"{key}: mode {mode!r} never reads this key" in \
                str(info.value)

    def test_sweep_axis_its_mode_never_reads_rejected(self):
        errors = check({"mode": "sweep", "workload": "ra",
                        "sweep": {"slo.fast_windows": [1, 2],
                                  "seed": [0, 1]}})
        assert errors == ["sweep.slo.fast_windows: mode 'sweep' never "
                          "reads this key (only mode 'serve' does)"]
        errors = check({"mode": "serve",
                        "sweep": {"workload": ["ra", "bfs"]}})
        assert any(e.startswith("sweep.workload: mode 'serve' never")
                   for e in errors)

    def test_wrong_type_reported(self):
        errors = check({"name": "x", "workload": "ra", "seed": "zero"})
        assert any("seed" in e for e in errors)

    def test_bad_choice_reported(self):
        errors = check({"name": "x", "workload": "ra",
                        "policy": {"variant": "sometimes"}})
        assert any("sometimes" in e for e in errors)

    def test_all_errors_collected_at_once(self):
        errors = check({"name": "x", "workload": "nosuch", "seed": "zero",
                        "bogus": 1})
        assert len(errors) >= 3

    def test_workload_required_for_run(self):
        errors = check({"name": "x", "mode": "run"})
        assert any("workload" in e for e in errors)

    def test_serve_needs_no_workload(self):
        assert check({"name": "x", "mode": "serve"}) == []

    def test_sweep_forbidden_in_run_mode(self):
        errors = check({"name": "x", "mode": "run", "workload": "ra",
                        "sweep": {"seed": [0, 1]}})
        assert any("sweep" in e for e in errors)

    def test_non_sweepable_axis_rejected(self):
        errors = check({"name": "x", "mode": "sweep", "workload": "ra",
                        "sweep": {"serve.workload_mix": [["ra"]]}})
        assert any("workload_mix" in e for e in errors)

    def test_validate_raises_with_source(self):
        with pytest.raises(ScenarioError, match="bad.yaml"):
            validate({"name": "x", "bogus": 1}, source="bad.yaml")

    def test_key_reference_covers_schema(self):
        assert [k.path for k in key_reference()] == list(SCHEMA)


class TestExpansion:
    def test_unswept_scenario_is_single_variant(self):
        variants = expand({"name": "s", "workload": "ra"})
        assert len(variants) == 1
        assert variants[0].label == "s"
        assert variants[0].coords == {}

    def test_first_axis_outermost(self):
        variants = expand({"name": "s", "workload": "ra",
                           "mode": "sweep",
                           "sweep": {"policy.variant": ["disabled",
                                                        "adaptive"],
                                     "oversubscription": [1.1, 1.25]}})
        coords = [v.coords for v in variants]
        assert coords == [
            {"policy.variant": "disabled", "oversubscription": 1.1},
            {"policy.variant": "disabled", "oversubscription": 1.25},
            {"policy.variant": "adaptive", "oversubscription": 1.1},
            {"policy.variant": "adaptive", "oversubscription": 1.25},
        ]

    def test_labels_carry_coordinates(self):
        variants = expand({"name": "s", "workload": "ra", "mode": "sweep",
                           "sweep": {"seed": [0, 1]}})
        assert [v.label for v in variants] == ["s[seed=0]", "s[seed=1]"]

    def test_expansion_deterministic(self):
        scenario = {"name": "s", "workload": "ra", "mode": "sweep",
                    "sweep": {"seed": [0, 1], "oversubscription": [1.1]}}
        assert expand(scenario) == expand(scenario)

    def test_sweep_key_removed_from_variant_data(self):
        variants = expand({"name": "s", "workload": "ra", "mode": "sweep",
                           "sweep": {"seed": [0]}})
        assert "sweep" not in variants[0].data
        assert variants[0].data["seed"] == 0


class TestCompile:
    def test_omitted_keys_build_default_cell(self):
        cell = build_cell({"name": "s", "workload": "ra"})
        assert cell == GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25)

    def test_yaml_ints_coerced_to_cell_floats(self):
        cell = build_cell({"name": "s", "workload": "ra",
                           "oversubscription": 1})
        assert cell.oversubscription == 1.0
        assert isinstance(cell.oversubscription, float)

    def test_missing_workload_raises(self):
        with pytest.raises(ScenarioError, match="workload is unset"):
            build_cell({"name": "s"})

    def test_serve_defaults(self):
        cfg = build_serve_config({"name": "s", "mode": "serve"})
        assert cfg == ServeConfig().validate()

    def test_serve_overrides_and_mix_tuple(self):
        cfg = build_serve_config({"name": "s", "mode": "serve", "seed": 7,
                                  "serve": {"tenants": 3,
                                            "workload_mix": ["ra", "bfs"]}})
        assert cfg.tenants == 3
        assert cfg.workload_mix == ("ra", "bfs")
        assert cfg.seed == 7

    def test_serve_live_keys_flow_through(self):
        cfg = build_serve_config(
            {"name": "s", "mode": "serve",
             "serve": {"live_admission": True,
                       "live_thrash_threshold": 0.1, "window_ms": 2.0}})
        assert cfg.live_admission
        assert cfg.live_thrash_threshold == 0.1
        assert cfg.window_ms == 2.0

    def test_slo_section_validates(self):
        from repro.scenario import check
        assert check({"name": "s", "mode": "serve",
                      "slo": {"p99_latency_us": 300.0,
                              "max_shed_rate": 0.1}}) == []
        errors = check({"name": "s", "mode": "serve",
                        "slo": {"p99_latencyus": 300.0}})
        assert any("p99_latency" in e for e in errors)

    def test_build_slo_config(self):
        from repro.scenario import build_slo_config
        slo = build_slo_config(
            {"name": "s", "mode": "serve",
             "slo": {"p99_latency_us": 300.0, "latency_attainment": 0.9,
                     "fast_windows": 2, "slow_windows": 6}})
        assert slo is not None and slo.enabled
        assert slo.p99_latency_us == 300.0
        assert slo.latency_attainment == 0.9
        assert (slo.fast_windows, slo.slow_windows) == (2, 6)

    def test_build_slo_config_none_without_objectives(self):
        from repro.scenario import build_slo_config
        assert build_slo_config({"name": "s", "mode": "serve"}) is None
        # Tuning knobs alone (no objective) also stay inert.
        assert build_slo_config({"name": "s", "mode": "serve",
                                 "slo": {"fast_windows": 2}}) is None

    def test_build_slo_config_rejects_invalid(self):
        from repro.scenario import build_slo_config
        with pytest.raises(ValueError):
            build_slo_config({"name": "s", "mode": "serve",
                              "slo": {"p99_latency_us": -1.0}})

    def test_sim_config_matches_hand_built(self):
        data = {"name": "s", "workload": "ra",
                "policy": {"variant": "always", "static_threshold": 16}}
        cfg = build_sim_config(data)
        expected = SimulationConfig(seed=0).with_policy(
            MigrationPolicy.ALWAYS, static_threshold=16,
            migration_penalty=8).validate()
        assert cfg == expected

    def test_multigpu_spec(self):
        spec = build_multigpu_spec({"name": "s", "workload": "ra",
                                    "mode": "multigpu",
                                    "multigpu": {"gpus": 4,
                                                 "partition": "span",
                                                 "throttle": 0.5}})
        assert (spec.gpus, spec.partition, spec.throttle) == (4, "span", 0.5)

    def test_compile_check_reports_variant_label(self):
        scenario = {"name": "s", "mode": "multigpu", "workload": "ra",
                    "sweep": {"multigpu.throttle": [0.5, 0.0]}}
        with pytest.raises(ScenarioError, match=r"s\[multigpu.throttle=0.0\]"):
            compile_check(scenario)


class TestDocumentedDefaults:
    """The default a key documents is the one its omission compiles to.

    ``compiled_default`` reads it from the dataclass field the key sets;
    spelling every documented default out must build the same artifacts
    as leaving every key out, in every mode.
    """

    BUILDERS = {
        "run": (build_cell, build_sim_config),
        "sweep": (build_cell, build_sim_config),
        "serve": (build_serve_config, build_sim_config, build_slo_config),
        "multigpu": (build_multigpu_spec,),
    }

    @pytest.mark.parametrize("mode", list(BUILDERS))
    def test_empty_scenario_compiles_to_documented_defaults(self, mode):
        empty = {"mode": mode}
        if mode != "serve":
            empty["workload"] = "ra"
        documented = {path: default(path, mode) for path in SCHEMA
                      if reads(mode, path)
                      and default(path, mode) is not None}
        spelled = deep_merge(unflatten(documented), empty)
        assert check(spelled) == []
        for build in self.BUILDERS[mode]:
            assert build(spelled) == build(empty), build.__name__

    def test_serve_documents_its_own_scale(self):
        assert default("scale") == "small"
        assert default("scale", "multigpu") == "small"
        assert default("scale", "serve") == "tiny"
        assert build_serve_config({"mode": "serve"}).scale == "tiny"

    def test_every_knob_sets_a_field(self):
        """A key whose leaf names no field would validate and then be
        dropped by the compiler; only the structural keys set none."""
        from repro.scenario import compile as compiler
        targets = {**compiler._CELL, **compiler._SERVE, **compiler._SLO,
                   **compiler._MULTIGPU}
        assert set(SCHEMA) - set(targets) == {
            "name", "description", "inherits", "mode", "sweep"}

    def test_unset_defaults_say_what_omission_means(self):
        """A knob that compiles to no default says in its help what
        leaving it out means (``workload`` is required instead)."""
        for path, key in SCHEMA.items():
            if (key.cell or "." in path) and path != "workload" \
                    and default(path) is None:
                assert "omit" in key.help, path


class TestDirectory:
    def test_bases_skipped_and_sorted(self, tmp_path):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        write(tmp_path / "b.yaml", "inherits: _base\nworkload: ra\n")
        write(tmp_path / "a.yaml", "workload: bfs\n")
        files = scenario_files(tmp_path)
        assert [f.name for f in files] == ["a.yaml", "b.yaml"]
        assert is_base(tmp_path / "_base.yaml")

    def test_empty_directory_rejected(self, tmp_path):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        with pytest.raises(ScenarioError, match="no scenario files"):
            scenario_files(tmp_path)

    def test_load_directory_resolves_against_root(self, tmp_path):
        write(tmp_path / "_base.yaml", "scale: tiny\n")
        write(tmp_path / "a.yaml", "inherits: _base\nworkload: ra\n")
        (data,) = load_directory(tmp_path)
        assert data["scale"] == "tiny"


class TestShippedConfigs:
    """Every scenario in configs/ resolves, validates, and compiles."""

    def configs_root(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[2] / "configs"
        assert root.is_dir(), "configs/ library missing"
        return root

    def all_scenario_paths(self):
        root = self.configs_root()
        dirs = [root] + sorted(d for d in root.iterdir() if d.is_dir())
        return [(d, p) for d in dirs for p in scenario_files(d)]

    def test_library_is_nonempty(self):
        assert len(self.all_scenario_paths()) >= 10

    def test_every_scenario_compiles(self):
        for root, path in self.all_scenario_paths():
            scenario = load_scenario(path, root=root)
            labels = compile_check(scenario)
            assert labels, path

    def test_section8_throttle_sweep_covers_knob(self):
        root = self.configs_root() / "section8_throttle"
        scenario = load_scenario(root / "throttle_sweep.yaml", root=root)
        assert scenario["mode"] == "multigpu"
        assert "multigpu.throttle" in scenario["sweep"]
        assert len(compile_check(scenario)) == 9
