"""Bit-identity of config-driven experiments vs. flag-driven ones.

The scenario compiler's contract: a YAML scenario that sets a knob
builds *the same* :class:`GridCell` (same dataclass value, same
``cell_key``) as the hand-built cell, and a scenario that omits a knob
leaves the cell at its default.  Because ``run_cell`` is a pure
function of the cell, equality of cells gives bit-identical results --
including through checkpoint journals, which key on ``cell_key``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.checkpoint import cell_key, encode_result
from repro.analysis.parallel import GridCell, GridOptions, run_cell, run_grid
from repro.analysis.sweeps import oversubscription_sweep
from repro.config import MigrationPolicy
from repro.scenario import build_cell, expand, load_directory

yaml = pytest.importorskip("yaml")

POLICIES = ["disabled", "always", "oversub", "adaptive"]


@st.composite
def scenario_and_cell(draw):
    """A scenario dict and the GridCell its knobs describe, built by hand.

    Each knob is included with 50% probability, so the omitted-key
    default path is exercised as heavily as the explicit one.
    """
    data = {"name": "s", "workload": draw(st.sampled_from(["ra", "bfs"]))}
    kwargs = {"workload": data["workload"],
              "policy": MigrationPolicy.ADAPTIVE,
              "oversubscription": 1.25}

    def maybe(section, key, cell_field, value):
        if draw(st.booleans()):
            if section:
                data.setdefault(section, {})[key] = value
            else:
                data[key] = value
            kwargs[cell_field] = value

    maybe(None, "scale", "scale", draw(st.sampled_from(["tiny", "small"])))
    maybe(None, "oversubscription", "oversubscription",
          draw(st.sampled_from([0.8, 1.1, 1.25, 1.5])))
    maybe(None, "seed", "seed", draw(st.integers(0, 3)))
    policy = draw(st.sampled_from(POLICIES))
    if draw(st.booleans()):
        data.setdefault("policy", {})["variant"] = policy
        kwargs["policy"] = MigrationPolicy(policy)
    maybe("policy", "static_threshold", "ts",
          draw(st.sampled_from([8, 16, 32])))
    maybe("policy", "migration_penalty", "p",
          draw(st.sampled_from([2, 4, 8])))
    maybe("policy", "threshold_variant", "threshold_variant",
          draw(st.sampled_from(["multiplicative", "linear"])))
    maybe("policy", "historic_counters", "historic_counters",
          draw(st.booleans()))
    maybe("memory", "eviction", "evict", draw(st.sampled_from(["2mb",
                                                               "64kb"])))
    maybe("memory", "prefetcher", "prefetcher",
          draw(st.sampled_from(["tree", "none", "sequential"])))
    maybe("faults", "transfer_rate", "transfer_fault_rate",
          draw(st.sampled_from([0.0, 0.01, 0.05])))
    maybe("faults", "max_retries", "fault_retries",
          draw(st.integers(1, 4)))
    maybe("faults", "burst_on", "fault_burst_on",
          draw(st.sampled_from([0.0, 0.05])))
    expected = GridCell(**kwargs)
    return data, expected


class TestCellEquivalence:
    @given(scenario_and_cell())
    @settings(max_examples=200, deadline=None)
    def test_config_cell_equals_hand_built(self, pair):
        data, expected = pair
        cell = build_cell(data)
        assert cell == expected
        assert cell_key(cell) == cell_key(expected)

    @given(scenario_and_cell())
    @settings(max_examples=50, deadline=None)
    def test_yaml_round_trip_preserves_the_cell(self, pair):
        data, expected = pair
        round_tripped = yaml.safe_load(yaml.safe_dump(data))
        assert build_cell(round_tripped) == expected


class TestSweepEquivalence:
    """A config sweep enumerates the oversubscription_sweep cell order."""

    LEVELS = (1.1, 1.25)
    POLS = (MigrationPolicy.DISABLED, MigrationPolicy.ADAPTIVE)

    def config_cells(self):
        scenario = {
            "name": "curve", "mode": "sweep", "workload": "ra",
            "scale": "tiny",
            "sweep": {
                "policy.variant": [p.value for p in self.POLS],
                "oversubscription": list(self.LEVELS),
            },
        }
        return [build_cell(v.data) for v in expand(scenario)]

    def hand_cells(self):
        return [GridCell("ra", pol, level, "tiny")
                for pol in self.POLS for level in self.LEVELS]

    def test_cells_identical_in_value_and_order(self):
        assert self.config_cells() == self.hand_cells()

    def test_results_bit_identical_to_sweep_helper(self):
        sweep = oversubscription_sweep("ra", policies=self.POLS,
                                       levels=self.LEVELS, scale="tiny")
        flag_results = [r for pol in self.POLS
                        for r in sweep.runs[pol.value]]
        config_results = run_grid(self.config_cells())
        assert ([encode_result(r) for r in config_results]
                == [encode_result(r) for r in flag_results])

    def test_checkpoint_resume_across_routes(self, tmp_path):
        """A journal written by the flag route resumes the config route."""
        journal = tmp_path / "grid.jsonl"
        first = run_grid(self.hand_cells(),
                         options=GridOptions(checkpoint=str(journal)))
        resumed = run_grid(self.config_cells(),
                           options=GridOptions(checkpoint=str(journal),
                                               resume=True))
        assert ([encode_result(r) for r in resumed]
                == [encode_result(r) for r in first])
        # Nothing was re-simulated: the journal did not grow.
        lines = journal.read_text().strip().splitlines()
        assert len(lines) == len(self.hand_cells())


class TestDirectoryEquivalence:
    """config-dir execution ≡ hand-built cells through run_grid."""

    def test_directory_grid_matches_hand_built(self, tmp_path):
        (tmp_path / "_base.yaml").write_text(
            "scale: tiny\nworkload: ra\n")
        (tmp_path / "curve.yaml").write_text(
            "inherits: _base\nmode: sweep\n"
            "sweep:\n  oversubscription: [1.1, 1.25]\n")
        (scenario,) = load_directory(tmp_path)
        cells = [build_cell(v.data) for v in expand(scenario)]
        expected = [GridCell("ra", MigrationPolicy.ADAPTIVE, level, "tiny")
                    for level in (1.1, 1.25)]
        assert cells == expected
        assert ([encode_result(run_cell(c)) for c in cells]
                == [encode_result(run_cell(c)) for c in expected])
