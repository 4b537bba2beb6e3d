"""Unit tests for the perf-regression gate (repro.obs.regress)."""

import json

import pytest

from repro.obs.regress import (
    GATED_METRICS,
    append_history,
    check_regression,
    fingerprint,
    load_history,
    lookup,
)


def _report(aps=1000.0, cpu=1.0, scale="small", machine="x86_64",
            cpus=4) -> dict:
    return {
        "schema_version": 2,
        "host": {"python": "3.11", "machine": machine, "cpus": cpus},
        "throughput": {"scale": scale, "accesses_per_second": aps},
        "sweep_grid": {"serial_cpu_seconds": cpu},
    }


class TestHelpers:
    def test_lookup_dotted_paths(self):
        r = _report(aps=42.0)
        assert lookup(r, "throughput.accesses_per_second") == 42.0
        assert lookup(r, "throughput.nope") is None
        assert lookup(r, "nope.deeper") is None

    def test_fingerprint_separates_hosts_and_scales(self):
        assert fingerprint(_report()) == fingerprint(_report())
        assert fingerprint(_report(scale="tiny")) != fingerprint(_report())
        assert fingerprint(_report(cpus=8)) != fingerprint(_report())

    def test_fingerprint_tracks_active_backend(self):
        """The frozen history still carries backend sections: a report
        without one (every report since the compiled backend went) is
        ``python``, and a compiled row never baselines it."""
        report = {"host": {"cpu": "x", "cores": 8},
                  "python": "3.11", "numpy": "2.0",
                  "backend": {"requested": "numba", "active": "python",
                              "numba": None}}
        legacy = {"host": {"cpu": "x", "cores": 8},
                  "python": "3.11", "numpy": "2.0"}
        assert fingerprint(report)[-1] == "python"
        assert fingerprint(legacy)[-1] == "python"
        report["backend"]["active"] = "numba"
        assert fingerprint(report)[-1] == "numba"

    def test_history_round_trip_skips_torn_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, _report(aps=1.0))
        append_history(path, _report(aps=2.0))
        with open(path, "a") as fh:
            fh.write('{"torn": ')  # simulated crash mid-write
        entries = load_history(path)
        assert [lookup(e, "throughput.accesses_per_second")
                for e in entries] == [1.0, 2.0]


class TestCheckRegression:
    def test_tolerance_boundary(self):
        history = [_report(aps=1000.0)]
        just_inside = check_regression(
            history, candidate=_report(aps=801.0), tolerance=0.20)
        just_outside = check_regression(
            history, candidate=_report(aps=799.0), tolerance=0.20)
        assert just_inside.ok
        assert not just_outside.ok

    def test_twenty_percent_throughput_drop_fails(self):
        history = [_report(aps=1000.0) for _ in range(3)]
        report = check_regression(history, candidate=_report(aps=780.0))
        assert not report.ok
        assert [f.metric for f in report.regressions] == \
            ["throughput.accesses_per_second"]
        assert "FAIL" in report.render()

    def test_direction_awareness(self):
        history = [_report(cpu=1.0)]
        slower = check_regression(history, candidate=_report(cpu=1.5))
        faster = check_regression(history, candidate=_report(cpu=0.5))
        assert not slower.ok
        assert faster.ok
        by_name = {f.metric: f for f in faster.findings}
        assert by_name["sweep_grid.serial_cpu_seconds"].status == "improved"

    def test_median_baseline_shrugs_off_one_outlier(self):
        history = [_report(aps=1000.0), _report(aps=1000.0),
                   _report(aps=10.0), _report(aps=1000.0)]
        report = check_regression(history, candidate=_report(aps=950.0))
        assert report.ok

    def test_window_bounds_the_baseline(self):
        history = [_report(aps=10_000.0)] + \
            [_report(aps=1000.0) for _ in range(5)]
        report = check_regression(history, candidate=_report(aps=950.0),
                                  window=5)
        assert report.ok and report.baseline_points == 5

    def test_newest_entry_is_the_default_candidate(self):
        history = [_report(aps=1000.0), _report(aps=700.0)]
        assert not check_regression(history).ok
        # the candidate itself must not sit in its own baseline
        assert check_regression([_report(aps=700.0)]).ok

    def test_incomparable_history_is_skipped(self):
        history = [_report(aps=1000.0, scale="small")]
        report = check_regression(history,
                                  candidate=_report(aps=1.0, scale="tiny"))
        assert report.ok
        assert all(f.status == "skipped" for f in report.findings)
        assert "skipped" in report.render()

    def test_empty_history_passes_with_candidate(self):
        report = check_regression([], candidate=_report())
        assert report.ok and report.baseline_points == 0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="empty history"):
            check_regression([])
        with pytest.raises(ValueError, match="window"):
            check_regression([_report()], window=0)
        with pytest.raises(ValueError, match="tolerance"):
            check_regression([_report()], tolerance=0.0)

    def test_as_dict_is_json_serializable(self):
        report = check_regression([_report()], candidate=_report())
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert len(payload["findings"]) == len(GATED_METRICS)


class TestCheckRegressionCli:
    @pytest.fixture()
    def tool(self):
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).resolve().parents[2]
                / "tools" / "check_regression.py")
        spec = importlib.util.spec_from_file_location("check_regression",
                                                      path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_pass_and_fail_exit_codes(self, tool, tmp_path):
        history = tmp_path / "h.jsonl"
        append_history(history, _report(aps=1000.0))
        append_history(history, _report(aps=990.0))
        assert tool.main(["--history", str(history)]) == 0

        append_history(history, _report(aps=100.0))
        assert tool.main(["--history", str(history)]) == 1

    def test_candidate_flag(self, tool, tmp_path):
        history = tmp_path / "h.jsonl"
        append_history(history, _report(aps=1000.0))
        cand = tmp_path / "c.json"
        cand.write_text(json.dumps(_report(aps=500.0)))
        assert tool.main(["--history", str(history),
                          "--candidate", str(cand)]) == 1
        assert tool.main(["--history", str(history),
                          "--candidate", str(cand),
                          "--tolerance", "0.6"]) == 0

    def test_json_output(self, tool, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        append_history(history, _report())
        assert tool.main(["--history", str(history), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_usage_errors_exit_2(self, tool, tmp_path):
        assert tool.main(["--history", str(tmp_path / "missing.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert tool.main(["--history", str(empty)]) == 2
