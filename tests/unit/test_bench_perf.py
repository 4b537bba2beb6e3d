"""``benchmarks/bench_perf.py`` keeps dirty-tree reports out of the history."""

import collections
import importlib.util
import json
import pathlib

import pytest

BENCH_PERF = (pathlib.Path(__file__).resolve().parents[2]
              / "benchmarks" / "bench_perf.py")

SECTIONS = ("backend", "throughput", "sweep_grid", "fast_path", "serve",
            "serve_fused", "telemetry")


@pytest.fixture(scope="module")
def bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf", BENCH_PERF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_report(git) -> dict:
    """A report with every section ``main`` prints (all numbers 0)."""
    report = {name: collections.defaultdict(int) for name in SECTIONS}
    report["git"] = git
    return report


@pytest.mark.parametrize("git, appended", [
    ({"sha": "0" * 40, "dirty": False}, True),
    ({"sha": "0" * 40, "dirty": True}, False),
    (None, True),  # no git provenance (an exported tarball)
], ids=["clean", "dirty", "no-git"])
def test_history_append_follows_the_reports_git_state(
        bench_perf, tmp_path, monkeypatch, capsys, git, appended):
    monkeypatch.setattr(bench_perf, "run", lambda *a, **kw: _fake_report(git))
    out, history = tmp_path / "BENCH_driver.json", tmp_path / "hist.jsonl"
    assert bench_perf.main(["--quick", "--out", str(out),
                            "--history", str(history)]) == 0
    # The snapshot is always written; only the history is guarded.
    assert json.loads(out.read_text())["git"] == git
    rows = history.read_text().splitlines() if history.exists() else []
    assert len(rows) == int(appended)
    assert ("working tree is dirty" in capsys.readouterr().err) \
        is not appended
