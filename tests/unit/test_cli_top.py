"""Unit tests for the ``repro top`` dashboard."""

import gzip
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.obs.events import (
    AlertFired,
    RunMeta,
    SloAttainment,
    SloViolation,
    TelemetryWindow,
    TenantArrival,
    TenantComplete,
)
from repro.obs.live.top import render_top, run_top
from repro.obs.inspect import summarize


def write_log(path, events):
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev.as_dict()) + "\n")


@pytest.fixture
def serve_log(tmp_path):
    """A small synthetic serve log with live-telemetry events."""
    path = tmp_path / "serve.jsonl"
    write_log(path, [
        RunMeta(workload="serve:ra+bfs", policy="adaptive", seed=7,
                total_blocks=512, capacity_blocks=256, allocations=()),
        TenantArrival(tenant=0, workload="ra", at_us=0.0,
                      footprint_mb=16.0),
        TenantArrival(tenant=1, workload="bfs", at_us=10.0,
                      footprint_mb=10.0),
        TelemetryWindow(tenant=0, start_us=0.0, window_us=5000.0,
                        waves=8, accesses=4096, mean_latency_us=120.0,
                        max_latency_us=410.0, bad_waves=2,
                        ewma_latency_us=130.5, thrash_rate=0.75),
        SloViolation(tenant=0, at_us=5000.0, objective="p99_latency",
                     burn_fast=4.0, burn_slow=2.5, value=410.0,
                     target=300.0),
        SloViolation(tenant=-1, at_us=6000.0, objective="shed_rate",
                     burn_fast=8.0, burn_slow=3.0, value=0.5,
                     target=0.1),
        AlertFired(name="thrash_pressure", at_us=6000.0, tenant=-1,
                   metric="serve.thrash_per_wave", value=0.9,
                   threshold=0.25, state="firing"),
        SloAttainment(tenant=0, at_us=9000.0, objective="p99_latency",
                      attainment=0.75, target=0.95, met=False),
        TenantComplete(tenant=0, at_us=9000.0, waves=8, freed_blocks=256,
                       writeback_blocks=10, p99_wave_latency_us=410.0),
        SloAttainment(tenant=-1, at_us=9500.0, objective="shed_rate",
                      attainment=0.5, target=0.9, met=False),
    ])
    return path


class TestRenderTop:
    def test_frame_contents(self, serve_log):
        frame = render_top(summarize(serve_log), str(serve_log))
        assert "repro top" in frame and "seed 7" in frame
        assert "windows: 1" in frame
        assert "violations: 2" in frame
        assert "alerts: 1" in frame
        assert "thrash_pressurex1" in frame
        assert "0.750 MISS" in frame          # tenant 0's SLO verdict
        assert "130.5" in frame               # EWMA latency column
        assert "service shed_rate: 0.500 (MISSED)" in frame

    def test_frame_is_a_pure_function_of_the_log(self, serve_log):
        a = render_top(summarize(serve_log), str(serve_log))
        b = render_top(summarize(serve_log), str(serve_log))
        assert a == b

    def test_empty_log_renders(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        frame = render_top(summarize(path), str(path))
        assert "no tenant events yet" in frame


class TestRunTop:
    def test_one_shot(self, serve_log):
        out = io.StringIO()
        assert run_top(serve_log, out=out) == 0
        assert "repro top" in out.getvalue()

    def test_rejects_gzip_logs(self, tmp_path, capsys):
        path = tmp_path / "serve.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("{}\n")
        assert run_top(path) == 2
        assert "cannot tail" in capsys.readouterr().err

    def test_follow_bounded_frames(self, serve_log):
        out = io.StringIO()
        rc = run_top(serve_log, follow=True, interval=0.0, frames=3,
                     out=out)
        assert rc == 0
        assert out.getvalue().count("repro top") == 3

    def test_follow_stops_when_log_stops_growing(self, serve_log):
        out = io.StringIO()
        rc = run_top(serve_log, follow=True, interval=0.0, out=out)
        assert rc == 0
        # First frame, then one confirming frame with no growth.
        assert out.getvalue().count("repro top") == 2


class TestCliDispatch:
    def test_parser(self, serve_log):
        args = build_parser().parse_args(
            ["top", str(serve_log), "--follow", "--interval", "0.1",
             "--frames", "2"])
        assert args.follow and args.interval == 0.1 and args.frames == 2

    def test_main_one_shot(self, serve_log, capsys):
        assert main(["top", str(serve_log)]) == 0
        assert "repro top" in capsys.readouterr().out

    def test_main_gz_exit_code(self, tmp_path, capsys):
        path = tmp_path / "x.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("{}\n")
        assert main(["top", str(path)]) == 2
