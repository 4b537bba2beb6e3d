"""Unit tests for the ``repro.accel`` backend subsystem.

Covers backend resolution (including the no-numba fallback warning and
its once-per-process guard), JIT pre-warming, config validation of the
backend knob, and how the backend is surfaced in run metadata,
checkpoint identity and the regression fingerprint.
"""

import time

import pytest

import repro.accel as accel
from repro.accel import Backend, resolve_backend
from repro.analysis.checkpoint import cell_key
from repro.analysis.parallel import GridCell
from repro.config import (
    KNOWN_BACKENDS,
    MigrationPolicy,
    SimulationConfig,
    default_backend,
)
from repro.obs import events
from repro.obs.inspect import summarize
from repro.obs.regress import fingerprint
from repro.sim.simulator import Simulator
from repro.workloads import make_workload

from tests.conftest import make_vas


@pytest.fixture
def fresh_warning_state(monkeypatch):
    """Reset the once-per-process-tree fallback-warning guard."""
    monkeypatch.setattr(accel, "_warned", False)
    monkeypatch.delenv("_REPRO_ACCEL_WARNED", raising=False)
    monkeypatch.setattr(accel, "FORCE_INTERPRETED", False)


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------

def test_python_backend_resolves_to_reference_kernels():
    b = resolve_backend("python")
    assert b == Backend("python", "python", accel.kernels)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("fortran")


def test_numba_request_without_numba_warns_once(capsys,
                                                fresh_warning_state):
    if accel.HAS_NUMBA:
        pytest.skip("numba installed: fallback path unreachable")
    b = resolve_backend("numba")
    assert b.name == "python" and b.requested == "numba"
    assert b.kernels is accel.kernels
    err = capsys.readouterr().err
    assert err.count("falling back to the pure-python backend") == 1
    # Second resolution (and any child process via the env guard) is
    # silent: the warning fires once per process tree.
    resolve_backend("numba")
    assert capsys.readouterr().err == ""


def test_forced_interpretation_resolves_numba(monkeypatch):
    monkeypatch.setattr(accel, "FORCE_INTERPRETED", True)
    b = resolve_backend("numba")
    assert b.name == "numba" and b.kernels is accel.jit


def test_warm_jit_idempotent(monkeypatch):
    monkeypatch.setattr(accel, "FORCE_INTERPRETED", True)
    monkeypatch.setattr(accel, "_warmed", False)
    accel.warm_jit()
    accel.warm_jit()  # second call is a no-op, not a recompile


def test_first_and_second_cell_walltimes_comparable():
    """Pre-warming keeps first-cell latency in family with the second.

    With a JIT backend the first driver construction triggers
    ``warm_jit``; compilation must not land inside the first cell's
    simulation.  The bound is deliberately loose -- it only catches a
    first cell paying a multi-second compile the second one skips.
    """
    def cell_seconds() -> float:
        t0 = time.perf_counter()
        cfg = SimulationConfig(seed=1).with_policy(MigrationPolicy.ADAPTIVE)
        Simulator(cfg).run(make_workload("ra", "tiny"),
                           oversubscription=1.25)
        return time.perf_counter() - t0

    first, second = cell_seconds(), cell_seconds()
    assert first < 20 * second + 0.5


def test_driver_exposes_backend():
    cfg = SimulationConfig(backend="python").with_policy(
        MigrationPolicy.ADAPTIVE)
    from repro.uvm.driver import UvmDriver
    drv = UvmDriver(make_vas(8, 4, 16), cfg)
    assert drv.backend_name == "python"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        SimulationConfig(backend="fortran").validate()
    SimulationConfig(backend="numba").validate()


def test_default_backend_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend() == "python"
    monkeypatch.setenv("REPRO_BACKEND", "NUMBA")
    assert default_backend() == "numba"
    assert SimulationConfig().backend == "numba"
    assert "numba" in KNOWN_BACKENDS


# ---------------------------------------------------------------------------
# metadata surfaces: run archive, checkpoint identity, regression gate
# ---------------------------------------------------------------------------

def test_run_meta_records_backend_with_defaults():
    meta = events.RunMeta(workload="ra", policy="adaptive", seed=1,
                          total_blocks=8, capacity_blocks=4,
                          allocations=(), backend="numba")
    row = meta.as_dict()
    back = events.from_dict(row)
    assert back.backend == "numba"
    # Logs archived before the field existed decode to the default.
    row.pop("backend")
    old = events.from_dict(row)
    assert old.backend == "python"


def test_inspect_summary_names_backend(tmp_path):
    from repro.obs import Observability
    log = tmp_path / "events.jsonl"
    obs = Observability.create(events_path=str(log))
    cfg = SimulationConfig(seed=2, backend="python").with_policy(
        MigrationPolicy.ADAPTIVE)
    Simulator(cfg).run(make_workload("ra", "tiny"),
                       oversubscription=1.25, obs=obs)
    obs.close()
    from repro.obs.inspect import render_summary
    text = render_summary(summarize(str(log)))
    assert "backend python" in text


def test_cell_key_ignores_backend():
    base = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny")
    hinted = GridCell("ra", MigrationPolicy.ADAPTIVE, 1.25, "tiny",
                      backend="numba")
    assert cell_key(hinted) == cell_key(base)


def test_fingerprint_tracks_active_backend():
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
