"""Where a result came from: code version, tree state, toolchain and host."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def collect(root: Path) -> dict:
    import numpy
    from repro.accel import HAS_NUMBA, resolve_backend
    from repro.config import SimulationConfig

    commit, dirty = git_state(root)
    return {
        "commit": commit,
        "dirty": dirty,
        # A result from a modified tree cannot be tied to its commit.
        # Outside git (dirty is None) the source digest names the code.
        "comparable": dirty is not True,
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "backend": resolve_backend(SimulationConfig().backend).name,
        "numba": HAS_NUMBA,
    }


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """``(commit, dirty)`` of the checkout at ``root``; Nones outside git."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(root), *args],
                                  capture_output=True, text=True,
                                  timeout=30, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None, None
    status = git("status", "--porcelain")
    return git("rev-parse", "HEAD"), None if status is None else bool(status)


def source_digest(root: Path) -> str:
    """SHA-256 over the simulator's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()
