"""Content-addressed run archive: ``.repro/runs/<run_id>/``.

A single run's observability artifacts (``--events``, ``--metrics``)
answer "what happened in *this* run"; the paper's claims are
comparative, so the archive makes runs durable and addressable:
``repro run --archive`` persists a manifest (config hash, git SHA,
seed, workload, oversubscription, host), the final
:class:`~repro.sim.results.RunResult`, a metrics snapshot, and a
gzip-compressed event log, all under a **content-addressed** run id --
the id is a hash of what the run *is* (workload, config, seed, commit),
so re-running the same experiment lands in the same slot instead of
accumulating duplicates, and two archived ids are comparable by
construction (``repro diff``).

Layout of one archived run::

    .repro/runs/<run_id>/
        manifest.json     # written last: presence marks a committed run
        result.json       # checkpoint-codec RunResult (bit-exact floats)
        metrics.json      # MetricsRegistry snapshot (optional)
        events.jsonl.gz   # structured event log (optional)

Grid sweeps archive each cell as a ``grid-cell`` run sharing a
``sweep_id`` (itself content-addressed from the cell set), so a whole
figure's grid is one queryable family.  :class:`RunStore` builds the
manifest of every run kind (``run``, ``grid-cell``, ``serve``,
``multigpu``), reading git and host provenance once per store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass

from ..analysis.checkpoint import (decode_result, encode_cell,
                                   encode_config, encode_result)
from ..sim.results import RunResult

#: Archive root when neither the CLI ``--runs`` flag nor the
#: ``REPRO_RUNS_DIR`` environment variable names one.
DEFAULT_ROOT = os.path.join(".repro", "runs")

#: Hex digits kept of the sha256 identity digest (48 bits: ample for
#: the thousands of runs a repository realistically archives).
_ID_LEN = 12


def _digest(payload) -> str:
    """Short hex digest of a canonical-JSON encoding of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:_ID_LEN]


def config_fingerprint(config: dict) -> str:
    """Content hash of a JSON-encoded simulation config (or cell spec)."""
    return _digest(config)


def git_info(cwd=None) -> dict | None:
    """``{"sha": ..., "dirty": ...}`` of the enclosing git checkout.

    Returns ``None`` when git is unavailable or ``cwd`` is not a
    repository -- archives stay usable from exported tarballs.
    """
    def _git(*argv):
        return subprocess.run(
            ("git",) + argv, cwd=cwd, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()

    try:
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None
    return {"sha": sha, "dirty": dirty}


def host_info() -> dict:
    """The host fingerprint stored in manifests and bench history."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


@dataclass(frozen=True)
class RunManifest:
    """What an archived run *is*: identity plus provenance.

    The identity fields (everything except ``created``, ``host`` and
    the git ``dirty`` flag) determine :attr:`run_id`; provenance fields
    record when/where without perturbing the address.
    """

    run_id: str
    #: ``"run"`` (a ``repro run``/``trace replay``) or ``"grid-cell"``
    #: (one cell of an archived figure/sweep grid).
    kind: str
    workload: str
    policy: str
    scale: str
    seed: int
    oversubscription: float | None
    #: Short hash of :attr:`config` (indexable without the full dict).
    config_hash: str
    #: Full JSON-encoded :class:`~repro.config.SimulationConfig` (for
    #: ``kind="run"``) or the grid-cell spec (for ``kind="grid-cell"``).
    config: dict
    git: dict | None
    host: dict
    #: Unix timestamp of archiving (provenance; not part of the id).
    created: float
    #: Shared id grouping the cells of one archived grid.
    sweep_id: str | None = None
    #: Name of the scenario config the run was compiled from
    #: (``repro run --config`` / ``repro sweep --config-dir``), or
    #: ``None`` for flag-driven runs.  Part of the identity when set,
    #: so the same cell archived via a scenario and via flags occupies
    #: distinct slots (their ``config`` payloads differ anyway: the
    #: scenario one embeds the resolved YAML).
    scenario: str | None = None

    @classmethod
    def create(cls, kind: str, workload: str, policy: str, scale: str,
               seed: int, oversubscription: float | None, config: dict,
               git: dict | None = None, host: dict | None = None,
               sweep_id: str | None = None,
               scenario: str | None = None) -> "RunManifest":
        """Build a manifest, deriving ``run_id`` from the content."""
        identity = {
            "kind": kind,
            "workload": workload,
            "policy": policy,
            "scale": scale,
            "seed": seed,
            "oversubscription": oversubscription,
            "config": config,
            "sweep_id": sweep_id,
            "git_sha": git["sha"] if git else None,
        }
        if scenario is not None:
            # Only when set, so pre-existing flag-driven archives keep
            # their content addresses.
            identity["scenario"] = scenario
        return cls(run_id=_digest(identity), kind=kind, workload=workload,
                   policy=policy, scale=scale, seed=seed,
                   oversubscription=oversubscription,
                   config_hash=config_fingerprint(config), config=config,
                   git=git, host=host if host is not None else host_info(),
                   created=time.time(), sweep_id=sweep_id,
                   scenario=scenario)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True)
class ArchivedRun:
    """One loaded archive entry: manifest, result, optional artifacts."""

    manifest: RunManifest
    result: RunResult
    metrics: dict | None = None
    #: Path of the archived event log, or ``None`` if none was kept.
    events_path: str | None = None

    @property
    def run_id(self) -> str:
        return self.manifest.run_id


class RunWriter:
    """An open (uncommitted) archive slot for a run about to execute.

    Created *before* the simulation starts so the event log can stream
    straight into the archive directory (:attr:`events_path`); the
    manifest is written only by :meth:`commit`, so a crashed run leaves
    an uncommitted directory the store ignores and a re-run overwrites.
    """

    def __init__(self, store: "RunStore", manifest: RunManifest) -> None:
        self.store = store
        self.manifest = manifest
        self.dir = store.run_dir(manifest.run_id)
        os.makedirs(self.dir, exist_ok=True)
        # A re-archive of the same content-address must not inherit a
        # previous incarnation's artifacts.
        for name in ("manifest.json", "result.json", "metrics.json",
                     "events.jsonl.gz"):
            try:
                os.remove(os.path.join(self.dir, name))
            except FileNotFoundError:
                pass

    @property
    def events_path(self) -> str:
        """Where the run's event log belongs (gzip-compressed JSONL)."""
        return os.path.join(self.dir, "events.jsonl.gz")

    def commit(self, result: RunResult, metrics: dict | None = None) -> str:
        """Persist the finished run; returns its run id."""
        return self.commit_dict(encode_result(result), metrics=metrics)

    def commit_dict(self, result: dict, metrics: dict | None = None) -> str:
        """Persist a run whose result is already a JSON-safe dict.

        Serve runs (``kind="serve"``) archive their
        :class:`~repro.serve.session.ServeResult` this way; their
        ``result.json`` is not checkpoint-codec decodable, so ``repro
        diff`` does not apply to them (``repro runs`` lists them fine).
        """
        _write_json(os.path.join(self.dir, "result.json"), result)
        if metrics is not None:
            _write_json(os.path.join(self.dir, "metrics.json"), metrics)
        # Manifest last: its presence is the commit marker.
        _write_json(os.path.join(self.dir, "manifest.json"),
                    self.manifest.as_dict())
        return self.manifest.run_id


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class RunStore:
    """The archive of runs under one root directory.

    It also builds each run kind's manifest.  ``scenario`` is the
    resolved scenario mapping a config-driven run embeds in its
    manifest config, and ``name`` the scenario name its manifest
    carries; ``sweep_id`` groups the runs of one archived grid.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = os.fspath(root or os.environ.get("REPRO_RUNS_DIR")
                              or DEFAULT_ROOT)
        self._provenance: tuple[dict | None, dict] | None = None

    def run_dir(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    # -- manifests ---------------------------------------------------------

    def _manifest(self, kind: str, workload: str, policy: str, scale: str,
                  seed: int, oversubscription: float | None, config: dict,
                  sweep_id: str | None, name: str | None) -> RunManifest:
        if self._provenance is None:
            self._provenance = (git_info(), host_info())
        git, host = self._provenance
        return RunManifest.create(
            kind=kind, workload=workload, policy=policy, scale=scale,
            seed=seed, oversubscription=oversubscription, config=config,
            git=git, host=host, sweep_id=sweep_id, scenario=name)

    def run_manifest(self, cfg, workload: str, scale: str,
                     oversubscription: float, scenario: dict | None = None,
                     name: str | None = None) -> RunManifest:
        """A ``repro run`` or ``trace replay`` of ``cfg``."""
        config = encode_config(cfg)
        if scenario is not None:
            config = {"sim": config, "scenario": scenario}
        return self._manifest("run", workload, cfg.policy.policy.value,
                              scale, cfg.seed, oversubscription, config,
                              None, name)

    def cell_manifest(self, cell, sweep_id: str | None,
                      scenario: dict | None = None,
                      name: str | None = None) -> RunManifest:
        """One grid cell.  Like the checkpoint journal, the manifest
        describes the simulation, not where its waves came from: a
        trace-cache path would change the run id and show up in
        ``repro diff``."""
        config = encode_cell(cell)
        if scenario is not None:
            config = {"cell": config, "scenario": scenario}
        return self._manifest("grid-cell", cell.workload, cell.policy.value,
                              cell.scale, cell.seed, cell.oversubscription,
                              config, sweep_id, name)

    def serve_manifest(self, serve_cfg, sim_cfg,
                       scenario: dict | None = None,
                       name: str | None = None) -> RunManifest:
        """A ``repro serve`` session."""
        config = {"serve": serve_cfg.as_dict(), "sim": encode_config(sim_cfg)}
        if scenario is not None:
            config["scenario"] = scenario
        return self._manifest("serve", "+".join(serve_cfg.workload_mix),
                              sim_cfg.policy.policy.value, serve_cfg.scale,
                              serve_cfg.seed, None, config, None, name)

    def multigpu_manifest(self, spec, scenario: dict,
                          name: str) -> RunManifest:
        """A multigpu scenario variant (``spec`` from
        :func:`repro.scenario.build_multigpu_spec`)."""
        config = {"sim": encode_config(spec.config),
                  "multigpu": {"gpus": spec.gpus,
                               "partition": spec.partition,
                               "throttle": spec.throttle},
                  "scenario": scenario}
        return self._manifest("multigpu", spec.workload,
                              spec.config.policy.policy.value, spec.scale,
                              spec.config.seed, spec.oversubscription,
                              config, None, name)

    # -- writing -----------------------------------------------------------

    def open_run(self, manifest: RunManifest) -> RunWriter:
        """Open an archive slot for a run that is about to execute."""
        return RunWriter(self, manifest)

    def archive(self, manifest: RunManifest, result: RunResult,
                metrics: dict | None = None) -> str:
        """One-shot archive of an already-finished run (grid cells)."""
        return self.open_run(manifest).commit(result, metrics=metrics)

    # -- reading -----------------------------------------------------------

    def list(self) -> list[RunManifest]:
        """Every committed manifest, oldest first."""
        manifests = []
        try:
            entries = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        for name in entries:
            path = os.path.join(self.root, name, "manifest.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    manifests.append(RunManifest.from_dict(json.load(fh)))
            except (OSError, json.JSONDecodeError, TypeError):
                continue  # uncommitted or foreign directory
        manifests.sort(key=lambda m: (m.created, m.run_id))
        return manifests

    def resolve(self, run_id: str) -> str:
        """Expand a unique run-id prefix to the full id.

        Raises ``KeyError`` when the prefix matches no committed run or
        more than one.
        """
        exact = os.path.join(self.root, run_id, "manifest.json")
        if os.path.exists(exact):
            return run_id
        try:
            entries = sorted(os.listdir(self.root))
        except FileNotFoundError:
            entries = []
        hits = [name for name in entries
                if name.startswith(run_id)
                and os.path.exists(os.path.join(self.root, name,
                                                "manifest.json"))]
        if not hits:
            raise KeyError(f"no archived run matches {run_id!r} "
                           f"under {self.root}")
        if len(hits) > 1:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous: "
                           f"{', '.join(hits)}")
        return hits[0]

    def load(self, run_id: str) -> ArchivedRun:
        """Load one archived run (``run_id`` may be a unique prefix)."""
        run_id = self.resolve(run_id)
        run = self.run_dir(run_id)
        with open(os.path.join(run, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = RunManifest.from_dict(json.load(fh))
        with open(os.path.join(run, "result.json"), encoding="utf-8") as fh:
            result = decode_result(json.load(fh))
        metrics = None
        metrics_path = os.path.join(run, "metrics.json")
        if os.path.exists(metrics_path):
            with open(metrics_path, encoding="utf-8") as fh:
                metrics = json.load(fh)
        events = os.path.join(run, "events.jsonl.gz")
        return ArchivedRun(manifest=manifest, result=result, metrics=metrics,
                           events_path=events if os.path.exists(events)
                           else None)

    def __contains__(self, run_id: str) -> bool:
        try:
            self.resolve(run_id)
        except KeyError:
            return False
        return True


def derive_sweep_id(cells) -> str:
    """Content-addressed id of a grid: a hash over its cell specs."""
    from ..analysis.checkpoint import cell_key
    return _digest(sorted(cell_key(c) for c in cells))
