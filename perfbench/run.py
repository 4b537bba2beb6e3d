"""Run the repository benchmark.

    python3 perfbench/run.py --workload fig67-live --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40     # all three workloads, seed 0

A run repeats passes of one workload until about ``--seconds`` of wall
time have gone by.  Every pass runs in a fresh process (``onepass.py``)
and times a fixed reference kernel between its waves (``hostspeed.py``),
which converts its CPU seconds into reference seconds.  ``--trace 0``
reports the end-to-end metrics, medians over the passes.  ``--trace 1``
alternates untraced and traced passes and reports each layer's exclusive
host time from the traced ones (``layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
and, for a traced run, every span are written under ``.perfbench_out/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fig67-live", "figures-replay", "serve-mixed")

#: A run stops before a pass that would end after ``--seconds`` once it
#: has this many passes, and before one that would end after
#: ``DEADLINE_S`` once it has the fewest it can report from.
MIN_PASSES = 3
DEADLINE_S = 140.0
PASS_TIMEOUT_S = 150.0

#: Simulated driver counts a traced run reports per pass.
SIM_PER_LAYER = ("n_local", "n_remote", "fault_migrations", "mapping_faults",
                 "prefetched_blocks", "evicted_blocks", "writeback_blocks",
                 "thrash_migrations")


class PassFailed(Exception):
    """A pass process failed; ``status`` is the run's exit status."""

    def __init__(self, status: int) -> None:
        super().__init__(status)
        self.status = status


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_pass(workload: str, seed: int, traced: bool, out: Path) -> dict:
    """One pass in a fresh process; its report, as :mod:`onepass` wrote it."""
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(out)]
    wall0 = time.perf_counter()
    try:
        # The program's own output goes to stderr: stdout ends with the
        # result line.
        done = subprocess.run(cmd, stdout=sys.stderr, check=False,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: a {workload} pass ran over {PASS_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        raise PassFailed(1) from None
    if done.returncode != 0:
        print(f"perfbench: a {workload} pass exited with status "
              f"{done.returncode}", file=sys.stderr)
        raise PassFailed(done.returncode)
    p = json.loads(out.read_text())
    p["traced"] = traced
    p["process_wall_s"] = time.perf_counter() - wall0
    return p


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> list[dict]:
    """Passes until ``seconds`` are spent; traced passes alternate."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, traced,
                               workdir / f"pass{len(passes)}.json"))
        ahead = (time.perf_counter() - start
                 + statistics.median(q["process_wall_s"] for q in passes))
        if ((len(passes) >= MIN_PASSES and ahead > seconds)
                or (len(passes) >= 1 + trace and ahead > DEADLINE_S)):
            break
    # A traced pass takes no host-speed samples; it runs at the run's
    # median speed.
    run_speed = statistics.median(
        [p["speed"] for p in passes if p["speed"] is not None] or [1.0])
    for p in passes:
        if p["speed"] is None:
            p["speed"] = run_speed
    return passes


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ref(p: dict, seconds: float) -> float:
    """``seconds`` of pass ``p`` in reference seconds."""
    return seconds * p["speed"]


def rate(p: dict) -> float:
    return p["accesses"] / ref(p, p["timed_s"]) if p["timed_s"] > 0 else 0.0


def end_to_end(passes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    return {
        "accesses_per_s": metric(statistics.median(map(rate, plain)),
                                 "accesses/ref_s"),
        "setup_s": metric(
            statistics.median(ref(p, p["setup_s"]) for p in plain), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in plain),
                              "MiB"),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    accesses = sum(p["accesses"] for p in traced)

    def self_ref(layer: str) -> float:
        i = layers.LAYERS.index(layer)
        return sum(ref(p, p["trace"]["self_s"][i]) for p in traced)

    out = {}
    for i, layer in enumerate(layers.LAYERS):
        out[f"{layer}.self_ns_per_access"] = metric(
            self_ref(layer) / accesses * 1e9 if accesses else 0.0,
            "ref_ns/access")
        out[f"{layer}.calls"] = metric(
            sum(p["trace"]["calls"][i] for p in traced) / n, "count")
    first = traced[0]
    sim = first["sim"]
    faults = sim["fault_migrations"]
    h2d = (sim["migrated_blocks"] + sim["prefetched_blocks"]) * n
    out["uvm.fast_path.hit_rate"] = metric(
        first["fast_path_waves"] / first["waves"] if first["waves"] else 0.0,
        "ratio")
    out["uvm.tree.prefetch_per_fault"] = metric(
        sim["prefetched_blocks"] / faults if faults else 0.0, "blocks/fault")
    out["uvm.driver.us_per_h2d_block"] = metric(
        self_ref("uvm.driver") / h2d * 1e6 if h2d else 0.0, "ref_us/block")
    out["uvm.waves"] = metric(first["waves"], "count")
    for key in SIM_PER_LAYER:
        out[f"uvm.sim.{key}"] = metric(sim[key], "count")
    serve = first["serve"] or {}

    def served(name: str) -> float:
        value = serve.get(name)
        return 0 if value is None else value
    out["serve.sim_p50_wave_us"] = metric(
        float(served("p50_wave_latency_us")), "sim_us")
    out["serve.sim_p99_wave_us"] = metric(
        float(served("p99_wave_latency_us")), "sim_us")
    out["serve.sim_wave_samples"] = metric(served("total_waves"), "count")
    out["serve.sim_shed_rate"] = metric(float(served("shed_rate")),
                                        "fraction")
    out["serve.throttle_events"] = metric(served("throttle_events"), "count")
    out["serve.slo_violations"] = metric(served("slo_violations"), "count")
    # The first untraced pass is the baseline only when it is the only one:
    # it alone starts with a cold page cache for the program's files.
    baseline = plain[1:] or plain

    def cpu(p: dict) -> float:
        return ref(p, p["setup_s"] + p["timed_s"])
    out["tracing.overhead_pct"] = metric(
        (statistics.median(map(cpu, traced))
         / statistics.median(map(cpu, baseline)) - 1.0) * 100.0, "%")
    out["tracing.unattributed_s"] = metric(
        sum(ref(p, p["wall_s"] - p["trace"]["top_level_s"]) for p in traced),
        "ref_s")
    out["tracing.wall_s"] = metric(
        sum(ref(p, p["wall_s"]) for p in traced), "ref_s")
    out["tracing.accesses"] = metric(accesses, "count")
    errors = first["log_errors"]
    out["fidelity.paper_log_err"] = metric(
        statistics.fmean(errors) if errors else 0.0, "ln-ratio")
    out["fidelity.paper_cells"] = metric(len(errors), "count")
    out["host.speed"] = metric(
        statistics.median(p["speed"] for p in plain), "ratio")
    return out


def trace_problems(passes) -> list[str]:
    problems = []
    for p in passes:
        if not p["traced"]:
            continue
        trace = p["trace"]
        if trace["depth"]:
            problems.append(f"{trace['depth']} spans still open after tracing")
        if trace["top_level_s"] > p["wall_s"]:
            problems.append("spans recorded outside the traced pass")
        # Self times plus the unattributed rest make up the traced wall
        # time exactly when the self times make up the top-level spans.
        if abs(sum(trace["self_s"]) - trace["top_level_s"]) > 1e-6 * max(
                1.0, p["wall_s"]):
            problems.append("layer self times plus unattributed time do not "
                            "sum to the traced wall time")
    return problems


def summary(workload: str, passes, metrics: dict, prov: dict,
            attempted: int, failed: int) -> list[str]:
    first = passes[0]
    plain = [p for p in passes if not p["traced"]]
    wall = sum(p["process_wall_s"] for p in passes)
    lines = [f"perfbench {workload}: {len(passes)} passes, {wall:.1f} s wall, "
             f"host speed {statistics.median(p['speed'] for p in passes):.3f} "
             f"of reference"]
    for name in ("accesses_per_s", "setup_s", "peak_rss_mb"):
        if name in metrics:
            m = metrics[name]
            lines.append(f"  {name:<15} {m['value']:.6g} {m['unit']}")
    raw_rate = statistics.median(
        [p["accesses"] / p["timed_s"] for p in plain if p["timed_s"] > 0]
        or [0.0])
    raw_setup = statistics.median(p["setup_s"] for p in plain)
    lines.append(f"  {'host time':<15} {raw_rate:.6g} accesses/s, set-up "
                 f"{raw_setup:.4g} s (CPU seconds, not normalised)")
    if first["log_errors"]:
        lines.append(f"  {'paper_log_err':<15} "
                     f"{statistics.fmean(first['log_errors']):.4f} ln-ratio "
                     f"(mean |ln(measured/paper)| over "
                     f"{len(first['log_errors'])} figure cells)")
    else:
        lines.append(f"  {'paper_log_err':<15} n/a (no paper figure)")
    lines.append(f"  {'op_error_rate':<15} {failed / attempted:.6g} fraction "
                 f"({failed} of {attempted} operations failed)")
    if first["serve"] is not None:
        s = first["serve"]
        engaged = "/".join(
            "yes" if s[at] is not None else "no"
            for at in ("first_throttle_us", "first_queue_us",
                       "first_shed_us"))
        lines.append(f"  serve           {s['arrivals']} arrivals, "
                     f"{s['admitted']} admitted, {s['shed']} shed, "
                     f"{s['throttle_events']} throttles, {s['total_waves']} "
                     f"waves; throttle/queue/shed engaged {engaged}; peak "
                     f"live oversubscription "
                     f"{s['peak_live_oversubscription']:.2f}x")
    if "tracing.wall_s" in metrics:
        traced = [p for p in passes if p["traced"]]
        traced_wall = metrics["tracing.wall_s"]["value"]
        lines.append(f"  {'layer':<16} {'self s':>8} {'self %':>7} "
                     f"{'ns/access':>10} {'calls/pass':>11}")
        for i, layer in enumerate(layers.LAYERS):
            self_s = sum(ref(p, p["trace"]["self_s"][i]) for p in traced)
            lines.append(
                f"  {layer:<16} {self_s:8.3f} "
                f"{100 * self_s / traced_wall:7.2f} "
                f"{metrics[layer + '.self_ns_per_access']['value']:10.2f} "
                f"{metrics[layer + '.calls']['value']:11.0f}")
        unattributed = metrics["tracing.unattributed_s"]["value"]
        lines.append(f"  {'unattributed':<16} {unattributed:8.3f} "
                     f"{100 * unattributed / traced_wall:7.2f}")
        lines.append(f"  tracing overhead "
                     f"{metrics['tracing.overhead_pct']['value']:.1f}%")
    lines.append(f"  provenance      commit {prov['commit']}, dirty "
                 f"{prov['dirty']}, comparable {prov['comparable']}, python "
                 f"{prov['python']}, numpy {prov['numpy']}, nproc "
                 f"{prov['nproc']}, backend {prov['backend']}")
    return lines


def run_one(workload: str, args) -> tuple[list[str], dict]:
    """Measure one workload; its summary lines and its result."""
    import provenance

    # Pass reports and spans; a run replaces those of the workload's last
    # run in the same mode.
    workdir = OUT / f"{workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        passes = measure(workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    finally:
        for stale in workdir.glob("work-*"):
            shutil.rmtree(stale, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(min(len(p["failed"]), p["attempted"]) for p in passes)
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("simulated outputs differ between passes")
    if args.trace:
        metrics = per_layer(passes)
        problems += trace_problems(passes)
    else:
        metrics = end_to_end(passes)
    correct = failed == 0 and not problems
    prov = provenance.collect(ROOT)
    lines = summary(workload, passes, metrics, prov, attempted, failed)
    failures = {}
    for p in passes:
        failures.update(p["failed"])
    for op, why in list(failures.items())[:20]:
        print(f"perfbench: failed {op}: {why}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, **result,
        "failures": failures, "problems": problems, "summary": lines,
        "reference_kernel_s": hostspeed.REFERENCE_S,
        "passes": [{key: p[key] for key in (
            "traced", "speed", "kernel_samples", "setup_s", "timed_s",
            "wall_s", "process_wall_s", "rss_mb", "accesses", "waves",
            "fast_path_waves", "attempted", "digest")}
            | {"failed": len(p["failed"])} for p in passes],
    }
    if args.trace:
        report["layers"] = {
            layer: {"self_ref_s": sum(ref(p, p["trace"]["self_s"][i])
                                      for p in passes if p["traced"]),
                    "calls": sum(p["trace"]["calls"][i]
                                 for p in passes if p["traced"])}
            for i, layer in enumerate(layers.LAYERS)}
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    return lines, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread: keep numeric libraries in every pass process from
    # starting worker pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_one(name, args)
            print("\n".join(lines))
    except PassFailed as failed:
        return failed.status or 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value
                        for name, r in results.items()
                        for key, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
