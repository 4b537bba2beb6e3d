"""Run one pass of a workload in this fresh process; ``run.py`` starts it.

    python3 perfbench/onepass.py --workload serve-mixed --seed 1 --trace 0 \
        --out .perfbench_out/pass.json

The pass starts with the interpreter, so its set-up (process CPU time up
to the first simulated wave) includes the program's imports, and its peak
resident set is its own.  What it measured is written to ``--out`` as
JSON.  An untraced pass also measures host speed (``hostspeed.py``).  A
traced pass (``--trace 1``) wraps every layer (``layers.py``) and also
writes its spans, to ``--out`` with the suffix ``.npz``.  Exits with
status 2 when this checkout has no simulator to import.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``ServeResult`` fields a pass reports.
SERVE_FIELDS = ("arrivals", "admitted", "shed", "completed", "total_waves",
                "throttle_events", "p50_wave_latency_us",
                "p99_wave_latency_us", "shed_rate", "slo_violations",
                "first_throttle_us", "first_queue_us", "first_shed_us",
                "peak_live_oversubscription")


def import_program() -> bool:
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        return False
    where = Path(repro.__file__).resolve().parent.parent
    if where != src.resolve():
        print(f"perfbench: imported the simulator from {where}, not {src}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not import_program():
        return 2
    import hostspeed
    import suite
    from tracer import Patches, SpanRecorder

    workdir = args.out.parent / f"work-{os.getpid()}"
    rec = sampler = None
    with Patches() as patches:
        if args.trace:
            import layers
            rec = SpanRecorder(layers.LAYERS)
            layers.install(rec, patches)
        else:
            # Kernel runs inside a traced pass would land in some layer's
            # self time, so only untraced passes measure host speed.
            sampler = hostspeed.Sampler()
        p = suite.run_pass(args.workload, args.seed, workdir, ROOT, sampler)
    report = dataclasses.asdict(dataclasses.replace(p, serve=None))
    report["serve"] = (None if p.serve is None else
                       {name: getattr(p.serve, name) for name in SERVE_FIELDS})
    report["speed"] = None if sampler is None else sampler.speed
    report["kernel_samples"] = [] if sampler is None else sampler.samples
    # ru_maxrss is in KiB on Linux.
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        report["trace"] = {"self_s": rec.self_s, "calls": rec.calls,
                           "top_level_s": rec.top_level_s, "depth": rec.depth}
        rec.save(args.out.with_suffix(".npz"))
    args.out.write_text(json.dumps(report, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
