#!/usr/bin/env python3
"""Access-pattern atlas: the workload characterization of Section III-B.

Regenerates the analysis behind Figures 2 and 3 for *all eight*
workloads: per-allocation access densities (hot/cold, read-only vs
read-write) and a coarse page-vs-wave sketch of the whole stream,
rendered as ASCII.  Both read a recording of the workload's access
stream, which no migration policy changes, so nothing is simulated.
Useful to see at a glance why each workload lands in the regular or
irregular bucket.

Run::

    python examples/access_pattern_atlas.py [--workload NAME]
"""

import argparse

from repro.analysis import allocation_table, allocation_totals, sample_waves
from repro.trace import record_trace
from repro.workloads import ALL_WORKLOADS, make_workload, workload_category


def atlas(name: str, scale: str = "tiny") -> None:
    trace = record_trace(make_workload(name, scale), seed=0)

    cat = workload_category(name).value
    print(f"\n==== {name} ({cat}) ====")
    print(allocation_table(allocation_totals(trace), ""))

    # Page-vs-wave sketch: bucket the sampled waves into a character
    # raster, one column per span of waves in stream order.
    samples = sample_waves(trace, set(trace.kernel_iterations.tolist()))
    if not samples:
        return
    width, height = 64, 12
    w_max = trace.num_waves
    p_max = max(int(s.pages.max()) for s in samples) + 1
    raster = [[" "] * width for _ in range(height)]
    for s in samples:
        col = min(width * s.wave // w_max, width - 1)
        for page, w in zip(s.pages.tolist(), s.is_write.tolist()):
            row = min(height * page // p_max, height - 1)
            mark = "W" if w else "r"
            if raster[row][col] == " " or mark == "W":
                raster[row][col] = mark
    print("page-vs-wave sketch (r = read, W = write; low pages at top):")
    for line in raster:
        print("  |" + "".join(line) + "|")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=ALL_WORKLOADS, default=None)
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "medium"))
    args = parser.parse_args()
    names = (args.workload,) if args.workload else ALL_WORKLOADS
    for name in names:
        atlas(name, args.scale)


if __name__ == "__main__":
    main()
