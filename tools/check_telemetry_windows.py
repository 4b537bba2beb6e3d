#!/usr/bin/env python
"""Check the telemetry-window lifetimes in a serve event log.

    python tools/check_telemetry_windows.py events.jsonl

A tenant's ``telemetry_window`` events must all start no later than its
``tenant_complete``, and their waves must add up to the waves it
completed with.  Prints one line per problem and exits 1 if there is
any, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import Counter


def problems(rows) -> list[str]:
    done = {r["tenant"]: r for r in rows if r["event"] == "tenant_complete"}
    found = []
    waves = Counter()
    for r in rows:
        if r["event"] != "telemetry_window":
            continue
        waves[r["tenant"]] += r["waves"]
        end = done.get(r["tenant"])
        if end is not None and r["start_us"] > end["at_us"]:
            found.append(f"tenant {r['tenant']}: window at {r['start_us']} "
                         f"starts after completion at {end['at_us']}")
    for tenant, end in done.items():
        if waves[tenant] != end["waves"]:
            found.append(f"tenant {tenant}: windows hold {waves[tenant]} "
                         f"waves, completed with {end['waves']}")
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: check_telemetry_windows.py EVENTS.jsonl",
              file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        found = problems([json.loads(line) for line in fh if line.strip()])
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
