"""Record ``reference.json``: the plans every benchmark run is checked against.

    python3 perfbench/record_reference.py

For each workload and each start arm (the only input a seed chooses) this
runs one untraced iteration in a worker process and stores, per cost, the
optimized and baseline stage paths, both cumulative costs and the number
of infinite edges.  Re-record only when a change of planner behaviour is
intended and stated; a speed-up must leave the reference valid.
"""

from __future__ import annotations

import json
import sys
import time

from run import OUT, REFERENCE, RTOL, _git_commit, spawn
from workloads import WORKLOADS, start_arm

KEYS = ("paths", "paths_baseline", "cumulative", "cumulative_baseline",
        "inf_edges")


def seed_for_arm(arm: int) -> int:
    return next(s for s in range(100) if start_arm(s) == arm)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    reference = {"recorded_at_commit": _git_commit(), "rtol": RTOL}
    for name, wl in WORKLOADS.items():
        reference[name] = {}
        for arm in (1, 2):
            seed = seed_for_arm(arm)
            out = spawn(name, seed, OUT / f"reference-{name}", time.monotonic() + 900)
            plans = {}
            for p in out["plans"]:
                if "error" in p:
                    print(f"{name} arm {arm} {p['cost']}: {p['error']}", file=sys.stderr)
                    return 1
                plans[p["cost"]] = {k: p[k] for k in KEYS}
            reference[name][str(arm)] = plans
            print(f"{name} arm {arm}: {out['wall_s']:.1f} s", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
