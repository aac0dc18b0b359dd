"""One workload in one fresh process; started by run.py, never imported.

Modes:
  setup  build the workload, report when it is ready, exit
  timed  build it, then run ops until --seconds have passed (and at least the
         workload's minimum op count), checking each op's outputs
  fixed  build it, then run exactly --ops ops; with --trace the public entry
         points of every layer are wrapped and spans are saved to --spans

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from array import array
from pathlib import Path

import tracing
from workloads import WORKLOADS


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--params", required=True, help="workload parameters, JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "fixed"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](json.loads(args.params), args.seed,
                                  Path(args.tmp))
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    # raw doubles: no float objects stay alive to pin the program's memory
    durations = array("d")
    checks: list[bool] = []
    min_ops = getattr(wl, "min_ops", 1)
    deadline = ready + args.seconds
    i = 0
    while (i < args.ops if args.mode == "fixed"
           else i < min_ops or time.monotonic() < deadline):
        t0 = time.perf_counter()
        out = wl.op(i)
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        checks += wl.check(i, out)
        if tracer is not None:
            tracer.active = True
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    checks += wl.finish()

    result = {
        "ready": ready,
        "durations": durations.tolist(),
        "symbols": wl.symbols_per_op * len(durations),
        "checks_attempted": len(checks),
        "checks_failed": checks.count(False),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        used = getattr(wl, "adversary_used_per_op", 0) * len(durations)
        result["layers"] = tracer.metrics(used)
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.save(Path(args.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
