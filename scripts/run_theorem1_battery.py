#!/usr/bin/env python3
"""Run the adversarial head-to-head battery and write all artifacts.

For each target predictor this builds the sequence that defeats it, scores
the target on that sequence, and scores the sequence's own tracking measure
on it, demonstrating the >= 1 bit/step versus o(n)/n contrast.  Exits 1
if any run fails.
"""

import argparse
import sys
import time
from pathlib import Path

from predlab import ChainSpec
from predlab.cli import main as cli_main

BATTERY = ["uniform", "kt", "mix:3", "mux:periodic:01"]


def run(out_root: Path, n: int, trunc: int) -> int:
    """Run the battery; returns the number of runs that failed."""
    failed = 0
    for spec in BATTERY:
        out_dir = out_root / spec.replace(":", "_")
        start = time.perf_counter()
        code = cli_main([
            "theorem1", "--rho", spec, "-n", str(n), "--trunc", str(trunc),
            "--out", str(out_dir),
        ])
        elapsed_ms = (time.perf_counter() - start) * 1e3
        status = "ok" if code == 0 else f"exit {code}"
        failed += code != 0
        print(f"[{spec}] {status} in {elapsed_ms:.0f} ms -> {out_dir}")
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/theorem1")
    parser.add_argument("-n", type=int, default=500)
    parser.add_argument("--trunc", type=int, default=ChainSpec.truncation_level)
    args = parser.parse_args()
    sys.exit(1 if run(Path(args.out), args.n, args.trunc) else 0)
