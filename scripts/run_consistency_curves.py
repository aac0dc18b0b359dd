#!/usr/bin/env python3
"""Tracking-measure consistency curves over the target corpus.

Writes one tidy CSV per source (cumulative loss, Cesaro average, certified
ceiling per step) plus a summary table on stdout.
"""

import argparse
from pathlib import Path

import numpy as np

from predlab import ChainSpec, MuX, dirac_kl, log_loss_bound
from predlab.cli import parse_source_spec
from predlab.loss import write_tidy_csv

CORPUS = ["periodic:01", "periodic:0", "champernowne",
          "coin:1", "coin:2", "coin:3", "coin:4", "coin:5"]


def run(out_root: Path, n: int, trunc: int) -> None:
    out_root.mkdir(parents=True, exist_ok=True)
    t = np.arange(1, n + 1, dtype=np.float64)
    bound = log_loss_bound(t)
    print(f"{'source':<14} {'cum bits':>10} {'ceiling':>10} {'cesaro':>8}")
    for spec in CORPUS:
        src = parse_source_spec(spec)
        trace = dirac_kl(src, MuX(src, ChainSpec(trunc)).predictor(), n)
        write_tidy_csv(out_root / f"{spec.replace(':', '_')}.csv", {
            "cum_kl_bits": trace.cum_kl_bits,
            "cesaro_kl": trace.cesaro_kl,
            "bound_bits": bound,
        })
        print(f"{spec:<14} {trace.cum_kl_bits[-1]:>10.3f} {bound[-1]:>10.3f} "
              f"{trace.cesaro_kl[-1]:>8.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/consistency")
    parser.add_argument("-n", type=int, default=500)
    parser.add_argument("--trunc", type=int, default=ChainSpec.truncation_level)
    args = parser.parse_args()
    run(Path(args.out), args.n, args.trunc)
