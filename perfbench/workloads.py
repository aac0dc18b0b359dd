"""The three benchmark workloads.

Each workload is built from model.json's parameters and the run seed.  Its
constructor is the set-up that ``setup_s`` covers; ``op(i)`` is one timed
call; ``check(i, out)`` verifies that call's outputs (untimed) and returns one
bool per check; ``finish()`` runs the checks that need the whole run.  Every
check holds for every seed of a correct program: none is a statistical test
that can fail by chance.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from predlab import ChainSpec, MuX, chain, cli

LOG2_INV_PI1 = -math.log2(6.0 / math.pi**2)


def loss_bound(t: np.ndarray) -> np.ndarray:
    """-log2(pi1) + 2 log2(t+1): the certified ceiling on the tracking
    measure's cumulative log2 loss over t symbols."""
    return LOG2_INV_PI1 + 2.0 * np.log2(t + 1.0)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def read_csv_column(path: Path, column: str) -> np.ndarray:
    with path.open(newline="", encoding="utf-8") as f:
        return np.array([float(row[column]) for row in csv.DictReader(f)])


class Theorem1:
    def __init__(self, params: dict, seed: int, tmp: Path) -> None:
        self.rhos = params["rhos"]
        self.n = params["n"]
        self.J = params["J"]
        self.tmp = tmp
        self.symbols_per_op = 2 * self.n * len(self.rhos)
        self.adversary_used_per_op = (self.J + self.n) * len(self.rhos)
        self.bound = loss_bound(np.arange(1, self.n + 1, dtype=np.float64))

    def op(self, i: int):
        outs = []
        for k, rho in enumerate(self.rhos):
            out = self.tmp / f"t1-{i}-{k}"
            rc, _ = run_cli(["theorem1", "--rho", rho, "-n", str(self.n),
                             "--trunc", str(self.J), "--out", str(out)])
            outs.append((rc, out))
        return outs

    def check(self, i: int, outs) -> list[bool]:
        results = []
        for rc, out in outs:
            results.append(rc == 0)
            if rc != 0:
                results += [False, False]
                continue
            rho_kl = read_csv_column(out / "rho_trace.csv", "kl_bits")
            mux_cum = read_csv_column(out / "mux_trace.csv", "cum_kl_bits")
            results.append(len(rho_kl) == self.n and bool((rho_kl >= 1.0).all()))
            results.append(len(mux_cum) == self.n
                           and bool((mux_cum <= self.bound).all()))
            shutil.rmtree(out)
        return results

    def finish(self) -> list[bool]:
        return []


class Deep:
    def __init__(self, params: dict, seed: int, tmp: Path) -> None:
        self.horizon = params["horizon"]
        self.min_ops = params["min_steps"]
        self.specs = [s.format(seed=seed) for s in params["targets"]]
        self.symbols_per_op = 1
        spec = ChainSpec(params["J"])
        self.preds, self.x = [], []
        for s in self.specs:
            source = cli.parse_source_spec(s)
            self.x.append([int(b) for b in source.prefix_array(self.horizon)])
            self.preds.append(MuX(source, spec).predictor())
        # preallocated, so that no float objects stay alive during the run
        self.probs = np.empty((len(self.specs), self.horizon))
        self.steps = [0] * len(self.specs)

    def op(self, i: int):
        k = i % len(self.preds)
        pred = self.preds[k]
        s = self.x[k][self.steps[k]]
        p = pred.predict()[s]
        pred.observe(s)
        return k, p

    def check(self, i: int, out) -> list[bool]:
        k, p = out
        self.probs[k][self.steps[k]] = p
        self.steps[k] += 1
        if self.steps[k] < self.horizon:
            return []
        results = self._check_pass(k)
        self.preds[k] = self.preds[k].fresh()
        self.steps[k] = 0
        return results

    def _check_pass(self, k: int) -> list[bool]:
        p = self.probs[k][: self.steps[k]]
        pred = self.preds[k]
        if not (p > 0.0).all():
            return [False, False]
        cum = np.cumsum(-np.log2(p))
        within = bool((cum <= loss_bound(np.arange(1.0, len(p) + 1.0))).all())
        telescoped = pred.log2_initial_mass() - pred.log2_mass()
        return [within, abs(float(cum[-1]) - telescoped) <= 1e-9]

    def finish(self) -> list[bool]:
        results = []
        for k in range(len(self.preds)):
            if self.steps[k]:
                results += self._check_pass(k)
        return results


class Ergodicity:
    # On periodic:01 state j emits 0 iff j is odd.  A run of states climbing
    # from 1 emits 0 first, and only the initial run may start on an even
    # state, so every path of N steps has freq_0 >= (N-1)/(2N).  The
    # stationary freq_0 is 3/4; freq_0 can only exceed it through an excess
    # of short runs, which is light-tailed, so 3/4 + 0.02 (about 11 standard
    # deviations at N = 2e5) is never reached by a correct sampler.
    UPPER = 0.75 + 0.02

    def __init__(self, params: dict, seed: int, tmp: Path) -> None:
        self.target = params["target"]
        self.N = params["N"]
        self.min_ops = params["min_ops"]
        self.seed = seed
        self.symbols_per_op = self.N
        self.freq_0: dict[int, float] = {}

    def op_seed(self, i: int) -> int:
        return self.seed * 10000 + i

    def op(self, i: int):
        return run_cli(["ergodicity", "--target", self.target, "-n", str(self.N),
                        "--seed", str(self.op_seed(i))])

    def check(self, i: int, out) -> list[bool]:
        rc, text = out
        if rc != 0:
            return [False] * 4
        payload = json.loads(text)
        f0, f1 = payload["freq_0"], payload["freq_1"]
        words = payload["word_freqs"]
        sums_ok = all(
            abs(math.fsum(v for w, v in words.items() if len(w) == k) - 1.0) <= 1e-9
            for k in (1, 2, 3))
        self.freq_0[i] = f0
        return [
            True,
            abs(f0 + f1 - 1.0) <= 1e-12 and abs(words["0"] - f0) <= 1e-12,
            sums_ok,
            (self.N - 1) / (2 * self.N) <= f0 <= self.UPPER,
        ]

    def finish(self) -> list[bool]:
        results = []
        for i in sorted({min(self.freq_0), max(self.freq_0)} if self.freq_0 else ()):
            seed = self.op_seed(i)
            states = chain.sample_path(self.N, seed).states
            results.append(bool(((states[1:] == states[:-1] + 1)
                                 | (states[1:] == 1)).all()))
            traj = MuX(cli.parse_source_spec(self.target)).sample_trajectory(
                self.N, seed)
            results.append(1.0 - np.count_nonzero(traj) / self.N == self.freq_0[i])
        return results


WORKLOADS = {
    "theorem1": Theorem1,
    "deep": Deep,
    "ergodicity": Ergodicity,
}
