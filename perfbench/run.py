"""predlab benchmark: runs workloads, checks their outputs, prints metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in fresh processes (worker.py), one at a time, with BLAS and
OpenMP pinned to one thread.

--trace 0 measures the end-to-end metrics: a timed worker runs the workload
for --seconds, and more fresh processes only set it up, so that setup_s is a
median over the workload's setup_samples processes.  --trace 1 runs the
workload's fixed traced op count twice at the same seed, untraced and then
with every layer's entry points wrapped, and reports the per-layer metrics
and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (output checks) and metrics.  Each run also writes a
results file with the run record to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170.0


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def build() -> None:
    """Byte-compile the program and the benchmark once, so that every
    measured process loads cached bytecode as an installed package would."""
    for d in (ROOT / "src" / "predlab", HERE):
        if not compileall.compile_dir(str(d), quiet=1):
            fail(f"{d.relative_to(ROOT)} does not compile")


def run_worker(workload: str, params: dict, seed: int, mode: str,
               tmp: Path, **opts) -> tuple[dict, float]:
    """Start worker.py, wait for it, return (its result, spawn time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--params", json.dumps(params), "--seed", str(seed), "--mode", mode,
           "--tmp", str(tmp)]
    for key, value in opts.items():
        if value is True:
            cmd.append(f"--{key}")
        elif value is not None and value is not False:
            cmd += [f"--{key}", str(value)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker ({mode}) timed out")
    if proc.returncode != 0:
        fail(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def run_record(seed: int, workload: str, spec: dict, seconds: float,
               trace: int) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "workload": workload,
        "params": spec["params"],
        "seconds": seconds,
        "trace": trace,
        "setup_samples": spec["setup_samples"],
        "trace_ops": spec["trace_ops"],
    }


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def measure(workload: str, params: dict, seed: int, seconds: float,
            setup_samples: int, tmp: Path) -> tuple[dict, dict]:
    """End-to-end metrics of one timed run, plus details for the record.

    The setup-only processes run half before and half after the timed one:
    the host's CPU speed changes every few seconds, and their median should
    not rest on one such phase.
    """
    setups = []

    def set_up() -> None:
        r, spawned = run_worker(workload, params, seed, "setup", tmp)
        setups.append(r["ready"] - spawned)

    for _ in range((setup_samples - 1) // 2):
        set_up()
    res, spawned = run_worker(workload, params, seed, "timed", tmp,
                              seconds=seconds)
    setups.append(res["ready"] - spawned)
    while len(setups) < setup_samples:
        set_up()
    ms = np.array(res["durations"]) * 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "step_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {"setup_s_samples": setups, "step_samples": len(ms),
               "symbols_per_s": res["symbols"] / math.fsum(res["durations"]),
               "step_ms_p50": float(np.percentile(ms, 50)),
               "step_ms": ms.tolist(), "symbols": res["symbols"]}
    return metrics, {**details, **checks_of(res)}


def measure_traced(workload: str, params: dict, seed: int, ops: int,
                   tmp: Path, spans: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the fixed traced op count, and the overhead."""
    plain, _ = run_worker(workload, params, seed, "fixed", tmp, ops=ops)
    traced, _ = run_worker(workload, params, seed, "fixed", tmp, ops=ops,
                           trace=True, spans=spans)
    base = math.fsum(plain["durations"])
    overhead = math.fsum(traced["durations"]) - base
    metrics = {**traced["layers"], "trace.overhead_s": overhead,
               "trace.overhead_frac": overhead / base}
    details = {"ops": ops, "spans": traced["spans"], "spans_file":
               str(spans.relative_to(ROOT)), "untraced_op_s": base}
    merged = checks_of(plain)
    for key, value in checks_of(traced).items():
        merged[key] += value
    return metrics, {**details, **merged}


def checks_of(res: dict) -> dict:
    return {"checks_attempted": res["checks_attempted"],
            "checks_failed": res["checks_failed"]}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    model = json.loads((HERE / "model.json").read_text(encoding="utf-8"))
    names = list(model["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    if not (ROOT / "src" / "predlab" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'predlab'} is missing")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    OUT.mkdir(parents=True, exist_ok=True)
    build()
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    workloads = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    all_metrics = {}
    try:
        for name in workloads:
            spec = model["workloads"][name]
            params = spec["params"]
            if args.trace:
                spans = OUT / f"spans-{name}-seed{args.seed}.npz"
                metrics, details = measure_traced(
                    name, params, args.seed, spec["trace_ops"], tmp, spans)
            else:
                metrics, details = measure(name, params, args.seed,
                                           args.seconds, spec["setup_samples"],
                                           tmp)
            if set(metrics) != set(units):
                fail(f"{name} reports {sorted(set(metrics) ^ set(units))} "
                     "unlike BENCHMARK.json")
            attempted += details["checks_attempted"]
            failed += details["checks_failed"]
            record = {**run_record(args.seed, name, spec, args.seconds,
                                   args.trace),
                      "metrics": metrics, **details}
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
             ).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
            report(name, metrics, details, units)
            prefix = "" if len(workloads) == 1 else f"{name}."
            for key, value in metrics.items():
                all_metrics[prefix + key] = {"value": value, "unit": units[key]}
    finally:
        shutil.rmtree(tmp)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))


def report(name: str, metrics: dict, details: dict, units: dict) -> None:
    print(f"== {name}")
    for key, value in metrics.items():
        note = ""
        if key.startswith("step_ms"):
            note = f"  (samples={details['step_samples']})"
        print(f"  {key:32s} {value:.6g} {units[key]}{note}")
    if "step_ms_p50" in details:
        # not in BENCHMARK.json: both follow the host's CPU phases too closely
        print(f"  {'symbols_per_s':32s} {details['symbols_per_s']:.6g} "
              "symbols/s")
        print(f"  {'step_ms_p50':32s} {details['step_ms_p50']:.6g} ms  "
              f"(samples={details['step_samples']})")
    frac = details["checks_failed"] / max(details["checks_attempted"], 1)
    print(f"  {'failed_frac':32s} {frac:.6g} ratio  "
          f"({details['checks_failed']}/{details['checks_attempted']} checks)")


if __name__ == "__main__":
    main()
