import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


# the benchmark's traced run rebinds predlab's entry points by name
TRACED_THEOREM1 = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from predlab import cli
tracer = tracing.Tracer()
tracer.install()
codes = [
    cli.main(["theorem1", "--rho", "mix:3", "-n", "20", "--trunc", "200",
              "--out", sys.argv[2]]),
    cli.main(["ergodicity", "--target", "periodic:01", "-n", "2000",
              "--seed", "3"]),
]
calls = {name: n for name, (n, _) in tracer.self_times().items()}
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_traced_benchmark_still_wraps_the_baselines(tmp_path):
    # -B: no bytecode is written next to the benchmark's sources
    proc = run_python("-B", "-c", TRACED_THEOREM1, str(ROOT / "perfbench"),
                      str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["calls"]["cli.main"] == 2
    assert result["calls"]["baselines.predict"] > 0
    assert result["calls"]["baselines.observe"] > 0
    # ergodicity reads sample_path's .states and the word statistics
    assert result["calls"]["chain.sample_path"] >= 1
    assert result["calls"]["loss.word_stats"] >= 1


def test_consistency_curves_script_writes_tidy_csvs(tmp_path):
    proc = run_script("run_consistency_curves.py",
                      "--out", str(tmp_path), "-n", "20", "--trunc", "200")
    assert proc.returncode == 0, proc.stderr
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 8
    assert len(proc.stdout.splitlines()) == 1 + len(files)
    for path in files:
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "metric", "value"]
        assert [r[1] for r in rows[1:]] == (
            ["cum_kl_bits"] * 20 + ["cesaro_kl"] * 20 + ["bound_bits"] * 20)
        assert [int(r[0]) for r in rows[1:]] == list(range(1, 21)) * 3


def test_theorem1_battery_script_reports_failure(tmp_path):
    proc = run_script("run_theorem1_battery.py",
                      "--out", str(tmp_path / "ok"), "-n", "20", "--trunc", "200")
    assert proc.returncode == 0, proc.stderr
    # the CLI prints each run's summary too; the script's lines open with [
    status = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert len(status) == 4 and all("] ok in " in line for line in status)
    run_dirs = sorted((tmp_path / "ok").iterdir())
    assert len(run_dirs) == 4
    for run_dir in run_dirs:
        assert len(list(run_dir.iterdir())) == 5
    proc = run_script("run_theorem1_battery.py",
                      "--out", str(tmp_path / "bad"), "-n", "20", "--trunc", "0")
    assert proc.returncode != 0
    assert proc.stdout.count("] exit 2 in ") == 4
