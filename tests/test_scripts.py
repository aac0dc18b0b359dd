import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_consistency_curves_script_writes_tidy_csvs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_consistency_curves.py"),
         "--out", str(tmp_path), "-n", "20", "--trunc", "200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
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
