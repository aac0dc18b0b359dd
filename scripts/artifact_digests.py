#!/usr/bin/env python3
"""Print a SHA-256 of every output of a fixed set of CLI runs.

The runs cover each command and its edge paths: the theorem1 battery at
n = 500, J = 1e4, ergodicity samples, word marginals (one impossible, one
over its width budget), a trajectory sample, loss runs (one with inf
losses) and the chain tables.  They run in process through
``predlab.cli.main``, in one fresh temporary directory.  For each run the
script prints its exit code and one digest per stdout, per stderr and per
file written, with the temporary path replaced by a fixed string first, so
two trees whose runs leave the same bytes print the same lines:

    PYTHONPATH=src python scripts/artifact_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from predlab.cli import main as cli_main

#: the runs, with ``{out}`` standing for the temporary directory
RUNS = [
    *(["theorem1", "--rho", rho, "-n", "500", "--out", f"{{out}}/theorem1_{rho}"]
      for rho in ("uniform", "kt", "mix:3", "mux:periodic:01")),
    ["ergodicity", "--target", "periodic:01", "-n", "200000", "--seed", "1"],
    ["ergodicity", "--target", "coin:7", "-n", "200000", "--seed", "3",
     "--out", "{out}/ergodicity.json"],
    ["mux", "marginal", "--target", "coin:7", "--query", "0100110111010010",
     "--trunc", "1000000", "--out", "{out}/marginal_coin.json"],
    ["mux", "marginal", "--target", "periodic:01", "--query", "0101010101010101"],
    ["mux", "marginal", "--target", "periodic:0", "--query", "0001"],
    ["mux", "marginal", "--target", "periodic:01", "--query", "0100110111010010",
     "--max-width", "1e-9"],
    ["mux", "sample", "--target", "champernowne", "-n", "5000", "--seed", "4",
     "--out", "{out}/sample.txt"],
    ["loss", "--rho", "kt", "--target", "champernowne", "-n", "500",
     "--out", "{out}/loss_kt"],
    ["loss", "--rho", "dirac:periodic:0", "--target", "periodic:01", "-n", "50",
     "--out", "{out}/loss_dirac"],
    ["chain", "info", "--out", "{out}/chain.json"],
]


def digest(data: bytes, tmp: str) -> str:
    return hashlib.sha256(data.replace(os.fsencode(tmp), b"<tmp>")).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        seen = set()
        for run in RUNS:
            argv = [arg.replace("{out}", tmp) for arg in run]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            print("$ predlab " + " ".join(run).replace("{out}", "<tmp>"))
            print(f"  exit {code}")
            print(f"  stdout {digest(out.getvalue().encode(), tmp)}")
            print(f"  stderr {digest(err.getvalue().encode(), tmp)}")
            for path in sorted(Path(tmp).rglob("*")):
                if path.is_file() and path not in seen:
                    seen.add(path)
                    name = path.relative_to(tmp).as_posix()
                    print(f"  <tmp>/{name} {digest(path.read_bytes(), tmp)}")


if __name__ == "__main__":
    main()
