"""Benchmark entry point: one run of one workload, in a fresh process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_crosscheck, bound_certification, general_propagation (see
README.md).  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from the root of a checkout that holds ``src/modred``.
"""

import argparse
import compileall
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src" / "modred"
    if not src.is_dir():
        print(f"error: {src} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    # bytecode is cached once here, so that setup_s measures a warm install
    compileall.compile_dir(str(src), quiet=1)
    env = dict(os.environ)
    env.pop("MODRED_THREADS", None)  # the program's default: one worker
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace)]
    try:
        done = subprocess.run([*argv, "--spawned-at", repr(time.monotonic())],
                              env=env, cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run did not end within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
