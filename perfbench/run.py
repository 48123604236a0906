"""Run one bellcost benchmark workload in a clean child process.

    python3 perfbench/run.py --workload experiment|landscape|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  The child gets its own process, so peak RSS is the workload's own,
with BLAS/OpenMP pools capped at one thread and BELLCOST_THREADS unset, so
that `curve_sweep` takes its default path.  The child's output is passed
through; its last stdout line is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 175
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("BELLCOST_THREADS", None)
    env.update({cap: "1" for cap in THREAD_CAPS})
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def main(argv: list[str]) -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "bellcost", "__init__.py")):
        print("error: run from the root of a bellcost checkout (no src/bellcost here)", file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        proc = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"error: workload run exceeded {TIMEOUT_S} s", file=sys.stderr)
        sys.stderr.write(exc.stderr.decode() if isinstance(exc.stderr, bytes) else (exc.stderr or ""))
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"error: workload run exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
