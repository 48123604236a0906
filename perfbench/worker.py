"""One benchmark run of one workload, in its own process (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (import, seeded inputs, warm-up) is timed first; set-up after the
import is repeated and its median taken.  The timed loop then runs ops one
after another until --seconds of wall time have passed, stopping at the end
of a cycle (see the workloads), so that every run measures whole cycles.
Timings are process CPU time; wall-clock figures go to the meta line.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, taken from spans around every
library call, and each op also runs untraced next to its traced run to
measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

CPU_START, WALL_START = time.process_time(), time.perf_counter()
import numpy as np  # noqa: E402  (import time is part of set-up)
import bellcost  # noqa: E402

IMPORT_CPU_S, IMPORT_WALL_S = time.process_time() - CPU_START, time.perf_counter() - WALL_START

from spans import NULL, Tracer, op_coverage, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
# On a shared host the vCPUs differ in speed, and which one is faster changes
# within seconds; moving the worker to the next allowed CPU this often (at op
# ends) makes a run sample all of them instead of the one it started on.
CPU_SWITCH_S = 0.25


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten ops above it.

    With ten ops or fewer no such percentile exists, and the maximum is
    reported with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11  # ten ops lie strictly above index k
    return ordered[k], 100.0 * (k + 1) / n


def timed(workload, tracer, op) -> tuple[float, float, str | None]:
    """Run one op; return its CPU time, its wall time and, if it failed, why."""
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        tracer.call("bench.op", workload.run, tracer, op)
        error = None
    except Exception as exc:  # a raising library call and a failed check both fail the op
        error = f"{type(exc).__name__}: {exc}"
    return time.process_time() - c0, time.perf_counter() - w0, error


def run_loop(workload, tracer, seconds: float, replay: bool = False) -> dict:
    """Run ops until `seconds` of wall time have passed at a cycle end.

    With `replay`, each op is also run untraced right before or after its
    traced run (alternating), so that both timings see the same machine
    state.  Returns per-op CPU and wall times, untraced replay CPU times,
    errors, each cycle's completed ops per CPU second, and the loop's CPU
    and wall time.
    """
    out = {"cpu": [], "wall": [], "untraced_cpu": [], "errors": [], "cycle_rates": []}
    cpus = sorted(os.sched_getaffinity(0))
    switches = 0
    os.sched_setaffinity(0, {cpus[0]})
    c0, w0 = time.process_time(), time.perf_counter()
    cycle_cpu, cycle_ok, switch_at = c0, 0, w0 + CPU_SWITCH_S
    for i, (op, cycle_end) in enumerate(workload.ops()):
        if replay and i % 2:
            out["untraced_cpu"].append(timed(workload, NULL, op)[0])
        tracer.op = i
        cpu, wall, error = timed(workload, tracer, op)
        if replay and not i % 2:
            out["untraced_cpu"].append(timed(workload, NULL, op)[0])
        out["cpu"].append(cpu)
        out["wall"].append(wall)
        out["errors"].append(error)
        cycle_ok += error is None
        if time.perf_counter() >= switch_at:
            switches += 1
            os.sched_setaffinity(0, {cpus[switches % len(cpus)]})
            switch_at = time.perf_counter() + CPU_SWITCH_S
        if cycle_end:
            now = time.process_time()
            out["cycle_rates"].append(cycle_ok / (now - cycle_cpu))
            cycle_cpu, cycle_ok = now, 0
            if time.perf_counter() - w0 >= seconds:
                break
    out["loop_cpu"], out["loop_wall"] = time.process_time() - c0, time.perf_counter() - w0
    out["cpu_switches"] = switches
    os.sched_setaffinity(0, set(cpus))
    return out


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bellcost": bellcost.__version__,
        "commit": git_commit(),
        "cpu_model": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, entry)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                info[f"L{level}_per_cpu0"] = size
    except OSError:
        pass
    info["thread_caps"] = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    info["BELLCOST_THREADS"] = os.environ.get("BELLCOST_THREADS", "unset")
    return info


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' outside a git repo."""
    git = os.path.join(os.path.dirname(HERE), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=non_negative, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        return measure(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, out_dir: str, workdir: str) -> int:
    tracer = Tracer() if args.trace else NULL
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_cpu, setup_wall = [], []
    for rep in range(SETUP_REPEATS):
        c0, w0 = time.process_time(), time.perf_counter()
        sizes = workload.setup(tracer if rep == 0 else NULL)
        workload.warmup(NULL)
        setup_cpu.append(time.process_time() - c0)
        setup_wall.append(time.perf_counter() - w0)
    gc.collect()

    loop = run_loop(workload, tracer, args.seconds, replay=bool(args.trace))
    times, errors = loop["cpu"], loop["errors"]
    attempted = len(times)
    n_failed = sum(error is not None for error in errors)
    tail_s, tail_pct = tail(times)
    e2e = {
        "setup_s": (IMPORT_CPU_S + statistics.median(setup_cpu), "s"),
        "ops_per_s": (statistics.median(loop["cycle_rates"]), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - n_failed / attempted, "share"),
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": sizes,
        "ops": attempted,
        "failed": n_failed,
        "error_rate": n_failed / attempted,
        "first_error": next((error for error in errors if error), None),
        "op_tail_percentile": tail_pct,
        "cycles": len(loop["cycle_rates"]),
        "cpu_switches": loop["cpu_switches"],
        "clock": "times are process CPU seconds (user + system); wall-clock figures below",
        "wall": {
            "setup_s": IMPORT_WALL_S + statistics.median(setup_wall),
            "ops_per_s": (attempted - n_failed) / loop["loop_wall"],
            "op_p50_s": statistics.median(loop["wall"]),
            "op_tail_s": tail(loop["wall"])[0],
            "loop_s": loop["loop_wall"],
        },
        "import_cpu_s": IMPORT_CPU_S,
        "setup_repeats_cpu_s": setup_cpu,
        "machine": machine(),
        "labels": {"oracle.search.options": "computed from N, not measured"},
    }

    if args.trace:
        metrics = per_layer_metrics(tracer)
        metrics["trace.coverage"], metrics["trace.coverage_min"] = (
            (share, "share") for share in op_coverage(tracer)
        )
        traced_sum, untraced_sum = sum(times), sum(loop["untraced_cpu"])
        metrics["trace.overhead_frac"] = ((traced_sum - untraced_sum) / untraced_sum, "share")
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = e2e

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<40} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':<40} {meta['error_rate']:>16.6g} share")
        print(f"{'op_tail_percentile':<40} {tail_pct:>16.6g} %  ({attempted} ops)")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, "op_cpu_s": times}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
