"""Benchmark launcher: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload fm-decode --seed 1 --seconds 16 --trace 0

Run from the repository root.  Each run starts the workload in a fresh
worker process (single-threaded BLAS), so set-up time and peak memory
do not leak between workloads.  ``setup_s`` is the median of several
fresh set-ups, each timed from process start to the worker's ``READY``
line and scaled by reference loops run just before the start and, for
a set-up-only worker, just after it exits (see ``hostspeed.py``; the
worker scales its own timings the same way).  ``--trace 1`` makes a separate traced run that prints the
self-time table, writes a Chrome trace under ``perfbench/out/`` and
reports the per-layer metrics.  The last stdout line is the result;
the exit code is non-zero when an output check fails or the run breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

from hostspeed import HostSpeed
from samples import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
#: Fresh set-ups per run; the median is ``setup_s``.
SETUP_SAMPLES = 3
#: Wall-clock ceiling of one worker process, in seconds.
WORKER_TIMEOUT = 150.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RunError(Exception):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env, setup_only: bool, deadline: float, host: HostSpeed):
    """Start a worker; returns (scaled seconds to READY, RESULT payload
    or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    reference = host.median_reference()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, flush=True)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RunError(f"worker exited with code {code}"
                       + (" (killed at the time limit)" if code < 0 else ""))
    if ready_s is None:
        raise RunError("worker never reported READY")
    if setup_only:
        reference = (reference + host.median_reference()) / 2
    return host.scale(ready_s, reference), result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = worker_env(root)
    host = HostSpeed(time.perf_counter)
    deadline = time.perf_counter() + WORKER_TIMEOUT
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, env, True, deadline, host)[0])
        ready_s, result = run_worker(args, env, False, deadline, host)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("worker printed no result", file=sys.stderr)
        return 1
    values = result["metrics"]
    if not args.trace:
        setups.append(ready_s)
        values["setup_s"] = median(setups)
        print(f"samples setup_s: {len(setups)} fresh set-ups; launcher "
              f"{host.summary()}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if args.trace:
        # Layers the workload does not exercise read zero.
        values.update({name: 0.0 for name in missing})
    elif missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
