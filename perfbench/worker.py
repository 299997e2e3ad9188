"""One workload run, in a fresh process started by ``run.py``.

Protocol on stdout: a ``READY`` line as soon as the workload's own half
is set up (the launcher times set-up from process start to that line),
free-form report lines, then one ``RESULT <json>`` line.  With
``--setup-only`` the process exits after ``READY``.

Every workload reports every end-to-end metric: besides its own half it
runs a fixed-shape companion of the other half, interleaved with its
own operations so that both see the same machine conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from fm import BACKENDS, FunctionalBench
from probes import Probes
from samples import median, percentile
from sim import COMPANION_SERVE, SimBench
from tracer import Tracer, format_table

clock = time.perf_counter

FM_WORKLOADS = ("fm-decode",)
SIM_WORKLOADS = ("sim-serve", "sim-cluster")
#: Share of measured time the companion half gets.  On ``fm-decode`` the
#: own half's decode-step minimum sets the run length, and the
#: simulator's scaled repeats need few samples; on the simulator
#: workloads the companion's request-level medians need more.
COMPANION_SHARE = {"fm-decode": 0.15, "sim-serve": 0.45, "sim-cluster": 0.45}
MIN_DECODE_STEPS = 100  # per backend, on fm-decode
#: Requests (functional model) or repeats (simulator) per half, at least.
MIN_OPS = 3
#: Fixed work of a traced run: requests (fm) or repeats (sim).
TRACE_WORK = {"fm-decode": 2, "sim-serve": 1, "sim-cluster": 1}
TRACE_DIR = os.path.join("perfbench", "out")


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class FmHalf:
    """Closed-loop requests of one shape, served on every backend."""

    def __init__(self, bench: FunctionalBench, seed: int, shape: str,
                 counter: Counter, min_steps: int = 0):
        self.bench = bench
        self.shape = shape
        self.prompts = bench.prompts(seed, shape)
        self.counter = counter
        self.min_steps = min_steps
        self.timings = {}
        self.requests = 0

    def op(self, tracer=None) -> None:
        self.counter.add(self.bench.serve(
            next(self.prompts), self.shape, self.timings, tracer,
            f"req{self.requests}"))
        self.requests += 1

    def enough(self) -> bool:
        steps = min(len(self.timings.get(be, {}).get("tpot", ())) for be in BACKENDS)
        return self.requests >= MIN_OPS and steps >= self.min_steps

    def metrics(self) -> dict:
        out = {}
        for be in BACKENDS:
            t = self.timings.get(be)
            if not t or not t["tpot"]:
                continue
            out[f"tok_s.{be}"] = median(t["tok_s"])
            out[f"ttft_ms.p50.{be}"] = percentile(t["ttft"], 50) * 1e3
            out[f"tpot_ms.p50.{be}"] = percentile(t["tpot"], 50) * 1e3
            out[f"tpot_ms.p90.{be}"] = percentile(t["tpot"], 90) * 1e3
            print(f"samples {be} ({self.shape}): {len(t['tok_s'])} requests "
                  f"(tok_s, ttft), {len(t['tpot'])} decode steps (tpot)")
        print(f"backends parted from {BACKENDS[0]} at a tie: {self.bench.ties} times")
        return out


class SimHalf:
    """Repeats of a simulator workload, rotating through its inputs.

    Each input's first report digest is the reference its later
    repeats must reproduce.
    """

    def __init__(self, sim: SimBench, counter: Counter):
        self.sim = sim
        self.counter = counter
        self.references = {}
        self.repeats = 0
        self.rates = []  # (input, terminal requests per wall second)

    def op(self, tracer=None) -> None:
        variant = self.repeats % self.sim.variants
        self.repeats += 1
        span = None
        if tracer is not None:
            tracer.request_id = f"repeat{self.repeats - 1}"
            span = tracer.begin("sim.repeat")
        try:
            wall, terminal, digest, problems = self.sim.repeat(variant, tracer)
        except Exception as exc:  # a failed repeat, not a crash
            print(f"simulator repeat on input {variant} failed: {exc!r}")
            self.counter.add(False)
            return
        finally:
            if span is not None:
                tracer.end(span)
        reference = self.references.setdefault(variant, digest)
        for p in problems:
            print(f"terminal-state check: {p}")
        if digest != reference:
            print(f"report digest {digest} differs from the first run's {reference}")
        self.counter.add(not problems and digest == reference)
        self.rates.append((variant, terminal / wall))

    def enough(self) -> bool:
        return len(self.rates) >= max(MIN_OPS, self.sim.variants)

    def metrics(self) -> dict:
        """``sim_req_s``: the median rate of each input's repeats,
        averaged over the inputs."""
        by_input = {}
        for variant, rate in self.rates:
            by_input.setdefault(variant, []).append(rate)
        print(f"samples sim_req_s: {len(self.rates)} repeats over "
              f"{len(by_input)} inputs")
        for variant in sorted(self.references):
            print(f"report sha256 input {variant}: {self.references[variant]}")
        medians = [median(rates) for rates in by_input.values()]
        return {"sim_req_s": sum(medians) / len(medians)}


def interleave(main, companion, seconds: float, share: float) -> None:
    """Alternate operations, giving ``companion`` its share of the time,
    until ``seconds`` have passed and both halves have enough samples.

    Each operation starts on a collected heap.  Otherwise a full
    collection that the simulator's garbage has made due (up to 95 ms,
    over the simulator's live objects) lands in whichever operation
    allocates next, often a 30 ms decode step of the functional model.
    """
    spent_main = spent_comp = 0.0
    start = clock()
    while True:
        elapsed = clock() - start
        if elapsed >= seconds and main.enough() and companion.enough():
            break
        if elapsed >= 6 * seconds:
            break  # operations keep failing; the counts say so
        gc.collect()
        if (spent_comp < share * (spent_main + spent_comp)
                or (main.enough() and not companion.enough())):
            t = clock()
            companion.op()
            spent_comp += clock() - t
        else:
            t = clock()
            main.op()
            spent_main += clock() - t


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def halves(args, counter: Counter):
    """Set up the workload's own half (then READY), warm it up, read the
    peak memory, then set up and warm up the companion.

    The own half's warm-up covers its shape and all of its inputs (one
    request of the workload's shape on every backend, or one repeat of
    every simulator input), so its memory has reached its steady peak
    before the companion's memory is added on top.
    """
    if args.workload in FM_WORKLOADS:
        bench = FunctionalBench(clock)
        setup = bench.setup()
        ready()
        FmHalf(bench, args.seed + 1, args.workload, Counter()).op()
        own_rss = peak_rss_mb()
        main = FmHalf(bench, args.seed, args.workload, counter, MIN_DECODE_STEPS)
        sim = SimBench("sim-serve", args.seed, clock, serve=COMPANION_SERVE)
        sim.setup()
        sim.repeat(0)
        companion = SimHalf(sim, counter)
    else:
        sim = SimBench(args.workload, args.seed, clock)
        setup = sim.setup()
        ready()
        for variant in range(sim.variants):
            sim.repeat(variant)
        own_rss = peak_rss_mb()
        main = SimHalf(sim, counter)
        bench = FunctionalBench(clock)
        bench.setup()
        FmHalf(bench, args.seed + 1, "companion", Counter()).op()
        companion = FmHalf(bench, args.seed, "companion", counter)
    return setup, main, companion, bench, sim, own_rss


def ready() -> None:
    print("READY", flush=True)


def run_untraced(args) -> dict:
    counter = Counter()
    _, main, companion, bench, sim, own_rss = halves(args, counter)
    interleave(main, companion, args.seconds, COMPANION_SHARE[args.workload])
    sim.close()
    metrics = {**main.metrics(), **companion.metrics()}
    metrics["peak_rss_mb"] = own_rss
    print(f"functional model {bench.host.summary()}")
    print(f"simulator {sim.host.summary()}")
    print(f"peak_rss_mb: {own_rss:.1f} before the companion was set up, "
          f"{peak_rss_mb():.1f} at the end of the run")
    return {"attempted": counter.attempted, "failed": counter.failed,
            "metrics": metrics}


def run_traced(args) -> dict:
    """Fixed work of the workload's own half, untraced then traced."""
    counter = Counter()
    setup, main, _, bench, sim, _ = halves(args, counter)
    work = TRACE_WORK[args.workload]
    for _ in range(work):
        main.op()
    plain = main.metrics()
    tracer = Tracer(clock)
    probes = Probes(tracer)
    bench.host.tracer = sim.host.tracer = tracer
    if isinstance(main, FmHalf):
        main = FmHalf(bench, args.seed, args.workload, counter)
        probes.install_functional(bench.model)
    else:
        references = main.references
        main = SimHalf(sim, counter)
        main.references = references  # traced repeats must reproduce them
        probes.install_simulator()
    t0 = clock()
    for _ in range(work):
        main.op(tracer)
    wall = clock() - t0
    probes.uninstall()
    traced = main.metrics()

    metrics = {f"setup.{key}": ms for key, ms in setup.items()}
    for key in plain:
        if key.startswith(("tok_s.", "sim_req_s")):
            metrics[f"trace.overhead.{key}"] = traced[key] - plain[key]
    if isinstance(main, FmHalf):
        metrics.update(bench.computed_counts())
    else:
        for key, value in sim.layer_counts(sim.last_runs).items():
            metrics[f"runtime.scheduler.{key}"] = float(value)
        server = sim.last_report.get("server")
        if server:
            cache = server["prefix_cache"]
            lookups = cache["hits"] + cache["misses"]
            metrics["server.prefix_hit_ratio"] = (
                cache["hits"] / lookups if lookups else 0.0)
    sim.close()
    metrics.update(probes.metrics(wall))
    rows, unattributed = probes.rows(wall)
    metrics["trace.wall_ms"] = wall * 1e3
    metrics["trace.unattributed_ms"] = unattributed * 1e3
    print(f"self time, traced run of {args.workload} (seed {args.seed}, "
          f"{len(tracer.spans)} spans):")
    print(format_table(rows, unattributed, wall))
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    tracer.write_chrome_trace(path)
    print(f"chrome trace: {path}")
    return {"attempted": counter.attempted, "failed": counter.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=FM_WORKLOADS + SIM_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        if args.workload in FM_WORKLOADS:
            FunctionalBench(clock).setup()
        else:
            SimBench(args.workload, args.seed, clock).setup()
        ready()
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
