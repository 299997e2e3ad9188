"""Simulator half: the serving stack timed from outside.

``sim-serve`` replays long mixed-output traces through
``ServingSimulator.run`` on one replica; ``sim-cluster`` calls each
multi-replica report once per repeat.  Simulated arrival times are
model inputs, so the end-to-end figure is simulated requests reaching a
terminal state per wall second, at the trace sizes fixed here.
"""

from __future__ import annotations

import copy
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from gates import report_digest, terminal_problems
from hostspeed import HostSpeed
from probes import wrap_attr

__all__ = ["SERVE", "SimBench", "RunCapture"]

#: One replica, chunked prefill, preemption-by-recompute.  Prompt 256
#: with max batch 32 drains the KV pool so most requests are preempted
#: (about 15 preemptions per request); prompt 64 with max batch 16
#: preempts none.
SERVE = dict(requests=700, arrival_rate=50.0, prompt_len=256,
             output_lens=(32, 128, 512), max_batch=32)

#: The smaller traces a functional-model workload replays so that it
#: also reports ``sim_req_s``.
COMPANION_SERVE = dict(SERVE, requests=600)
#: Inputs (traces, or report seed sets) drawn from one workload seed.
VARIANTS = 4


class RunCapture:
    """Pairs every runtime run's ``RuntimeStats`` with the ids submitted.

    Wraps the runtime's submission entry points and
    ``ContinuousBatchingScheduler.finalize`` (which every run, single
    replica, routed or disaggregated, ends in) while installed.
    """

    def __init__(self):
        self._by_stats: Dict[int, Tuple[object, Set[int]]] = {}
        self._finalized: Dict[int, object] = {}
        self._patches = ExitStack()

    def _note(self, stats, request_id: int) -> None:
        entry = self._by_stats.get(id(stats))
        if entry is None:
            entry = self._by_stats[id(stats)] = (stats, set())
        entry[1].add(request_id)

    def install(self) -> "RunCapture":
        from repro.runtime.faults import FaultTolerantRuntime
        from repro.runtime.scheduler import (
            ContinuousBatchingScheduler,
            DisaggregatedRuntime,
        )

        note = self._note

        def submit(original):
            def wrapper(rt, req, *args, **kwargs):
                note(rt.stats, req.request_id)
                return original(rt, req, *args, **kwargs)
            return wrapper

        def on_arrival(original):
            def wrapper(rt, req):
                note(rt.decode_sched.stats, req.request_id)
                return original(rt, req)
            return wrapper

        def finalize(original):
            def wrapper(sched):
                stats = original(sched)
                self._finalized[id(stats)] = stats
                return stats
            return wrapper

        for owner, attr, make in (
            (ContinuousBatchingScheduler, "submit", submit),
            (FaultTolerantRuntime, "submit", submit),
            (DisaggregatedRuntime, "_on_arrival", on_arrival),
            (ContinuousBatchingScheduler, "finalize", finalize),
        ):
            wrap_attr(self._patches, owner, attr, make)
        return self

    def uninstall(self) -> None:
        self._patches.close()

    def take(self) -> List[Tuple[object, Set[int]]]:
        """Finished runs since the last call, as ``(stats, submitted)``."""
        runs = [
            (stats, self._by_stats.get(key, (stats, set()))[1])
            for key, stats in self._finalized.items()
        ]
        self._by_stats.clear()
        self._finalized.clear()
        return runs


def _wasted_recompute(runs) -> Tuple[int, int]:
    """(prefill tokens beyond one pass over each completed prompt,
    prefill tokens)."""
    wasted = total = 0
    for stats, _ in runs:
        first_pass = (sum(r.prompt_len for r in stats.completed)
                      - stats.cached_prefill_tokens)
        total += stats.prefill_tokens
        wasted += max(0, stats.prefill_tokens - first_pass)
    return wasted, total


class SimBench:
    """Set-up and repeats of a simulator workload.

    The workload seed yields :data:`VARIANTS` inputs (traces, or report seed
    sets) and repeats rotate through them, so a run's figure averages
    over several inputs instead of hanging on one draw.
    """

    def __init__(self, workload: str, seed: int, clock: Callable[[], float],
                 serve: Optional[Dict] = None):
        if workload not in ("sim-serve", "sim-cluster"):
            raise ValueError(f"not a simulator workload: {workload}")
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.host = HostSpeed(clock)
        self.serve = serve or SERVE
        self.variants = VARIANTS
        self.capture = RunCapture()
        #: Runs and report of the last repeat.
        self.last_runs: List[Tuple[object, Set[int]]] = []
        self.last_report: Dict = {}

    def setup(self) -> Dict[str, float]:
        """Imports, configs and input generation; returns ms per stage."""
        clock = self.clock
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, (self.variants, 4))
        if self.workload == "sim-serve":
            t0 = clock()
            from repro.llm.serving import (
                ServingConfig,
                ServingSimulator,
                mixed_workload,
            )
            t1 = clock()
            s = self.serve
            self.traces = [
                mixed_workload(
                    s["requests"], arrival_rate=s["arrival_rate"],
                    output_lens=s["output_lens"], prompt_len=s["prompt_len"],
                    seed=int(row[0]),
                )
                for row in seeds
            ]
            self.config = ServingConfig(
                model="opt-13b", framework="spinfer", max_batch=s["max_batch"],
                chunked_prefill=True, preemption=True,
            )
            self._simulator = ServingSimulator
        else:
            t0 = clock()
            from repro.fleet.planner import FleetConfig, fleet_report
            from repro.integrity.harness import IntegrityConfig, integrity_report
            from repro.llm.chaos import ChaosConfig, chaos_report
            from repro.server import ServerConfig, server_report
            t1 = clock()
            # Each report takes its own seed; fault plans are pinned
            # program data.
            self.reports = [
                [
                    ("server", server_report, ServerConfig(seed=int(row[0]))),
                    ("llm.chaos", chaos_report,
                     ChaosConfig(seed=int(row[1]), plan="chaos-mix")),
                    ("integrity", integrity_report,
                     IntegrityConfig(seed=int(row[2]))),
                    ("fleet", fleet_report, FleetConfig(seed=int(row[3]))),
                ]
                for row in seeds
            ]
        t2 = clock()
        self.capture.install()
        return {"import_ms": (t1 - t0) * 1e3, "init_ms": (t2 - t1) * 1e3}

    def close(self) -> None:
        self.capture.uninstall()

    def repeat(self, variant: int, tracer=None):
        """One repeat on input ``variant``: returns (host-scaled seconds,
        terminal requests, report digest, terminal-state problems).

        With a ``tracer``, each report call is recorded as a span.
        """
        try:
            if self.workload == "sim-serve":
                requests = copy.deepcopy(self.traces[variant])
                stats, wall = self.host.timed(
                    lambda: self._simulator(self.config).run(requests))
                report = {
                    "completed": len(stats.completed),
                    "rejected": [r.request_id for r in stats.rejected],
                    "makespan_s": round(stats.makespan_s, 9),
                    "preemptions": stats.preemptions,
                    "iterations": stats.iterations,
                    "trace_sha256": report_digest(stats.trace.event_log()),
                }
            else:
                report = {}
                wall = 0.0
                for name, fn, cfg in self.reports[variant]:
                    report[name], seconds = self.host.timed(
                        lambda: self._report(name, fn, cfg, tracer))
                    wall += seconds
        finally:
            # A repeat that raised leaves no runs behind for the next one.
            runs = self.capture.take()
        self.last_runs = runs
        self.last_report = report
        terminal = sum(len(submitted) for _, submitted in runs)
        return wall, terminal, report_digest(report), terminal_problems(runs)

    @staticmethod
    def _report(name: str, fn, cfg, tracer):
        span = tracer.begin(f"{name}.report") if tracer else None
        try:
            return fn(cfg)
        finally:
            if span is not None:
                tracer.end(span)

    @staticmethod
    def layer_counts(runs) -> Dict[str, float]:
        """Counts the runtime keeps itself, summed over ``runs``."""
        wasted, prefill = _wasted_recompute(runs)
        return {
            "iterations": sum(s.iterations for s, _ in runs),
            "preemptions": sum(s.preemptions for s, _ in runs),
            "wasted_recompute_ratio": wasted / prefill if prefill else 0.0,
        }
