"""Layer probes for the traced run.

Each probe wraps one of the program's entry points, from here, in a
tracer span or aggregate, and :meth:`Probes.metrics` turns the recorded
spans into the per-layer metrics.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Callable, Dict
from unittest import mock

from fm import BACKENDS
from tracer import Tracer, self_time_table

__all__ = ["wrap_attr", "Probes", "LINEAR_NAMES", "REPORTS"]

LINEAR_NAMES = ("qkv", "out", "fc1", "fc2")
REPORTS = ("server", "llm.chaos", "integrity", "fleet")


def wrap_attr(stack: ExitStack, owner, attr: str, make: Callable) -> None:
    """Set ``owner.attr`` to ``make(original)`` until ``stack`` closes."""
    stack.enter_context(
        mock.patch.object(owner, attr, make(owner.__dict__[attr])))


class Probes:
    """Spans and counts at the program's layer boundaries."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches = ExitStack()
        self.decoded = set()  # ids of encoded matrices SMBD decoded
        self.cost_inputs = set()
        self.events = 0

    def _span(self, owner, attr: str, name, aggregate: bool = False) -> None:
        wrap_attr(self.patches, owner, attr,
                  lambda fn: self.tracer.traced(fn, name, aggregate))

    def uninstall(self) -> None:
        self.patches.close()

    # ---- functional model -------------------------------------------------------

    def install_functional(self, model) -> None:
        import repro.kernels.spinfer as spinfer_mod
        from repro.kernels.flash_llm import FlashLLMKernel
        from repro.kernels.spinfer import SpInferKernel
        from repro.llm.functional_model import FunctionalTransformer

        names = {
            id(lin): name
            for layer in model.layers
            for name, lin in zip(LINEAR_NAMES, layer.linears())
        }
        linear_cls = type(model.layers[0].qkv)
        self._span(FunctionalTransformer, "forward", "functional_model.forward")
        self._span(
            linear_cls, "__call__",
            lambda lin, x, be: f"functional_model.linear.{names[id(lin)]}.{be}",
        )
        self._span(SpInferKernel, "run_encoded", "kernels.spinfer.run_encoded")
        self._span(FlashLLMKernel, "run_encoded", "kernels.flash-llm.run_encoded")

        decoded = self.decoded

        def decode_matrix(original):
            decode = self.tracer.traced(original, "core.smbd.decode_matrix")

            def wrapper(bitmaps, *args, **kwargs):
                decoded.add(id(bitmaps))
                return decode(bitmaps, *args, **kwargs)
            return wrapper

        wrap_attr(self.patches, spinfer_mod, "decode_matrix", decode_matrix)

    # ---- simulator --------------------------------------------------------------

    def install_simulator(self) -> None:
        from repro.llm.inference import InferenceEngine
        from repro.llm.kv_cache import KVBlockAllocator
        from repro.runtime.core import EventLoop
        from repro.runtime.faults import FaultTolerantRuntime
        from repro.runtime.scheduler import ContinuousBatchingScheduler
        from repro.runtime.trace import RuntimeTrace

        tracer = self.tracer

        def loop_run(original):
            run = tracer.traced(original, "runtime.core.loop.run")

            def wrapper(loop, *args, **kwargs):
                before = loop.dispatched
                try:
                    return run(loop, *args, **kwargs)
                finally:
                    self.events += loop.dispatched - before
            return wrapper

        wrap_attr(self.patches, EventLoop, "run", loop_run)
        self._span(ContinuousBatchingScheduler, "_start_iteration",
                   "runtime.scheduler.start_iteration")
        self._span(ContinuousBatchingScheduler, "_finish_iteration",
                   "runtime.scheduler.finish_iteration")
        self._span(KVBlockAllocator, "append_token", "llm.kv_cache.append_token",
                   aggregate=True)
        self._span(RuntimeTrace, "record", "runtime.trace.record", aggregate=True)
        self._span(FaultTolerantRuntime, "route", "runtime.faults.router.route",
                   aggregate=True)
        inputs = self.cost_inputs

        def cost_entry(attr):
            def make(original):
                cost = tracer.traced(original, "llm.inference.cost", aggregate=True)

                def wrapper(engine, *args):
                    inputs.add((id(engine), attr, args))
                    return cost(engine, *args)
                return wrapper
            return make

        for attr in ("decode_step_seconds", "prefill_tokens_seconds",
                     "prefill_breakdown"):
            wrap_attr(self.patches, InferenceEngine, attr, cost_entry(attr))

    # ---- metrics ----------------------------------------------------------------

    def rows(self, wall: float):
        t = self.tracer
        return self_time_table(t.spans, wall, t.root_agg)

    def metrics(self, wall: float) -> Dict[str, float]:
        rows, _ = self.rows(wall)
        by = {r["name"]: r for r in rows}

        def calls(name):
            return float(by[name]["calls"]) if name in by else 0.0

        def busy_ms(name):
            return by[name]["total_s"] * 1e3 if name in by else 0.0

        def self_ms(name):
            return by[name]["self_s"] * 1e3 if name in by else 0.0

        out = {}
        for lin in LINEAR_NAMES:
            for be in BACKENDS:
                out[f"functional_model.linear.{lin}.{be}.ms"] = busy_ms(
                    f"functional_model.linear.{lin}.{be}")
        out["functional_model.forward.self_ms"] = self_ms("functional_model.forward")
        k = "kernels.spinfer.run_encoded"
        out[f"{k}.calls"] = calls(k)
        out[f"{k}.busy_ms"] = busy_ms(k)
        out[f"{k}.self_ms"] = self_ms(k)
        d = "core.smbd.decode_matrix"
        out[f"{d}.calls"] = calls(d)
        out[f"{d}.busy_ms"] = busy_ms(d)
        out[f"{d}.useful_ratio"] = len(self.decoded) / calls(d) if calls(d) else 0.0
        f = "kernels.flash-llm.run_encoded"
        out[f"{f}.calls"] = calls(f)
        out[f"{f}.busy_ms"] = busy_ms(f)

        out["runtime.core.loop.events"] = float(self.events)
        out["runtime.core.loop.run_ms"] = busy_ms("runtime.core.loop.run")
        iters = ("runtime.scheduler.start_iteration",
                 "runtime.scheduler.finish_iteration")
        starts = calls(iters[0])
        sched_busy = sum(busy_ms(n) for n in iters)
        out["runtime.scheduler.iter_us"] = 1e3 * sched_busy / starts if starts else 0.0
        out["runtime.scheduler.self_ms"] = sum(self_ms(n) for n in iters)
        for name in ("llm.kv_cache.append_token", "runtime.trace.record",
                     "runtime.faults.router.route", "llm.inference.cost"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.busy_ms"] = busy_ms(name)
        cost_calls = calls("llm.inference.cost")
        out["llm.inference.cost.distinct_ratio"] = (
            len(self.cost_inputs) / cost_calls if cost_calls else 0.0)
        for report in REPORTS:
            out[f"{report}.report_ms"] = busy_ms(f"{report}.report")
        return out
