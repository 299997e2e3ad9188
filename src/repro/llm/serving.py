"""Continuous-batching serving simulator (runtime-backed).

The paper positions SpInfer as orthogonal to online serving systems
(Orca-style continuous batching, vLLM memory management) and claims it
"can complement and improve their performance".  This module tests that
claim quantitatively over the discrete-event core in
:mod:`repro.runtime`: a continuous-batching scheduler admits requests
into a running batch under a live paged-KV budget (the
:class:`~repro.llm.kv_cache.KVBlockAllocator` is the single source of
KV truth), prices each iteration with
:meth:`repro.llm.inference.InferenceEngine.decode_step_seconds`, and
reports latency / TTFT / throughput statistics.

The mechanism by which SpInfer helps is twofold: faster decode steps
(kernel speedup) and — often more importantly — the TCA-BME weight
footprint leaves more DRAM headroom for KV cache, so the server sustains
a larger running batch before hitting the admission wall.  Two
scheduler upgrades over the historical simulator sharpen the test:
**chunked prefill** interleaves prompt processing with decode steps
instead of blocking every running sequence behind each new prompt, and
**preemption-by-recompute** lets admission run on-demand (actual
blocks, not worst-case reservations) with vLLM's recompute discipline
paying for the overcommit.

``ServingSimulator.run_legacy`` preserves the original hand-rolled loop
(with its infinite-admission hazard fixed) as the translation-validation
baseline: on an FCFS / blocking-prefill / no-preemption configuration
the runtime must reproduce its throughput and makespan within 1 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..gpu.specs import get_gpu
from ..runtime import ContinuousBatchingScheduler, GPUPool, RuntimeTrace
from ..runtime.request import SessionRequest
from .inference import InferenceConfig, InferenceEngine
from .memory import kv_budget_bytes, kv_bytes_per_token

__all__ = [
    "Request",
    "ServingConfig",
    "ServingStats",
    "ServingSimulator",
    "compare_frameworks",
    "mixed_workload",
    "nearest_rank_percentile",
    "poisson_workload",
]

#: The request model moved to :class:`repro.runtime.request.
#: SessionRequest` (one home for the whole lifecycle, session-aware);
#: ``Request`` stays as the serving-layer name for it.
Request = SessionRequest


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ``ceil(pct/100 * n)``-th smallest
    value, so p50 of a small sample is a real median-ish value rather
    than the truncation-index overshoot.  Raises ``ValueError`` on an
    empty sample or a ``pct`` outside ``[0, 100]``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def poisson_workload(
    num_requests: int,
    arrival_rate: float,
    prompt_len: int = 64,
    output_len: int = 128,
    seed: int = 0,
) -> List[Request]:
    """Open-loop Poisson arrivals with fixed prompt/output lengths."""
    import numpy as np

    if num_requests <= 0 or arrival_rate <= 0:
        raise ValueError("need positive request count and arrival rate")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, size=num_requests)
    arrivals = np.cumsum(gaps)
    return [
        Request(
            request_id=i,
            arrival_s=float(arrivals[i]),
            prompt_len=prompt_len,
            output_len=output_len,
        )
        for i in range(num_requests)
    ]


def mixed_workload(
    num_requests: int,
    arrival_rate: float,
    output_lens: Sequence[int] = (32, 128, 512),
    prompt_len: int = 64,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals with output lengths drawn from a discrete mix —
    the heterogeneous traffic where scheduling policy starts to matter."""
    import numpy as np

    if not output_lens:
        raise ValueError("need at least one output length")
    base = poisson_workload(num_requests, arrival_rate, prompt_len,
                            output_lens[0], seed)
    rng = np.random.default_rng(seed + 1)
    draws = rng.choice(list(output_lens), size=num_requests)
    for req, out_len in zip(base, draws):
        req.output_len = int(out_len)
    return base


@dataclass(frozen=True)
class ServingConfig:
    """Server deployment parameters."""

    model: str
    framework: str
    gpu: str = "RTX4090"
    num_gpus: int = 1
    sparsity: float = 0.6
    max_batch: int = 32
    #: Admission order: "fcfs" (arrival order) or "sjf" (shortest
    #: remaining output first — trades fairness for mean latency).
    policy: str = "fcfs"
    #: Paged-KV block size (tokens per block).
    block_size: int = 16
    #: Interleave prompt processing with decode steps instead of
    #: blocking the whole batch behind each new prefill.
    chunked_prefill: bool = False
    #: Prompt tokens processed per iteration in chunked mode.
    chunk_tokens: int = 128
    #: Admit on demand and preempt-by-recompute when the pool runs dry
    #: (off = worst-case block reservation at admission).
    preemption: bool = False
    #: Capture a lintable KV snapshot every N iterations (0 = never).
    snapshot_every: int = 0
    #: Optional cap on the KV pool, in tokens — lets experiments pit
    #: schedulers against each other at an equal, artificially tight
    #: memory budget.  None = everything the DRAM budget allows.
    kv_cap_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.policy not in ("fcfs", "sjf"):
            raise ValueError(f"unknown policy {self.policy!r}; use fcfs or sjf")
        if self.block_size <= 0 or self.chunk_tokens <= 0:
            raise ValueError("block_size and chunk_tokens must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every cannot be negative")
        if self.kv_cap_tokens is not None and self.kv_cap_tokens <= 0:
            raise ValueError("kv_cap_tokens must be positive when set")


@dataclass
class ServingStats:
    """Aggregate results of one simulated trace."""

    completed: List[Request]
    makespan_s: float
    peak_batch: int
    kv_budget_bytes: float
    #: Requests whose worst-case KV exceeds the whole pool — admitted
    #: nowhere, reported instead of spinning the scheduler forever.
    rejected: List[Request] = field(default_factory=list)
    preemptions: int = 0
    iterations: int = 0
    trace: Optional[RuntimeTrace] = None

    @property
    def throughput_tokens_per_s(self) -> float:
        total = sum(r.output_len for r in self.completed)
        return total / self.makespan_s if self.makespan_s > 0 else 0.0

    def _percentile(self, values: List[float], pct: float) -> float:
        if not values:
            raise ValueError("no completed requests")
        return nearest_rank_percentile(values, pct)

    def latency_percentile(self, pct: float) -> float:
        return self._percentile([r.latency_s for r in self.completed], pct)

    def ttft_percentile(self, pct: float) -> float:
        return self._percentile(
            [r.ttft_s for r in self.completed if r.ttft_s is not None], pct
        )

    @property
    def mean_latency_s(self) -> float:
        lats = [r.latency_s for r in self.completed]
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def mean_ttft_s(self) -> float:
        ttfts = [r.ttft_s for r in self.completed if r.ttft_s is not None]
        return sum(ttfts) / len(ttfts) if ttfts else 0.0


class ServingSimulator:
    """Continuous batching as a policy over the discrete-event runtime."""

    def __init__(self, config: ServingConfig):
        self.config = config
        # The engine is used for per-step costs; batch/lengths vary at
        # runtime so the InferenceConfig values here are placeholders.
        self.engine = InferenceEngine(
            InferenceConfig(
                model=config.model,
                framework=config.framework,
                gpu=config.gpu,
                num_gpus=config.num_gpus,
                batch_size=1,
                prompt_len=8,
                output_len=8,
                sparsity=config.sparsity
                if self._framework_sparse(config.framework)
                else 0.0,
            )
        )
        self.gpu = get_gpu(config.gpu)
        self.kv_budget = self._kv_budget_bytes()

    @staticmethod
    def _framework_sparse(framework: str) -> bool:
        from .frameworks import get_framework

        return get_framework(framework).supports_sparsity

    def _kv_budget_bytes(self) -> float:
        """DRAM left for KV cache after weights + runtime overhead."""
        cfg = self.config
        budget = kv_budget_bytes(
            self.engine.model,
            self.engine.framework.weight_format,
            self.engine.config.sparsity,
            self.gpu,
            tensor_parallel=cfg.num_gpus,
        )
        if budget <= 0:
            raise ValueError(
                f"{cfg.model} does not fit {cfg.num_gpus}x{cfg.gpu} under "
                f"{cfg.framework}; no KV budget left"
            )
        return budget

    def _kv_bytes_per_token(self) -> float:
        return kv_bytes_per_token(self.engine.model, self.config.num_gpus)

    # ---- runtime construction --------------------------------------------------------

    def build_pool(self, name: str = "gpu0") -> GPUPool:
        """The per-GPU resource model this server schedules against.

        ``name`` distinguishes replicas when several pools share one
        loop (the fault-tolerant router builds one pool per replica).
        """
        cfg = self.config
        budget = self.kv_budget
        if cfg.kv_cap_tokens is not None:
            budget = min(
                budget, cfg.kv_cap_tokens * self._kv_bytes_per_token()
            )
        return GPUPool(
            engine=self.engine,
            kv_budget_bytes=budget,
            block_size=cfg.block_size,
            max_batch=cfg.max_batch,
            name=name,
        )

    def build_scheduler(self) -> ContinuousBatchingScheduler:
        cfg = self.config
        return ContinuousBatchingScheduler(
            self.build_pool(),
            policy=cfg.policy,
            prefill_mode="chunked" if cfg.chunked_prefill else "blocking",
            chunk_tokens=cfg.chunk_tokens,
            preemption=cfg.preemption,
            snapshot_every=cfg.snapshot_every,
        )

    def run(self, requests: List[Request], loop=None) -> ServingStats:
        """Simulate the trace to completion on the event runtime.

        ``loop`` lets instrumented callers (the H-family schedule lint)
        supply an :class:`~repro.runtime.core.EventLoop` carrying an
        observer or a permuted tie-break.
        """
        if not requests:
            raise ValueError("empty workload")
        res = self.build_scheduler().run(requests, loop=loop)
        return ServingStats(
            completed=res.completed,
            makespan_s=res.makespan_s,
            peak_batch=res.peak_batch,
            kv_budget_bytes=self.kv_budget,
            rejected=res.rejected,
            preemptions=res.preemptions,
            iterations=res.iterations,
            trace=res.trace,
        )

    # ---- legacy baseline -------------------------------------------------------------

    def run_legacy(self, requests: List[Request]) -> ServingStats:
        """The historical hand-rolled loop, kept as the translation-
        validation baseline for the event runtime.

        Differences from the original: a request whose worst-case KV
        need exceeds the whole budget is rejected up front (the original
        never admitted it, never advanced the clock, and spun forever),
        and admission reserves TRUE worst-case bytes for running
        sequences (``prompt + output``) rather than their decayed
        current footprint, so the budget can never be oversubscribed.
        """
        if not requests:
            raise ValueError("empty workload")
        kv_per_token = self._kv_bytes_per_token()
        rejected = [
            r for r in requests
            if (r.prompt_len + r.output_len) * kv_per_token > self.kv_budget
        ]
        reject_ids = {r.request_id for r in rejected}
        pending = sorted(
            (r for r in requests if r.request_id not in reject_ids),
            key=lambda r: r.arrival_s,
        )
        running: List[Request] = []
        completed: List[Request] = []
        now = 0.0
        peak_batch = 0
        iterations = 0

        def kv_reserved() -> float:
            return sum(
                (r.prompt_len + r.output_len) * kv_per_token for r in running
            )

        sjf = self.config.policy == "sjf"
        while pending or running:
            if not running and pending and pending[0].arrival_s > now:
                now = pending[0].arrival_s  # idle server fast-forwards
            # Admission: fill the batch while memory and slots allow.
            while pending and len(running) < self.config.max_batch:
                arrived = [r for r in pending if r.arrival_s <= now]
                if not arrived:
                    break
                nxt = min(arrived, key=lambda r: r.output_len) if sjf else arrived[0]
                need = (nxt.prompt_len + nxt.output_len) * kv_per_token
                if kv_reserved() + need > self.kv_budget:
                    break
                pending.remove(nxt)
                nxt.start_s = now
                now += self.engine.prefill_tokens_seconds(nxt.prompt_len)
                running.append(nxt)

            if not running:
                continue  # loop back; `now` jumped to next arrival

            peak_batch = max(peak_batch, len(running))
            avg_context = sum(
                r.prompt_len + r.generated for r in running
            ) / len(running)
            step = self.engine.decode_step_seconds(len(running), avg_context)
            now += step.total_s
            iterations += 1

            still_running: List[Request] = []
            for r in running:
                r.generated += 1
                if r.first_token_s is None:
                    r.first_token_s = now
                if r.generated >= r.output_len:
                    r.finish_s = now
                    completed.append(r)
                else:
                    still_running.append(r)
            running = still_running

        return ServingStats(
            completed=completed,
            makespan_s=now,
            peak_batch=peak_batch,
            kv_budget_bytes=self.kv_budget,
            rejected=rejected,
            iterations=iterations,
        )


def compare_frameworks(
    workload: List[Request],
    model: str = "opt-13b",
    gpu: str = "RTX4090",
    num_gpus: int = 1,
    max_batch: int = 32,
) -> Dict[str, ServingStats]:
    """Run the same trace under every framework that fits the hardware."""
    import copy

    out: Dict[str, ServingStats] = {}
    for framework, sparsity in (
        ("spinfer", 0.6),
        ("flash-llm", 0.6),
        ("fastertransformer", 0.0),
        ("deepspeed", 0.0),
    ):
        cfg = ServingConfig(
            model=model,
            framework=framework,
            gpu=gpu,
            num_gpus=num_gpus,
            sparsity=sparsity,
            max_batch=max_batch,
        )
        try:
            sim = ServingSimulator(cfg)
        except ValueError:
            continue  # model does not fit under this framework
        out[framework] = sim.run(copy.deepcopy(workload))
    return out
