"""Functional-model half: ``FunctionalTransformer.generate`` per backend.

One client in a closed loop: each request starts after the previous one
finishes, and every request is served on ``dense``, ``spinfer`` and
``flash-llm`` in turn, so each backend sees the same prompts.  Only the
prompts come from the workload seed; the model weights are the
program's data and use their own fixed seed.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Tuple

import numpy as np

from gates import token_mismatches
from hostspeed import HostSpeed

__all__ = ["BACKENDS", "CONFIG", "SHAPES", "FunctionalBench"]

BACKENDS = ("dense", "spinfer", "flash-llm")

#: The pinned tiny config (h=512, 8 heads, ffn=2048, vocab=2048, 60 %
#: magnitude-pruned) with two layers instead of four so a run fits its
#: time budget; every linear keeps its shape.
CONFIG = dict(vocab_size=2048, num_layers=2, hidden_size=512, num_heads=8,
              ffn_size=2048, max_seq=256)
SPARSITY = 0.6
WEIGHT_SEED = 0

#: (prompt tokens, generated tokens) per request.
SHAPES = {
    "fm-decode": (8, 13),
    # What a simulator workload serves so that it also reports the
    # functional-model metrics: short requests, so that its
    # time-to-first-token median has enough samples.
    "companion": (8, 4),
}


class FunctionalBench:
    """The model, its set-up, and timed requests on every backend."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.host = HostSpeed(clock)
        #: Times a backend parted from the reference at a tie.
        self.ties = 0

    def setup(self) -> Dict[str, float]:
        """Import, init, prune, first encode per backend; ms per stage."""
        clock = self.clock
        t0 = clock()
        from repro.llm.functional_model import FunctionalTransformer, TinyConfig
        t1 = clock()
        self.model = FunctionalTransformer(TinyConfig(**CONFIG), seed=WEIGHT_SEED)
        t2 = clock()
        self.model.prune(SPARSITY, method="magnitude")
        t3 = clock()
        out = {"import_ms": (t1 - t0) * 1e3, "init_ms": (t2 - t1) * 1e3,
               "prune_ms": (t3 - t2) * 1e3}
        for backend in BACKENDS[1:]:
            t = clock()
            self.model.set_backend(backend)
            self.model.layer_weight_bytes()  # forces the encode
            out[f"encode.{backend}_ms"] = (clock() - t) * 1e3
        return out

    def prompts(self, seed: int, shape: str):
        """Endless prompt stream for ``shape``, a pure function of ``seed``."""
        prompt_len, _ = SHAPES[shape]
        rng = np.random.default_rng(seed)
        while True:
            yield rng.integers(0, CONFIG["vocab_size"], prompt_len)

    def generate(self, prompt: np.ndarray, num_tokens: int, backend: str
                 ) -> Tuple[List[int], float, List[float], List[np.ndarray]]:
        """One request: tokens, seconds, forward-end times relative to
        the request start (the first is the time to first token; the
        gaps after it are the decode steps), and the logit row each
        token was chosen from.

        Times are host-scaled (see :mod:`hostspeed`): a reference loop
        runs just before each forward pass and once after the last, and
        the interval since the previous forward ended, less its
        reference loop, is scaled by the mean of the loops before and
        after it.  The request's seconds run to the last forward's end.
        """
        model = self.model
        model.set_backend(backend)
        host = self.host
        raw: List[float] = []
        refs: List[float] = []
        rows: List[np.ndarray] = []
        forward = model.forward
        clock = self.clock
        last = [0.0]  # clock at the previous forward's end

        def timed_forward(*args, **kwargs):
            ref = host.reference()
            result = forward(*args, **kwargs)
            now = clock()
            raw.append(now - last[0] - ref)
            refs.append(ref)
            last[0] = now
            rows.append(result[0][-1])
            return result

        model.forward = timed_forward
        try:
            last[0] = clock()
            tokens = model.generate(prompt, num_tokens)
        finally:
            del model.forward
        refs.append(host.reference())
        marks = list(itertools.accumulate(
            host.scale(seconds, (before + after) / 2)
            for seconds, before, after in zip(raw, refs, refs[1:])))
        return tokens, marks[-1], marks, rows

    def serve(self, prompt: np.ndarray, shape: str, timings: Dict,
              tracer=None, request: str = "") -> bool:
        """Serve one prompt on every backend; True when the tokens agree
        (see :func:`gates.token_mismatches`).

        ``timings[backend]`` collects per-request ``tok_s`` and per-token
        ``ttft`` and ``tpot`` samples.  A backend that raises fails the request.  With
        a ``tracer``, each backend's request is one span whose request id
        all the spans beneath it share.
        """
        num_tokens = SHAPES[shape][1]
        tokens = {}
        logits = {}
        ok = True
        for backend in BACKENDS:
            span = None
            if tracer is not None:
                tracer.request_id = f"{request}.{backend}"
                span = tracer.begin("request")
            try:
                out, wall, marks, rows = self.generate(prompt, num_tokens, backend)
            except Exception as exc:  # a failed request, not a crash
                print(f"request failed on {backend}: {exc!r}")
                ok = False
                continue
            finally:
                if span is not None:
                    tracer.end(span)
            tokens[backend] = out
            logits[backend] = rows
            t = timings.setdefault(backend, {"tok_s": [], "ttft": [], "tpot": []})
            t["tok_s"].append((len(prompt) + len(out)) / wall)
            t["ttft"].append(marks[0])
            t["tpot"].extend(b - a for a, b in zip(marks, marks[1:]))
        bad, ties = token_mismatches(tokens, logits)
        self.ties += ties
        if bad:
            print(f"token mismatch: {bad} (reference {BACKENDS[0]})")
        return ok and not bad

    def computed_counts(self) -> Dict[str, float]:
        """Bytes moved and flops per token through every layer linear,
        and layer weight bytes, per backend.  Computed from storage
        sizes and padded shapes, so they repeat exactly."""
        from repro.core.tiles import DEFAULT_TILE_CONFIG
        from repro.formats.tiled_csl import DEFAULT_TILE

        th, tw = DEFAULT_TILE

        def padded(backend: str, m: int, k: int) -> Tuple[int, int]:
            if backend == "dense":
                return m, k
            if backend == "spinfer":
                return DEFAULT_TILE_CONFIG.padded_shape(m, k)
            return -(-m // th) * th, -(-k // tw) * tw

        out = {}
        model = self.model
        linears = [lin for layer in model.layers for lin in layer.linears()]
        for backend in BACKENDS:
            model.set_backend(backend)
            out[f"functional_model.weight_bytes.{backend}"] = float(
                model.layer_weight_bytes())
            moved = flops = 0
            for lin in linears:
                m, k = lin.weight.shape
                # fp16 weights as stored, fp16 activation in, fp32 out.
                moved += lin.storage_bytes(backend) + 2 * k + 4 * m
                pm, pk = padded(backend, m, k)
                flops += 2 * pm * pk  # decoded tiles run full dense math
            out[f"kernels.{backend}.bytes_per_token"] = float(moved)
            out[f"kernels.{backend}.flops_per_token"] = float(flops)
        return out
