"""Output checks.  A workload operation that fails one is counted failed."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["token_mismatches", "report_digest", "terminal_problems",
           "TERMINAL_BUCKETS", "EXACT_BACKENDS"]

#: Every submitted request must end in exactly one of these
#: :class:`repro.runtime.scheduler.RuntimeStats` buckets.
TERMINAL_BUCKETS = ("completed", "rejected", "failed", "shed", "timed_out",
                    "cancelled")


#: The sparse-vs-dense logit tolerance of the functional model's own
#: equivalence tests (``assert_allclose(rtol=1e-3, atol=1e-3)``).
TIE_RTOL = 1e-3
TIE_ATOL = 1e-3

#: Backends that add in the same tile order and must agree token for token.
EXACT_BACKENDS = ("spinfer", "flash-llm")


def first_divergence(a: Sequence[int], b: Sequence[int]) -> Optional[int]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def is_tie(row: np.ndarray, chosen: int, other: int) -> bool:
    """True when ``row`` scores ``chosen`` and ``other`` within the tolerance."""
    a, b = float(row[chosen]), float(row[other])
    return abs(a - b) <= TIE_ATOL + TIE_RTOL * abs(a)


def token_mismatches(
    tokens: Dict[str, Sequence[int]],
    logits: Dict[str, Sequence[np.ndarray]],
) -> Tuple[List[str], int]:
    """Backends whose greedy tokens disagree, and the number of ties.

    The first backend is the reference.  The :data:`EXACT_BACKENDS` add
    in the same tile order and must match each other token for token.
    Against the reference, whose matmul adds in another order, a
    backend's tokens must match up to the first step where they part,
    and they may part only at a tie: a step where the reference's
    logits and the backend's own logits both score the two tokens
    within the tolerance above.  ``logits[backend][i]`` is the logit row
    that backend chose generated token i from.
    """
    names = list(tokens)
    ref = names[0]
    bad, ties = [], 0
    for name in names[1:]:
        i = first_divergence(tokens[ref], tokens[name])
        if i is None:
            continue
        if i >= min(len(tokens[ref]), len(tokens[name]),
                    len(logits[ref]), len(logits[name])):
            bad.append(name)  # a sequence ended early
            continue
        ours, theirs = tokens[ref][i], tokens[name][i]
        if (is_tie(logits[ref][i], ours, theirs)
                and is_tie(logits[name][i], theirs, ours)):
            ties += 1
        else:
            bad.append(name)
    present = [name for name in EXACT_BACKENDS if name in tokens]
    for name in present[1:]:
        pair = {present[0], name}
        if (first_divergence(tokens[present[0]], tokens[name]) is not None
                and not pair & set(bad)):
            bad.extend(pair)  # the pair that must agree does not
    return sorted(set(bad), key=names.index), ties


def report_digest(report) -> str:
    """sha256 of a deterministic report as sorted-key JSON."""
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def terminal_problems(runs: Iterable[Tuple[object, Set[int]]]) -> List[str]:
    """Problems with the terminal partition of simulated requests.

    ``runs`` pairs each run's ``RuntimeStats`` with the ids of the
    requests submitted to it.  Every submitted request must sit in
    exactly one terminal bucket, and nothing else may.
    """
    problems = []
    for i, (stats, submitted) in enumerate(runs):
        seen: Set[int] = set()
        for bucket in TERMINAL_BUCKETS:
            for req in getattr(stats, bucket):
                if req.request_id in seen:
                    problems.append(
                        f"run {i}: request {req.request_id} is in more than "
                        "one terminal state"
                    )
                seen.add(req.request_id)
        if seen != submitted:
            lost = sorted(submitted - seen)[:5]
            extra = sorted(seen - submitted)[:5]
            problems.append(
                f"run {i}: {len(submitted)} submitted, {len(seen)} terminal "
                f"(never terminal: {lost}, never submitted: {extra})"
            )
    return problems
