"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into the program's layers by wrapping
those calls from the benchmark's own files (see ``probes.py``); nothing
in ``src/`` is touched.  Each span carries a name, start, end, the
index of the span that was open when it began (its parent) and the
request id current at the time.  Boundaries hit very often (more than
about 1e5 times a run, e.g. the KV allocator's ``append_token``) are
not recorded one span per call: the open parent span keeps a call count
and busy time per such boundary instead.

Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "self_time_table", "format_table"]

#: Rows the printed self-time table shows; the rest are summed in one line.
TABLE_ROWS = 25


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id", "agg")

    def __init__(self, name: str, start: float, parent: int,
                 request_id: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        #: ``{boundary: [calls, busy_s]}`` for aggregated child boundaries.
        self.agg: Optional[Dict[str, List[float]]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Calls to aggregated boundaries made while no span was open.
        self.root_agg: Dict[str, List[float]] = {}
        self.request_id: Optional[str] = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.request_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is open")
        self.spans[index].end = self.clock()

    def add_aggregate(self, name: str, busy: float) -> None:
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span.agg is None:
                span.agg = {}
            agg = span.agg
        else:
            agg = self.root_agg
        entry = agg.get(name)
        if entry is None:
            agg[name] = [1, busy]
        else:
            entry[0] += 1
            entry[1] += busy

    def traced(self, fn: Callable, name, aggregate: bool = False) -> Callable:
        """``fn`` wrapped in a span (or an aggregate entry).

        ``name`` is a string, or a callable given the call's arguments
        that returns the span name (e.g. to name a linear layer).
        """
        name_of = name if callable(name) else (lambda *a, **k: name)
        clock = self.clock

        if aggregate:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add_aggregate(name_of(*args, **kwargs), clock() - t0)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self.begin(name_of(*args, **kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(index)
        return wrapper

    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON object (complete "X" events, in us)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = []
        for i, s in enumerate(self.spans):
            args = {"span": i, "parent": s.parent, "request_id": s.request_id}
            if s.agg:
                for key in sorted(s.agg):
                    calls, busy = s.agg[key]
                    args[key] = {"calls": calls, "busy_us": busy * 1e6}
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the time its children cover.

    Children are the spans whose ``parent`` is this span, plus the busy
    time of the aggregated boundaries it recorded.  Spans close in LIFO
    order on one thread, so children never overlap and their durations
    add up.
    """
    covered_by: Dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            covered_by[s.parent] = covered_by.get(s.parent, 0.0) + s.duration
    out = []
    for i, s in enumerate(spans):
        covered = covered_by.get(i, 0.0)
        if s.agg:
            covered += sum(busy for _calls, busy in s.agg.values())
        out.append(s.duration - covered)
    return out


def self_time_table(
    spans: List[Span], wall: float,
    root_agg: Optional[Dict[str, List[float]]] = None,
) -> Tuple[List[Dict], float]:
    """Rows ``{name, calls, total_s, self_s}`` sorted by self time, and
    the part of ``wall`` no span accounts for.

    Aggregated boundaries are leaves: their self time is their busy
    time.  The rows' self times plus the unattributed remainder add up
    to ``wall``.
    """
    rows: Dict[str, Dict] = {}

    def row(name: str) -> Dict:
        if name not in rows:
            rows[name] = {"name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        return rows[name]

    for s, own in zip(spans, self_times(spans)):
        r = row(s.name)
        r["calls"] += 1
        r["total_s"] += s.duration
        r["self_s"] += own
        for name, (calls, busy) in (s.agg or {}).items():
            a = row(name)
            a["calls"] += calls
            a["total_s"] += busy
            a["self_s"] += busy
    for name, (calls, busy) in (root_agg or {}).items():
        a = row(name)
        a["calls"] += calls
        a["total_s"] += busy
        a["self_s"] += busy
    ordered = sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))
    attributed = sum(r["self_s"] for r in ordered)
    return ordered, wall - attributed


def format_table(rows: List[Dict], unattributed: float, wall: float) -> str:
    """Text table in the spirit of ``key_averages().table(sort_by=...)``."""
    head = f"{'name':<48} {'calls':>9} {'self ms':>11} {'self %':>7} {'total ms':>11}"
    lines = [head, "-" * len(head)]
    for r in rows[:TABLE_ROWS]:
        share = 100.0 * r["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"{r['name']:<48} {r['calls']:>9} {r['self_s'] * 1e3:>11.2f} "
            f"{share:>6.1f}% {r['total_s'] * 1e3:>11.2f}"
        )
    if len(rows) > TABLE_ROWS:
        rest = sum(r["self_s"] for r in rows[TABLE_ROWS:])
        lines.append(f"{'(%d more rows)' % (len(rows) - TABLE_ROWS):<48} "
                     f"{'':>9} {rest * 1e3:>11.2f}")
    share = 100.0 * unattributed / wall if wall > 0 else 0.0
    lines.append(f"{'(unattributed)':<48} {'':>9} {unattributed * 1e3:>11.2f} "
                 f"{share:>6.1f}%")
    lines.append(f"{'traced wall time':<48} {'':>9} {wall * 1e3:>11.2f}")
    return "\n".join(lines)
