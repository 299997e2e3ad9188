"""Self-time arithmetic of the benchmark's tracer."""

import json

import pytest

from tracer import Tracer, format_table, self_time_table, self_times


class TickClock:
    """Returns the given instants in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def nested_trace():
    # outer [0, 10]: child a [1, 3], child b [4, 8] (with b's own child
    # c [5, 6]), plus an aggregated boundary costing 0.5 inside outer.
    tracer = Tracer(TickClock(0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0))
    outer = tracer.begin("outer")
    a = tracer.begin("a")
    tracer.end(a)
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    tracer.add_aggregate("hot", 0.5)
    tracer.end(outer)
    return tracer


def test_self_time_is_duration_minus_children():
    tracer = nested_trace()
    own = dict(zip((s.name for s in tracer.spans), self_times(tracer.spans)))
    assert own["outer"] == pytest.approx(10.0 - (2.0 + 4.0) - 0.5)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(4.0 - 1.0)
    assert own["c"] == pytest.approx(1.0)


def test_table_covers_the_traced_wall_time():
    tracer = nested_trace()
    wall = 12.0  # two seconds outside any span
    rows, unattributed = self_time_table(tracer.spans, wall, tracer.root_agg)
    assert unattributed == pytest.approx(2.0)
    assert sum(r["self_s"] for r in rows) + unattributed == pytest.approx(wall)
    assert [r["self_s"] for r in rows] == sorted(
        (r["self_s"] for r in rows), reverse=True)
    hot = next(r for r in rows if r["name"] == "hot")
    assert (hot["calls"], hot["self_s"]) == (1, 0.5)
    text = format_table(rows, unattributed, wall)
    assert "(unattributed)" in text and "2000.00" in text


def test_root_aggregates_count_as_attributed():
    tracer = Tracer(TickClock())
    tracer.add_aggregate("hot", 0.25)
    rows, unattributed = self_time_table(tracer.spans, 1.0, tracer.root_agg)
    assert rows[0]["name"] == "hot"
    assert unattributed == pytest.approx(0.75)


def test_traced_wrapper_names_spans_and_shares_request_id():
    tracer = Tracer()
    tracer.request_id = "req0.dense"

    def work(x, backend):
        return x + 1

    wrapped = tracer.traced(work, lambda x, backend: f"op.{backend}")
    assert wrapped(1, "spinfer") == 2
    span = tracer.spans[0]
    assert (span.name, span.request_id, span.parent) == ("op.spinfer", "req0.dense", -1)


def test_span_closed_out_of_order_is_an_error():
    tracer = Tracer()
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_chrome_trace_has_one_complete_event_per_span(tmp_path):
    tracer = nested_trace()
    path = tmp_path / "t.json"
    tracer.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "a", "b", "c"]
    assert all(e["ph"] == "X" for e in events)
    assert events[3]["args"]["parent"] == 2
    assert events[0]["args"]["hot"] == {"calls": 1, "busy_us": 500000.0}
    assert events[2]["dur"] == pytest.approx(4e6)
