"""Host-speed scaling of the benchmark's timings.

The benchmark runs on a share of a machine whose speed swings from one
spell of a few seconds to the next: on a 2-vCPU VM a fixed Python loop
took 7.0 ms in one spell and 9.5 ms in the next, and for hours at a time
the whole VM ran 1.8x slower.  A raw timing reads fast or slow by the
spell it fell in, and the median over a run flips with the share of
slow spells, so two runs of the same code differed by 10-20 %.

So every timed interval is paired with a short fixed reference loop run
just before it (and, for intervals of a second or more, just after it),
and is reported as ``interval * REFERENCE_MS / reference``: the time the
interval would take on a host where the reference loop takes
``REFERENCE_MS``.  The loop runs no program code, so a change to the
program moves the scaled figure as much as the raw one; its own time is
not part of any interval.  Scaling leaves some spread: the spells slow
numpy's memory-bound work by other amounts than the interpreter (a
memory-bound scatter added to the loop tracked the Tiled-CSL backend no
better), so in a 200-second test the scaled decode step still moved
2-7 % between 8-second windows, against 12-25 % unscaled.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, TypeVar

from samples import median

__all__ = ["REFERENCE_MS", "HostSpeed"]

#: Iterations of the reference loop.
REFERENCE_LOOPS = 30_000
#: The unit the scaled timings are expressed in: the reference loop's
#: time in a fast spell of the 2-vCPU VM the bounds were set on.
REFERENCE_MS = 2.0

T = TypeVar("T")


class HostSpeed:
    """Runs the reference loop and scales timings by it."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        #: Every reference time measured, in seconds.
        self.references: List[float] = []
        #: When set, each reference loop is recorded as a span of its
        #: own so the traced run's self-time table accounts for it.
        self.tracer = None

    def reference(self) -> float:
        """Run the reference loop once; returns its seconds."""
        tracer = self.tracer
        span = tracer.begin("perfbench.host_reference") if tracer else None
        clock = self.clock
        t0 = clock()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i
        seconds = clock() - t0
        if span is not None:
            tracer.end(span)
        self.references.append(seconds)
        return seconds

    def median_reference(self, loops: int = 5) -> float:
        """The median of ``loops`` reference loops run back to back, for
        an interval whose own work cannot be interleaved with them."""
        return median([self.reference() for _ in range(loops)])

    @staticmethod
    def scale(seconds: float, reference: float) -> float:
        return seconds * (REFERENCE_MS * 1e-3) / reference

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """``fn()`` between two reference loops; returns its result and
        its scaled seconds (by the mean of the two references)."""
        before = self.reference()
        t0 = self.clock()
        result = fn()
        seconds = self.clock() - t0
        after = self.reference()
        return result, self.scale(seconds, (before + after) / 2)

    def summary(self) -> str:
        if not self.references:
            return "reference loop: not run"
        return (f"reference loop: median {median(self.references) * 1e3:.3f} ms "
                f"over {len(self.references)} runs (timings scaled to "
                f"{REFERENCE_MS} ms)")
