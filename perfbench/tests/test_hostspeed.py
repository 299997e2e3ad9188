"""Host-speed scaling: the reference loop's time is left out of every
interval, and each interval is scaled by its own reference."""

import numpy as np
import pytest

from fm import FunctionalBench
from hostspeed import REFERENCE_MS, HostSpeed

UNIT = REFERENCE_MS * 1e-3


class TickClock:
    """Returns the given instants in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_timed_scales_by_the_mean_of_the_references_around_it():
    # reference [0, 2], call [2, 12], reference [12, 16]: mean reference 3.
    host = HostSpeed(TickClock(0.0, 2.0, 2.0, 12.0, 12.0, 16.0))
    result, seconds = host.timed(lambda: "done")
    assert result == "done"
    assert seconds == pytest.approx(10.0 * UNIT / 3.0)
    assert host.references == [2.0, 4.0]


class FakeModel:
    def set_backend(self, backend):
        pass

    def forward(self, token_ids, **kwargs):
        return np.zeros((1, 4)), None

    def generate(self, prompt, num_tokens):
        for _ in range(num_tokens):
            self.forward(prompt)
        return [0] * num_tokens


def test_generate_leaves_out_the_reference_and_scales_each_forward():
    # Request starts at 0.  Forward 1: reference [0, 1], ends at 5;
    # forward 2: reference [5, 7], ends at 11; reference after [11, 14].
    # So 4 s between references of 1 and 2 (mean 1.5), then 4 s between
    # references of 2 and 3 (mean 2.5).
    bench = FunctionalBench(
        TickClock(0.0, 0.0, 1.0, 5.0, 5.0, 7.0, 11.0, 11.0, 14.0))
    bench.model = FakeModel()
    tokens, seconds, marks, rows = bench.generate([1, 2], 2, "dense")
    assert tokens == [0, 0]
    first, second = 4.0 * UNIT / 1.5, 4.0 * UNIT / 2.5
    assert marks == pytest.approx([first, first + second])
    assert seconds == pytest.approx(first + second)
    assert len(rows) == 2
