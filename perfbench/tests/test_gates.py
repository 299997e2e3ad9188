"""The output gates fail on one altered token and one altered report."""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import worker
from fm import FunctionalBench
from gates import report_digest, terminal_problems, token_mismatches

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def logit_rows(n, gap):
    """Rows where token 4 leads token 5 by ``gap``."""
    rows = [np.zeros(8) for _ in range(n)]
    for row in rows:
        row[4], row[5] = 2.0, 2.0 - gap
    return rows


def rows_for(tokens, gap):
    return {backend: logit_rows(len(seq), gap) for backend, seq in tokens.items()}


def test_identical_tokens_pass():
    tokens = {"dense": [1, 2, 4], "spinfer": [1, 2, 4], "flash-llm": [1, 2, 4]}
    assert token_mismatches(tokens, rows_for(tokens, 1.0)) == ([], 0)


def test_one_altered_token_fails():
    tokens = {"dense": [1, 2, 4], "spinfer": [1, 2, 5], "flash-llm": [1, 2, 4]}
    # spinfer parts from dense where dense's logits are far apart, and
    # from flash-llm, which adds in the same order.
    assert token_mismatches(tokens, rows_for(tokens, 0.5)) == (["spinfer"], 0)


def test_sparse_backends_may_part_from_dense_only_at_a_tie():
    tokens = {"dense": [1, 2, 4], "spinfer": [1, 2, 5], "flash-llm": [1, 2, 5]}
    assert token_mismatches(tokens, rows_for(tokens, 1e-4)) == ([], 2)
    assert token_mismatches(tokens, rows_for(tokens, 1e-2)) == (
        ["spinfer", "flash-llm"], 0)


def test_a_tie_must_hold_in_the_backends_own_logits_too():
    tokens = {"dense": [1, 2, 4], "spinfer": [1, 2, 5], "flash-llm": [1, 2, 5]}
    logits = rows_for(tokens, 1e-4)
    logits["spinfer"] = logit_rows(3, 0.5)  # dense ties, spinfer does not
    assert token_mismatches(tokens, logits) == (["spinfer"], 1)


def test_sparse_backends_must_match_exactly_even_at_a_tie():
    tokens = {"dense": [1, 2, 4], "spinfer": [1, 2, 4], "flash-llm": [1, 2, 5]}
    bad, _ = token_mismatches(tokens, rows_for(tokens, 1e-4))
    assert bad == ["spinfer", "flash-llm"]


def test_one_altered_token_fails_the_request():
    bench = FunctionalBench(clock=lambda: 0.0)

    def generate(prompt, num_tokens, backend):
        tokens = [4] * num_tokens
        if backend == "flash-llm":
            tokens[-1] = 5
        marks = [0.1 * (i + 1) for i in range(num_tokens)]
        return tokens, 1.0, marks, logit_rows(num_tokens, 0.5)

    bench.generate = generate
    counter = worker.Counter()
    counter.add(bench.serve([1, 2, 3], "fm-decode", {}))
    assert (counter.attempted, counter.failed) == (1, 1)


def test_digest_ignores_key_order_but_not_values():
    report = {"b": {"x": 1.5, "y": [1, 2]}, "a": 3}
    same = {"a": 3, "b": {"y": [1, 2], "x": 1.5}}
    altered = {"a": 3, "b": {"x": 1.5, "y": [1, 3]}}
    assert report_digest(report) == report_digest(same)
    assert report_digest(report) != report_digest(altered)


def test_one_altered_report_fails_the_repeat():
    reports = iter([{"completed": 10}, {"completed": 11}])

    class FakeSim:
        variants = 1

        def repeat(self, variant, tracer=None):
            return 1.0, 10, report_digest(next(reports)), []

    counter = worker.Counter()
    half = worker.SimHalf(FakeSim(), counter)
    half.op()
    half.op()
    assert (counter.attempted, counter.failed) == (2, 1)


def test_a_repeat_that_raises_is_counted_failed():
    outcomes = iter([RuntimeError("allocator ran dry"), None])

    class FakeSim:
        variants = 1

        def repeat(self, variant, tracer=None):
            exc = next(outcomes)
            if exc is not None:
                raise exc
            return 1.0, 10, report_digest({"completed": 10}), []

    counter = worker.Counter()
    half = worker.SimHalf(FakeSim(), counter)
    half.op()
    half.op()
    assert (counter.attempted, counter.failed) == (2, 1)
    assert half.rates == [(0, 10.0)]


def stats(**buckets):
    fields = dict.fromkeys(
        ("completed", "rejected", "failed", "shed", "timed_out", "cancelled"), ())
    fields.update({k: [SimpleNamespace(request_id=i) for i in v]
                   for k, v in buckets.items()})
    return SimpleNamespace(**fields)


def test_terminal_partition():
    assert terminal_problems([(stats(completed=[0, 1], shed=[2]), {0, 1, 2})]) == []
    twice = terminal_problems([(stats(completed=[0, 1], failed=[1]), {0, 1})])
    assert any("more than one terminal state" in p for p in twice)
    lost = terminal_problems([(stats(completed=[0]), {0, 1})])
    assert lost and "never terminal: [1]" in lost[0]


def test_launcher_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_metric_names_are_unique(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)[section]]
    assert len(names) == len(set(names))
