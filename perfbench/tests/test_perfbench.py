"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from stats import covered, min_samples, percentile, samples_beyond, self_times, window_rates  # noqa: E402
from tracing import Patch, Tracer, install  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload):
    first = [s.to_record() for s in make_inputs(workload, 3)]
    again = [s.to_record() for s in make_inputs(workload, 3)]
    other = [s.to_record() for s in make_inputs(workload, 4)]
    assert first == again
    assert first != other
    assert all(len(r["turns"]) == 16 for r in first)


@pytest.mark.parametrize("q, n", [(0.5, 20), (0.9, 100), (0.95, 200)])
def test_percentiles_keep_ten_samples_beyond(q, n):
    assert min_samples(q) == n
    assert samples_beyond(n, q) >= 10
    assert samples_beyond(n - 1, q) < 10
    values = list(range(1, n + 1))
    p = percentile(values, q)
    assert sum(v > p for v in values) == samples_beyond(n, q)


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 0.5) == 3
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([7], 0.95) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_window_rates_count_the_time_between_operations():
    # operations end at 1, 2, 4, 5 and 9 s; windows of two, from t = 0
    ends, amounts = [1.0, 2.0, 4.0, 5.0, 9.0], [3, 3, 5, 1, 7]
    assert window_rates(0.0, ends, amounts, 2) == [6 / 2.0, 6 / 3.0]
    assert window_rates(0.0, ends, amounts, 1) == [3.0, 3.0, 2.5, 1.0, 1.75]
    assert window_rates(0.0, ends, amounts, 6) == []


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == 2.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_self_time_subtracts_child_coverage():
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 3.0, 0),
        (2, 2.0, 5.0, 0),       # overlaps span 1: covered once
        (3, 8.0, 12.0, 0),      # runs past the parent: clipped
        (4, 1.5, 2.5, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_of_one_layer_ignores_spans_left_out():
    # a model span (0) calls a tensor op (1) that is left out, and a model
    # span (2) whose parent is 0: only 2 counts against 0
    spans = [(0, 0.0, 10.0, -1), (2, 2.0, 4.0, 0)]
    assert self_times(spans)[0] == pytest.approx(8.0)
    assert self_times([(5, 1.0, 3.0, 99)]) == {5: pytest.approx(2.0)}


def test_tracer_records_nesting_and_requests():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.request = 7
    assert outer(1) == 4
    arr = tracer.span_array()
    by_name = {tracer.names[r["name"]]: r for r in arr}
    assert by_name["inner"]["parent"] == by_name["outer"]["index"]
    assert by_name["outer"]["parent"] == -1
    assert set(arr["request"].tolist()) == {7}
    rows = [(int(r["index"]), r["start"], r["end"], int(r["parent"])) for r in arr]
    selfs = self_times(rows)
    outer_row = by_name["outer"]
    inner_row = by_name["inner"]
    assert selfs[int(outer_row["index"])] == pytest.approx(
        (outer_row["end"] - outer_row["start"]) - (inner_row["end"] - inner_row["start"]))


def test_patch_restores_every_wrapped_function():
    import roletune.evaluate as evaluate
    import roletune.generate as generate
    import roletune.memory as memory
    import roletune.tensor as tensor

    before = (tensor.matmul, generate.generate_response, evaluate.generate_response,
              memory.RoundMemory.__dict__["append"], tensor.Tape.__dict__["_record"])
    with Patch() as patch:
        install(patch, Tracer())
        assert tensor.matmul is not before[0]
        assert evaluate.generate_response is generate.generate_response
    after = (tensor.matmul, generate.generate_response, evaluate.generate_response,
             memory.RoundMemory.__dict__["append"], tensor.Tape.__dict__["_record"])
    assert all(a is b for a, b in zip(after, before))


def test_traced_backward_is_attributed_to_its_op():
    import numpy as np
    import roletune.tensor as tensor

    tracer = Tracer()
    with Patch() as patch:
        install(patch, tracer)
        a = tensor.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = tensor.Tensor(np.ones((3, 2), dtype=np.float32))
        with tensor.Tape() as tape:
            loss = tensor.tensor_sum(tensor.matmul(a, b))
        tape.backward(loss)
    names = [tracer.names[r["name"]] for r in tracer.span_array()]
    assert names.count("tensor.matmul") == 1
    assert names.count("tensor.bwd.matmul") == 1
    assert tracer.counters["tensor.tape_entries"] == 2


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-midi",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
