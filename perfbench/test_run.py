"""Bookkeeping of the benchmark runner: metric lists, tail percentile, self times, host scaling."""

import json
from pathlib import Path

from perfbench.run import CALIB_REF_S, END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, host_scale, tail
from perfbench.tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_tail_leaves_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    value, percentile, n = tail(values)
    assert (value, n) == (29.0, 40)
    assert sum(v > value for v in values) == 10
    assert percentile == 75.0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    op = tracer.add("op", 0.0, 10.0)
    outer = tracer.add("certify.bound", 1.0, 5.0, op)
    tracer.add("cli.serialize", 2.0, 3.0, outer)
    tracer.add("cli.serialize", 6.0, 7.5, op)
    times = self_times(tracer.spans)[op["op"]]
    assert times == {"op": 4.5, "certify.bound": 3.0, "cli.serialize": 2.5}


def test_tail_of_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_host_scale_cancels_a_uniformly_slower_host():
    # a host 1.6x slower stretches the op and both calibrations alike
    op, slow = 0.5, 1.6
    assert host_scale(CALIB_REF_S, CALIB_REF_S) == 1.0
    scaled = op * slow * host_scale(CALIB_REF_S * slow, CALIB_REF_S * slow)
    assert abs(scaled - op) < 1e-12
