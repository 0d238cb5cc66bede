"""Tests of the benchmark itself: seeded inputs, result checks, tracing, metadata.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def _small_sign_ops(seed: int):
    return [op for op in workloads.build_ops("sign-classify", seed) if op.n <= 7]


def test_inputs_repeat_for_a_seed():
    assert workloads.sign_inputs(5) == workloads.sign_inputs(5)
    assert workloads.collapse_inputs(5) == workloads.collapse_inputs(5)
    assert workloads.census_commands(5) == workloads.census_commands(5)


def test_inputs_differ_across_seeds():
    assert workloads.sign_inputs(5) != workloads.sign_inputs(6)
    assert workloads.collapse_inputs(5) != workloads.collapse_inputs(6)
    assert workloads.census_commands(5) != workloads.census_commands(6)


def test_pass_composition_does_not_depend_on_the_seed():
    def shape(seed):
        return [(op.family, op.n) for op in workloads.build_ops("sparse-collapse", seed)]

    assert shape(1) == shape(2)
    assert [(f, p.n) for f, p in workloads.sign_inputs(1)] == [
        (f, p.n) for f, p in workloads.sign_inputs(2)
    ]
    assert sorted(workloads.census_commands(1)) == sorted(workloads.census_commands(2))


def test_interleave_matches_the_tensor_product_for_contiguous_blocks():
    from eqw.states import StateVector, tensor

    a, b = [0, 1, 1, 1], [1, 0]
    planted = workloads.Planted.of(3, [((1, 2), a), ((3,), b)])
    expected = tensor(StateVector(2, (1, -1, -1, -1)), StateVector(1, (-1, 1)))
    assert tuple(1 - 2 * t for t in planted.table) == expected.amps


def test_every_op_passes_its_check():
    ops = _small_sign_ops(3)
    ops += [op for op in workloads.build_ops("sparse-collapse", 3) if op.n <= 8]
    record = run.run_pass(ops)
    assert record.failures == []
    assert len(record.latencies) == len(ops)


def test_wrong_classification_is_counted_as_failed(monkeypatch):
    import eqw.separability as sep

    original = sep.classify

    def wrong(state, *args, **kwargs):
        report = original(state, *args, **kwargs)
        return dataclasses.replace(report, q=report.q + 1)

    monkeypatch.setattr(sep, "classify", wrong)
    ops = _small_sign_ops(4)
    passes = [run.run_pass(ops)]
    assert len(passes[0].failures) == len(ops)
    correct, attempted, failed = run.outcome(passes)
    assert (correct, attempted, failed) == (False, len(ops), len(ops))


def test_raising_op_is_counted_as_failed(monkeypatch):
    import eqw.separability as sep

    def broken(state, *args, **kwargs):
        raise RuntimeError("engine down")

    monkeypatch.setattr(sep, "classify", broken)
    ops = _small_sign_ops(4)[:3]
    record = run.run_pass(ops)
    assert len(record.failures) == 3
    assert "engine down" in record.failures[0]


def test_tracer_restores_the_wrapped_names_and_nests_spans():
    import eqw.separability as sep

    original = sep.try_factor
    tracer = Tracer()
    layers.instrument(tracer)
    ops = _small_sign_ops(2)[:4]
    record = run.run_pass(ops, tracer)
    assert sep.try_factor is original
    names = {s[1] for s in tracer.spans}
    assert {"bench.op", "separability.classify", "separability.try_factor"} <= names
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, start, end, parent, op, _ in tracer.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= start <= end <= p[3]
            assert p[5] == op
    assert record.layer["separability.classify_calls"] == len(ops)
    assert record.layer["separability.classify_calls.random.le9"] == len(ops)


def test_self_time_subtracts_children():
    spans = [
        (0, "a", 0.0, 10.0, None, 0, ""),
        (1, "b", 1.0, 4.0, 0, 0, ""),
        (2, "c", 5.0, 6.0, 0, 0, ""),
        (3, "d", 2.0, 3.0, 1, 0, ""),
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_every_census_command_has_a_pinned_digest():
    digests = workloads.load_digests()
    assert {" ".join(c) for c in workloads.all_pinned_commands()} == set(digests)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
