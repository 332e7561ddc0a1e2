"""Tests of the benchmark's own machinery.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import (
    LAYERS,
    PER_LAYER,
    SpanRecorder,
    layer_metrics,
    self_times,
    traced_layers,
)
from perfbench.run import END_TO_END, Run, violations
from perfbench.workloads import WORKLOADS, flash_crowd_inputs, serve
from repro.api import Deployment


def _small_flash():
    return WORKLOADS["flash_crowd_64"], flash_crowd_inputs(3, count=300, duration_s=3.0)


def _wrapped_attributes():
    found = {}
    for _, module_name, qualnames in LAYERS:
        module = importlib.import_module(module_name)
        for qualname in qualnames:
            owner, attribute = qualname.split(".")
            found[qualname] = vars(getattr(module, owner))[attribute]
    return found


def _restored(before) -> bool:
    after = _wrapped_attributes()
    return all(after[qualname] is original for qualname, original in before.items())


def test_self_times_on_a_nested_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    assert self_times(parent, duration).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_recorder_self_time_through_wrapped_calls():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", "Inner.call", lambda value: value)

    def outer_body():
        inner(1)
        inner(None)

    outer = recorder.wrap("outer", "Outer.call", outer_body)
    outer()
    columns = recorder.arrays()
    # outer: 0 -> 5; inner calls: 1 -> 2 and 3 -> 4.
    assert columns["parent"].tolist() == [-1, 0, 0]
    assert columns["duration"].tolist() == [5.0, 1.0, 1.0]
    assert columns["self"].tolist() == [3.0, 1.0, 1.0]
    assert columns["returned"].tolist() == [False, True, False]


def test_wrapped_attributes_are_restored_after_a_traced_run():
    before = _wrapped_attributes()
    workload, inputs = _small_flash()
    recorder = SpanRecorder()
    run = Run(workload, inputs, None, recorder)
    assert run.problems == []
    assert len(recorder) > 0
    assert run.layers["heats.place_calls"] > 0
    assert _restored(before)


def test_wrapped_attributes_are_restored_when_the_body_raises():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with traced_layers(SpanRecorder()):
            assert not _restored(before)
            raise RuntimeError("boom")
    assert _restored(before)


def test_traced_run_matches_untraced_run():
    workload, inputs = _small_flash()
    untraced = Run(workload, inputs, None)
    traced = Run(workload, inputs, untraced.digest, SpanRecorder())
    assert traced.problems == [] and traced.digest == untraced.digest
    assert traced.sim == untraced.sim


def test_invariant_checker_flags_a_broken_report():
    workload, inputs = _small_flash()
    deployment = Deployment.from_spec(workload.spec)
    report, chaos, _ = serve(deployment, inputs, lambda: 0.0)
    assert violations(inputs, report, chaos) == []
    report.completed -= 1
    assert any("conservation" in problem for problem in violations(inputs, report, chaos))
    broken = replace(inputs, workload=replace(
        inputs.workload, requests=inputs.workload.requests[:-1]
    ))
    report.completed += 1
    assert any("workload size" in problem for problem in violations(broken, report, chaos))


def test_layer_metrics_cover_every_per_layer_name():
    workload, inputs = _small_flash()
    recorder = SpanRecorder()
    with traced_layers(recorder):
        deployment = Deployment.from_spec(workload.spec)
        report, chaos, _ = serve(deployment, inputs, lambda: 0.0)
    names = {name for name, _, _, _ in PER_LAYER if not name.startswith("bench.")}
    assert set(layer_metrics(recorder, report, chaos)) == names


def test_benchmark_json_names_match_the_code():
    document = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in document["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]
