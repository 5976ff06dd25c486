"""Tests of the benchmark itself: tracer hygiene, workload configs, metrics.

Run with ``python3 -m pytest bench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import collect
import run
from spans import Span, Target, Tracer, layer_table, relabel
from workloads import LAYER_TARGETS, RELABEL, WORKLOADS, make_config

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _attrs(targets):
    return {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
            for t in targets}


class TestTracer:
    def test_restores_every_wrapped_attribute(self):
        before = _attrs(LAYER_TARGETS)
        with Tracer(LAYER_TARGETS) as tracer:
            assert not tracer.missing
            during = _attrs(LAYER_TARGETS)
            assert all(during[k] is not before[k] for k in before)
        assert _attrs(LAYER_TARGETS) == before

    def test_restores_after_an_exception(self):
        before = _attrs(LAYER_TARGETS)
        with pytest.raises(RuntimeError):
            with Tracer(LAYER_TARGETS):
                raise RuntimeError("boom")
        assert _attrs(LAYER_TARGETS) == before

    def test_missing_required_target_restores_the_rest(self):
        before = _attrs(LAYER_TARGETS)
        targets = LAYER_TARGETS + (Target("rankfed.harness", "no_such_fn", "x"),)
        with pytest.raises(AttributeError):
            Tracer(targets, required=True).__enter__()
        assert _attrs(LAYER_TARGETS) == before

    def test_missing_optional_target_is_listed(self):
        with Tracer([Target("rankfed.harness", "no_such_fn", "x")]) as tracer:
            assert tracer.missing == ["rankfed.harness.no_such_fn"]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 0),
        Span(2, 1, "child", 1.0, 5.0, 0),
        Span(3, 1, "child", 3.0, 7.0, 0),   # overlaps span 2 (pool thread)
        Span(4, 2, "leaf", 2.0, 3.0, 0),
    ]
    table = layer_table(spans)
    assert table["root"] == {"s": 10.0, "self_s": 4.0, "calls": 1}
    assert table["child"] == {"s": 8.0, "self_s": 7.0, "calls": 2}
    assert table["leaf"]["self_s"] == 1.0


def test_relabel_splits_a_function_by_caller():
    spans = [Span(1, None, "harness.evaluate", 0.0, 2.0, 0),
             Span(2, 1, "model.forward", 0.5, 1.0, 0),
             Span(3, None, "model.forward", 3.0, 4.0, 0)]
    names = [s.name for s in relabel(spans, RELABEL)]
    assert names == ["harness.evaluate", "model.forward.eval", "model.forward"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_workload_config_validates(name, seed):
    config = make_config(name, seed)
    assert config.validate() is config
    assert config.seed == seed


def test_workload_names_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_round_smoke_run_reports_every_metric(name, trace, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.measure(name, seed=0, seconds=0, trace=trace, rounds=2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert list(tmp_path.glob(f"{name}-seed0.spans.jsonl"))
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_changed_records_count_as_a_failed_operation():
    ops = run.Operations()
    ops.reference = "not the records of this run"
    result, _ = ops.run(make_config("paper-ewc", 0, rounds=2))
    assert result is not None
    assert (ops.attempted, ops.failed) == (1, 1)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper-ewc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdict_follows_the_guide_rule():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    assert collect.verdict(base, faster, "lower", 0.25).startswith("improved")
    assert collect.verdict(base, slower, "lower", 0.25).startswith("regressed")
    assert collect.verdict(base, base, "lower", 0.25).startswith("within")
    assert collect.verdict(base, faster, "higher", 0.25).startswith("within")
