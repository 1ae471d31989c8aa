"""Tests of the benchmark itself: span arithmetic, transparent wrappers,
absent layers, and agreement between BENCHMARK.json and the metrics emitted."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
import workloads as W
from normsim import sim

HERE = Path(__file__).resolve().parent

TINY_DOC = {
    "mode": "evolution", "N": 40, "L": 3, "b": 3.0, "c": 1.0, "delta": 0.5,
    "epsilon": 0.05, "gamma": 0.1, "h": 1, "periods": 300, "sample_stride": 100,
}


def test_self_times_on_synthetic_span_tree():
    #  A [0,10] -> B [1,4], C [5,9] -> D [6,7];  E [20,26] -> F [21,24], G [23,25]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0, 23.0]
    ends = [10.0, 4.0, 9.0, 7.0, 26.0, 24.0, 25.0]
    parents = [-1, 0, 0, 2, -1, 4, 4]
    got = tracing.self_times(starts, ends, parents)
    # overlapping children F and G cover [21,25] once, not 5 s
    assert got == pytest.approx([3.0, 3.0, 3.0, 1.0, 2.0, 3.0, 2.0])


def test_recorder_nesting_and_summary_with_fake_clock():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    outer = rec.open("outer")
    for _ in range(2):
        rec.close(rec.open("inner"))
    rec.close(outer)
    assert rec.parents == [-1, 0, 0]
    rows = tracing.summarize(rec)
    assert rows["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert rows["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert tracing.root_total(rec) == 10.0


def test_missing_layer_is_reported_absent_and_others_still_wrap():
    rec = tracing.Recorder()
    original = sim.run_period
    layers = [
        tracing.Layer("normsim.sim", "no_such_function", "gone.function"),
        tracing.Layer("normsim.no_such_module", "run", "gone.module"),
        tracing.Layer("normsim.sim", "run_period", "sim.run_period"),
    ]
    with tracing.traced(rec, layers):
        assert sim.run_period is not original
    assert sim.run_period is original
    assert rec.absent == {"gone.function", "gone.module"}


def test_absent_layer_metrics_read_none():
    layers = tuple(
        replace(layer, attr="renamed_away") if layer.name == "sim.run_adaptation" else layer
        for layer in W.LAYERS
    )
    w = W.SimWorkload("tiny", TINY_DOC)
    rec = tracing.Recorder()
    with tracing.traced(rec, layers):
        w.run(None, 3, None)
    checks = W.Checks()
    metrics = W.layer_metrics(rec, rec.absent, {"units": 1, "wall_s": 10.0, "periods": 300}, checks)
    assert metrics["sim.run_adaptation.us_per_call"][0] is None
    assert metrics["sim.run_adaptation.share"][0] is None
    assert metrics["sim.run_period.us_per_call"][0] > 0
    assert checks.failed == 0


@pytest.mark.parametrize("mode", ["evolution", "adaptive-belief", "delta-sweep"])
def test_wrappers_are_transparent_for_sim(tmp_path, mode):
    doc = dict(TINY_DOC, mode=mode)
    if mode == "delta-sweep":
        doc["delta_grid"] = [0.3, 0.7]
    w = W.SimWorkload("tiny", doc)
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain = w.run(None, 5, plain_dir)
    rec = tracing.Recorder()
    with tracing.traced(rec, W.LAYERS):
        traced = w.run(None, 5, traced_dir)
    assert w.same_output(plain, traced)
    for path in plain_dir.iterdir():
        assert path.read_bytes() == (traced_dir / path.name).read_bytes()
    checks = W.Checks()
    w.check(None, 5, traced, traced_dir, checks)
    rows = tracing.summarize(rec)
    runs = len(doc.get("delta_grid", [0]))
    assert rows["sim.run_experiment"]["calls"] == 1
    assert rows["sim.run_evolution"]["calls"] == runs
    assert rows["sim.run_period"]["calls"] == 300 * runs
    wall = tracing.root_total(rec)
    W.layer_metrics(rec, rec.absent, {"units": 1, "wall_s": wall, "periods": 300 * runs}, checks)
    assert checks.failures == []


def test_wrappers_are_transparent_for_chain():
    w = W.WORKLOADS["chain-n16"]
    norm = W.norms.norm_from_dict(dict(w.config, N=4))
    original = W.chain.stationary_distribution
    plain = w.run(norm, 7, None)
    rec = tracing.Recorder()
    with tracing.traced(rec, W.LAYERS):
        traced = w.run(norm, 7, None)
    assert w.same_output(plain, traced)
    rows = tracing.summarize(rec)
    assert rows["chain.build_transition_matrix"]["calls"] == len(W.chain.DEFAULT_EPS_LADDER) + 1
    assert rows["chain.build_transition_matrix"]["states"] == 35
    assert W.chain.stationary_distribution is original


def test_benchmark_json_names_the_metrics_the_run_emits():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    emitted = [(m, u) for m, u, _, _ in W.LAYER_METRICS] + list(W.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == emitted
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    assert set(end_to_end) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-n16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(monkeypatch, trace):
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {m["name"]: [1.5, m["unit"]] for m in bench["per_layer"]}
    body = {"ready": 1.0, "walls": [0.5, 0.7], "periods": 4000, "peak_rss_mb": 80.0,
            "layers": layers, "attempted": 12, "failed": 0, "env": {}}
    monkeypatch.setattr(run, "call_worker", lambda argv, deadline: (body, 0.25))
    result = run.run_workload(bench, "evolution-n500", 3, 1.0, trace)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and type(result["failed"]) is int
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_result_line_reads_absent_layers_as_zero(monkeypatch):
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {m["name"]: [1.5, m["unit"]] for m in bench["per_layer"]}
    layers["sim.run_adaptation.share"] = [None, "frac"]
    del layers["sim.run_period.share"]
    body = {"ready": 1.0, "layers": layers, "attempted": 4, "failed": 0, "env": {}}
    monkeypatch.setattr(run, "call_worker", lambda argv, deadline: (body, 0.25))
    out = run.run_workload(bench, "evolution-n500", 3, 1.0, 1)
    assert out["absent"] == ["sim.run_adaptation.share", "sim.run_period.share"]
    assert out["result"]["metrics"]["sim.run_adaptation.share"] == {"value": 0.0, "unit": "frac"}
    assert out["result"]["correct"] is True
